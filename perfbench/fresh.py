"""Set-up time and peak memory of a fresh interpreter.

Usage: python3 perfbench/fresh.py <workload> <seed> [--pass]

Times ``import fedvi``, ``ExperimentConfig.from_dict`` and
``build_problem`` for the workload, then the calibration kernel of
``speed`` in the same process; with ``--pass`` it then runs one pass
and reports the process's peak resident set.  Prints one JSON line.
"""

import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    workload = WORKLOADS[sys.argv[1]]
    config = workload.config(int(sys.argv[2]))
    t0 = time.perf_counter()
    from fedvi.harness import (ExperimentConfig, build_problem, rows_to_csv,
                               run_experiment)
    cfg = ExperimentConfig.from_dict(config)
    build_problem(cfg)
    out = {"setup_s": time.perf_counter() - t0}
    import speed    # after the timed set-up: it imports numpy
    speed.kernel_seconds()   # the first call pays one-off numpy set-up
    out["kernel_s"] = speed.kernel_seconds()
    if "--pass" in sys.argv[3:]:
        rows_to_csv(run_experiment(cfg, workers=workload.workers))
        # ru_maxrss is in KiB on Linux
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
