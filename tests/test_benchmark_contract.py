"""The benchmark in perfbench/ drives fedvi through public calls only.

Its tracer rebinds fedvi functions by name and checks the counts it
sees against the algorithms, and its micro-timings call the gap
evaluators with fixed arguments.  This test runs both against the
package as it stands, so a change that breaks the benchmark fails here.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from fedvi.harness import ExperimentConfig, rows_to_csv, run_experiment
from micro import micro_timings
from tracing import Tracer, analyse
from workloads import WORKLOADS


@pytest.mark.filterwarnings("ignore:operator does not declare")
def test_traced_passes_and_micro_timings():
    for name, workload in sorted(WORKLOADS.items()):
        cfg = ExperimentConfig.from_dict(workload.config(1))
        plain = rows_to_csv(run_experiment(cfg, workers=workload.workers))
        tracer = Tracer()
        with tracer, tracer.pass_span(0):
            rows = run_experiment(cfg, workers=workload.workers)
        counts, _, mismatches = analyse(*tracer.collect())
        assert mismatches == [], name
        # composite_gap's nested restricted_gap span is not a gap of its own
        ok = sum(row.status == "ok" for row in rows)
        assert counts["gaps.calls"] == ok, name
        assert rows_to_csv(rows) == plain, name

    timings = micro_timings(WORKLOADS["composite-lda"].config(1), 1)
    assert timings and all(math.isfinite(t) and t > 0
                           for t in timings.values())
