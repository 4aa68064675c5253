"""fedvi benchmark: one workload, one seed, one measurement run.

Usage (from the repository root):

    python3 perfbench/run.py --workload stochastic-lesgd --seed 1 \
        --seconds 20 --trace 0

It imports fedvi from ``src/`` of the checkout it sits in and drives it
only through public calls.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` measures the per-layer metrics
(traced passes, untraced passes for the overhead, micro-timings) and
writes the spans to ``perfbench/out/``.  Every pass is checked for
correctness.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and
failed count sweep runs.  See perfbench/README.md for the workloads and
what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

FRESH_PROCESSES = 11    # set-up samples; the last one also runs a pass
MIN_PASSES = 5
TRACED_SHARE = 0.7      # of --seconds spent on traced/untraced pass cycles


def load_fedvi() -> None:
    """Import fedvi from this checkout's src/, never from anywhere else."""
    if not (SRC / "fedvi" / "__init__.py").is_file():
        sys.exit(f"error: no fedvi sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fedvi
    if SRC not in Path(fedvi.__file__).resolve().parents:
        sys.exit(f"error: fedvi imported from {fedvi.__file__}, not {SRC}")


class Checker:
    """Correctness of every pass, counted per sweep run.

    A run fails when its rows are missing, a gap is not finite, an
    affine restricted gap is not certified, or its CSV lines differ
    from the first pass checked (a pass at another worker count
    included).  A pass that raises fails all of its runs.  A run fails
    at most once per pass, so ``failed <= attempted``.
    """

    def __init__(self, cfg):
        from fedvi.harness import build_problem
        self.specs = cfg.expand_runs()
        self.records = []
        for spec in self.specs:
            K, R = spec["K"], spec["R"]
            cadence = (cfg.log_every or max(1, R // 20)) * K
            self.records.append(math.ceil(K * R / cadence))
        composite = (cfg.algorithm["id"] == "lda" and
                     cfg.regularizer.kind != "zero")
        self.certify = build_problem(cfg).is_affine and not composite
        self.reference: list[str] | None = None
        self.passes = 0
        self._failed: set[tuple[int, int]] = set()
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return self.passes * len(self.specs)

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def steps(self) -> int:
        """Simulated client local steps per pass: sum of M*K*R."""
        return sum(s["M"] * s["K"] * s["R"] for s in self.specs)

    def flag(self, problem: str, run: int | None = None) -> None:
        """Fail one run of the latest pass, or all of them."""
        runs = range(len(self.specs)) if run is None else [run]
        self._failed.update((self.passes, r) for r in runs)
        if len(self.problems) < 20:
            self.problems.append(problem)

    def raised(self, exc: Exception) -> None:
        self.passes += 1
        self.flag(f"pass raised {exc!r}")

    def check(self, rows, csv_text: str) -> None:
        self.passes += 1
        lines = csv_text.splitlines()[1:]
        if len(rows) != sum(self.records) or len(lines) != len(rows):
            self.flag(f"{len(rows)} rows, {len(lines)} CSV lines, expected "
                      f"{sum(self.records)}")
            return
        if self.reference is None:
            self.reference = lines
        start = 0
        for i, (spec, n) in enumerate(zip(self.specs, self.records)):
            chunk = rows[start:start + n]
            bad = [r for r in chunk if not math.isfinite(r.gap_value)]
            if self.certify:
                bad += [r for r in chunk if not r.gap_certified]
            if bad:
                self.flag(f"run {spec}: {len(bad)} non-finite or "
                          "uncertified gaps", i)
            elif lines[start:start + n] != self.reference[start:start + n]:
                self.flag(f"run {spec}: CSV differs from the first pass", i)
            start += n


def one_pass(harness, cfg, workers: int, checker: Checker) -> float | None:
    """Time run_experiment through rows_to_csv; None when the pass raised."""
    try:
        t0 = perf_counter()
        rows = harness.run_experiment(cfg, workers=workers)
        csv_text = harness.rows_to_csv(rows)
        elapsed = perf_counter() - t0
    except Exception as exc:  # a broken program must be reported, not crash
        checker.raised(exc)
        return None
    checker.check(rows, csv_text)
    return elapsed


def fresh_process(workload: str, seed: int, with_pass: bool) -> dict:
    cmd = [sys.executable, str(HERE / "fresh.py"), workload, str(seed)]
    # Set-up is timed with bytecode caching on, as an installed package runs.
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    done = subprocess.run(cmd + (["--pass"] if with_pass else []),
                          capture_output=True, text=True, timeout=150,
                          check=True, cwd=ROOT, env=env)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(xs: list[float]) -> str:
    q = statistics.quantiles(xs, n=4)
    return f"n={len(xs)} q1={q[0]:.4f} median={q[1]:.4f} q3={q[2]:.4f}"


def measure(workload, seed: int, seconds: float) -> tuple[Checker, dict]:
    """End-to-end metrics, tracing off, in reference-speed seconds."""
    from fedvi import harness
    fresh = [fresh_process(workload.name, seed, i == FRESH_PROCESSES - 1)
             for i in range(FRESH_PROCESSES)]
    setups = [f["setup_s"] for f in fresh]
    setup = speed.REFERENCE_S[1] * statistics.median(
        f["setup_s"] / f["kernel_s"] for f in fresh)
    threads = workload.workers
    speed.kernel_seconds(threads)   # first call pays one-off numpy set-up
    cfg = harness.ExperimentConfig.from_dict(workload.config(seed))
    checker = Checker(cfg)
    # Warm-up at one worker: also the reference the sweep-2workers CSV
    # has to match.
    one_pass(harness, cfg, 1, checker)
    times, kernel, start = [], [speed.kernel_seconds(threads)], perf_counter()
    while len(times) < MIN_PASSES or perf_counter() - start < seconds:
        times.append(one_pass(harness, cfg, workload.workers, checker))
        kernel.append(speed.kernel_seconds(threads))
    if times.count(None) == len(times):
        sys.exit(f"error: every pass raised: {checker.problems}")
    wall = speed.scaled_median(times, kernel, threads)
    print(f"pass time, raw (s): {quartiles([t for t in times if t])}")
    print(f"calibration kernel next to passes (s): {quartiles(kernel)}")
    print(f"set-up time, raw (s): {quartiles(setups)}")
    print(f"calibration kernel after set-ups (s): "
          f"{quartiles([f['kernel_s'] for f in fresh])}")
    return checker, {
        "wall_s": (wall, "s"),
        "client_steps_per_s": (checker.steps / wall, "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (fresh[-1]["peak_rss_mb"], "MB"),
    }


def measure_traced(workload, seed: int, seconds: float
                   ) -> tuple[Checker, dict, list[dict]]:
    """Per-layer metrics: alternating untraced, traced and other-worker
    passes, then micro-timings of the public functions."""
    from fedvi import harness
    from micro import micro_timings
    from tracing import Tracer, analyse
    config = workload.config(seed)
    cfg = harness.ExperimentConfig.from_dict(config)
    checker = Checker(cfg)
    tracer = Tracer()
    other = 1 if workload.workers > 1 else 2
    plain, traced, other_times = [], [], []
    counts, times = [], []
    one_pass(harness, cfg, workload.workers, checker)
    kernel, start = [speed.kernel_seconds(workload.workers)], perf_counter()
    while len(traced) < 2 or perf_counter() - start < TRACED_SHARE * seconds:
        kernel.append(speed.kernel_seconds(workload.workers))
        plain.append(one_pass(harness, cfg, workload.workers, checker))
        with tracer, tracer.pass_span(len(traced)):
            traced.append(one_pass(harness, cfg, workload.workers, checker))
        c, t, mismatches = analyse(*tracer.collect())
        for problem in mismatches:
            checker.flag(problem)
        counts.append(c)
        times.append(t)
        other_times.append(one_pass(harness, cfg, other, checker))
    if None in plain + traced + other_times:
        sys.exit(f"error: a pass raised: {checker.problems}")
    for i, c in enumerate(counts[1:], 1):
        if c != counts[0]:
            checker.flag(f"traced pass {i} counts {c} != pass 0 {counts[0]}")
    micro_kernel = [speed.kernel_seconds()]
    micro = micro_timings(config, seed)
    micro_kernel.append(speed.kernel_seconds())
    # Timings are in reference-speed units, like the end-to-end metrics;
    # micro-timings run on one thread.  Counts and same-cycle ratios
    # need no scaling.
    scale = speed.REFERENCE_S[workload.workers] / statistics.median(kernel)
    metrics = {name: (value, "count") for name, value in counts[0].items()}
    for name in times[0]:
        metrics[name] = (scale * statistics.median(t[name] for t in times),
                         name.rsplit("_", 1)[1])
    micro_scale = speed.REFERENCE_S[1] / statistics.mean(micro_kernel)
    for name, value in micro.items():
        metrics[name] = (micro_scale * value, name.rsplit("_", 1)[1])
    one, two = ((other_times, plain) if workload.workers > 1
                else (plain, other_times))
    metrics["harness.speedup_2w"] = (
        statistics.median(a / b for a, b in zip(one, two)), "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(a / b for a, b in zip(traced, plain)) - 1.0, "ratio")
    print(f"untraced pass (s): {quartiles(plain)}")
    print(f"traced pass (s): {quartiles(traced)}")
    print(f"workers={other} pass (s): {quartiles(other_times)}")
    print(f"calibration kernel (s): {quartiles(kernel)}")
    return checker, metrics, tracer.spans


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    load_fedvi()
    workload = WORKLOADS[args.workload]
    if args.trace:
        checker, metrics, spans = measure_traced(workload, args.seed,
                                                 args.seconds)
        metrics["failed_run_frac"] = (checker.failed / checker.attempted,
                                      "ratio")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with open(out / f"spans-{workload.name}-{args.seed}.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    else:
        checker, metrics = measure(workload, args.seed, args.seconds)
    for problem in checker.problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
