"""Benchmark-side tracing of fedvi's public entry points.

:class:`Tracer` rebinds public functions in every loaded ``fedvi``
module (and ``RngStream.at`` on its class) to timing wrappers, and puts
the originals back on exit.  Layer boundaries that run a handful of
times per pass record spans (name, start, end, parent, run id); hot
boundaries called tens of thousands of times per pass only add to
per-thread (run id, name) -> [count, busy seconds] tallies, so the
overhead stays small and no lock sits on the hot path.

A sweep run starts when the harness calls ``build_problem`` for it;
every span and tally on that thread until the next ``build_problem``
carries the same run id.  A span's ``child_s`` is the time covered by
same-thread child spans plus the outermost hot calls made inside it.
Spans stay in memory until the benchmark writes them out.
:func:`analyse` turns one pass's spans and tallies into per-layer
counts and timings, and checks the counts against the algorithms.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

from fedvi import algorithms, gaps, harness, oracles, operators, regularizers
from fedvi.algorithms import default_inner_steps
from fedvi.rng import RngStream

RUNNERS = ("run_lesgd", "run_lippax", "run_slippax", "run_lsgd", "run_lda",
           "run_lesgd_hetero")
EXTRA_GRADIENT = ("run_lesgd", "run_lda", "run_lesgd_hetero")
GAPS = ("restricted_gap", "composite_gap")


def _rows(args) -> int:
    """Client query points in a sample_oracle call: batch rows count one each."""
    z = args[1]
    return z.shape[0] if z.ndim == 2 else 1


def _runner_attrs(args) -> dict:
    cfg, oracle = args[-1], args[0]
    oracle = oracle[0] if isinstance(oracle, (list, tuple)) else oracle
    return {"M": cfg.M, "K": cfg.K, "R": cfg.R, "H": cfg.H,
            "stochastic": oracle.sigma > 0 and oracle.noise_model != "none"}


def _new_tally():
    return defaultdict(lambda: [0, 0.0])


class _ThreadState:
    def __init__(self):
        self.stack: list[dict] = []
        self.hot_depth = 0
        self.run: int | None = None
        self.tally = _new_tally()


class Tracer:
    """Context manager that traces fedvi while active."""

    def __init__(self):
        self.spans: list[dict] = []
        self._collected = 0
        self._ids = itertools.count(1)
        self._run_ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._restore: list[tuple] = []
        self._root: int | None = None

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    # -- spans -------------------------------------------------------------
    def _open(self, name: str, **attrs) -> dict:
        st = self._state()
        parent = st.stack[-1]["id"] if st.stack else self._root
        span = {"name": name, "id": next(self._ids), "parent": parent,
                "run": st.run, "start": perf_counter(), "end": None,
                "child_s": 0.0, **attrs}
        st.stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        st = self._state()
        span["end"] = perf_counter()
        st.stack.pop()
        if st.stack:
            st.stack[-1]["child_s"] += span["end"] - span["start"]
        self.spans.append(span)

    @contextlib.contextmanager
    def pass_span(self, index: int):
        """Root span of one pass; worker-thread spans hang off it."""
        st = self._state()
        st.run = None
        span = self._open("harness.pass", index=index)
        self._root = span["id"]
        try:
            yield span
        finally:
            st.run = None
            self._close(span)
            self._root = None

    def collect(self) -> tuple[list[dict], dict]:
        """Spans recorded since the last call, and every thread's tallies
        merged into (run id, name) -> [count, busy seconds]."""
        spans = self.spans[self._collected:]
        self._collected = len(self.spans)
        out = _new_tally()
        with self._lock:
            states = list(self._states)
        for st in states:
            tally, st.tally = st.tally, _new_tally()
            for key, (n, busy) in tally.items():
                out[key][0] += n
                out[key][1] += busy
        return spans, out

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, name, fn, attrs=None, starts_run=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_run:
                tracer._state().run = next(tracer._run_ids)
            span = tracer._open(name, **(attrs(args) if attrs else {}))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)
        return wrapper

    def _hot_wrapper(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            st.hot_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st.hot_depth -= 1
                cell = st.tally[(st.run, name)]
                cell[0] += count(args) if count else 1
                cell[1] += dt
                if st.hot_depth == 0 and st.stack:
                    st.stack[-1]["child_s"] += dt
        return wrapper

    def _rebind(self, fn, wrapper) -> None:
        """Point every fedvi-module binding of ``fn`` at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if modname != "fedvi" and not modname.startswith("fedvi."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def __enter__(self) -> "Tracer":
        at = RngStream.at
        self._restore.append((RngStream, "at", at))
        RngStream.at = self._hot_wrapper("rng.at", at)
        for fn, name, count in (
                (oracles.sample_oracle, "oracles.sample_oracle", _rows),
                (operators.op_jacobian, "operators.op_jacobian", None),
                (regularizers.prox, "regularizers.prox", None),
                (regularizers.mirror_map, "regularizers.mirror_map", None)):
            self._rebind(fn, self._hot_wrapper(name, fn, count))
        self._rebind(harness.build_problem, self._span_wrapper(
            "harness.build_problem", harness.build_problem, starts_run=True))
        for name in RUNNERS:
            fn = getattr(algorithms, name)
            self._rebind(fn, self._span_wrapper(
                f"algorithms.{name}", fn, attrs=_runner_attrs))
        for name in GAPS:
            fn = getattr(gaps, name)
            self._rebind(fn, self._span_wrapper(f"gaps.{name}", fn))
        self._rebind(harness.rows_to_csv, self._span_wrapper(
            "harness.rows_to_csv", harness.rows_to_csv))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def expected_queries(span: dict) -> int | None:
    """Oracle query points one runner call must make, from the theory."""
    mkr = span["M"] * span["K"] * span["R"]
    runner = span["name"].split(".", 1)[1]
    if runner in EXTRA_GRADIENT:
        return 2 * mkr
    if runner == "run_lippax":
        H = span["H"] if span["H"] is not None else default_inner_steps(
            span["K"], span["R"])
        return mkr * (H + 1)
    return None


def analyse(spans: list[dict], tallies: dict
            ) -> tuple[dict, dict, list[str]]:
    """Exact counts, layer timings and count mismatches of one traced pass.

    A runner call must make exactly the oracle queries its algorithm
    prescribes, and draw on as many RNG paths when it is stochastic.
    """
    by_id = {s["id"]: s for s in spans}
    root = next(s for s in spans if s["name"] == "harness.pass")
    runners = [s for s in spans if s["name"].startswith("algorithms.")]
    gap_spans = [s for s in spans if s["name"].startswith("gaps.") and
                 not by_id.get(s["parent"], {"name": ""})["name"]
                 .startswith("gaps.")]
    csv = [s for s in spans if s["name"] == "harness.rows_to_csv"]

    def total(name: str, field: int = 0):
        return sum(v[field] for (run, n), v in tallies.items() if n == name)

    mismatches = []
    for span in runners:
        want = expected_queries(span)
        got_q = tallies.get((span["run"], "oracles.sample_oracle"), [0])[0]
        got_rng = tallies.get((span["run"], "rng.at"), [0])[0]
        if want is None:
            continue
        want_rng = want if span["stochastic"] else 0
        if (got_q, got_rng) != (want, want_rng):
            mismatches.append(
                f"{span['name']} M={span['M']} K={span['K']} R={span['R']}: "
                f"{got_q} queries and {got_rng} RNG paths, expected {want} "
                f"and {want_rng}")

    def dur(s):
        return s["end"] - s["start"]

    runner_s = sum(dur(s) for s in runners)
    steps = sum(s["M"] * s["K"] * s["R"] for s in runners)
    blocking = [(s["start"], s["end"]) for s in runners + gap_spans + csv]
    counts = {
        "rng.at_calls": total("rng.at"),
        "oracles.queries": total("oracles.sample_oracle"),
        "operators.jacobian_calls": total("operators.op_jacobian"),
        "gaps.calls": len(gap_spans),
        "regularizers.prox_calls": total("regularizers.prox"),
    }
    times = {
        "rng.busy_s": total("rng.at", 1),
        "oracles.busy_s": total("oracles.sample_oracle", 1),
        "algorithms.runner_s": runner_s,
        "algorithms.self_s": sum(dur(s) - s["child_s"] for s in runners),
        "algorithms.step_us": runner_s / steps * 1e6,
        "gaps.busy_s": sum(dur(s) for s in gap_spans),
        "harness.csv_ms": sum(dur(s) for s in csv) * 1e3,
        "harness.self_s": dur(root) - covered(blocking),
    }
    return counts, times, mismatches
