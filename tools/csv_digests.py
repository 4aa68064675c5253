"""Print one ``name sha256`` line per fedvi CSV, to compare two trees.

Usage (from the repository root):

    python tools/csv_digests.py [SRC]

The 40 CSVs are the six ``configs/*.json`` (their ``output`` field
dropped, so nothing is written), every workload of
``perfbench/workloads.py`` at seeds 1-3, and the twenty-two small
``EXTRA`` configs below, which reach the algorithms, schedules, noise
models, operators, sweeps, configured step sizes, gap branches,
shared draw-free trajectories, signed zeros and ragged stacks those
leave out (``affine3.txt`` is the ``problem.file`` one reads); each is the
``rows_to_csv`` text of one ``run_experiment`` call.  fedvi is imported
from SRC, by default this checkout's ``src/``; the configs, workloads
and matrix file are always read from this checkout.  Running it on two
trees and diffing the outputs shows whether a change keeps every CSV
byte.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def _extra(problem: dict, algorithm: dict, M: int, K: int, R: int,
           sigma: float, model: str = "gaussian-isotropic",
           **fields) -> dict:
    return dict({"problem": problem, "algorithm": algorithm,
                 "federation": {"M": M, "K": K, "R": R},
                 "noise": {"sigma": sigma, "model": model},
                 "seeds": [0, 1]}, **fields)


_HETERO = {"kind": "affine", "dim": 4, "seed": 5,
           "hetero": {"offset_scale": 0.3}}
_NONLINEAR = {"kind": "bounded-nonlinear", "dim": 4, "seed": 2}
_BILINEAR = {"kind": "bilinear-saddle", "dim": 4, "seed": 9}
_SIGNED_ZEROS = [-0.0, 0.4, -0.0, -0.3]
EXTRA = {
    "lesgd-hetero-T8": _extra(_HETERO, {"id": "lesgd-hetero",
                                        "schedule": "T8"}, 3, 4, 10, 0.5),
    "lesgd-hetero-eta": _extra(_HETERO, {"id": "lesgd-hetero", "eta": 0.05},
                               3, 4, 10, 0.5),
    "slippax-T5-sqrt-d": _extra(_NONLINEAR, {
        "id": "slippax", "schedule": "T5", "delta_rule": "sqrt-d"},
        2, 3, 8, 1.0, log_every=4),
    "slippax-T5-fourth-root-d": _extra(_NONLINEAR, {
        "id": "slippax", "schedule": "T5", "delta_rule": "fourth-root-d"},
        2, 3, 8, 1.0, log_every=4),
    "lippax-T4": _extra(_NONLINEAR, {"id": "lippax", "schedule": "T4"},
                        2, 2, 6, 0.5, log_every=3),
    "lippax-T3-affine": _extra(
        {"kind": "affine", "dim": 5, "seed": 7},
        {"id": "lippax", "schedule": "T3"}, 2, 4, 10, 0.3),
    "lsgd-T6-uniform": _extra(
        {"kind": "quadratic-gradient", "dim": 4, "seed": 1},
        {"id": "lsgd", "schedule": "T6"}, 4, 4, 10, 1.0, "bounded-uniform"),
    "lda-T7-box": _extra(
        {"kind": "bilinear-saddle", "dim": 4, "seed": 9},
        {"id": "lda", "schedule": "T7"}, 2, 4, 10, 0.2, gap={"D": 2.0},
        regularizer={"kind": "box-indicator", "lo": -1.0, "hi": 1.0}),
    "lesgd-T2-z0-center": _extra(
        {"kind": "affine", "dim": 3, "seed": 6},
        {"id": "lesgd", "schedule": "T2"}, 2, 4, 10, 0.5,
        z0=[0.5, -0.5, 1.0], gap={"D": 1.0, "center": [1.0, 0.0, 0.0]}),
    "lesgd-T1-skew": _extra({"kind": "skew", "dim": 4, "seed": 3},
                            {"id": "lesgd", "schedule": "T1"}, 2, 4, 10, 0.5),
    "lesgd-T2-file": _extra(
        {"kind": "affine", "file": str(ROOT / "tools" / "affine3.txt")},
        {"id": "lesgd", "schedule": "T2"}, 2, 4, 10, 0.5, gap={"D": 2.0}),
    "lesgd-T1-sweep-sigma": _extra(
        {"kind": "affine", "dim": 3, "seed": 4},
        {"id": "lesgd", "schedule": "T1"}, 2, 4, 10, 0.0,
        sweep={"sigma": [0.0, 0.3, 1.0]}),
    "lippax-eta-H-gamma": _extra(
        _NONLINEAR, {"id": "lippax", "eta": 0.2, "H": 3, "gamma": 0.1},
        2, 3, 6, 0.5, log_every=2),
    "slippax-eta-delta": _extra(
        _NONLINEAR, {"id": "slippax", "eta": 0.2, "delta": 0.05},
        2, 3, 6, 0.5, log_every=2),
    "lda-l1-nonlinear": _extra(
        _NONLINEAR, {"id": "lda", "eta": 0.1}, 2, 4, 6, 0.3,
        regularizer={"kind": "l1", "lam": 0.2}, log_every=2),
    "lesgd-quadratic-interior": _extra(
        {"kind": "quadratic-gradient", "dim": 4, "seed": 1},
        {"id": "lesgd", "eta": 0.1}, 2, 4, 10, 0.5, gap={"D": 50.0}),
    # draw-free R sweeps whose runs record at different steps: R = 20
    # and R = 40 diverge, at steps 22 and 24
    "lesgd-R-sweep-diverging": _extra(
        {"kind": "affine", "dim": 2, "seed": 3, "params": {"L": 1.0}},
        {"id": "lesgd", "eta": 2.5}, 2, 2, 5, 0.0,
        sweep={"R": [5, 20, 40]}),
    "lippax-R-sweep-H-gamma": _extra(
        _NONLINEAR, {"id": "lippax", "eta": 0.2, "H": 3, "gamma": 0.1},
        2, 3, 3, 0.0, sweep={"R": [3, 8, 40]}),
    # draw-free LDA from a z0 with -0.0 entries: the identity mirror map
    # at t = 1, the sync means over three clients and the signs of zeros
    # that each prox kind leaves
    "lda-l1-signed-zeros": _extra(
        _BILINEAR, {"id": "lda", "eta": 0.2}, 3, 4, 6, 0.0,
        regularizer={"kind": "l1", "lam": 0.3}, z0=_SIGNED_ZEROS,
        log_every=1),
    "lda-box-signed-zeros": _extra(
        _BILINEAR, {"id": "lda", "eta": 0.2}, 3, 4, 6, 0.0,
        regularizer={"kind": "box-indicator", "lo": -0.25, "hi": 0.25},
        z0=_SIGNED_ZEROS, log_every=1),
    # ragged stacks of M = 1 and M > 1 runs: the draw-free M = 1 and M = 3
    # groups from signed zeros are one stack [1, 3], and the four
    # stochastic runs one stack [1, 1, 2, 2]
    "lda-l1-signed-zeros-M-sweep": _extra(
        _BILINEAR, {"id": "lda", "eta": 0.2}, 3, 4, 6, 0.0,
        regularizer={"kind": "l1", "lam": 0.3}, z0=_SIGNED_ZEROS,
        log_every=1, sweep={"M": [1, 3]}),
    "lesgd-T1-M-sweep": _extra(
        {"kind": "affine", "dim": 3, "seed": 4},
        {"id": "lesgd", "schedule": "T1"}, 2, 4, 10, 0.5,
        sweep={"M": [1, 2]}),
}


def load_fedvi(src: Path):
    """fedvi's harness, imported from src and from nowhere else."""
    if not (src / "fedvi" / "__init__.py").is_file():
        sys.exit(f"error: no fedvi sources under {src}")
    sys.path.insert(0, str(src))
    import fedvi
    if src not in Path(fedvi.__file__).resolve().parents:
        sys.exit(f"error: fedvi imported from {fedvi.__file__}, not {src}")
    from fedvi import harness
    return harness


def configs() -> list[tuple[str, dict]]:
    """Every experiment config the digests cover, named, in print order."""
    named = []
    for path in sorted((ROOT / "configs").glob("*.json")):
        tree = json.loads(path.read_text())
        tree.pop("output", None)
        named.append((f"configs/{path.name}", tree))
    sys.path.append(str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    for name, workload in WORKLOADS.items():
        named += [(f"{name}@{seed}", workload.config(seed)) for seed in SEEDS]
    return named + list(EXTRA.items())


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.exit(f"usage: {Path(__file__).name} [SRC]")
    src = Path(argv[0] if argv else ROOT / "src").resolve()
    harness = load_fedvi(src)
    for name, tree in configs():
        text = harness.rows_to_csv(harness.run_experiment(tree))
        print(name, hashlib.sha256(text.encode()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
