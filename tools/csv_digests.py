"""Print one ``name sha256`` line per fedvi CSV, to compare two trees.

Usage (from the repository root):

    python tools/csv_digests.py [SRC]

The 15 CSVs are the three ``configs/*.json`` (their ``output`` field
dropped, so nothing is written) and every workload of
``perfbench/workloads.py`` at seeds 1-3, each the ``rows_to_csv`` text
of one ``run_experiment`` call.  fedvi is imported from SRC, by default
this checkout's ``src/``; the configs and workloads are always read from
this checkout.  Running it on two trees and diffing the outputs shows
whether a change keeps every CSV byte.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


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
    return named


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
