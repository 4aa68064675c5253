"""Every CSV that tools/csv_digests.py covers keeps its recorded bytes.

``csv_digests.txt`` holds one ``name sha256`` line per config, as
``python tools/csv_digests.py`` prints them.  A change that moves a CSV
on purpose regenerates the file with that command and says so.
"""

import hashlib
import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from csv_digests import configs
from fedvi import DivergenceWarning, GapBallWarning
from fedvi.harness import rows_to_csv, run_experiment

RECORDED = dict(line.split() for line in (
    Path(__file__).parent / "csv_digests.txt").read_text().splitlines())
CONFIGS = configs()


def test_every_config_has_one_recorded_digest():
    assert [name for name, _ in CONFIGS] == list(RECORDED)


@pytest.mark.parametrize("name,tree", CONFIGS,
                         ids=[name for name, _ in CONFIGS])
def test_csv_matches_its_recorded_digest(name, tree):
    with warnings.catch_warnings():
        # lesgd-R-sweep-diverging's runs warn as they should, and so do
        # the configs whose gap ball misses the solution
        warnings.simplefilter("ignore", DivergenceWarning)
        warnings.simplefilter("ignore", GapBallWarning)
        text = rows_to_csv(run_experiment(tree))
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED[name]

