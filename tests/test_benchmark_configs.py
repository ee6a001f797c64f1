"""The benchmark's configs parse and build their pairs.

``perfbench`` reads each config in ``perfbench/configs`` with
``parse_config`` and builds its pools with ``build_pair``; a change to the
config layer that drops a key those files set fails here.
"""

import glob
import os

import pytest

from acda.experiments import build_pair, parse_config
from acda.seeding import derive_seed

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "configs")
CONFIGS = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))


def test_benchmark_configs_found():
    assert {"moons-run.cfg", "gauss-wide.cfg"} <= {os.path.basename(p) for p in CONFIGS}


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_benchmark_config_builds_its_seed_1_pair(path):
    config = parse_config(path)
    pair = build_pair(config.dataset, derive_seed(1, "data"))
    assert len(pair.source) == config.dataset["n_source"]
    assert len(pair.target) == config.dataset["n_target"]
    assert pair.target.labels is not None
