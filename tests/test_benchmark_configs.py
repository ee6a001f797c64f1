"""What the benchmark reads of acda.

``perfbench`` reads each config in ``perfbench/configs`` with
``parse_config`` and builds its pools with ``build_pair``; a change to the
config layer that drops a key those files set fails here.  Its traced run
wraps the callables that ``perfbench/layers.py`` names in ``LAYERS`` and
tells critic from model evaluations by the leaves ``xhat`` and ``xs_cls``;
a refactor that renames either fails here, not in a traced run.  Its
checks (``perfbench/checks.py``) read the run JSON and ``metrics.csv`` by
key; a renamed record field fails here too.
"""

import ast
import glob
import importlib.util
import json
import os

import pytest

import acda.acda as algorithm
import acda.autodiff as autodiff
from acda.acda import TrainConfig, _StepGraphs, stage1_train
from acda.data import gen_two_moons_pair
from acda.experiments import _pools_for_run, build_pair, parse_config, run_experiment
from acda.nets import (default_classifier_spec, default_critic_spec, default_feature_spec,
                       init_network)
from acda.seeding import derive_seed

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
CONFIG_DIR = os.path.join(PERFBENCH, "configs")
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


def _traced_keys():
    """The keys of ``LAYERS``, read from the source without importing perfbench."""
    with open(os.path.join(PERFBENCH, "layers.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/layers.py assigns no LAYERS")


def _resolves(key):
    module, qualname = key.split(":")
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return callable(obj)


def test_every_traced_callable_exists():
    keys = _traced_keys()
    assert "acda.acda:_adversarial_fit" in keys
    assert [key for key in keys if not _resolves(key)] == []


def test_step_graphs_carry_the_leaves_that_tell_critic_from_model():
    specs = {"F": default_feature_spec(2), "C": default_classifier_spec(2),
             "D": default_critic_spec()}
    sg = _StepGraphs((40, 30, 40, 7), specs)
    assert "xhat" in sg.critic.graph.leaves and "xs_cls" not in sg.critic.graph.leaves
    assert "xs_cls" in sg.model.graph.leaves and "xhat" not in sg.model.graph.leaves


def test_a_training_stage_evaluates_only_critic_and_model_graphs(monkeypatch):
    kinds = []
    real_eval = autodiff.forward_eval

    def spy(graph, bindings, outputs=None):
        leaves = graph.leaves
        kinds.append("critic" if "xhat" in leaves else "model" if "xs_cls" in leaves else "other")
        return real_eval(graph, bindings, outputs)

    monkeypatch.setattr(autodiff, "forward_eval", spy)
    pair = gen_two_moons_pair(40, 40, 30.0, 0.1, 0.0, seed=1)
    nets = {name: init_network(spec, seed) for seed, (name, spec) in enumerate(
        (("F", default_feature_spec(2)), ("C", default_classifier_spec(2)),
         ("D", default_critic_spec())))}
    stage1_train(nets, pair.source, pair.target,
                 TrainConfig(stage1_epochs=1, batch_size=20), seed=3)
    assert kinds.count("model") == 2
    assert kinds.count("critic") == 2 * algorithm.CRITIC_STEPS
    assert "other" not in kinds


def _perfbench_checks():
    """``perfbench/checks.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  os.path.join(PERFBENCH, "checks.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_an_active_run_passes_the_benchmark_checks(tmp_path):
    checks = _perfbench_checks()
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("""
budget = 0.1
query_rounds = 3
stage1_epochs = 2
stage3_epochs = 2
batch_size = 40
strategy = active
seeds = 1,2
dataset.kind = two_moons
dataset.n_source = 120
dataset.n_target = 120
""", encoding="utf-8")
    config = parse_config(str(cfg_path))
    out = str(tmp_path / "out")
    assert run_experiment(config, out_dir=out) == 0
    train = {name: getattr(config.train, name) for name in
             ("budget", "lambda_div", "query_rounds", "stage1_epochs", "stage3_epochs")}
    for seed in config.seeds:
        with open(os.path.join(out, f"run-active-seed{seed}.json"), encoding="utf-8") as fh:
            record = json.load(fh)
        _, target = _pools_for_run(config, seed)
        assert checks.check_record(record, train, target.labels) == []
    assert checks.check_metrics_csv(os.path.join(out, "metrics.csv"), train,
                                    config.seeds) == []
