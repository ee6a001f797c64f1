"""The benchmark's output checks pass on real outputs and fail on corrupted ones.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from acda import TrainConfig, experiments, nets, seeding, transport  # noqa: E402
from acda.data import standardize_features  # noqa: E402

SEED = 3
TRAIN = {"budget": 0.1, "lambda_div": 10.0, "query_rounds": 2,
         "stage1_epochs": 3, "stage3_epochs": 2}


@pytest.fixture(scope="module")
def real_run(tmp_path_factory):
    """A small run_experiment output and the target pool it was scored on."""
    out = str(tmp_path_factory.mktemp("run"))
    config = experiments.ExperimentConfig(
        train=TrainConfig(batch_size=64, learning_rate=1e-2, early_stop_patience=100,
                          **TRAIN),
        dataset={"kind": "two_moons", "n_source": 300, "n_target": 300,
                 "rotation_deg": 10.0, "noise_sd": 0.1, "label_flip_rate": 0.0},
        seeds=[SEED])
    assert experiments.run_experiment(config, out_dir=out) == 0
    pair = experiments.build_pair(config.dataset, seeding.derive_seed(SEED, "data"))
    _, tx, _, _ = standardize_features(pair.source.features, pair.target.features)
    return out, {SEED: (tx, pair.target.labels)}


@pytest.fixture
def run_copy(real_run, tmp_path):
    out, pools = real_run
    copy = str(tmp_path / "copy")
    shutil.copytree(out, copy)
    return copy, pools


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _record(out):
    return os.path.join(out, f"run-active-seed{SEED}.json")


def _check(out, pools):
    return checks.check_training_run(out, TRAIN, [SEED], pools)


def test_real_training_output_passes(real_run):
    assert _check(*real_run) == []


def test_checkpoint_reader_matches_the_package(real_run):
    out, _ = real_run
    ours = checks.read_checkpoint(os.path.join(out, f"run-active-seed{SEED}.ckpt"))
    theirs = nets.load_checkpoint(os.path.join(out, f"run-active-seed{SEED}.ckpt"))
    for name, params in theirs.items():
        for (w, b), w2, b2 in zip(ours[name][2], params.weights, params.biases):
            assert np.array_equal(w, w2) and np.array_equal(b, b2)


def test_accuracy_off_by_one_sample_fails(run_copy):
    out, pools = run_copy
    n = len(pools[SEED][1])
    _edit_json(os.path.join(out, "MANIFEST.json"),
               lambda m: m["runs"][0].update(
                   final_target_accuracy=m["runs"][0]["final_target_accuracy"] - 1.0 / n))
    assert any("checkpoint gives target accuracy" in e for e in _check(out, pools))


def test_swapped_query_index_fails(run_copy):
    out, pools = run_copy

    def swap(record):
        query = record["rounds"][0]["query"]
        worst = int(np.argmin(query["combined"]))
        query["indices"][0] = worst

    _edit_json(_record(out), swap)
    assert any("top-" in e for e in _check(out, pools))


def test_requeried_instance_fails(run_copy):
    out, pools = run_copy

    def repeat(record):
        first = record["rounds"][0]["queried_original_indices"]
        record["rounds"][1]["queried_original_indices"][0] = first[0]

    _edit_json(_record(out), repeat)
    assert _check(out, pools)


def test_combined_score_mismatch_fails(run_copy):
    out, pools = run_copy
    _edit_json(_record(out),
               lambda r: r["rounds"][1]["query"]["combined"].__setitem__(0, 1e3))
    assert any("combined" in e for e in _check(out, pools))


def test_alpha_not_a_distribution_fails(run_copy):
    out, pools = run_copy
    _edit_json(_record(out), lambda r: r["rounds"][0]["alpha"].__setitem__(0, -0.5))
    assert any("alpha" in e for e in _check(out, pools))


def test_class_counts_mismatch_fails(run_copy):
    out, pools = run_copy
    _edit_json(_record(out), lambda r: r["rounds"][1]["class_counts"].__setitem__(0, 99))
    assert any("class counts" in e for e in _check(out, pools))


def test_missing_or_nonfinite_metrics_rows_fail(run_copy):
    out, pools = run_copy
    path = os.path.join(out, "metrics.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    assert any("one per epoch" in e for e in _check(out, pools))
    lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any("non-finite" in e for e in _check(out, pools))


def test_accuracy_floor_fails_on_chance_level_model(run_copy):
    out, pools = run_copy
    tx, ty = pools[SEED]
    _edit_json(os.path.join(out, "MANIFEST.json"),
               lambda m: m["runs"][0].update(final_target_accuracy=0.5))
    flipped = {SEED: (tx, np.where(np.arange(ty.size) % 2 == 0, ty, 1 - ty))}
    assert any("below floor" in e for e in _check(out, flipped))


def test_schedule_counts_match_the_criterion_7_configuration():
    counts = checks.expected_query_counts(1000, 0.05, 5)
    assert counts == [10, 10, 10, 10, 10]
    assert checks.model_steps(1000, 1000, 128, counts, 20, 20) == 1020


@pytest.mark.parametrize("m,n,dim", [(16, 16, 2), (12, 16, 3)])
def test_w1_checks(m, n, dim):
    rng = np.random.default_rng(m * n)
    a, b = rng.normal(size=(m, dim)), rng.normal(size=(n, dim)) + 0.5
    value, plan = transport.exact_w1(a, b)
    reference = checks.reference_w1(a, b)
    assert checks.check_w1(a, b, value, plan.coupling, reference) == []
    assert checks.check_w1(a, b, value + 1e-6, plan.coupling, reference)
    bad = plan.coupling.copy()
    bad[0, :] *= 1.5
    assert any("marginal" in e for e in checks.check_w1(a, b, value, bad, reference))
    negative = plan.coupling.copy()
    negative[0, 0] -= 1.0
    assert any("negative" in e for e in checks.check_w1(a, b, value, negative, reference))


def test_tracer_counts_outermost_spans_under_every_import_name():
    import acda.acda
    import layers
    from spans import Tracer

    tracer = Tracer()
    tracer.install(layers.LAYERS, layers.TAGGERS)
    try:
        assert acda.acda.make_rng is seeding.make_rng
        assert hasattr(seeding.make_rng, "__wrapped__")
        seeding.make_rng(1, "x")          # make_rng -> derive_seed, one outermost span
        acda.acda.derive_seed(1, "y")     # the name imported into acda.acda
    finally:
        tracer.uninstall()
    assert not hasattr(acda.acda.make_rng, "__wrapped__")
    derived = tracer.outermost("seeding.derive")
    assert [s.name for s in derived] == ["make_rng", "derive_seed"]
    assert len(tracer.spans) == 3
