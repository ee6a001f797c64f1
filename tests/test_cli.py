"""Tests for config parsing, the experiment harness, and CLI subcommands."""

import json
import os
import pickle
import struct
from dataclasses import replace

import numpy as np
import pytest

from acda.acda import LOSS_NAMES, TrainConfig, _StepGraphs
from acda.cli import main
from acda.errors import ConfigError
from acda.data import load_csv
from acda.experiments import (METRICS_HEADER, METRICS_VERSION_LINE, _pools_for_run,
                              build_pair, parse_config, run_experiment)
from acda.nets import default_classifier_spec, default_critic_spec, default_feature_spec

SMALL_DATASET = """
dataset.kind = two_moons
dataset.n_source = 120
dataset.n_target = 120
dataset.rotation_deg = 30
dataset.noise_sd = 0.1
dataset.label_flip_rate = 0.1
"""

SMALL_TRAIN = """
budget = 0.1
stage1_epochs = 2
stage3_epochs = 2
batch_size = 40
learning_rate = 0.002
"""


def write_cfg(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


# ------------------------------------------------------------ parse_config


def test_empty_config_gets_documented_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "# nothing but a comment\n"))
    assert cfg.train.budget == 0.1
    assert cfg.train.lambda_div == 10.0
    assert cfg.dataset == {"kind": "two_moons", "n_source": 1000, "n_target": 1000,
                           "rotation_deg": 40.0, "noise_sd": 0.1, "label_flip_rate": 0.1}
    assert cfg.seeds == (0,)
    assert cfg.strategies == ("active",)
    assert cfg.standardize is True


def test_config_overrides_and_seed_forms(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
budget = 0.05
lambda_div = 2.5
seeds = 1..4
strategy = random
dataset.kind = gaussian
dataset.n_classes = 3
out_dir = /tmp/somewhere
"""))
    assert cfg.train.budget == 0.05
    assert cfg.train.lambda_div == 2.5
    assert cfg.strategies == ("random",)
    assert cfg.seeds == (1, 2, 3, 4)
    assert cfg.dataset["n_classes"] == 3
    assert cfg.out_dir == "/tmp/somewhere"
    cfg2 = parse_config(write_cfg(tmp_path, "seeds = 3,5,8\nstrategy = active, random\n",
                                  "b.cfg"))
    assert cfg2.seeds == (3, 5, 8)
    assert cfg2.strategies == ("active", "random")


def test_config_unknown_key_reports_line_number(tmp_path):
    path = write_cfg(tmp_path, "budget = 0.1\nnot_a_key = 3\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)


@pytest.mark.parametrize("key,value", [("delta", "10"), ("critic_steps_per_update", "5"),
                                       ("adam_betas", "0.9, 0.999"),
                                       ("early_stop_tol", "1e-4"), ("seed", "3")])
def test_config_removed_keys_are_unknown(tmp_path, key, value):
    """Fixed constants are no config keys, and neither is ``seed``: each run
    takes its seed from ``seeds``."""
    path = write_cfg(tmp_path, f"budget = 0.1\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
        parse_config(path)


@pytest.mark.parametrize("body,message", [
    ("budget = 0.1\nbudget = 0.3\n", "line 2: key 'budget' is already set on line 1"),
    ("seeds = 1\n\nseeds = 2\n", "line 3: key 'seeds' is already set on line 1"),
    ("dataset.n_source = 10\n# x\ndataset.n_source = 20\n",
     "line 3: key 'dataset.n_source' is already set on line 1"),
], ids=["train", "seeds", "dataset"])
def test_config_repeated_key_names_both_lines(tmp_path, body, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(write_cfg(tmp_path, body))


@pytest.mark.parametrize("body", ["lambda_div = nan\n", "\nlearning_rate = inf\n",
                                  "budget = -inf\n", "dataset.rotation_deg = nan\n",
                                  "learning_rate = 1e400\n"],
                         ids=["nan", "inf", "-inf", "dataset-nan", "overflow"])
def test_config_non_finite_float_reports_line(tmp_path, body):
    line = body.count("\n")
    with pytest.raises(ConfigError, match=f"line {line}: .*must be finite"):
        parse_config(write_cfg(tmp_path, body))


@pytest.mark.parametrize("body,message", [("seeds = 1,-1\n", "line 1.*seeds"),
                                          ("seeds = -2..1\n", "line 1.*seeds")],
                         ids=["list", "range"])
def test_config_negative_seed_rejected(tmp_path, body, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(write_cfg(tmp_path, body))


def test_config_type_error_reports_line_and_key(tmp_path):
    path = write_cfg(tmp_path, "\nstage1_epochs = soon\n")
    with pytest.raises(ConfigError, match="line 2.*stage1_epochs"):
        parse_config(path)


def test_config_range_error_for_budget(tmp_path):
    with pytest.raises(ConfigError, match="budget"):
        parse_config(write_cfg(tmp_path, "budget = 1.5\n"))


@pytest.mark.parametrize("key,value,message", [
    ("budget", "1.5", r"budget must lie in \(0, 1\), got 1.5"),
    ("batch_size", "0", "batch_size must be >= 1"),
    ("strategy", "bogus", "unknown strategy 'bogus'"),
    ("strategy", "active, bogus", "unknown strategy 'bogus'"),
    ("strategy", "random,random", "strategy list 'random,random' repeats a strategy"),
    ("strategy", "active,,none", "strategy list 'active,,none' has an empty entry"),
    ("strategy", "", "strategy list '' has an empty entry"),
    ("out_dir", "", "out_dir is empty"),
    ("dataset.kind", "spiral", "unknown dataset kind 'spiral'"),
    ("dataset.radius", "2", "dataset key 'radius' not valid for kind 'two_moons'"),
], ids=["budget", "batch_size", "strategy", "strategy-list-unknown", "strategy-list-repeated",
        "strategy-list-empty-entry", "strategy-empty", "out-dir-empty", "dataset-kind",
        "dataset-key"])
def test_config_range_errors_report_line(tmp_path, key, value, message):
    body = f"seeds = 1\n# a comment\n{key} = {value}\nlambda_div = 1\n"
    with pytest.raises(ConfigError, match=f"^line 3: {message}"):
        parse_config(write_cfg(tmp_path, body))


@pytest.mark.parametrize("body", ["seeds = 5..1\n", "seeds = x\n", "seeds = ,\n",
                                  "seeds = 1,1\n", "seeds = 1,,2\n", "seeds = 1,\n"])
def test_config_bad_seeds_rejected_with_line(tmp_path, body):
    with pytest.raises(ConfigError, match="line 1.*seeds"):
        parse_config(write_cfg(tmp_path, body))


def test_config_dataset_key_for_wrong_kind_rejected(tmp_path):
    body = "dataset.kind = two_moons\ndataset.mean_shift = 2.0\n"
    with pytest.raises(ConfigError, match="line 2.*mean_shift"):
        parse_config(write_cfg(tmp_path, body))


def test_config_idx_requires_paths(tmp_path):
    with pytest.raises(ConfigError, match="idx"):
        parse_config(write_cfg(tmp_path, "dataset.kind = idx\n"))


def test_config_idx_builds_pair_from_files(tmp_path):
    rng = np.random.default_rng(0)
    body = "dataset.kind = idx\ndataset.max_items = 3\n"
    for domain in ("source", "target"):
        pixels = rng.integers(0, 256, size=(5, 2, 2), dtype=np.uint8)
        labels = rng.integers(0, 2, size=5, dtype=np.uint8)
        (tmp_path / f"{domain}.img").write_bytes(struct.pack(">iiii", 2051, 5, 2, 2)
                                                 + pixels.tobytes())
        (tmp_path / f"{domain}.lab").write_bytes(struct.pack(">ii", 2049, 5) + labels.tobytes())
        body += (f"dataset.{domain}_images = {tmp_path / (domain + '.img')}\n"
                 f"dataset.{domain}_labels = {tmp_path / (domain + '.lab')}\n")
    cfg = parse_config(write_cfg(tmp_path, body))
    pair = build_pair(cfg.dataset, 7)
    assert (len(pair.source), len(pair.target)) == (3, 3)
    assert pair.f_target is None
    np.testing.assert_array_equal(pair.target.labels, labels[:3])


# ------------------------------------------------------- ExperimentConfig


_CONFIG_RULES = [
    ({"out_dir": ""}, "out_dir is empty"),
    ({"strategies": []}, "strategy list is empty: need at least one strategy"),
    ({"strategies": ["active", ""]}, "strategy list 'active,' has an empty entry"),
    ({"strategies": ["none", "none"]}, "strategy list 'none,none' repeats a strategy"),
    ({"strategies": ["bogus"]}, r"unknown strategy 'bogus' \(choose from .*\), in the "
                                "strategy list"),
    ({"seeds": []}, "seeds list is empty: need at least one seed"),
    ({"seeds": [3, 4, 3]}, "seeds list '3,4,3' repeats a seed"),
    ({"seeds": [0, -1]}, "seed must be non-negative, got -1, in the seeds list"),
    ({"seeds": [2.0]}, "seed must be an integer, got 2.0, in the seeds list"),
    ({"seeds": [True]}, "seed must be an integer, got True, in the seeds list"),
    ({"seeds": ["1"]}, "seed must be an integer, got '1', in the seeds list"),
    ({"dataset": {"kind": "spiral"}}, "dataset: unknown dataset kind 'spiral'"),
    ({"dataset": {"kind": "gaussian", "radius": 2.0}},
     "dataset: dataset key 'radius' not valid for kind 'gaussian'"),
    ({"dataset": {"kind": "idx"}}, "dataset: dataset kind 'idx' needs keys"),
]


@pytest.mark.parametrize("change,message", _CONFIG_RULES,
                         ids=["out_dir-empty", "strategies-none", "strategy-empty",
                              "strategy-repeated", "strategy-unknown", "seeds-none",
                              "seed-repeated", "seed-negative", "seed-float", "seed-bool",
                              "seed-str", "dataset-kind", "dataset-key", "dataset-missing-key"])
def test_experiment_config_refuses_each_rule_when_built_or_replaced(change, message):
    """The config checks itself, so building one and replacing a field of a
    good one refuse the same values with the same message."""
    from acda.experiments import ExperimentConfig

    good = ExperimentConfig(strategies=["active", "random"], seeds=[1, 2])
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**change)
    with pytest.raises(ConfigError, match=message):
        replace(good, **change)
    with pytest.raises(AttributeError):  # frozen: no field can be set past the checks
        setattr(good, *next(iter(change.items())))


def test_experiment_config_keeps_the_values_its_rules_accept():
    """The lists are kept as tuples, which refuse an in-place edit, and a
    recipe that leaves keys out is kept with their defaults, so it builds."""
    from acda.experiments import _DATASETS, ExperimentConfig

    lists = ["none", "active"], [np.int64(5), 0]
    cfg = ExperimentConfig(strategies=lists[0], seeds=lists[1],
                           dataset={"kind": "gaussian", "dim": 3}, out_dir="o", standardize=False)
    recipe = {"kind": "gaussian", **_DATASETS["gaussian"][1], "dim": 3}
    assert (cfg.strategies, cfg.seeds, cfg.dataset, cfg.out_dir, cfg.standardize) == (
        ("none", "active"), (5, 0), recipe, "o", False)
    lists[1].append(-1)  # the config holds its own copies
    assert cfg.seeds == (5, 0)
    with pytest.raises(AttributeError):
        cfg.seeds.append(-1)
    assert build_pair(cfg.dataset, 0).source.dim == 3


@pytest.mark.parametrize("edit", [
    lambda d: d.__setitem__("n_source", -5), lambda d: d.__delitem__("kind"),
    lambda d: d.update(n_source=-5), lambda d: d.setdefault("radius", 2.0),
    lambda d: d.pop("kind"), lambda d: d.popitem(), lambda d: d.clear(),
    lambda d: d.__ior__({"n_source": -5}),
], ids=["setitem", "delitem", "update", "setdefault", "pop", "popitem", "clear", "ior"])
def test_a_checked_recipe_cannot_be_edited_in_place(edit):
    """The recipe is read-only, so a config stays as checked; it hashes and
    pickles like the frozen value it is."""
    from acda.experiments import ExperimentConfig

    cfg = ExperimentConfig(out_dir="o")
    with pytest.raises(TypeError, match="read-only"):
        edit(cfg.dataset)
    assert cfg.dataset["n_source"] == 1000 and cfg.dataset["kind"] == "two_moons"
    assert hash(cfg) == hash(ExperimentConfig(out_dir="o"))
    assert pickle.loads(pickle.dumps(cfg)) == cfg


# --------------------------------------------------------- run_experiment


def test_run_experiment_emits_metrics_records_and_manifest(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET
                                 + "seeds = 1,2,3\n"))
    out = str(tmp_path / "out")
    assert run_experiment(cfg, out_dir=out) == 0
    records = [p for p in os.listdir(out) if p.endswith(".json")
               and p.startswith("run-")]
    assert len(records) == 3
    lines = open(os.path.join(out, "metrics.csv")).read().splitlines()
    assert lines[0] == METRICS_VERSION_LINE
    assert lines[1] == METRICS_HEADER
    # 3 seeds x (2 stage-1 + 2 stage-3) epochs
    assert len(lines) == 2 + 3 * 4
    manifest = json.load(open(os.path.join(out, "MANIFEST.json")))
    assert manifest["status"] == "ok"
    assert all(r["status"] == "ok" for r in manifest["runs"])


def test_numpy_scalars_write_the_same_files_as_python_scalars(tmp_path):
    """A code-built config whose TrainConfig fields and seed are numpy scalars
    writes every file byte for byte as the same config with Python scalars."""
    cfg = parse_config(write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET + "seeds = 1\n"))
    as_numpy = {name: (np.float64 if isinstance(value, float) else np.int64)(value)
                for name, value in vars(cfg.train).items()}
    numpy_cfg = replace(cfg, train=TrainConfig(**as_numpy), seeds=[np.int64(1)])
    assert type(numpy_cfg.train.budget) is float and type(numpy_cfg.train.batch_size) is int
    outs = [tmp_path / "python", tmp_path / "numpy"]
    for config, out in zip((cfg, numpy_cfg), outs):
        assert run_experiment(config, out_dir=str(out)) == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_step_terms_epoch_losses_and_metrics_columns_share_their_names(tmp_path):
    """The step graphs' terms, the epoch record's losses and metrics.csv's
    loss columns are one set of names, so a term renamed in one place only
    fails here."""
    specs = {"F": default_feature_spec(2), "C": default_classifier_spec(2),
             "D": default_critic_spec()}
    sg = _StepGraphs((40, 30, 40, 7), specs)
    terms = (set(sg.critic.terms) | set(sg.model.terms)) - {"objective"}
    cfg = parse_config(write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET + "seeds = 1\n"))
    out = tmp_path / "out"
    run_experiment(cfg, out_dir=str(out))
    record = json.loads((out / "run-active-seed1.json").read_text())
    epoch = record["rounds"][0]["stage3"]["epochs"][0]
    losses = set(epoch) - {"epoch", "objective", "lambda_w", "source_accuracy",
                           "target_accuracy"}
    header = (out / "metrics.csv").read_text().splitlines()[1].split(",")
    columns = header[header.index("epoch") + 1:header.index("source_accuracy")]
    assert terms == losses == set(columns)
    assert columns == list(LOSS_NAMES) == ["L_cls", "W1_estimate", "L_grad", "L_w_q"]


def test_run_experiment_rows_rederive_from_records(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET
                                 + "seeds = 4\n"))
    out = str(tmp_path / "out")
    run_experiment(cfg, out_dir=out)
    record = json.load(open(os.path.join(out, "run-active-seed4.json")))
    lines = open(os.path.join(out, "metrics.csv")).read().splitlines()[2:]
    stage1_rows = [l.split(",") for l in lines if l.split(",")[3] == "0"]
    for row, epoch_rec in zip(stage1_rows, record["stage1"]["epochs"]):
        assert float(row[5]) == epoch_rec["L_cls"]
        assert float(row[6]) == epoch_rec["W1_estimate"]
        assert float(row[10]) == epoch_rec["target_accuracy"]


def test_run_experiment_is_byte_identical_across_invocations(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET
                                 + "seeds = 1,2\n"))
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    run_experiment(cfg, out_dir=out_a)
    run_experiment(cfg, out_dir=out_b)
    csv_a = open(os.path.join(out_a, "metrics.csv"), "rb").read()
    csv_b = open(os.path.join(out_b, "metrics.csv"), "rb").read()
    assert csv_a == csv_b
    rec_a = open(os.path.join(out_a, "run-active-seed1.json"), "rb").read()
    rec_b = open(os.path.join(out_b, "run-active-seed1.json"), "rb").read()
    assert rec_a == rec_b


@pytest.mark.parametrize("seeds,message", [
    ([1, -1], "seed must be non-negative, got -1, in the seeds list"),
    ([1, 1.5], "seed must be an integer, got 1.5, in the seeds list"),
    ([2, 2], "seeds list '2,2' repeats a seed"),
], ids=["negative", "float", "repeated"])
def test_run_experiment_checks_every_seed_before_writing(tmp_path, seeds, message):
    """A config built in code checks its seeds itself: a bad seed list fails
    when it is put into the config, so no run can start with it."""
    cfg = parse_config(write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET))
    with pytest.raises(ConfigError, match=message):
        replace(cfg, seeds=seeds)


_MOONS = {"kind": "two_moons", "n_source": 120, "n_target": 120, "rotation_deg": 30.0,
          "noise_sd": 0.1, "label_flip_rate": 0.1}
_MISSING_IDX = "".join(f"dataset.{domain}_{part} = missing-{domain}.{part}\n"
                       for domain in ("source", "target") for part in ("images", "labels"))


@pytest.mark.parametrize("dataset, message", [
    ("dataset.kind = two_moons\ndataset.n_source = 1\n", "need at least 2 points per domain"),
    ("dataset.kind = two_moons\ndataset.noise_sd = -1\n", "noise_sd must be non-negative"),
    ("dataset.kind = gaussian\ndataset.swap_fraction = 2\n", "swap_fraction must lie in"),
    ("dataset.kind = idx\ndataset.max_items = -1\n" + _MISSING_IDX,
     "max_items must be non-negative"),
    ({"kind": "spiral"}, "unknown dataset kind 'spiral'"),
    ({**_MOONS, "radius": 2.0}, "dataset key 'radius' not valid for kind 'two_moons'"),
    ({"kind": "idx", "source_images": "a", "source_labels": "b", "target_images": "c"},
     r"dataset kind 'idx' needs keys \['target_labels'\]"),
    ({**_MOONS, "n_source": "120"}, "'<' not supported between instances of 'str' and 'int'"),
], ids=["moons-n_source-1", "moons-noise_sd-negative", "gaussian-swap_fraction-2",
        "idx-max_items-negative", "code-unknown-kind", "code-unknown-key", "code-missing-key",
        "code-str-n_source"])
@pytest.mark.parametrize("strategy", ["", "strategy = active,random\n"],
                         ids=["run_experiment", "several-strategies"])
def test_a_dataset_the_builder_refuses_is_a_config_error_before_writing(tmp_path, dataset,
                                                                        message, strategy):
    """A dict is a recipe built in code, which no parser has checked: the
    config refuses its kind and keys when the recipe is put into it, and
    ``run_experiment`` refuses its values when it builds the first pools."""
    built_in_code = isinstance(dataset, dict)
    cfg = parse_config(write_cfg(tmp_path, SMALL_TRAIN + ("" if built_in_code else dataset)
                                 + strategy + "seeds = 1,2\n"))
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=f"dataset: {message}"):
        if built_in_code:
            cfg = replace(cfg, dataset=dataset)
        run_experiment(cfg, out_dir=str(out))
    assert not out.exists()


def test_compare_refuses_an_empty_strategy_list(tmp_path, capsys):
    """An empty strategy list is refused in code and in the file alike."""
    cfg_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET)
    out = tmp_path / "out"
    cfg = parse_config(cfg_path)
    with pytest.raises(ConfigError, match="at least one strategy"):
        replace(cfg, strategies=[])
    empty_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET + "strategy = ,\n", "e.cfg")
    assert main(["run", empty_path, "--out", str(out)]) == 2
    assert "strategy list ',' has an empty entry" in capsys.readouterr().err
    assert not out.exists()


def test_an_empty_output_root_is_refused_before_any_pool_is_built(tmp_path, monkeypatch,
                                                                  capsys):
    """The config owns the output root: an empty one, built in, replaced in,
    or given to ``run_experiment``, is a ConfigError, and ``--out ""``
    reaches it as given rather than falling back to the config's out_dir."""
    from acda import experiments
    from acda.experiments import ExperimentConfig

    monkeypatch.setattr(experiments, "_pools_for_run",
                        lambda *a: pytest.fail("a pool was built"))
    configured = tmp_path / "configured"
    cfg_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET + f"out_dir = {configured}\n")
    for build in (lambda: run_experiment(parse_config(cfg_path), out_dir=""),
                  lambda: replace(parse_config(cfg_path), out_dir=""),
                  lambda: ExperimentConfig(out_dir="")):
        with pytest.raises(ConfigError, match="out_dir is empty"):
            build()
    for command in ("run", "gen"):
        assert main([command, cfg_path, "--out", ""]) == 2
        assert "error: out_dir is empty" in capsys.readouterr().err
    assert not configured.exists()


def test_checkpoints_reload_with_final_parameters(tmp_path):
    from acda.nets import load_checkpoint
    cfg = parse_config(write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET
                                 + "seeds = 7\n"))
    out = str(tmp_path / "out")
    run_experiment(cfg, out_dir=out)
    nets = load_checkpoint(os.path.join(out, "run-active-seed7.ckpt"))
    assert set(nets) == {"F", "C", "D"}
    assert nets["F"].spec.input_dim == 2


# ----------------------------------------- comparisons: several strategies


def test_compare_single_strategy_has_no_difference_rows(tmp_path):
    """A run of one strategy still writes summary.csv, with no difference rows."""
    cfg = parse_config(write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET + "seeds = 1,2\n"))
    out = str(tmp_path / "cmp")
    assert run_experiment(cfg, out_dir=out) == 0
    lines = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert len(lines) == 2  # header + one strategy row
    assert lines[1].startswith("active,")


@pytest.mark.parametrize("strategies,message", [
    (["random", "random"], "strategy list 'random,random' repeats a strategy"),
    (["random", "bogus"], "unknown strategy 'bogus'"),
], ids=["repeated", "unknown"])
def test_compare_rejects_bad_strategies_before_training(tmp_path, strategies, message):
    """A config built in code checks its strategies itself: a bad list fails
    when it is put into the config, so no run can start with it."""
    cfg = parse_config(write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET + "seeds = 1\n"))
    with pytest.raises(ConfigError, match=message):
        replace(cfg, strategies=strategies)


def test_compare_reports_active_minus_random(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET
                                 + "strategy = active,random\nseeds = 1,2\n"))
    out = str(tmp_path / "cmp")
    assert run_experiment(cfg, out_dir=out) == 0
    lines = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert [l.split(",")[0] for l in lines] == [
        "strategy", "active", "random", "active_minus_random"]


def test_compare_builds_each_seeds_pools_once(tmp_path, monkeypatch):
    """Seeds run outer and strategies inner, so a seed's pools serve all its
    strategies; rows and manifest entries still go strategy by strategy."""
    import acda.experiments as experiments
    from acda.errors import TrainingDivergedError

    real_pools = experiments._pools_for_run
    built, ran = [], []

    def pools_for_run(config, run_seed):
        built.append(run_seed)
        return real_pools(config, run_seed)

    def run_one(config, run_seed, strategy, pools):
        ran.append((strategy, run_seed))
        raise TrainingDivergedError(0)  # no training: only the order matters

    monkeypatch.setattr(experiments, "_pools_for_run", pools_for_run)
    monkeypatch.setattr(experiments, "_run_one", run_one)
    cfg = parse_config(write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET
                                 + "strategy = active,random,none\nseeds = 1,2\n"))
    assert run_experiment(cfg, out_dir=str(tmp_path / "out")) == 1
    assert built == [1, 2]
    assert ran == [(s, seed) for seed in (1, 2) for s in ("active", "random", "none")]
    manifest = json.load(open(tmp_path / "out" / "MANIFEST.json"))
    assert [r["run"] for r in manifest["runs"]] == [
        f"{s}-seed{seed}" for s in ("active", "random", "none") for seed in (1, 2)]


# ----------------------------------------------------------------- the CLI


def test_cli_run_applies_flag_overrides(tmp_path):
    """--seed replaces the config's seeds and --out its out_dir; every other
    setting comes from the file."""
    cfg_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET + "strategy = random\n"
                         + "seeds = 1,2\nout_dir = unused\n")
    out = tmp_path / "cli-out"
    assert main(["run", cfg_path, "--seed", "9", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("run-*.json")) == ["run-random-seed9.json"]
    record = json.load(open(out / "run-random-seed9.json"))
    assert (record["seed"], record["strategy"], record["config"]["budget"]) == (9, "random", 0.1)
    assert "seed" not in record["config"]
    assert not (tmp_path / "unused").exists()


def test_cli_out_env_var_is_ignored(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET
                         + "out_dir = myexp\nseeds = 1\n")
    root = tmp_path / "envroot"
    monkeypatch.setenv("ACDA_OUT_ROOT", str(root))
    monkeypatch.chdir(tmp_path)
    assert main(["run", cfg_path]) == 0
    assert (tmp_path / "myexp" / "metrics.csv").exists()
    assert not root.exists()


def test_cli_gen_writes_dataset_csv(tmp_path):
    """gen writes the (standardised) pools that a run of the first seed trains on."""
    cfg_path = write_cfg(tmp_path, SMALL_DATASET + "seeds = 3,4\n")
    out = str(tmp_path / "gen-out")
    assert main(["gen", cfg_path, "--out", out]) == 0
    lines = open(os.path.join(out, "dataset.csv")).read().splitlines()
    assert lines[0] == "x_0,x_1,label,domain"
    assert len(lines) == 1 + 240
    written = load_csv(os.path.join(out, "dataset.csv"))
    pools = _pools_for_run(parse_config(cfg_path), 3)
    for got, want in zip(written, pools):
        np.testing.assert_array_equal(got.features, want.features)
        np.testing.assert_array_equal(got.labels, want.labels)


def test_cli_gen_seed_picks_the_pools_written(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_DATASET + "seeds = 3,4\n")
    out = str(tmp_path / "gen-out")
    assert main(["gen", cfg_path, "--seed", "4", "--out", out]) == 0
    written = load_csv(os.path.join(out, "dataset.csv"))
    for got, want in zip(written, _pools_for_run(parse_config(cfg_path), 4)):
        np.testing.assert_array_equal(got.features, want.features)


_REMOVED_FLAGS = [["--budget", "0.2"], ["--lambda-div", "3"], ["--strategy", "none"]]


@pytest.mark.parametrize("argv", [[cmd] + flags for cmd in ("run", "compare", "gen")
                                  for flags in _REMOVED_FLAGS] + [["compare", "--seed", "3"]],
                         ids=lambda argv: "-".join(argv[:2]).replace("--", ""))
def test_cli_settings_are_not_flags(tmp_path, monkeypatch, argv):
    """Run settings are config keys only, and ``compare`` is no command (a
    comparison is ``run`` on a config whose ``strategy`` lists several): each
    of these exits 2 before any output directory exists."""
    monkeypatch.chdir(tmp_path)
    cfg_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], cfg_path] + argv[1:] + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_cli_compare_seed_list(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET
                         + "strategy = random,none\nseeds = 1..2\n")
    out = str(tmp_path / "cmp-out")
    assert main(["run", cfg_path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "summary.csv"))
    assert os.path.exists(os.path.join(out, "run-none-seed2.json"))


def test_cli_compare_strips_spaces_around_strategy_names(tmp_path):
    written = {}
    for name, strategies in (("plain", "active,random"), ("spaced", "active, random")):
        cfg_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET + "seeds = 1\n"
                             + f"strategy = {strategies}\n", f"{name}.cfg")
        out = tmp_path / name
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        written[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "run-random-seed1.json" in written["spaced"]
    assert written["spaced"] == written["plain"]


@pytest.mark.parametrize("seeds", ["5..1", "x", "1..y", "1,1"])
def test_cli_compare_bad_seed_list_exits_with_config_error(tmp_path, capsys, seeds):
    cfg_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET
                         + f"strategy = active,random\nseeds = {seeds}\n")
    code = main(["run", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "seeds" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,body", [
    (["run", "--seed", "-1"], ""),
    (["run"], "strategy = active,random\nseeds = 1,-1\n"),
    (["gen", "--seed", "-1"], ""),
], ids=["run", "compare-seeds", "gen"])
def test_cli_negative_seed_exits_before_writing(tmp_path, capsys, argv, body):
    cfg_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET + body)
    code = main([argv[0], cfg_path] + argv[1:] + ["--out", str(tmp_path / "o")])
    assert code == 2
    assert "non-negative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_compare_records_diverged_seed_and_finishes(tmp_path, monkeypatch):
    import acda.experiments as experiments
    from acda.errors import TrainingDivergedError

    real_run_one = experiments._run_one

    def run_one(config, run_seed, strategy, pools):
        if (strategy, run_seed) == ("random", 2):
            raise TrainingDivergedError(3)
        return real_run_one(config, run_seed, strategy, pools)

    monkeypatch.setattr(experiments, "_run_one", run_one)
    cfg_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET
                         + "strategy = active,random\nseeds = 1,2\n")
    out = tmp_path / "cmp-out"
    code = main(["run", cfg_path, "--out", str(out)])
    assert code == 1
    manifest = json.load(open(out / "MANIFEST.json"))
    assert manifest["status"] == "failed"
    status = {r["run"]: r["status"] for r in manifest["runs"]}
    assert status == {"active-seed1": "ok", "active-seed2": "ok",
                      "random-seed1": "ok", "random-seed2": "diverged"}
    assert [r["epoch"] for r in manifest["runs"] if r["status"] == "diverged"] == [3]
    for tag in ("active-seed1", "active-seed2", "random-seed1"):
        assert (out / f"run-{tag}.json").exists()
        assert (out / f"run-{tag}.ckpt").exists()
    assert not (out / "run-random-seed2.json").exists()
    summary = (out / "summary.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in summary] == [
        "strategy", "active", "random", "active_minus_random"]
    assert summary[0].split(",")[3] == "finished_runs"
    assert [l.split(",")[3] for l in summary[1:3]] == ["2", "1"]
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2 + 3 * 4


def test_cli_bad_config_exits_with_error(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "budget = nope\n")
    assert main(["run", cfg_path]) == 2
    assert "budget" in capsys.readouterr().err


def test_cli_missing_file_exits_with_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_check_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("flags", [["--budget", "7", "--out", "nowhere"], ["--lambda-div", "1"],
                                   ["--seed", "1"], ["--strategy", "random"]])
def test_cli_check_takes_no_flags(flags):
    with pytest.raises(SystemExit) as exc:
        main(["check"] + flags)
    assert exc.value.code == 2
