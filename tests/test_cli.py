"""Tests for config parsing, the experiment harness, and CLI subcommands."""

import json
import os

import numpy as np
import pytest

from acda.cli import main
from acda.errors import ConfigError
from acda.experiments import (METRICS_HEADER, METRICS_VERSION_LINE,
                              compare_strategies, parse_config, run_experiment)

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
    assert cfg.train.delta == 10.0
    assert cfg.dataset["kind"] == "two_moons"
    assert cfg.seeds == [0]
    assert cfg.standardize is True


def test_config_overrides_and_seed_forms(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
budget = 0.05
lambda_div = 2.5
seeds = 1..4
strategy = random
adam_betas = 0.8, 0.95
dataset.kind = gaussian
dataset.n_classes = 3
out_dir = /tmp/somewhere
"""))
    assert cfg.train.budget == 0.05
    assert cfg.train.lambda_div == 2.5
    assert cfg.train.strategy == "random"
    assert cfg.train.adam_betas == (0.8, 0.95)
    assert cfg.seeds == [1, 2, 3, 4]
    assert cfg.dataset["n_classes"] == 3
    assert cfg.out_dir == "/tmp/somewhere"
    cfg2 = parse_config(write_cfg(tmp_path, "seeds = 3,5,8\n", "b.cfg"))
    assert cfg2.seeds == [3, 5, 8]


def test_config_unknown_key_reports_line_number(tmp_path):
    path = write_cfg(tmp_path, "budget = 0.1\nnot_a_key = 3\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)


def test_config_type_error_reports_line_and_key(tmp_path):
    path = write_cfg(tmp_path, "\nstage1_epochs = soon\n")
    with pytest.raises(ConfigError, match="line 2.*stage1_epochs"):
        parse_config(path)


def test_config_range_error_for_budget(tmp_path):
    with pytest.raises(ConfigError, match="budget"):
        parse_config(write_cfg(tmp_path, "budget = 1.5\n"))


@pytest.mark.parametrize("body", ["seeds = 5..1\n", "seeds = x\n", "seeds = ,\n",
                                  "seeds = 1,1\n"])
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


def test_checkpoints_reload_with_final_parameters(tmp_path):
    from acda.nets import load_checkpoint
    cfg = parse_config(write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET
                                 + "seeds = 7\n"))
    out = str(tmp_path / "out")
    run_experiment(cfg, out_dir=out)
    nets = load_checkpoint(os.path.join(out, "run-active-seed7.ckpt"))
    assert set(nets) == {"F", "C", "D"}
    assert nets["F"].spec.input_dim == 2


# ------------------------------------------------------ compare_strategies


def test_compare_single_strategy_has_no_difference_rows(tmp_path, capsys):
    cfg = parse_config(write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET))
    out = str(tmp_path / "cmp")
    compare_strategies(cfg, ["active"], [1, 2], out_dir=out)
    lines = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert len(lines) == 2  # header + one strategy row
    assert lines[1].startswith("active,")


@pytest.mark.parametrize("strategies,message", [
    (["random", "random"], "named twice"),
    (["random", "bogus"], "unknown strategy 'bogus'"),
], ids=["repeated", "unknown"])
def test_compare_rejects_bad_strategies_before_training(tmp_path, strategies, message):
    cfg = parse_config(write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET))
    out = tmp_path / "cmp"
    with pytest.raises(ConfigError, match=message):
        compare_strategies(cfg, strategies, [1], out_dir=str(out))
    assert not out.exists()


def test_compare_reports_active_minus_random(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET))
    out = str(tmp_path / "cmp")
    summary, status = compare_strategies(cfg, ["active", "random"], [1, 2], out_dir=out)
    assert status == 0
    assert [s for s, _, _ in summary] == ["active", "random"]
    lines = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert any(l.startswith("active_minus_random,") for l in lines)


# ----------------------------------------------------------------- the CLI


def test_cli_run_applies_flag_overrides(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET)
    out = str(tmp_path / "cli-out")
    code = main(["run", cfg_path, "--seed", "9", "--strategy", "random",
                 "--budget", "0.2", "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "run-random-seed9.json"))
    record = json.load(open(os.path.join(out, "run-random-seed9.json")))
    assert record["config"]["budget"] == 0.2
    assert record["config"]["strategy"] == "random"


def test_cli_out_env_var_honored_when_flag_absent(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET
                         + "out_dir = myexp\nseeds = 1\n")
    root = tmp_path / "envroot"
    monkeypatch.setenv("ACDA_OUT_ROOT", str(root))
    monkeypatch.chdir(tmp_path)
    assert main(["run", cfg_path]) == 0
    assert (root / "myexp" / "metrics.csv").exists()


def test_cli_gen_writes_dataset_csv(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_DATASET)
    out = str(tmp_path / "gen-out")
    assert main(["gen", cfg_path, "--out", out]) == 0
    lines = open(os.path.join(out, "dataset.csv")).read().splitlines()
    assert lines[0] == "x_0,x_1,label,domain"
    assert len(lines) == 1 + 240


def test_cli_compare_seed_list(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET)
    out = str(tmp_path / "cmp-out")
    code = main(["compare", cfg_path, "--strategies", "random,none",
                 "--seeds", "1..2", "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "summary.csv"))
    assert os.path.exists(os.path.join(out, "run-none-seed2.json"))


@pytest.mark.parametrize("seeds", ["5..1", "x", "1..y", "1,1"])
def test_cli_compare_bad_seed_list_exits_with_config_error(tmp_path, capsys, seeds):
    cfg_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET)
    code = main(["compare", cfg_path, "--seeds", seeds, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "seeds" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_compare_rejects_seed_with_seed_list(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET)
    code = main(["compare", cfg_path, "--strategies", "none", "--seed", "3",
                 "--seeds", "1", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_compare_records_diverged_seed_and_finishes(tmp_path, monkeypatch):
    import acda.experiments as experiments
    from acda.errors import TrainingDivergedError

    real_run_one = experiments._run_one

    def run_one(config, run_seed, strategy):
        if (strategy, run_seed) == ("random", 2):
            raise TrainingDivergedError(3)
        return real_run_one(config, run_seed, strategy)

    monkeypatch.setattr(experiments, "_run_one", run_one)
    cfg_path = write_cfg(tmp_path, SMALL_TRAIN + SMALL_DATASET)
    out = tmp_path / "cmp-out"
    code = main(["compare", cfg_path, "--strategies", "active,random",
                 "--seeds", "1,2", "--out", str(out)])
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
