"""Experiment harness: config parsing, seeded runs, metrics and summaries.

Config files are flat ``key = value`` text with ``#`` comments.  Dataset
parameters live under a ``dataset.`` prefix (one generator per config).
Every run writes a per-epoch metrics CSV, one RunRecord JSON per seed, a
final-parameter checkpoint, and a MANIFEST describing success or failure.
All outputs are byte-stable for a fixed (config, seed).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import nets
from .acda import _STRATEGIES, RunRecord, TrainConfig, accuracy, run_algorithm_1
from .data import (Dataset, export_csv, gen_gaussian_shift_pair,
                   gen_two_moons_pair, load_idx, standardize_features)
from .errors import ConfigError, TrainingDivergedError
from .seeding import derive_seed

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "parse_seeds",
    "build_pair",
    "run_experiment",
    "compare_strategies",
    "METRICS_HEADER",
    "METRICS_VERSION_LINE",
]

METRICS_VERSION_LINE = "# acda-metrics-v1"
METRICS_HEADER = ("strategy,seed,budget,round,epoch,L_cls,W1_estimate,L_grad,"
                  "L_w_q,source_accuracy,target_accuracy")

_DEFAULT_DATASET = {
    "kind": "two_moons",
    "n_source": 1000,
    "n_target": 1000,
    "rotation_deg": 40.0,
    "noise_sd": 0.1,
    "label_flip_rate": 0.1,
}

_DATASET_KEYS = {
    "two_moons": {"n_source": int, "n_target": int, "rotation_deg": float,
                  "noise_sd": float, "label_flip_rate": float},
    "gaussian": {"n_classes": int, "dim": int, "mean_shift": float,
                 "covariance_scale": float, "swap_fraction": float,
                 "n_source": int, "n_target": int},
    "idx": {"source_images": str, "source_labels": str, "target_images": str,
            "target_labels": str, "max_items": int},
}

_GAUSSIAN_DEFAULTS = {"n_classes": 2, "dim": 2, "mean_shift": 2.0,
                      "covariance_scale": 1.0, "swap_fraction": 0.0,
                      "n_source": 1000, "n_target": 1000}


@dataclass
class ExperimentConfig:
    """A TrainConfig plus dataset recipe, seed list and output location."""

    train: TrainConfig = field(default_factory=TrainConfig)
    dataset: dict = field(default_factory=lambda: dict(_DEFAULT_DATASET))
    out_dir: str = "runs"
    seeds: list = field(default_factory=lambda: [0])
    standardize: bool = True


_TRAIN_TYPES = {f.name: f.type for f in fields(TrainConfig)}


def _parse_scalar(key: str, raw: str, line_no: int):
    typ = _TRAIN_TYPES[key]  # the annotation as written, e.g. "float | None"
    if typ == "str":
        return raw
    if typ == "float | None":
        return None if raw.lower() in ("none", "") else _coerce(raw, float, key, line_no)
    if typ == "tuple":
        parts = [p for p in raw.replace("(", "").replace(")", "").split(",") if p.strip()]
        if len(parts) != 2:
            raise ConfigError(f"line {line_no}: adam_betas needs two comma-separated floats")
        return (_coerce(parts[0], float, key, line_no), _coerce(parts[1], float, key, line_no))
    return _coerce(raw, {"int": int, "float": float}[typ], key, line_no)


def _at(line_no) -> str:
    return "" if line_no is None else f"line {line_no}: "


def _coerce(raw, typ, key, line_no):
    try:
        return typ(raw.strip())
    except ValueError:
        raise ConfigError(
            f"{_at(line_no)}key '{key}' expects {typ.__name__}, got '{raw.strip()}'"
        ) from None


def parse_seeds(raw: str, line_no: int | None = None) -> list:
    """Seeds from 'lo..hi' (inclusive) or 'a,b,c'; ConfigError if malformed,
    empty or repeated.  ``line_no`` locates a config-file value in the message."""
    raw = raw.strip()
    if ".." in raw:
        lo, _, hi = raw.partition("..")
        lo = _coerce(lo, int, "seeds", line_no)
        hi = _coerce(hi, int, "seeds", line_no)
        if hi < lo:
            raise ConfigError(f"{_at(line_no)}seeds range '{raw}' is empty")
        return list(range(lo, hi + 1))
    seeds = [_coerce(p, int, "seeds", line_no) for p in raw.split(",") if p.strip()]
    if not seeds:
        raise ConfigError(f"{_at(line_no)}seeds list is empty")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{_at(line_no)}seeds list '{raw}' repeats a seed")
    return seeds


def parse_config(path: str) -> ExperimentConfig:
    """Parse a flat key=value config file; unknown keys are errors."""
    train_kw: dict = {}
    dataset: dict = {}
    out_dir = None
    seeds = None
    standardize = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"line {line_no}: expected 'key = value', got '{text}'")
            key, _, raw = text.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key == "out_dir":
                out_dir = raw
            elif key == "seeds":
                seeds = parse_seeds(raw, line_no)
            elif key == "standardize":
                if raw.lower() not in ("true", "false"):
                    raise ConfigError(f"line {line_no}: standardize expects true/false")
                standardize = raw.lower() == "true"
            elif key.startswith("dataset."):
                sub = key[len("dataset."):]
                if sub == "kind":
                    if raw not in _DATASET_KEYS:
                        raise ConfigError(
                            f"line {line_no}: unknown dataset kind '{raw}' "
                            f"(choose from {sorted(_DATASET_KEYS)})")
                    dataset["kind"] = raw
                else:
                    dataset[sub] = (sub, raw, line_no)  # typed once kind is known
            elif key in _TRAIN_TYPES:
                train_kw[key] = _parse_scalar(key, raw, line_no)
            else:
                raise ConfigError(f"line {line_no}: unknown key '{key}'")

    kind = dataset.get("kind", _DEFAULT_DATASET["kind"])
    allowed = _DATASET_KEYS[kind]
    if kind == "two_moons":
        resolved = dict(_DEFAULT_DATASET)
    elif kind == "gaussian":
        resolved = {"kind": "gaussian", **_GAUSSIAN_DEFAULTS}
    else:
        resolved = {"kind": "idx", "max_items": 0}
    for name, value in dataset.items():
        if name == "kind":
            continue
        sub, raw, line_no = value
        if sub not in allowed:
            raise ConfigError(
                f"line {line_no}: dataset key '{sub}' not valid for kind '{kind}'")
        resolved[sub] = raw if allowed[sub] is str else _coerce(raw, allowed[sub],
                                                               f"dataset.{sub}", line_no)
    if kind == "idx":
        missing = [k for k in ("source_images", "source_labels",
                               "target_images", "target_labels") if k not in resolved]
        if missing:
            raise ConfigError(f"dataset kind 'idx' needs keys {missing}")

    try:
        train = TrainConfig(**train_kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    cfg = ExperimentConfig(train=train, dataset=resolved)
    if out_dir is not None:
        cfg.out_dir = out_dir
    if seeds is not None:
        cfg.seeds = seeds
    if standardize is not None:
        cfg.standardize = standardize
    return cfg


def build_pair(dataset: dict, seed: int):
    """Materialize the configured dataset for one run seed."""
    kind = dataset["kind"]
    if kind == "two_moons":
        return gen_two_moons_pair(
            n_source=dataset["n_source"], n_target=dataset["n_target"],
            rotation_deg=dataset["rotation_deg"], noise_sd=dataset["noise_sd"],
            label_flip_rate=dataset["label_flip_rate"], seed=seed)
    if kind == "gaussian":
        return gen_gaussian_shift_pair(
            n_classes=dataset["n_classes"], dim=dataset["dim"],
            mean_shift=dataset["mean_shift"],
            covariance_scale=dataset["covariance_scale"],
            swap_fraction=dataset["swap_fraction"],
            n_source=dataset["n_source"], n_target=dataset["n_target"], seed=seed)
    max_items = dataset.get("max_items") or None
    source = load_idx(dataset["source_images"], dataset["source_labels"],
                      max_items=max_items, domain_tag="source")
    target = load_idx(dataset["target_images"], dataset["target_labels"],
                      max_items=max_items, domain_tag="target")
    return source, target


def _pools_for_run(config: ExperimentConfig, run_seed: int):
    made = build_pair(config.dataset, derive_seed(run_seed, "data"))
    if isinstance(made, tuple):
        source, target = made
    else:
        source, target = made.source, made.target
    if config.standardize:
        sx, tx, _, _ = standardize_features(source.features, target.features)
        source = Dataset(sx, source.labels, "source", source.groups)
        target = Dataset(tx, target.labels, "target", target.groups)
    return source, target


def _run_one(config: ExperimentConfig, run_seed: int, strategy: str) -> RunRecord:
    source, target = _pools_for_run(config, run_seed)
    train = replace(config.train, seed=run_seed, strategy=strategy)

    def eval_cb_factory(tag):
        def cb(f_params, c_params):
            out = {"source_accuracy": accuracy(f_params, c_params, source.features,
                                               source.labels)}
            if target.labels is not None:
                out["target_accuracy"] = accuracy(f_params, c_params, target.features,
                                                  target.labels)
            else:
                out["target_accuracy"] = float("nan")
            return out
        return cb

    return run_algorithm_1(source, target, train, eval_cb_factory=eval_cb_factory)


def _metrics_rows(record: RunRecord, strategy: str, seed: int) -> list:
    rows = []

    def emit(round_index, history):
        for rec in history.epochs:
            rows.append(",".join([
                strategy, repr(seed), repr(record.config.budget),
                repr(round_index), repr(rec["epoch"]),
                repr(rec["L_cls"]), repr(rec["W1_estimate"]), repr(rec["L_grad"]),
                repr(rec["L_w_q"]),
                repr(rec.get("source_accuracy", float("nan"))),
                repr(rec.get("target_accuracy", float("nan"))),
            ]))

    emit(0, record.stage1)
    for r in record.rounds:
        emit(r.round_index, r.stage3)
    return rows


def _write_json(path: str, obj: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _run_pairs(config: ExperimentConfig, pairs: list, out: str):
    """Run each (strategy, seed) pair; returns ``(finals, exit_status)``.

    Writes a RunRecord JSON and a checkpoint per finished run, one
    ``metrics.csv`` over all of them, and a ``MANIFEST.json`` that marks a
    diverged run and sets the status to "failed" without stopping the rest.
    ``finals`` maps each strategy to its finished runs' final target accuracy;
    the exit status is 0, or 1 when a run diverged.
    """
    os.makedirs(out, exist_ok=True)
    rows = []
    manifest = {"runs": [], "status": "ok"}
    finals: dict = {}
    for strategy, run_seed in pairs:
        tag = f"{strategy}-seed{run_seed}"
        try:
            record = _run_one(config, run_seed, strategy)
        except TrainingDivergedError as exc:
            manifest["runs"].append({"run": tag, "status": "diverged",
                                     "epoch": exc.epoch})
            manifest["status"] = "failed"
            continue
        finals.setdefault(strategy, []).append(record.final_target_accuracy)
        rows.extend(_metrics_rows(record, strategy, run_seed))
        record_path = os.path.join(out, f"run-{tag}.json")
        _write_json(record_path, record.to_dict())
        ckpt_path = os.path.join(out, f"run-{tag}.ckpt")
        nets.save_checkpoint(ckpt_path, record.params)
        manifest["runs"].append({
            "run": tag, "status": "ok",
            "record": os.path.basename(record_path),
            "checkpoint": os.path.basename(ckpt_path),
            "final_source_accuracy": record.final_source_accuracy,
            "final_target_accuracy": record.final_target_accuracy,
        })
    _write_metrics(os.path.join(out, "metrics.csv"), rows)
    _write_json(os.path.join(out, "MANIFEST.json"), manifest)
    return finals, 0 if manifest["status"] == "ok" else 1


def run_experiment(config: ExperimentConfig, out_dir: str | None = None) -> int:
    """One run per seed under config.train.strategy; returns exit status."""
    out = out_dir if out_dir is not None else config.out_dir
    pairs = [(config.train.strategy, run_seed) for run_seed in config.seeds]
    _, status = _run_pairs(config, pairs, out)
    return status


def _write_metrics(path: str, rows: list):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(METRICS_VERSION_LINE + "\n")
        fh.write(METRICS_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")


def compare_strategies(config: ExperimentConfig, strategies: list, seeds: list,
                       out_dir: str | None = None) -> tuple:
    """Run every (strategy, seed) pair; summarize final target accuracy.

    Raises ConfigError before any training for an unknown or repeated
    strategy.  Writes the same per-run files and MANIFEST as
    :func:`run_experiment`, a diverged run included.  Returns
    ``(summary, status)``: summary rows [(strategy, mean, sd)] over the
    finished runs, and :func:`run_experiment`'s exit status (1 when a run
    diverged).  Writes the rows with each strategy's finished-run count to
    summary.csv, and prints a small table.
    Pairwise mean differences (e.g. active − random) follow the rows; a
    strategy with no finished run has neither.
    """
    if not strategies or not seeds:
        raise ValueError("compare_strategies needs >= 1 strategy and seed")
    for i, s in enumerate(strategies):
        if s not in _STRATEGIES:
            raise ConfigError(f"unknown strategy '{s}' (choose from {list(_STRATEGIES)})")
        if s in strategies[:i]:
            raise ConfigError(f"strategy '{s}' is named twice")
    out = out_dir if out_dir is not None else config.out_dir
    finals, status = _run_pairs(config, [(s, seed) for s in strategies for seed in seeds], out)

    summary = [(s, float(np.mean(finals[s])), float(np.std(finals[s])))
               for s in strategies if s in finals]
    lines = ["strategy,mean_target_accuracy,sd_target_accuracy,finished_runs"]
    print(f"{'strategy':10s} {'mean':>8s} {'sd':>8s} {'runs':>5s}")
    for s, mean, sd in summary:
        lines.append(f"{s},{mean!r},{sd!r},{len(finals[s])}")
        print(f"{s:10s} {mean:8.4f} {sd:8.4f} {len(finals[s]):5d}")
    for i, a in enumerate(strategies):
        for b in strategies[i + 1:]:
            if a not in finals or b not in finals:
                continue
            diff = float(np.mean(finals[a]) - np.mean(finals[b]))
            lines.append(f"{a}_minus_{b},{diff!r},,")
            print(f"{a} - {b} mean difference: {diff:+.4f}")
    with open(os.path.join(out, "summary.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return summary, status
