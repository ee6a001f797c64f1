"""Experiment harness: config parsing, seeded runs, metrics and summaries.

Config files are flat ``key = value`` text with ``#`` comments, each key set
at most once.  Dataset parameters live under a ``dataset.`` prefix (one
generator per config).
Every run writes a per-epoch metrics CSV, one RunRecord JSON per seed, a
final-parameter checkpoint, and a MANIFEST describing success or failure.
All outputs are byte-stable for a fixed (config, seed).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import nets
from .acda import RunRecord, TrainConfig, accuracy, run_algorithm_1
from .data import (Dataset, DomainPair, gen_gaussian_shift_pair,
                   gen_two_moons_pair, load_idx_pair, standardize_features)
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
# metrics.csv's columns: the run's strategy, seed and budget, the round (0 is
# stage 1), then the epoch record's values (NaN for an accuracy it lacks).
_METRICS_COLUMNS = ("strategy", "seed", "budget", "round", "epoch", "L_cls", "W1_estimate",
                    "L_grad", "L_w_q", "source_accuracy", "target_accuracy")
METRICS_HEADER = ",".join(_METRICS_COLUMNS)

# Each dataset kind's builder, and the keys it takes with their defaults.  A
# key's type is its default's; a default of None marks a required path.
_POOL_SIZES = {"n_source": 1000, "n_target": 1000}
_DATASETS = {
    "two_moons": (gen_two_moons_pair, {**_POOL_SIZES, "rotation_deg": 40.0, "noise_sd": 0.1,
                                       "label_flip_rate": 0.1}),
    "gaussian": (gen_gaussian_shift_pair, {**_POOL_SIZES, "n_classes": 2, "dim": 2,
                                           "mean_shift": 2.0, "covariance_scale": 1.0,
                                           "swap_fraction": 0.0}),
    "idx": (load_idx_pair, {"source_images": None, "source_labels": None,
                            "target_images": None, "target_labels": None, "max_items": 0}),
}
_DEFAULT_KIND = "two_moons"


def _dataset_defaults(kind: str) -> dict:
    return {"kind": kind, **_DATASETS[kind][1]}


@dataclass
class ExperimentConfig:
    """A TrainConfig plus dataset recipe, seed list and output location."""

    train: TrainConfig = field(default_factory=TrainConfig)
    dataset: dict = field(default_factory=lambda: _dataset_defaults(_DEFAULT_KIND))
    out_dir: str = "runs"
    seeds: list = field(default_factory=lambda: [0])
    standardize: bool = True


# The TrainConfig fields a config file sets: all but seed, which each run
# takes from ``seeds``.
_TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig) if f.name != "seed"}


def _at(line_no) -> str:
    return "" if line_no is None else f"line {line_no}: "


def _coerce(raw, typ, key, line_no):
    """``raw`` as a ``typ``; a str or None type (a path) keeps the raw text."""
    if typ in (str, type(None)):
        return raw
    try:
        value = typ(raw.strip())
    except ValueError:
        raise ConfigError(
            f"{_at(line_no)}key '{key}' expects {typ.__name__}, got '{raw.strip()}'"
        ) from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{_at(line_no)}key '{key}' must be finite, got '{raw.strip()}'")
    return value


def parse_seeds(raw: str, line_no: int | None = None) -> list:
    """Seeds from 'lo..hi' (inclusive) or 'a,b,c'; ConfigError if malformed,
    empty, repeated or negative.  ``line_no`` locates a config-file value in
    the message."""
    raw = raw.strip()
    if ".." in raw:
        lo, _, hi = raw.partition("..")
        lo = _coerce(lo, int, "seeds", line_no)
        hi = _coerce(hi, int, "seeds", line_no)
        if hi < lo:
            raise ConfigError(f"{_at(line_no)}seeds range '{raw}' is empty")
        seeds = list(range(lo, hi + 1))
    else:
        seeds = [_coerce(p, int, "seeds", line_no) for p in raw.split(",") if p.strip()]
    if not seeds:
        raise ConfigError(f"{_at(line_no)}seeds list is empty")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{_at(line_no)}seeds list '{raw}' repeats a seed")
    if min(seeds) < 0:
        raise ConfigError(f"{_at(line_no)}seeds must be non-negative, got '{raw}'")
    return seeds


def parse_config(path: str) -> ExperimentConfig:
    """Parse a flat key=value config file; unknown or repeated keys are errors."""
    entries: dict = {}  # key -> (raw value, line number)
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"line {line_no}: expected 'key = value', got '{text}'")
            key, _, raw = text.partition("=")
            key = key.strip()
            if key in entries:
                raise ConfigError(
                    f"line {line_no}: key '{key}' is already set on line {entries[key][1]}")
            entries[key] = (raw.strip(), line_no)

    kind, line_no = entries.pop("dataset.kind", (_DEFAULT_KIND, None))
    if kind not in _DATASETS:
        raise ConfigError(f"{_at(line_no)}unknown dataset kind '{kind}' "
                          f"(choose from {sorted(_DATASETS)})")
    dataset_defaults = _DATASETS[kind][1]
    cfg = ExperimentConfig(dataset=_dataset_defaults(kind))
    train_kw: dict = {}
    for key, (raw, line_no) in entries.items():
        if key == "out_dir":
            cfg.out_dir = raw
        elif key == "seeds":
            cfg.seeds = parse_seeds(raw, line_no)
        elif key == "standardize":
            if raw.lower() not in ("true", "false"):
                raise ConfigError(f"line {line_no}: standardize expects true/false")
            cfg.standardize = raw.lower() == "true"
        elif key.startswith("dataset."):
            sub = key[len("dataset."):]
            if sub not in dataset_defaults:
                raise ConfigError(
                    f"line {line_no}: dataset key '{sub}' not valid for kind '{kind}'")
            cfg.dataset[sub] = _coerce(raw, type(dataset_defaults[sub]), key, line_no)
        elif key in _TRAIN_DEFAULTS:
            value = _coerce(raw, type(_TRAIN_DEFAULTS[key]), key, line_no)
            try:  # each TrainConfig check reads one field, so check it alone
                TrainConfig(**{key: value})
            except ValueError as exc:
                raise ConfigError(f"line {line_no}: {exc}") from None
            train_kw[key] = value
        else:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
    missing = [k for k, v in cfg.dataset.items() if v is None]
    if missing:
        raise ConfigError(f"dataset kind '{kind}' needs keys {missing}")
    cfg.train = TrainConfig(**train_kw)
    return cfg


def build_pair(dataset: dict, seed: int) -> DomainPair:
    """Materialize the configured dataset for one data seed (IDX files
    ignore it and have no labeling functions)."""
    params = dict(dataset)
    builder, _ = _DATASETS[params.pop("kind")]
    return builder(**params, seed=seed)


def _pools_for_run(config: ExperimentConfig, run_seed: int):
    """The (source, target) pools a run with ``run_seed`` trains on."""
    pair = build_pair(config.dataset, derive_seed(run_seed, "data"))
    source, target = pair.source, pair.target
    if config.standardize:
        sx, tx, _, _ = standardize_features(source.features, target.features)
        source = Dataset(sx, source.labels)
        target = Dataset(tx, target.labels)
    return source, target


def _run_one(config: ExperimentConfig, run_seed: int, strategy: str, pools) -> RunRecord:
    source, target = pools
    train = replace(config.train, seed=run_seed, strategy=strategy)

    def eval_cb(f_params, c_params):
        out = {"source_accuracy": accuracy(f_params, c_params, source.features,
                                           source.labels)}
        if target.labels is not None:
            out["target_accuracy"] = accuracy(f_params, c_params, target.features,
                                              target.labels)
        else:
            out["target_accuracy"] = float("nan")
        return out

    return run_algorithm_1(source, target, train, eval_cb=eval_cb)


def _metrics_rows(record: RunRecord, strategy: str, seed: int) -> list:
    rows = []
    stages = [(0, record.stage1)] + [(r.round, r.stage3) for r in record.rounds]
    for round_index, history in stages:
        for rec in history.epochs:
            values = {"seed": seed, "budget": record.config.budget, "round": round_index, **rec}
            rows.append(",".join([strategy] + [repr(values.get(c, float("nan")))
                                               for c in _METRICS_COLUMNS[1:]]))
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
    the exit status is 0, or 1 when a run diverged.  No pair, a repeated pair,
    one that ``TrainConfig`` refuses, or a dataset that the first run's pools
    cannot be built from, is a ConfigError before anything is written.
    """
    if not pairs:
        raise ConfigError("nothing to run: need at least one strategy and one seed")
    for i, (strategy, run_seed) in enumerate(pairs):
        tag = f"{strategy}-seed{run_seed}"
        if (strategy, run_seed) in pairs[:i]:
            raise ConfigError(f"run '{tag}' is named twice")
        try:
            replace(config.train, seed=run_seed, strategy=strategy)
        except ValueError as exc:
            raise ConfigError(f"run '{tag}': {exc}") from None
    try:
        pools = _pools_for_run(config, pairs[0][1])
    except ValueError as exc:
        raise ConfigError(f"dataset: {exc}") from None
    os.makedirs(out, exist_ok=True)
    rows = []
    manifest = {"runs": [], "status": "ok"}
    finals: dict = {}
    for i, (strategy, run_seed) in enumerate(pairs):
        tag = f"{strategy}-seed{run_seed}"
        if i:
            pools = _pools_for_run(config, run_seed)
        try:
            record = _run_one(config, run_seed, strategy, pools)
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
    """One run per seed under config.train.strategy; returns exit status.
    A negative, non-integer or repeated seed is a ConfigError before
    anything is written."""
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


def compare_strategies(config: ExperimentConfig, strategies: list,
                       out_dir: str | None = None) -> tuple:
    """Run every strategy on every seed of ``config.seeds``; summarize final
    target accuracy.

    Raises ConfigError before any training for an empty, unknown or repeated
    strategy or seed.  Writes the same per-run files and MANIFEST as
    :func:`run_experiment`, a diverged run included.  Returns
    ``(summary, status)``: summary rows [(strategy, mean, sd)] over the
    finished runs, and :func:`run_experiment`'s exit status (1 when a run
    diverged).  Writes the rows with each strategy's finished-run count to
    summary.csv, and prints a small table.
    Pairwise mean differences (e.g. active − random) follow the rows; a
    strategy with no finished run has neither.
    """
    out = out_dir if out_dir is not None else config.out_dir
    pairs = [(s, seed) for s in strategies for seed in config.seeds]
    finals, status = _run_pairs(config, pairs, out)

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
