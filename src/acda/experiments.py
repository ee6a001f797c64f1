"""Experiment harness: config parsing, seeded runs, metrics and summaries.

Config files are flat ``key = value`` text with ``#`` comments, each key set
at most once.  Dataset parameters live under a ``dataset.`` prefix (one
generator per config).
An experiment runs every configured strategy on every seed.  It writes a
per-epoch metrics CSV, one RunRecord JSON and final-parameter checkpoint per
finished run, a MANIFEST describing success or failure, and a summary of
final target accuracy per strategy.
All outputs are byte-stable for a fixed (config, seed).
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import nets
from .acda import LOSS_NAMES, RunRecord, TrainConfig, _check_strategy, accuracy, run_algorithm_1
from .data import (Dataset, DomainPair, gen_gaussian_shift_pair,
                   gen_two_moons_pair, load_idx_pair, read_text, standardize_features)
from .errors import ConfigError, TrainingDivergedError
from .seeding import check_seed, derive_seed

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "parse_seeds",
    "build_pair",
    "run_experiment",
    "METRICS_HEADER",
    "METRICS_VERSION_LINE",
]

METRICS_VERSION_LINE = "# acda-metrics-v1"
# metrics.csv's columns: the run's strategy, seed and budget, the round (0 is
# stage 1), then the epoch record's values (NaN for an accuracy it lacks).
_METRICS_COLUMNS = ("strategy", "seed", "budget", "round", "epoch", *LOSS_NAMES,
                    "source_accuracy", "target_accuracy")
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


class _Recipe(dict):
    """A checked dataset recipe, which cannot be edited in place: every
    mutator is a TypeError.  It hashes by its sorted items and pickles to an
    equal recipe, so a config that holds it can be hashed and pickled."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a checked dataset recipe is read-only; build a new config with "
                        "dataclasses.replace")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self):
        return hash(tuple(sorted(self.items())))

    def __reduce__(self):
        return type(self), (dict(self),)


def _check_dataset(dataset: dict, lines: dict | None = None) -> dict:
    """The recipe ``dataset`` with every key it leaves out at its default;
    ConfigError unless the kind is in ``_DATASETS``, every other key is one
    of its keys, and every required key is set.  ``lines`` maps a key to
    the config-file line that set it."""
    lines = lines or {}
    kind = dataset.get("kind")
    if kind not in _DATASETS:
        raise ConfigError(f"{_at(lines.get('kind'))}unknown dataset kind '{kind}' "
                          f"(choose from {sorted(_DATASETS)})")
    defaults = _DATASETS[kind][1]
    for key in dataset:
        if key != "kind" and key not in defaults:
            raise ConfigError(f"{_at(lines.get(key))}dataset key '{key}' not valid for kind "
                              f"'{kind}'")
    recipe = {"kind": kind, **defaults, **dataset}
    missing = [k for k, v in recipe.items() if v is None]
    if missing:
        raise ConfigError(f"dataset kind '{kind}' needs keys {missing}")
    return recipe


def _parse_dataset(entries: dict) -> dict:
    """The recipe that ``entries``, ``{key: (raw value, line)}`` for the
    ``dataset.`` keys of a config file, describe: every key of its kind, a
    key the file leaves out at its default, each value of its default's
    type."""
    lines = {key: line for key, (_, line) in entries.items()}
    recipe = _check_dataset({key: raw for key, (raw, _) in entries.items()}, lines)
    defaults = _DATASETS[recipe["kind"]][1]
    for key, (raw, line) in entries.items():
        if key != "kind":
            recipe[key] = _coerce(raw, type(defaults[key]), f"dataset.{key}", line)
    return recipe


@dataclass(frozen=True)
class ExperimentConfig:
    """A TrainConfig plus dataset recipe, strategy and seed lists and output
    location; each run takes its strategy and seed from the lists.

    Frozen, and checked when built, so ``dataclasses.replace`` checks too:
    ConfigError for an empty ``out_dir``, strategy list or seed list; an
    empty, repeated or unknown strategy; a repeated, negative or non-integer
    seed; or a dataset kind or key that the dataset table refuses.  The
    lists are stored as tuples, and the recipe, read-only, with every key it
    leaves out at its default; its values are checked when its pools are
    built.  So a config cannot be edited in place, and it can be hashed."""

    train: TrainConfig = field(default_factory=TrainConfig)
    dataset: dict = field(default_factory=lambda: {"kind": _DEFAULT_KIND})
    out_dir: str = "runs"
    strategies: tuple = ("active",)
    seeds: tuple = (0,)
    standardize: bool = True

    def __post_init__(self):
        if not self.out_dir:
            raise ConfigError("out_dir is empty")
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        # both lists keep the same rules; each entry is checked by its owner
        for key, noun, values, check in (("strategy", "strategy", self.strategies, _check_strategy),
                                         ("seeds", "seed", self.seeds, check_seed)):
            listed = ",".join(map(str, values))
            if not values:
                raise ConfigError(f"{key} list is empty: need at least one {noun}")
            if "" in values:
                raise ConfigError(f"{key} list '{listed}' has an empty entry")
            try:
                for value in values:
                    check(value)
            except ValueError as exc:
                raise ConfigError(f"{exc}, in the {key} list") from None
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} list '{listed}' repeats a {noun}")
        try:
            object.__setattr__(self, "dataset", _Recipe(_check_dataset(self.dataset)))
        except ConfigError as exc:
            raise ConfigError(f"dataset: {exc}") from None


_TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}


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
    """Seeds from 'lo..hi' (inclusive) or 'a,b,c'; syntax only, a ConfigError
    unless each bound or entry is an integer (an empty one is not), located
    by ``line_no``.  :class:`ExperimentConfig` checks the list itself."""
    raw = raw.strip()
    if ".." in raw:
        lo, _, hi = raw.partition("..")
        return list(range(_coerce(lo, int, "seeds", line_no),
                          _coerce(hi, int, "seeds", line_no) + 1))
    return [_coerce(p, int, "seeds", line_no) for p in raw.split(",")]


def parse_config(path: str) -> ExperimentConfig:
    """Parse a flat key=value config file; an unknown or repeated key, or a
    value that its field's check refuses, is a ConfigError naming the line."""
    entries: dict = {}  # key -> (raw value, line number)
    lines = io.StringIO(read_text(path, ConfigError), newline=None)
    for line_no, line in enumerate(lines, start=1):
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

    dataset = {"kind": (_DEFAULT_KIND, None)}
    for key in [key for key in entries if key.startswith("dataset.")]:
        dataset[key[len("dataset."):]] = entries.pop(key)
    config_kw: dict = {"dataset": _parse_dataset(dataset)}
    train_kw: dict = {}
    for key, (raw, line_no) in entries.items():
        owner, kw, name = ExperimentConfig, config_kw, key
        if key == "out_dir":
            value = raw
        elif key == "seeds":
            value = parse_seeds(raw, line_no)
        elif key == "strategy":
            name, value = "strategies", [strategy.strip() for strategy in raw.split(",")]
        elif key == "standardize":
            if raw.lower() not in ("true", "false"):
                raise ConfigError(f"line {line_no}: standardize expects true/false")
            value = raw.lower() == "true"
        elif key in _TRAIN_DEFAULTS:
            owner, kw = TrainConfig, train_kw
            value = _coerce(raw, type(_TRAIN_DEFAULTS[key]), key, line_no)
        else:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        try:  # each check reads one field, so check it alone
            owner(**{name: value})
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"line {line_no}: {exc}") from None
        kw[name] = value
    return ExperimentConfig(train=TrainConfig(**train_kw), **config_kw)


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

    def eval_cb(params):
        return {"source_accuracy": accuracy(params, source),
                "target_accuracy": accuracy(params, target)}

    return run_algorithm_1(source, target, config.train, run_seed, strategy, eval_cb=eval_cb)


def _metrics_rows(record: RunRecord) -> list:
    rows = []
    stages = [(0, record.stage1)] + [(r.round, r.stage3) for r in record.rounds]
    for round_index, history in stages:
        for rec in history.epochs:
            values = {"seed": record.seed, "budget": record.config.budget,
                      "round": round_index, **rec}
            rows.append(",".join([record.strategy] + [repr(values.get(c, float("nan")))
                                                      for c in _METRICS_COLUMNS[1:]]))
    return rows


def _write_lines(path: str, lines: list):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _write_json(path: str, obj: dict):
    _write_lines(path, [json.dumps(obj, sort_keys=True, indent=1)])


def _run_and_save(config: ExperimentConfig, run_seed: int, strategy: str, pools,
                  out: str) -> tuple:
    """Run one (strategy, seed) pair, write its RunRecord JSON and checkpoint,
    and return its ``(metrics rows, manifest entry)``; a diverged run has no
    rows and no files, and its entry says so."""
    tag = f"{strategy}-seed{run_seed}"
    try:
        record = _run_one(config, run_seed, strategy, pools)
    except TrainingDivergedError as exc:
        return [], {"run": tag, "status": "diverged", "epoch": exc.epoch}
    _write_json(os.path.join(out, f"run-{tag}.json"), record.to_dict())
    nets.save_checkpoint(os.path.join(out, f"run-{tag}.ckpt"), record.params)
    return _metrics_rows(record), {
        "run": tag, "status": "ok", "record": f"run-{tag}.json", "checkpoint": f"run-{tag}.ckpt",
        "final_source_accuracy": record.final_source_accuracy,
        "final_target_accuracy": record.final_target_accuracy,
    }


def run_experiment(config: ExperimentConfig, out_dir: str | None = None) -> int:
    """Run every strategy of ``config.strategies`` on every seed of
    ``config.seeds`` and write into ``out_dir`` (default: the config's);
    returns the exit status, 0, or 1 when a run diverged.

    Builds each seed's pools once, for all its strategies.  Writes a
    RunRecord JSON and a checkpoint per finished run, one ``metrics.csv``
    over all of them, a ``MANIFEST.json`` that marks a diverged run and sets
    the status to "failed" without stopping the rest, and ``summary.csv``
    (see :func:`_summary_lines`).  Rows and manifest entries go strategy by
    strategy, then seed by seed, in list order.  ``out_dir`` goes into the
    config with ``dataclasses.replace``, so an empty one is a ConfigError;
    so is a dataset whose values its builder refuses, as the first seed's
    pools are built before anything is written.
    """
    if out_dir is not None:
        config = replace(config, out_dir=out_dir)
    out = config.out_dir
    pairs = [(strategy, run_seed) for strategy in config.strategies
             for run_seed in config.seeds]
    try:
        pools = _pools_for_run(config, config.seeds[0])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"dataset: {exc}") from None
    os.makedirs(out, exist_ok=True)
    results, finals = {}, {strategy: [] for strategy in config.strategies}
    for i, run_seed in enumerate(config.seeds):
        if i:
            pools = _pools_for_run(config, run_seed)
        for strategy in config.strategies:
            rows, entry = _run_and_save(config, run_seed, strategy, pools, out)
            results[strategy, run_seed] = rows, entry
            if entry["status"] == "ok":
                finals[strategy].append(entry["final_target_accuracy"])
    runs = [results[pair][1] for pair in pairs]
    status = "ok" if all(run["status"] == "ok" for run in runs) else "failed"
    _write_lines(os.path.join(out, "metrics.csv"), [METRICS_VERSION_LINE, METRICS_HEADER]
                 + [row for pair in pairs for row in results[pair][0]])
    _write_json(os.path.join(out, "MANIFEST.json"), {"runs": runs, "status": status})
    _write_lines(os.path.join(out, "summary.csv"), _summary_lines(finals))
    return 0 if status == "ok" else 1


def _summary_lines(finals: dict) -> list:
    """summary.csv: one row per strategy with finished runs, in ``finals``'
    order, with the mean and sd of their final target accuracy and their
    count; then the mean difference of every pair of those strategies (e.g.
    active − random).  A strategy with no finished run has neither."""
    done = {strategy: accs for strategy, accs in finals.items() if accs}
    lines = ["strategy,mean_target_accuracy,sd_target_accuracy,finished_runs"]
    lines += [f"{s},{float(np.mean(accs))!r},{float(np.std(accs))!r},{len(accs)}"
              for s, accs in done.items()]
    names = list(done)
    return lines + [f"{a}_minus_{b},{float(np.mean(done[a]) - np.mean(done[b]))!r},,"
                    for i, a in enumerate(names) for b in names[i + 1:]]
