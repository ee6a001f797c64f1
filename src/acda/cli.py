"""Command-line interface.

Subcommands:
  run <config>       execute the configured experiment (one run per seed)
  compare <config>   sweep strategies x seeds and summarize final accuracy
  gen <config>       materialize the configured dataset as CSV (no training)
  check              run fast self-diagnostics, printing PASS/FAIL per item

Flags --budget, --lambda-div, --seed, --strategy override config keys;
compare takes --seed or --seeds, not both.
Output root resolution: --out, else $ACDA_OUT_ROOT, else the config's
out_dir, else ./runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import experiments, transport
from .acda import (TrainConfig, lambda_w, query_scores, select_queries,
                   uncertainty_weights, weighted_query_loss)
from .data import export_csv
from .errors import AcdaError, ConfigError
from .experiments import (ExperimentConfig, compare_strategies, parse_config,
                          parse_seeds, run_experiment)

OUT_ROOT_ENV = "ACDA_OUT_ROOT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acda",
        description="Active adversarial domain adaptation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_config=True):
        if with_config:
            p.add_argument("config", help="path to a key=value config file")
        p.add_argument("--budget", type=float, default=None,
                       help="query budget fraction in (0,1)")
        p.add_argument("--lambda-div", type=float, default=None, dest="lambda_div",
                       help="diversity weight in the query objective")
        p.add_argument("--seed", type=int, default=None,
                       help="single seed overriding the config's seed list")
        p.add_argument("--strategy", choices=("active", "random", "none"),
                       default=None, help="query strategy")
        p.add_argument("--out", default=None, help="output directory root")

    p_run = sub.add_parser("run", help="execute the configured experiment")
    common(p_run)

    p_cmp = sub.add_parser("compare", help="sweep strategies x seeds")
    common(p_cmp)
    p_cmp.add_argument("--strategies", default="active,random,none",
                       help="comma-separated strategies to compare")
    p_cmp.add_argument("--seeds", default=None,
                       help="seed list, e.g. '1..20' or '3,5,8'")

    p_gen = sub.add_parser("gen", help="emit the configured dataset as CSV")
    common(p_gen)

    p_chk = sub.add_parser("check", help="run fast self-diagnostics")
    common(p_chk, with_config=False)
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    train = config.train
    updates = {}
    if args.budget is not None:
        updates["budget"] = args.budget
    if args.lambda_div is not None:
        updates["lambda_div"] = args.lambda_div
    if args.strategy is not None:
        updates["strategy"] = args.strategy
    if updates:
        train = replace(train, **updates)
    config.train = train
    if args.seed is not None:
        config.seeds = [args.seed]
    return config


def _resolve_out(args, config: ExperimentConfig) -> str:
    if args.out:
        return args.out
    env = os.environ.get(OUT_ROOT_ENV)
    if env:
        return os.path.join(env, os.path.basename(config.out_dir))
    return config.out_dir


def _cmd_run(args) -> int:
    config = _apply_overrides(parse_config(args.config), args)
    return run_experiment(config, out_dir=_resolve_out(args, config))


def _cmd_compare(args) -> int:
    if args.seed is not None and args.seeds:
        raise ConfigError("give either --seed or --seeds, not both")
    config = _apply_overrides(parse_config(args.config), args)
    strategies = [s for s in args.strategies.split(",") if s.strip()]
    seeds = parse_seeds(args.seeds) if args.seeds else config.seeds
    _, status = compare_strategies(config, strategies, seeds, out_dir=_resolve_out(args, config))
    return status


def _cmd_gen(args) -> int:
    config = _apply_overrides(parse_config(args.config), args)
    out = _resolve_out(args, config)
    os.makedirs(out, exist_ok=True)
    seed = config.seeds[0]
    made = experiments.build_pair(config.dataset, seed)
    source, target = made if isinstance(made, tuple) else (made.source, made.target)
    path = os.path.join(out, "dataset.csv")
    export_csv(path, source, target)
    print(path)
    return 0


def _cmd_check(args) -> int:
    """Fast invariant suite: exercises one representative of each mechanism."""
    failures = 0

    def report(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
        failures += 0 if ok else 1

    report("lambda_w endpoints",
           abs(lambda_w(0.0)) < 1e-12 and abs(lambda_w(1.0) - 0.999909) < 1e-6)
    grid = np.array([lambda_w(p) for p in np.linspace(0, 1, 100)])
    report("lambda_w strictly increasing", bool(np.all(np.diff(grid) > 0)))

    a = np.array([[0.0], [1.0]])
    b = np.array([[0.5], [1.5]])
    w1, _ = transport.exact_w1(a, b)
    report("exact W1 hand case", abs(w1 - 0.5) < 1e-12, f"got {w1}")

    from .nets import NetworkSpec, init_network, predictive_entropy
    probs = np.full(4, 0.25)
    report("uniform entropy = ln 4",
           abs(predictive_entropy(probs) - np.log(4)) < 1e-12)

    wv = uncertainty_weights([0, 0, 1], [0.2, 0.6, 0.2], 2)
    report("weight vector hand case",
           np.allclose(wv.alpha, [0.8, 0.2], atol=1e-12), f"alpha={wv.alpha}")

    loss = weighted_query_loss(np.array([[0.5, 0.5], [0.5, 0.5]]),
                               [0, 1], type(wv)(alpha=np.array([0.8, 0.2]),
                                                counts=np.array([1, 1])))
    report("weighted loss hand case", abs(loss - 0.5 * np.log(2)) < 1e-12)

    from .autodiff import Graph, finite_difference_check, gradient
    g = Graph()
    x = g.leaf("x", (3,))
    y = g.sum(g.mul(x, x))
    err = finite_difference_check(g, y, "x", {"x": np.array([1.0, -2.0, 3.0])})
    report("autodiff finite-difference", err < 1e-6, f"rel err {err:.2e}")

    from .data import gen_two_moons_pair
    pair = gen_two_moons_pair(40, 40, 30.0, 0.05, 0.1, seed=11)
    h = transport.lipschitz_normalize(
        init_network(NetworkSpec((2, 16, 1), "tanh", "identity"), seed=5))
    bound = transport.bound_rhs(h, pair.source.features, pair.target.features,
                                pair.f_source, pair.f_target)
    report("risk bound holds", bound.holds,
           f"target={bound.target_risk:.4f} rhs={bound.rhs:.4f}")

    return 1 if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"run": _cmd_run, "compare": _cmd_compare,
               "gen": _cmd_gen, "check": _cmd_check}[args.command]
    try:
        return handler(args)
    except AcdaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
