"""Command-line interface.

Subcommands:
  run <config>       run every configured strategy on every configured seed
  gen <config>       write the pools one seed's run trains on as CSV
  check              run fast self-diagnostics, printing PASS/FAIL per item

Every run setting is a config key (the TrainConfig fields, the dataset.*
keys of the chosen kind, strategy, seeds, standardize and out_dir), each set
once in the file; ``strategy`` takes a list such as 'active,random,none'.
Flags pick only the seed and the output root: run and gen take --seed, one
seed that replaces the config's seeds, and --out, which replaces its
out_dir.  Both are applied with ``dataclasses.replace``, so the config
checks them as it checks its file's values: a negative seed or an empty
output root exits with status 2 before anything is written.  check takes
no flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import experiments, transport
from .acda import lambda_w, uncertainty_weights, weighted_query_loss
from .data import export_csv
from .errors import AcdaError
from .experiments import parse_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acda",
        description="Active adversarial domain adaptation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary in (("run", "run every configured strategy on every seed"),
                          ("gen", "write one seed's training pools as CSV")):
        # no abbreviations: each flag has one spelling
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("config", help="path to a key=value config file")
        p.add_argument("--out", default=None,
                       help="output directory root (default: the config's out_dir)")
        p.add_argument("--seed", type=int, default=None, dest="seeds",
                       help="one seed, replacing the config's seeds")

    sub.add_parser("check", help="run fast self-diagnostics")
    return parser


def _load(args):
    """The command's config, with its --seed and --out flags applied."""
    config = parse_config(args.config)
    if args.seeds is not None:
        config = replace(config, seeds=[args.seeds])
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    return config


def _cmd_run(args) -> int:
    return run_experiment(_load(args))


def _cmd_gen(args) -> int:
    config = _load(args)
    source, target = experiments._pools_for_run(config, config.seeds[0])
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "dataset.csv")
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

    from .autodiff import Graph, finite_difference_check
    g = Graph()
    x = g.leaf("x", (3,))
    y = g.sum(g.mul(x, x))
    err = finite_difference_check(g, y, "x", {"x": np.array([1.0, -2.0, 3.0])})
    report("autodiff finite-difference", err < 1e-6, f"rel err {err:.2e}")

    from .data import gen_two_moons_pair
    pair = gen_two_moons_pair(40, 40, 30.0, 0.05, 0.1, seed=11)
    h = transport.lipschitz_normalize(
        init_network(NetworkSpec((2, 16, 1), "identity"), seed=5))
    bound = transport.bound_rhs(h, pair.source.features, pair.target.features,
                                pair.f_source, pair.f_target)
    report("risk bound holds", bound.holds,
           f"target={bound.target_risk:.4f} rhs={bound.rhs:.4f}")

    return 1 if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"run": _cmd_run, "gen": _cmd_gen, "check": _cmd_check}[args.command]
    try:
        return handler(args)
    except (AcdaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
