"""Release-gate property checks.

Nine independent criteria, each printing a single PASS/FAIL verdict:

 1. autodiff vs central finite differences on random networks + the
    gradient-penalty parameter gradient (max rel err < 1e-4, < 30 s)
 2. exact W1 vs brute-force enumeration and metric axioms (1e-9, < 10 s)
 3. trained critic estimate within [0.7, 1.1] x exact W1 (< 60 s)
 4. query selection vs brute-force top-k; entropy reduction; weight sums
 5. entropy / weighted-loss identities to 1e-12
 6. risk-bound diagnostic holds on 50 random domain pairs (< 120 s)
 7. mean target accuracy: active >= random - 0.005, both >= none + 0.02
    on rotated two-moons at a 5% budget over 20 seeds (< 15 min)
 8. adversarial-weight schedule endpoints and monotonicity
 9. byte-identical metrics CSV across repeated invocations
"""

import itertools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from acda import nets, transport
from acda.acda import (QueryResult, TrainConfig, lambda_w, query_scores,
                       query_size, run_algorithm_1, select_queries,
                       uncertainty_weights, weighted_query_loss, WeightVector)
from acda.autodiff import Graph, finite_difference_check
from acda.data import (Dataset, gen_gaussian_shift_pair, gen_two_moons_pair,
                       standardize_features)
from acda.experiments import parse_config, run_experiment
from acda.nets import (NetworkSpec, cross_entropy, init_network,
                       param_bindings, predictive_entropy)
from acda.seeding import derive_seed


# One line per criterion; conftest replays these in the terminal summary so
# they survive pytest's output capture on passing tests.
VERDICT_LINES: list = []


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    line = f"criterion {number} ({name}): {status}{suffix}"
    VERDICT_LINES.append(line)
    print(line)
    return ok


# --------------------------------------------------------------- criterion 1


def _random_role_graph(role: str, rng: np.random.Generator):
    """A small random network of an F-, C-, or D-like shape plus a scalar loss."""
    depth = int(rng.integers(2, 4))
    widths = [int(rng.integers(2, 6)) for _ in range(depth + 1)]
    if role == "D":
        widths[-1] = 1
    spec = NetworkSpec(tuple(widths), "softmax" if role == "C" else "identity")
    params = init_network(spec, seed=int(rng.integers(0, 2**31)))
    batch = int(rng.integers(2, 5))

    g = Graph()
    x = g.leaf("x", (batch, widths[0]))
    logits = nets.build_forward(g, spec, x, "net")
    if role == "C":
        labels = rng.integers(0, widths[-1], size=batch)
        onehot = np.zeros((batch, widths[-1]))
        onehot[np.arange(batch), labels] = 1.0
        y = g.leaf("y", (batch, widths[-1]))
        scalar = g.mean(g.sub(g.logsumexp(logits, axis=1),
                              g.sum(g.mul(logits, y), axis=1)))
        extra = {"y": onehot}
    else:
        scalar = g.mean(g.square(logits))
        extra = {}
    bindings = {"x": rng.normal(size=(batch, widths[0])), **extra}
    bindings.update(param_bindings(params, "net"))
    leaf_names = nets.param_leaf_names(spec, "net")
    return g, scalar, leaf_names, bindings


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(100):
        role = ("F", "C", "D")[i % 3]
        g, scalar, leaf_names, bindings = _random_role_graph(role, rng)
        for name in leaf_names:
            err = finite_difference_check(g, scalar, name, bindings, step=1e-5)
            worst = max(worst, err)

    # parameter gradient of the gradient-penalty term itself, through a
    # 4-layer critic so the double backprop runs through three tanh layers
    d_spec = NetworkSpec((2, 4, 3, 4, 1), "identity")
    g = Graph()
    penalty = transport.build_gradient_penalty(g, d_spec, g.leaf("xhat", (4, 2)))
    bindings = {"xhat": rng.normal(size=(4, 2))}
    bindings.update(param_bindings(init_network(d_spec, 8), "D"))
    for name in ("D.W0", "D.b0", "D.W2", "D.b3", "xhat"):
        err = finite_difference_check(g, penalty, name, bindings, step=1e-5)
        worst = max(worst, err)

    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    assert _verdict(1, "gradient correctness", ok,
                    f"max rel err {worst:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 2


def _brute_force_w1(a: np.ndarray, b: np.ndarray) -> float:
    n = len(a)
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return min(sum(cost[i, p[i]] for i in range(n))
               for p in itertools.permutations(range(n))) / n


def test_criterion_2_transport_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        a = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        b = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        value, plan = transport.exact_w1(a, b)
        worst = max(worst, abs(value - _brute_force_w1(a, b)),
                    plan.marginal_error())

    axiom_worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a, b, c = (rng.normal(size=(n, 2)) for _ in range(3))
        ab = transport.exact_w1(a, b)[0]
        ba = transport.exact_w1(b, a)[0]
        bc = transport.exact_w1(b, c)[0]
        ac = transport.exact_w1(a, c)[0]
        aa = transport.exact_w1(a, a)[0]
        axiom_worst = max(axiom_worst, abs(ab - ba), aa,
                          max(0.0, ac - ab - bc))

    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and axiom_worst < 1e-9 and elapsed < 10.0
    assert _verdict(2, "exact transport oracle", ok,
                    f"enum err {worst:.1e}, axiom err {axiom_worst:.1e}, "
                    f"{elapsed:.1f}s")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_critic_dual_estimate():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    cloud_a = rng.normal(size=(64, 2))
    cloud_b = rng.normal(size=(64, 2)) + np.array([2.0, -1.0])
    exact, _ = transport.exact_w1(cloud_a, cloud_b)
    d_params = transport.fit_critic(cloud_a, cloud_b, steps=2000, seed=0)
    estimate = transport.critic_w1_estimate(d_params, cloud_a, cloud_b)
    ratio = estimate / exact
    elapsed = time.perf_counter() - start
    ok = 0.7 * exact <= estimate <= 1.1 * exact and elapsed < 60.0
    assert _verdict(3, "critic dual estimate", ok,
                    f"exact {exact:.4f}, estimate {estimate:.4f}, "
                    f"ratio {ratio:.3f}, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_query_machinery():
    rng = np.random.default_rng(404)
    ok = True

    for _ in range(1000):
        m = int(rng.integers(1, 60))
        combined = np.round(rng.normal(size=m), 1)  # coarse values force ties
        scores = QueryResult(
            indices=np.lexsort((np.arange(m), -combined)),
            uncertainty=np.zeros(m), diversity=np.zeros(m), combined=combined)
        budget = float(rng.uniform(0.01, 0.99))
        picked = select_queries(scores, budget)
        k = query_size(m, budget)
        expected = sorted(range(m), key=lambda i: (-combined[i], i))[:k]
        ok = ok and np.array_equal(picked, expected)

    f = init_network(nets.default_feature_spec(2), 1)
    c = init_network(nets.default_classifier_spec(2), 2)
    d = init_network(nets.default_critic_spec(), 3)
    pool = Dataset(rng.normal(size=(257, 2)), None)
    scores = query_scores({"F": f, "C": c, "D": d}, pool, 0.0)
    entropy = predictive_entropy(nets.forward(c, nets.forward(f, pool.features)))
    entropy_rank = np.lexsort((np.arange(len(entropy)), -entropy))
    ok = ok and np.array_equal(scores.indices, entropy_rank)

    worst = 0.0
    for i in range(1000):
        n_classes = int(rng.integers(2, 8))
        m_q = int(rng.integers(1, 40))
        labels = rng.integers(0, n_classes, size=m_q)
        if i % 5 == 0:
            entropies = np.zeros(m_q)  # exercises the frequency fallback
        else:
            entropies = rng.uniform(0, np.log(n_classes), size=m_q)
        wv = uncertainty_weights(labels, entropies, n_classes)
        worst = max(worst, abs(wv.alpha.sum() - 1.0))
    ok = ok and worst < 1e-9

    assert _verdict(4, "query machinery", ok, f"alpha sum err {worst:.1e}")


# --------------------------------------------------------------- criterion 5


def test_criterion_5_entropy_and_loss_identities():
    one_hot_err = abs(predictive_entropy(np.array([0.0, 0.0, 1.0, 0.0])))
    uniform_err = max(abs(predictive_entropy(np.full(c, 1.0 / c)) - np.log(c))
                      for c in range(2, 11))

    rng = np.random.default_rng(505)
    probs = rng.dirichlet(np.ones(6), size=40)
    labels = rng.integers(0, 6, size=40)
    uniform_alpha = WeightVector(alpha=np.full(6, 1.0 / 6),
                                 counts=np.ones(6, dtype=int))
    loss_err = abs(weighted_query_loss(probs, labels, uniform_alpha)
                   - cross_entropy(probs, labels) / 6)

    worst = max(one_hot_err, uniform_err, loss_err)
    assert _verdict(5, "entropy and loss identities", worst < 1e-12,
                    f"max err {worst:.1e}")


# --------------------------------------------------------------- criterion 6


def test_criterion_6_risk_bound_diagnostic():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    holds = 0
    min_margin = np.inf
    for case in range(50):
        n = int(rng.integers(30, 120))
        if case % 2 == 0:
            pair = gen_two_moons_pair(
                n, n, rotation_deg=float(rng.uniform(0, 360)),
                noise_sd=float(rng.uniform(0.01, 0.3)),
                label_flip_rate=float(rng.uniform(0, 0.45)),
                seed=int(rng.integers(0, 2**31)))
        else:
            pair = gen_gaussian_shift_pair(
                n_classes=2, dim=int(rng.integers(1, 5)),
                mean_shift=float(rng.uniform(0, 4)),
                covariance_scale=float(rng.uniform(0.5, 2)),
                swap_fraction=float(rng.uniform(0, 1)),
                n_source=n, n_target=n, seed=int(rng.integers(0, 2**31)))
        dim = pair.source.dim
        h = transport.lipschitz_normalize(init_network(
            NetworkSpec((dim, 32, 16, 1), "identity"),
            seed=int(rng.integers(0, 2**31))))
        report = transport.bound_rhs(h, pair.source.features,
                                     pair.target.features,
                                     pair.f_source, pair.f_target)
        holds += int(report.holds)
        min_margin = min(min_margin, report.rhs - report.target_risk)
    elapsed = time.perf_counter() - start
    ok = holds == 50 and elapsed < 120.0
    assert _verdict(6, "risk bound diagnostic", ok,
                    f"holds {holds}/50, min margin {min_margin:.4f}, "
                    f"{elapsed:.1f}s")


# --------------------------------------------------------------- criterion 7


def _trend_run(seed: int, strategy: str) -> float:
    pair = gen_two_moons_pair(1000, 1000, rotation_deg=40.0, noise_sd=0.1,
                              label_flip_rate=0.1,
                              seed=derive_seed(seed, "data"))
    sx, tx, _, _ = standardize_features(pair.source.features,
                                        pair.target.features)
    source = Dataset(sx, pair.source.labels)
    target = Dataset(tx, pair.target.labels)
    config = TrainConfig(budget=0.05, lambda_div=0.0, query_rounds=5,
                         stage1_epochs=20, stage3_epochs=20, batch_size=128,
                         learning_rate=2e-3)
    return run_algorithm_1(source, target, config, seed, strategy).final_target_accuracy


def test_criterion_7_end_to_end_trend():
    start = time.perf_counter()
    seeds = range(1, 21)
    # the 60 runs are independent; spawned workers start from a clean process
    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, 8),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        runs = {strategy: [pool.submit(_trend_run, s, strategy) for s in seeds]
                for strategy in ("active", "random", "none")}
        means = {strategy: float(np.mean([run.result() for run in futures]))
                 for strategy, futures in runs.items()}
    elapsed = time.perf_counter() - start
    ok = (means["active"] >= means["random"] - 0.005
          and means["active"] >= means["none"] + 0.02
          and means["random"] >= means["none"] + 0.02
          and elapsed < 900.0)
    assert _verdict(7, "end-to-end trend", ok,
                    f"active {means['active']:.4f}, random {means['random']:.4f}, "
                    f"none {means['none']:.4f}, {elapsed:.0f}s")


# --------------------------------------------------------------- criterion 8


def test_criterion_8_adversarial_weight_schedule():
    grid = np.array([lambda_w(p) for p in np.linspace(0.0, 1.0, 100)])
    ok = (lambda_w(0.0) == 0.0
          and abs(lambda_w(1.0) - 0.999909) <= 1e-6
          and bool(np.all(np.diff(grid) > 0.0)))
    assert _verdict(8, "adversarial weight schedule", ok,
                    f"endpoints ({lambda_w(0.0)}, {lambda_w(1.0):.6f})")


# --------------------------------------------------------------- criterion 9


def test_criterion_9_byte_identical_metrics(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("""
budget = 0.1
stage1_epochs = 2
stage3_epochs = 2
batch_size = 40
seeds = 1,2
dataset.kind = two_moons
dataset.n_source = 120
dataset.n_target = 120
dataset.rotation_deg = 30
dataset.noise_sd = 0.1
dataset.label_flip_rate = 0.1
""", encoding="utf-8")
    config = parse_config(str(cfg_path))
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert run_experiment(config, out_dir=out_a) == 0
    assert run_experiment(config, out_dir=out_b) == 0
    blob_a = open(os.path.join(out_a, "metrics.csv"), "rb").read()
    blob_b = open(os.path.join(out_b, "metrics.csv"), "rb").read()
    assert _verdict(9, "byte-identical metrics", blob_a == blob_b,
                    f"{len(blob_a)} bytes")
