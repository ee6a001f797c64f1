"""Wasserstein-1 machinery.

Three pieces: an exact small-instance optimal-transport oracle; the critic's
ascent step on the empirical W1 estimate minus a gradient penalty at feature
interpolates, which keeps the critic near 1-Lipschitz; and a finite-sample
diagnostic for the target-risk bound  eps_T <= eps_S + 2*W1 + disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

from . import nets
from .autodiff import Graph, Step, forward_eval
from .errors import CapacityError, TransportError
from .nets import NetworkParams, NetworkSpec
from .optim import Adam
from .seeding import derive_seed, make_rng

__all__ = [
    "TransportPlan",
    "BoundReport",
    "exact_w1",
    "critic_w1_estimate",
    "gradient_penalty",
    "build_critic_w1",
    "build_gradient_penalty",
    "build_critic_step",
    "critic_ascent",
    "fit_critic",
    "lipschitz_normalize",
    "bound_rhs",
    "EXACT_W1_SIZE_LIMIT",
]

EXACT_W1_SIZE_LIMIT = 512


@dataclass
class TransportPlan:
    """An optimal coupling between two uniform empirical measures."""

    coupling: np.ndarray  # (m, n), non-negative, sums to 1
    cost: np.ndarray      # (m, n) pairwise ground costs

    def marginal_error(self) -> float:
        m, n = self.coupling.shape
        row = np.abs(self.coupling.sum(axis=1) - 1.0 / m).max()
        col = np.abs(self.coupling.sum(axis=0) - 1.0 / n).max()
        return float(max(row, col))


@dataclass
class BoundReport:
    """Empirical evaluation of the target-risk inequality."""

    source_risk: float
    w1_term: float        # 2 * exact W1 between the empirical feature measures
    disagreement: float   # mean |f_s - f_t| over the source sample
    rhs: float
    target_risk: float
    holds: bool


def _check_points(points, label: str) -> np.ndarray:
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"{label} must be a non-empty (n, d) array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{label} must be finite (no NaN or inf)")
    return x


def _check_widths(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")


def _check_pair(a_points, b_points, a_label: str, b_label: str):
    """Two point sets as finite, non-empty float arrays of the same width."""
    a = _check_points(a_points, a_label)
    b = _check_points(b_points, b_label)
    _check_widths(a, b)
    return a, b


def exact_w1(a_points, b_points):
    """Exact W1 between uniform empirical measures on m and n points.

    When L = lcm(m, n) is at most ``EXACT_W1_SIZE_LIMIT`` (512), every point
    is split into L/m (or L/n) points of mass 1/L, and one
    ``scipy.optimize.linear_sum_assignment`` matches the L split points of
    each side; equal sizes are the case L = m = n.  Otherwise a
    transportation linear program solves the pair.  Returns
    ``(value, TransportPlan)``; the plan's coupling is an optimal one, and
    on the assignment path its entries are whole multiples of 1/L.  Either
    side larger than ``EXACT_W1_SIZE_LIMIT`` is a CapacityError.
    """
    a, b = _check_pair(a_points, b_points, "a_points", "b_points")
    m, n = a.shape[0], b.shape[0]
    if max(m, n) > EXACT_W1_SIZE_LIMIT:
        raise CapacityError(
            f"instance size {max(m, n)} exceeds the exact-solver bound {EXACT_W1_SIZE_LIMIT}"
        )
    cost = cdist(a, b)
    size = int(np.lcm(m, n))
    if size > EXACT_W1_SIZE_LIMIT:
        coupling = _transport_lp(cost, m, n)
        value = float((coupling * cost).sum())
    else:
        # Split point k of a side stands for its original point k // (L/m).
        rows = np.arange(size) // (size // m)
        split_cols = np.arange(size) // (size // n)
        _, col = linear_sum_assignment(cost[np.ix_(rows, split_cols)])
        cols = split_cols[col]
        coupling = np.zeros((m, n))
        np.add.at(coupling, (rows, cols), 1.0)  # whole counts, exact in float64
        coupling /= size
        value = float(cost[rows, cols].mean())
    return value, TransportPlan(coupling=coupling, cost=cost)


def _transport_lp(cost: np.ndarray, m: int, n: int) -> np.ndarray:
    """Uniform-marginal transportation LP solved exactly (vertex solution)."""
    mn = m * n
    var = np.arange(mn)
    rows = np.concatenate([var // n, m + (var % n)])
    cols = np.concatenate([var, var])
    data = np.ones(2 * mn)
    a_eq = scipy.sparse.csr_matrix((data, (rows, cols)), shape=(m + n, mn))
    b_eq = np.concatenate([np.full(m, 1.0 / m), np.full(n, 1.0 / n)])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:  # pragma: no cover - uniform marginals are always feasible
        raise TransportError(f"transportation LP failed: {res.message}")
    coupling = np.maximum(res.x.reshape(m, n), 0.0)
    return coupling


# ----------------------------------------------------------------------
# critic-based estimate and gradient penalty


def critic_w1_estimate(d_params: NetworkParams, fs, ft) -> float:
    """Mean critic score on the source features ``fs`` minus mean critic
    score on the target features ``ft``: the numpy form of
    :func:`build_critic_w1`, which the tests check the graphs against."""
    fs, ft = _check_pair(fs, ft, "fs", "ft")
    score_s = nets.forward(d_params, fs)
    score_t = nets.forward(d_params, ft)
    return float(score_s.mean() - score_t.mean())


def build_critic_w1(graph: Graph, d_spec: NetworkSpec, fs_node: int, ft_node: int) -> int:
    """Append the empirical-W1 estimate  mean D(fs) - mean D(ft)  on two
    feature nodes (leaves, or F's output nodes) to ``graph``; returns its id.
    D's parameters are the leaves ``D.W{i}`` / ``D.b{i}``."""
    ds = nets.build_forward(graph, d_spec, fs_node, "D")
    dt = nets.build_forward(graph, d_spec, ft_node, "D")
    return graph.sub(graph.mean(ds), graph.mean(dt))


def build_gradient_penalty(graph: Graph, d_spec: NetworkSpec, fhat_node: int) -> int:
    """Append the feature-space gradient penalty of the critic D: the mean
    over rows of (||grad_f D(f)||_2 - 1)^2 at f = fhat (WDGRL, arXiv
    1707.01217, after WGAN-GP, arXiv 1704.00028).

    ``fhat_node`` must be a *leaf* holding precomputed feature interpolates,
    since the penalty differentiates the critic with respect to it.  D's
    parameters are the leaves ``D.*``.  Returns the penalty node id.
    """
    dhat = nets.build_forward(graph, d_spec, fhat_node, "D")
    grad_f = graph.add_gradient_nodes(graph.sum(dhat), [fhat_node])[fhat_node]
    norms = graph.l2norm(grad_f, axis=1)
    return graph.mean(graph.square(graph.affine(norms, 1.0, -1.0)))


def interpolates(batch_s: np.ndarray, batch_t: np.ndarray, seed: int) -> np.ndarray:
    """Per-pair convex combinations eps*x_s + (1-eps)*x_t, eps ~ U(0,1).

    Longer batch truncated to the shorter; deterministic in ``seed``.
    ValueError unless both batches have the same width.
    """
    _check_widths(batch_s, batch_t)
    k = min(batch_s.shape[0], batch_t.shape[0])
    eps = make_rng(seed, "gp-eps").uniform(size=(k, 1))
    return eps * batch_s[:k] + (1.0 - eps) * batch_t[:k]


def gradient_penalty(d_params: NetworkParams, fs, ft, seed: int) -> float:
    """Mean over feature interpolates of (||grad_f D(f)||_2 - 1)^2, the
    interpolates drawn between the features ``fs`` and ``ft``."""
    fhat = interpolates(*_check_pair(fs, ft, "fs", "ft"), seed)
    g = Graph()
    penalty = build_gradient_penalty(g, d_params.spec, g.leaf("xhat", fhat.shape))
    bindings = {"xhat": fhat, **nets.param_bindings(d_params, "D")}
    return float(forward_eval(g, bindings, [penalty])[penalty])


def build_critic_step(d_spec: NetworkSpec, ns: int, nt: int, penalty_weight: float) -> Step:
    """The critic's step: ascend  lambda_w * (W1_estimate - penalty_weight *
    penalty)  in D's parameters ``D.*``.  Its one term ``L_grad`` is the
    unweighted penalty; ``step.w1`` is the W1 node, which it does not
    evaluate.  The other leaves are the features ``fs_adv`` (``ns`` rows)
    and ``ft`` (``nt``), their interpolates ``xhat`` and the scalar
    ``lambda_w``.  A weight of 1 adds no node to W1 - penalty."""
    g = Graph()
    width = d_spec.input_dim
    fs = g.leaf("fs_adv", (ns, width))
    ft = g.leaf("ft", (nt, width))
    xhat = g.leaf("xhat", (min(ns, nt), width))
    lamw = g.leaf("lambda_w", ())
    # D(fs) < D(ft) < w1 < penalty path: the order in which the D-gradient
    # sums accumulate
    w1 = build_critic_w1(g, d_spec, fs, ft)
    penalty = build_gradient_penalty(g, d_spec, xhat)
    objective = g.mul(lamw, g.add(w1, g.affine(penalty, -penalty_weight, 0.0)))
    step = Step(g, objective, {"L_grad": penalty}, nets.param_leaf_names(d_spec, "D"))
    step.w1 = w1
    return step


def critic_ascent(step: Step, bindings: dict, opt: Adam, seed: int) -> float:
    """One Adam ascent step of a :func:`build_critic_step` step on the D
    arrays in ``bindings``, in place, at interpolates ``xhat`` drawn with
    ``seed`` between the bound ``fs_adv`` and ``ft``; returns its penalty."""
    bindings["xhat"] = interpolates(bindings["fs_adv"], bindings["ft"], seed)
    terms, grads = step.evaluate(bindings)
    opt.step_ascent(bindings, grads)
    return terms["L_grad"]


# fit_critic's gradient-penalty weight and Adam step size.
_FIT_PENALTY_WEIGHT = 50.0
_FIT_LEARNING_RATE = 1e-3


def fit_critic(points_a, points_b, steps: int = 2000, seed: int = 0) -> NetworkParams:
    """Train a fresh default critic D, seeded by ``seed``, to realize the
    dual W1 estimate on two clouds of features; returns D.  It takes
    ``steps`` full-batch :func:`critic_ascent` steps of training's critic
    step, at penalty weight 50, lambda_w = 1 and Adam step size 1e-3.
    ValueError unless ``steps`` is an integer of at least 1 and the two
    point sets have the same width."""
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    xs, xt = _check_pair(points_a, points_b, "points_a", "points_b")
    d_params = nets.init_network(nets.default_critic_spec(xs.shape[1]),
                                 make_rng(seed, "critic-init").integers(2**63))
    step = build_critic_step(d_params.spec, len(xs), len(xt), _FIT_PENALTY_WEIGHT)
    opt = Adam(_FIT_LEARNING_RATE)
    bindings = {**nets.param_bindings(d_params, "D"), "fs_adv": xs, "ft": xt, "lambda_w": 1.0}
    for i in range(steps):
        critic_ascent(step, bindings, opt, derive_seed(seed, "eps", i))
    return d_params


# ----------------------------------------------------------------------
# Lipschitz construction and the bound diagnostic


def lipschitz_normalize(params: NetworkParams) -> NetworkParams:
    """Rescale each weight matrix so the network is 1-Lipschitz.

    Each layer is divided by max(1, Frobenius norm of its weights); the
    Frobenius norm upper-bounds the spectral norm, and tanh and identity
    are 1-Lipschitz, so the product of layer constants is at most 1.
    """
    out = params.copy()
    for i, w in enumerate(out.weights):
        bound = float(np.sqrt((w * w).sum()))
        if bound > 1.0:
            out.weights[i] = w / bound
    return out


def bound_rhs(h_params: NetworkParams, source_x, target_x, f_s, f_t) -> BoundReport:
    """Evaluate  eps_T <= eps_S + 2*W1 + E_S|f_s - f_t|  on two samples.

    ``h_params`` must be a scalar-output network already made 1-Lipschitz
    (see :func:`lipschitz_normalize`); ``f_s``/``f_t`` are the synthetic
    generators' labeling functions, whose ``score`` maps the input space to
    [0, 1].  Risks are mean absolute differences; the W1 term uses
    the exact solver on the two samples, within its size limit.
    """
    if f_s is None or f_t is None:
        raise ValueError("bound diagnostic needs both labeling functions")
    xs, xt = _check_pair(source_x, target_x, "source_x", "target_x")
    h_s = nets.forward(h_params, xs).reshape(-1)
    h_t = nets.forward(h_params, xt).reshape(-1)
    fs_s = f_s.score(xs)
    ft_s = f_t.score(xs)
    ft_t = f_t.score(xt)
    source_risk = float(np.mean(np.abs(h_s - fs_s)))
    target_risk = float(np.mean(np.abs(h_t - ft_t)))
    w1_value, _ = exact_w1(xs, xt)
    w1_term = 2.0 * w1_value
    disagreement = float(np.mean(np.abs(fs_s - ft_s)))
    rhs = source_risk + w1_term + disagreement
    return BoundReport(
        source_risk=source_risk,
        w1_term=w1_term,
        disagreement=disagreement,
        rhs=rhs,
        target_risk=target_risk,
        holds=bool(target_risk <= rhs + 1e-6),
    )
