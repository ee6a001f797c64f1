"""Wasserstein-1 machinery.

Four pieces: an exact small-instance optimal-transport oracle, the
critic-based empirical W1 estimate, the interpolate gradient penalty that
keeps the critic near 1-Lipschitz, and a finite-sample diagnostic for the
target-risk bound  eps_T <= eps_S + 2*W1 + disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

from . import nets
from .autodiff import Graph, forward_eval
from .errors import CapacityError, TransportError
from .nets import NetworkParams, NetworkSpec
from .optim import Adam
from .seeding import make_rng

__all__ = [
    "TransportPlan",
    "BoundReport",
    "exact_w1",
    "critic_w1_estimate",
    "gradient_penalty",
    "build_critic_w1",
    "build_gradient_penalty",
    "fit_critic",
    "identity_network",
    "lipschitz_normalize",
    "bound_rhs",
    "EXACT_W1_SIZE_LIMIT",
]

EXACT_W1_SIZE_LIMIT = 512


@dataclass
class TransportPlan:
    """An optimal coupling between two uniform empirical measures."""

    coupling: np.ndarray      # (m, n), non-negative, sums to 1
    row_marginal: np.ndarray  # (m,)
    col_marginal: np.ndarray  # (n,)
    cost: np.ndarray          # (m, n) pairwise ground costs

    def marginal_error(self) -> float:
        row = np.abs(self.coupling.sum(axis=1) - self.row_marginal).max()
        col = np.abs(self.coupling.sum(axis=0) - self.col_marginal).max()
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

    def to_dict(self) -> dict:
        return {
            "source_risk": self.source_risk,
            "w1_term": self.w1_term,
            "disagreement": self.disagreement,
            "rhs": self.rhs,
            "target_risk": self.target_risk,
            "holds": self.holds,
        }


def _check_points(points, label: str) -> np.ndarray:
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"{label} must be a non-empty (n, d) array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{label} must be finite (no NaN or inf)")
    return x


def exact_w1(a_points, b_points, size_limit: int = EXACT_W1_SIZE_LIMIT):
    """Exact W1 between uniform empirical measures on two point sets.

    Equal sizes go through ``scipy.optimize.linear_sum_assignment``; unequal
    sizes through a transportation linear program.  Returns ``(value, TransportPlan)``.
    ``size_limit`` (default 512) bounds either side; pass ``None`` to lift it
    explicitly for one-off large instances.
    """
    a = _check_points(a_points, "a_points")
    b = _check_points(b_points, "b_points")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    m, n = a.shape[0], b.shape[0]
    if size_limit is not None and max(m, n) > size_limit:
        raise CapacityError(
            f"instance size {max(m, n)} exceeds the exact-solver bound {size_limit}"
        )
    cost = cdist(a, b)
    if m == n:
        _, col = linear_sum_assignment(cost)
        coupling = np.zeros((m, n))
        coupling[np.arange(m), col] = 1.0 / m
        value = float(cost[np.arange(m), col].mean())
    else:
        coupling = _transport_lp(cost, m, n)
        value = float((coupling * cost).sum())
    plan = TransportPlan(
        coupling=coupling,
        row_marginal=np.full(m, 1.0 / m),
        col_marginal=np.full(n, 1.0 / n),
        cost=cost,
    )
    return value, plan


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


def critic_w1_estimate(f_params: NetworkParams, d_params: NetworkParams,
                       batch_s, batch_t) -> float:
    """Mean critic score on source minus mean critic score on target."""
    xs = _check_points(batch_s, "batch_s")
    xt = _check_points(batch_t, "batch_t")
    score_s = nets.forward(d_params, nets.forward(f_params, xs))
    score_t = nets.forward(d_params, nets.forward(f_params, xt))
    return float(score_s.mean() - score_t.mean())


def build_critic_w1(graph: Graph, d_spec: NetworkSpec, fs_node: int, ft_node: int) -> int:
    """Append the empirical-W1 estimate  mean D(fs) - mean D(ft)  on two
    feature nodes (leaves, or F's output nodes) to ``graph``; returns its id.
    D's parameters are the leaves ``D.W{i}`` / ``D.b{i}``."""
    ds = nets.build_forward(graph, d_spec, fs_node, "D")
    dt = nets.build_forward(graph, d_spec, ft_node, "D")
    return graph.sub(graph.mean(ds), graph.mean(dt))


def build_gradient_penalty(graph: Graph, f_spec: NetworkSpec, d_spec: NetworkSpec,
                           xhat_node: int) -> int:
    """Append the input-space gradient penalty of the critic composition
    D(F(.)): the mean over rows of (||grad_x D(F(x))||_2 - 1)^2 at x = xhat.

    ``xhat_node`` must be a *leaf* holding precomputed interpolates, since
    the penalty differentiates the critic with respect to it.  F's and D's
    parameters are the leaves ``F.*`` and ``D.*``.  Returns the penalty
    node id.
    """
    dhat = nets.build_forward(graph, d_spec, nets.build_forward(graph, f_spec, xhat_node, "F"), "D")
    grad_x = graph.add_gradient_nodes(graph.sum(dhat), [xhat_node])[xhat_node]
    norms = graph.l2norm(grad_x, axis=1)
    return graph.mean(graph.square(graph.affine(norms, 1.0, -1.0)))


def interpolates(batch_s: np.ndarray, batch_t: np.ndarray, seed: int) -> np.ndarray:
    """Per-pair convex combinations eps*x_s + (1-eps)*x_t, eps ~ U(0,1).

    Longer batch truncated to the shorter; deterministic in ``seed``.
    """
    k = min(batch_s.shape[0], batch_t.shape[0])
    eps = make_rng(seed, "gp-eps").uniform(size=(k, 1))
    return eps * batch_s[:k] + (1.0 - eps) * batch_t[:k]


def gradient_penalty(f_params: NetworkParams, d_params: NetworkParams,
                     batch_s, batch_t, seed: int) -> float:
    """Mean over interpolates of (||grad_x D(F(x))||_2 - 1)^2."""
    xs = _check_points(batch_s, "batch_s")
    xt = _check_points(batch_t, "batch_t")
    xhat = interpolates(xs, xt, seed)
    g = Graph()
    penalty = build_gradient_penalty(g, f_params.spec, d_params.spec, g.leaf("xhat", xhat.shape))
    bindings = {"xhat": xhat}
    bindings.update(nets.param_bindings(f_params, "F"))
    bindings.update(nets.param_bindings(d_params, "D"))
    return float(forward_eval(g, bindings, [penalty])[penalty])


def identity_network(dim: int) -> NetworkParams:
    """A single identity layer; useful as a pass-through feature extractor."""
    spec = NetworkSpec((dim, dim), "tanh", "identity")
    return NetworkParams(spec=spec, weights=[np.eye(dim)], biases=[np.zeros(dim)],
                         init_seed=0)


def fit_critic(points_a, points_b, steps: int = 2000, learning_rate: float = 1e-3,
               gp_coeff: float = 50.0, seed: int = 0,
               f_params: NetworkParams | None = None,
               d_params: NetworkParams | None = None,
               record_every: int = 100):
    """Train a critic alone to realize the dual W1 estimate on two clouds.

    Full-batch ascent on  W1_estimate - gp_coeff * penalty.  Returns
    ``(d_params, f_params, history)`` where history is a list of
    ``(step, estimate)`` pairs.  The feature map defaults to identity; it is
    frozen, so the W1 term reads features computed once, while the penalty
    differentiates D(F(.)) at the input-space interpolates.
    """
    xs = _check_points(points_a, "points_a")
    xt = _check_points(points_b, "points_b")
    dim = xs.shape[1]
    if f_params is None:
        f_params = identity_network(dim)
    if d_params is None:
        d_params = nets.init_network(
            nets.default_critic_spec(f_params.spec.output_dim),
            make_rng(seed, "critic-init").integers(2**63),
        )
    k = min(xs.shape[0], xt.shape[0])
    params = dict(nets.param_bindings(f_params, "F"))
    params.update(nets.param_bindings(d_params, "D"))
    fs = nets.forward_bound(f_params.spec, params, "F", xs)
    ft = nets.forward_bound(f_params.spec, params, "F", xt)

    g = Graph()
    w1 = build_critic_w1(g, d_params.spec, g.leaf("fs", fs.shape), g.leaf("ft", ft.shape))
    penalty = build_gradient_penalty(g, f_params.spec, d_params.spec, g.leaf("xhat", (k, dim)))
    objective = g.sub(w1, g.affine(penalty, gp_coeff, 0.0))
    d_names = nets.param_leaf_names(d_params.spec, "D")
    grads = g.add_gradient_nodes(objective, [g.leaves[nm] for nm in d_names])
    outputs = [w1] + [grads[g.leaves[nm]] for nm in d_names]

    opt = Adam(learning_rate)
    history = []
    for step in range(steps):
        bindings = dict(params)
        bindings["fs"] = fs
        bindings["ft"] = ft
        bindings["xhat"] = interpolates(xs, xt, make_rng(seed, "step", step).integers(2**63))
        vals = forward_eval(g, bindings, outputs)
        step_grads = {nm: vals[grads[g.leaves[nm]]] for nm in d_names}
        params = opt.step_ascent(params, step_grads)
        if (step + 1) % record_every == 0 or step == steps - 1:
            history.append((step + 1, float(vals[w1])))
    return nets.params_from_bindings(params, d_params, "D"), f_params, history


# ----------------------------------------------------------------------
# Lipschitz construction and the bound diagnostic


def lipschitz_normalize(params: NetworkParams) -> NetworkParams:
    """Rescale each weight matrix so the network is 1-Lipschitz.

    Each layer is divided by max(1, Frobenius norm of its weights); the
    Frobenius norm upper-bounds the spectral norm, and tanh/relu/identity
    are 1-Lipschitz, so the product of layer constants is at most 1.
    """
    out = params.copy()
    for i, w in enumerate(out.weights):
        bound = float(np.sqrt((w * w).sum()))
        if bound > 1.0:
            out.weights[i] = w / bound
    return out


def _scores(fn, x: np.ndarray) -> np.ndarray:
    scores = fn.score(x) if hasattr(fn, "score") else fn(x)
    return np.asarray(scores, dtype=np.float64).reshape(-1)


def bound_rhs(h_params: NetworkParams, source_x, target_x, f_s, f_t,
              size_limit: int = EXACT_W1_SIZE_LIMIT) -> BoundReport:
    """Evaluate  eps_T <= eps_S + 2*W1 + E_S|f_s - f_t|  on two samples.

    ``h_params`` must be a scalar-output network already made 1-Lipschitz
    (see :func:`lipschitz_normalize`); ``f_s``/``f_t`` are labeling-score
    functions on the input space with values in [0, 1] (synthetic generators
    provide them).  Risks are mean absolute differences; the W1 term uses
    the exact solver on the two samples.
    """
    if f_s is None or f_t is None:
        raise ValueError("bound diagnostic needs both labeling functions")
    xs = _check_points(source_x, "source_x")
    xt = _check_points(target_x, "target_x")
    h_s = nets.forward(h_params, xs).reshape(-1)
    h_t = nets.forward(h_params, xt).reshape(-1)
    fs_s = _scores(f_s, xs)
    ft_s = _scores(f_t, xs)
    ft_t = _scores(f_t, xt)
    source_risk = float(np.mean(np.abs(h_s - fs_s)))
    target_risk = float(np.mean(np.abs(h_t - ft_t)))
    w1_value, _ = exact_w1(xs, xt, size_limit=size_limit)
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
