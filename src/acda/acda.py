"""The three-stage active adaptation algorithm.

Stage 1 trains feature extractor F, classifier C and critic D adversarially:
the critic ascends lambda_w * (W1_estimate - gradient_penalty) while the
model descends  L_cls + lambda_w * W1_estimate.  Stage 2 scores the target
pool by predictive entropy minus a scaled critic score, queries the top
slice of the budget, and moves the queried points into the labeled pool.
Stage 3 retrains with an extra per-class uncertainty-weighted loss on the
queried set.  Everything is deterministic in the configured seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import nets, transport
from .autodiff import Graph, forward_eval
from .data import Dataset, batch_iterator
from .errors import CapacityError, DataError, TrainingDivergedError
from .nets import NetworkParams
from .optim import Adam
from .seeding import derive_seed, make_rng

__all__ = [
    "TrainConfig",
    "QueryResult",
    "WeightVector",
    "StageHistory",
    "RoundRecord",
    "RunRecord",
    "lambda_w",
    "stage1_train",
    "stage3_train",
    "query_scores",
    "select_queries",
    "random_queries",
    "update_pools",
    "uncertainty_weights",
    "weighted_query_loss",
    "query_size",
    "run_algorithm_1",
    "accuracy",
]

_STRATEGIES = ("active", "random", "none")
_NORMALIZATIONS = ("raw", "minmax", "zscore")
_QUERY_SIGNS = ("as_written", "far_from_source")
_PENALTY_MODES = ("as_written", "separate")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the full pipeline, with documented defaults.

    ``penalty_mode`` selects how the gradient penalty enters the critic
    objective: ``as_written`` folds it inside the lambda_w factor
    (lambda_w * (W1 - penalty)); ``separate`` uses the conventional
    independently weighted form (lambda_w * W1 - gp_coeff * penalty).
    ``lambda_w_override`` pins the adversarial weight to a constant
    (0 disables adaptation entirely); None keeps the sigmoid schedule.
    """

    budget: float = 0.1
    lambda_div: float = 10.0
    delta: float = 10.0
    query_rounds: int = 1
    critic_steps_per_update: int = 5
    stage1_epochs: int = 20
    stage3_epochs: int = 20
    batch_size: int = 128
    learning_rate: float = 2e-3
    adam_betas: tuple = (0.9, 0.999)
    seed: int = 0
    strategy: str = "active"
    diversity_normalization: str = "minmax"
    query_sign: str = "as_written"
    penalty_mode: str = "as_written"
    gp_coeff: float = 10.0
    early_stop_patience: int = 5
    early_stop_tol: float = 1e-4
    lambda_w_override: float | None = None

    def __post_init__(self):
        if not 0.0 < self.budget < 1.0:
            raise ValueError(f"budget must lie in (0, 1), got {self.budget}")
        if self.lambda_div < 0:
            raise ValueError("lambda_div must be non-negative")
        for name in ("query_rounds", "critic_steps_per_update", "stage1_epochs",
                     "stage3_epochs", "batch_size", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}")
        if self.diversity_normalization not in _NORMALIZATIONS:
            raise ValueError(f"diversity_normalization must be one of {_NORMALIZATIONS}")
        if self.query_sign not in _QUERY_SIGNS:
            raise ValueError(f"query_sign must be one of {_QUERY_SIGNS}")
        if self.penalty_mode not in _PENALTY_MODES:
            raise ValueError(f"penalty_mode must be one of {_PENALTY_MODES}")
        object.__setattr__(self, "adam_betas", tuple(float(b) for b in self.adam_betas))


@dataclass
class QueryResult:
    """Selected (or ranked) target-pool indices with their scores.

    ``uncertainty``, ``diversity`` and ``combined`` are aligned with the
    *pool*, not with ``indices``: score arrays keep pool order so an index i
    can be looked up directly.
    """

    indices: np.ndarray
    uncertainty: np.ndarray
    diversity: np.ndarray
    combined: np.ndarray


@dataclass
class WeightVector:
    """Per-class weights alpha derived from queried-instance entropies."""

    alpha: np.ndarray
    counts: np.ndarray


@dataclass
class StageHistory:
    epochs: list = field(default_factory=list)
    stopped_early: bool = False
    seed: int = 0


@dataclass
class RoundRecord:
    round_index: int
    query: QueryResult | None
    queried_original_indices: np.ndarray | None
    queried_labels: np.ndarray | None
    weights: WeightVector | None
    stage3: StageHistory | None = None


@dataclass
class RunRecord:
    config: TrainConfig
    stage1: StageHistory
    rounds: list
    params: dict
    final_source_accuracy: float = float("nan")
    final_target_accuracy: float = float("nan")

    def to_dict(self) -> dict:
        def hist(h):
            return {"epochs": h.epochs, "stopped_early": h.stopped_early, "seed": h.seed}

        rounds = []
        for r in self.rounds:
            rounds.append({
                "round": r.round_index,
                "query": None if r.query is None else {
                    "indices": r.query.indices.tolist(),
                    "uncertainty": r.query.uncertainty.tolist(),
                    "diversity": r.query.diversity.tolist(),
                    "combined": r.query.combined.tolist(),
                },
                "queried_original_indices": (
                    None if r.queried_original_indices is None
                    else r.queried_original_indices.tolist()
                ),
                "queried_labels": (
                    None if r.queried_labels is None else r.queried_labels.tolist()
                ),
                "alpha": None if r.weights is None else r.weights.alpha.tolist(),
                "class_counts": None if r.weights is None else r.weights.counts.tolist(),
                "stage3": hist(r.stage3),
            })
        cfg = asdict(self.config)
        cfg["adam_betas"] = list(cfg["adam_betas"])
        return {
            "config": cfg,
            "stage1": hist(self.stage1),
            "rounds": rounds,
            "final_source_accuracy": self.final_source_accuracy,
            "final_target_accuracy": self.final_target_accuracy,
        }


def lambda_w(progress: float, delta: float = 10.0) -> float:
    """Adversarial-weight schedule 2 / (1 + exp(-delta * p)) - 1 on p in [0, 1]."""
    p = min(1.0, max(0.0, float(progress)))
    return 2.0 / (1.0 + np.exp(-delta * p)) - 1.0


def query_size(m_t: int, budget: float) -> int:
    """Number of queries for a pool of size m_t: round-half-up, floor of 1."""
    return max(1, int(np.floor(budget * m_t + 0.5)))


def accuracy(f_params: NetworkParams, c_params: NetworkParams,
             x: np.ndarray, y: np.ndarray) -> float:
    probs = nets.forward(c_params, nets.forward(f_params, x))
    return float((probs.argmax(axis=1) == np.asarray(y)).mean())


# ----------------------------------------------------------------------
# query machinery


def query_scores(f_params: NetworkParams, c_params: NetworkParams,
                 d_params: NetworkParams, target_pool: Dataset,
                 config: TrainConfig) -> QueryResult:
    """Rank every target-pool instance for querying.

    Combined score is entropy minus lambda_div times the normalized critic
    score (``query_sign=as_written``) or plus it (``far_from_source``).
    ``indices`` holds the full ranking, best first, ties to the lower index.
    """
    if len(target_pool) == 0:
        raise ValueError("cannot score an empty target pool")
    feats = nets.forward(f_params, target_pool.features)
    uncertainty = nets.predictive_entropy(nets.forward(c_params, feats))
    raw = nets.forward(d_params, feats).reshape(-1)
    diversity = _normalize_diversity(raw, config.diversity_normalization)
    sign = -1.0 if config.query_sign == "as_written" else 1.0
    combined = uncertainty + sign * config.lambda_div * diversity
    order = np.lexsort((np.arange(combined.size), -combined))
    return QueryResult(
        indices=order.astype(np.int64),
        uncertainty=uncertainty,
        diversity=diversity,
        combined=combined,
    )


def _normalize_diversity(raw: np.ndarray, mode: str) -> np.ndarray:
    if mode == "raw":
        return raw
    if mode == "minmax":
        span = raw.max() - raw.min()
        if span < 1e-12:
            return np.zeros_like(raw)
        return (raw - raw.min()) / span
    sd = raw.std()
    if sd < 1e-12:
        return np.zeros_like(raw)
    return (raw - raw.mean()) / sd


def select_queries(scores: QueryResult, m_t: int, budget: float) -> np.ndarray:
    """Top query_size(m_t, budget) pool indices by combined score."""
    m_q = query_size(m_t, budget)
    if m_q > m_t:
        raise CapacityError(f"cannot query {m_q} of {m_t} instances")
    if scores.combined.size != m_t:
        raise ValueError("scores do not cover the full pool")
    return scores.indices[:m_q].copy()


def random_queries(m_t: int, budget: float, seed: int) -> np.ndarray:
    """Uniform sample without replacement of query_size(m_t, budget) indices."""
    m_q = query_size(m_t, budget)
    if m_q > m_t:
        raise CapacityError(f"cannot query {m_q} of {m_t} instances")
    return np.sort(make_rng(seed, "random-query").choice(m_t, size=m_q, replace=False))


def update_pools(source: Dataset, target: Dataset, query_indices,
                 query_labels) -> tuple:
    """Move queried target instances (with their oracle labels) into the
    labeled pool: returns (source + queried, target without queried)."""
    idx = np.asarray(query_indices, dtype=np.int64)
    labels = np.asarray(query_labels, dtype=np.int64)
    if idx.size != np.unique(idx).size:
        raise ValueError("duplicate query index")
    if idx.size != labels.size:
        raise ValueError("one label per queried index required")
    if idx.size and (idx.min() < 0 or idx.max() >= len(target)):
        raise ValueError("query index out of range")
    if source.labels is None:
        raise ValueError("source pool must be labeled")
    new_source = Dataset(
        features=np.vstack([source.features, target.features[idx]]),
        labels=np.concatenate([source.labels, labels]),
        domain_tag="source",
    )
    keep = np.ones(len(target), dtype=bool)
    keep[idx] = False
    new_target = Dataset(
        features=target.features[keep],
        labels=None if target.labels is None else target.labels[keep],
        domain_tag="target",
        groups=None if target.groups is None else target.groups[keep],
    )
    return new_source, new_target


def uncertainty_weights(labels, entropies, n_classes: int) -> WeightVector:
    """Per-class weights: alpha_j = N_j * mean-entropy_j / total entropy.

    Classes absent from the queried set get weight 0.  If the total entropy
    is below 1e-12 the weights fall back to class frequencies N_j / m_q.
    """
    labels = np.asarray(labels, dtype=np.int64)
    entropies = np.asarray(entropies, dtype=np.float64)
    if labels.size == 0:
        raise ValueError("need at least one queried instance")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"label outside [0, {n_classes})")
    counts = np.bincount(labels, minlength=n_classes).astype(np.int64)
    total = entropies.sum()
    if total < 1e-12:
        alpha = counts / labels.size
    else:
        sums = np.bincount(labels, weights=entropies, minlength=n_classes)
        alpha = sums / total  # == N_j * mean_j / total
    return WeightVector(alpha=alpha, counts=counts)


def weighted_query_loss(probabilities, labels, weights: WeightVector) -> float:
    """Mean over the queried batch of alpha[y_i] * (-log p_{y_i})."""
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim == 1:
        p = p[None, :]
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= p.shape[1]:
        raise ValueError(f"label outside [0, {p.shape[1]})")
    picked = p[np.arange(p.shape[0]), labels]
    per_instance = weights.alpha[labels] * -np.log(np.maximum(picked, 1e-300))
    return float(per_instance.mean())


# ----------------------------------------------------------------------
# adversarial training (shared by stage 1 and stage 3)


def _one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


class _StepGraphs:
    """Static graphs for one (batch-shape) combination.

    The critic graph ascends the adversarial objective in theta_d; the model
    graph descends classification (+ weighted query) loss plus the W1 term
    in (theta_f, theta_c).  Parameters enter as leaves so the same graph
    serves every step.  F is frozen while the critic steps, so the critic's
    W1 term reads the features F(xs_adv), F(xt) as leaves ``fs_adv``, ``ft``;
    its gradient penalty still differentiates D(F(.)) at the input-space
    interpolates ``xhat``.
    """

    def __init__(self, dims, specs, config: TrainConfig, n_classes: int):
        ns_cls, nt, ns_adv, nq, d = dims
        f_spec, c_spec, d_spec = specs
        self.has_query = nq > 0
        self.has_target = nt > 0

        g = Graph()
        if self.has_target:
            fs_adv = g.leaf("fs_adv", (ns_adv, f_spec.output_dim))
            ft = g.leaf("ft", (nt, f_spec.output_dim))
            xhat = g.leaf("xhat", (min(ns_adv, nt), d))
            lamw = g.leaf("lambda_w", ())
            # D(fs) < D(ft) < w1 < penalty path: the order in which the
            # D-gradient sums accumulate, kept from the D(F(.)) composition
            w1 = transport.build_critic_w1(g, d_spec, fs_adv, ft)
            penalty = transport.build_gradient_penalty(g, f_spec, d_spec, xhat)
            if config.penalty_mode == "as_written":
                objective = g.mul(lamw, g.sub(w1, penalty))
            else:
                objective = g.sub(g.mul(lamw, w1), g.affine(penalty, config.gp_coeff, 0.0))
            d_names = nets.param_leaf_names(d_spec, "D")
            grads = g.add_gradient_nodes(objective, [g.leaves[nm] for nm in d_names])
            self.critic_graph = g
            self.critic_nodes = {
                "objective": objective,
                "w1": w1,
                "penalty": penalty,
                "grads": {nm: grads[g.leaves[nm]] for nm in d_names},
            }
            # a critic step reads its D-gradients and the penalty
            self.critic_outputs = [penalty] + list(self.critic_nodes["grads"].values())

        m = Graph()
        xs_cls = m.leaf("xs_cls", (ns_cls, d))
        y_onehot = m.leaf("y_onehot", (ns_cls, n_classes))
        logits = nets.build_forward(m, c_spec, nets.build_forward(m, f_spec, xs_cls, "F"), "C")
        lse = m.logsumexp(logits, axis=1)
        picked = m.sum(m.mul(logits, y_onehot), axis=1)
        l_cls = m.mean(m.sub(lse, picked))
        objective = l_cls
        l_wq = None
        if self.has_query:
            qx = m.leaf("qx", (nq, d))
            q_onehot = m.leaf("q_onehot", (nq, n_classes))
            q_alpha = m.leaf("q_alpha", (nq,))
            q_logits = nets.build_forward(m, c_spec, nets.build_forward(m, f_spec, qx, "F"), "C")
            q_ce = m.sub(m.logsumexp(q_logits, axis=1), m.sum(m.mul(q_logits, q_onehot), axis=1))
            l_wq = m.mean(m.mul(q_alpha, q_ce))
            objective = m.add(objective, l_wq)
        w1_node = None
        if self.has_target:
            xs_adv_m = m.leaf("xs_adv", (ns_adv, d))
            xt_m = m.leaf("xt", (nt, d))
            lamw_m = m.leaf("lambda_w", ())
            w1_node = transport.build_critic_w1(m, d_spec, nets.build_forward(m, f_spec, xs_adv_m, "F"),
                                                nets.build_forward(m, f_spec, xt_m, "F"))
            objective = m.add(objective, m.mul(lamw_m, w1_node))
        model_names = nets.param_leaf_names(f_spec, "F") + nets.param_leaf_names(c_spec, "C")
        grads = m.add_gradient_nodes(objective, [m.leaves[nm] for nm in model_names])
        self.model_graph = m
        self.model_nodes = {
            "objective": objective,
            "l_cls": l_cls,
            "l_wq": l_wq,
            "w1": w1_node,
            "grads": {nm: grads[m.leaves[nm]] for nm in model_names},
        }
        self.model_outputs = [n for n in (objective, l_cls, l_wq, w1_node) if n is not None]
        self.model_outputs += self.model_nodes["grads"].values()


def _adversarial_fit(f_params, c_params, d_params, source: Dataset, target: Dataset,
                     config: TrainConfig, epochs: int, seed: int,
                     query_x=None, query_y=None, weights: WeightVector | None = None,
                     adv_source: Dataset | None = None, eval_cb=None):
    """Alternating critic/model updates; returns updated params and history.

    ``source`` drives the classification loss; ``adv_source`` (defaults to
    ``source``) and ``target`` drive the adversarial W1 term; the queried set
    (``query_x``/``query_y`` with ``weights``) adds the weighted query loss.
    Stage 1 is exactly this with no query set.
    """
    n_classes = c_params.spec.output_dim
    if adv_source is None:
        adv_source = source
    has_query = query_x is not None and len(query_x) > 0
    has_target = len(target) > 0
    specs = (f_params.spec, c_params.spec, d_params.spec)

    params = {}
    for name, net in (("F", f_params), ("C", c_params), ("D", d_params)):
        params.update(nets.param_bindings(net.copy(), name))
    model_names = (nets.param_leaf_names(f_params.spec, "F")
                   + nets.param_leaf_names(c_params.spec, "C"))
    d_names = nets.param_leaf_names(d_params.spec, "D")

    opt_model = Adam(config.learning_rate, config.adam_betas)
    opt_critic = Adam(config.learning_rate, config.adam_betas)

    if has_query:
        q_onehot = _one_hot(np.asarray(query_y, dtype=np.int64), n_classes)
        q_alpha = weights.alpha[np.asarray(query_y, dtype=np.int64)]

    graphs: dict[tuple, _StepGraphs] = {}

    def graphs_for(ns_cls, nt, ns_adv) -> _StepGraphs:
        nq = len(query_x) if has_query else 0
        key = (ns_cls, nt, ns_adv)
        if key not in graphs:
            graphs[key] = _StepGraphs((ns_cls, nt, ns_adv, nq, source.dim),
                                      specs, config, n_classes)
        return graphs[key]

    cls_seed = derive_seed(seed, "batches-cls")
    tgt_seed = derive_seed(seed, "batches-tgt")
    adv_seed = derive_seed(seed, "batches-adv")

    steps_per_epoch = max(
        -(-len(source) // config.batch_size),
        -(-len(target) // config.batch_size) if has_target else 0,
        -(-len(adv_source) // config.batch_size),
    )
    total_model_steps = max(1, epochs * steps_per_epoch)

    history = StageHistory(seed=seed)
    best = np.inf
    stale = 0
    global_step = 0
    y_source = source.labels

    for epoch in range(epochs):
        cls_batches = list(batch_iterator(len(source), config.batch_size, cls_seed, epoch))
        adv_batches = list(batch_iterator(len(adv_source), config.batch_size, adv_seed, epoch))
        tgt_batches = (list(batch_iterator(len(target), config.batch_size, tgt_seed, epoch))
                       if has_target else [])
        sums = {"objective": 0.0, "l_cls": 0.0, "l_wq": 0.0, "w1": 0.0,
                "penalty": 0.0, "lambda_w": 0.0}
        for step in range(steps_per_epoch):
            idx_cls = cls_batches[step % len(cls_batches)]
            idx_adv = adv_batches[step % len(adv_batches)]
            xs_cls = source.features[idx_cls]
            xs_adv = adv_source.features[idx_adv]
            yb = y_source[idx_cls]
            xt = target.features[tgt_batches[step % len(tgt_batches)]] if has_target else None

            if config.lambda_w_override is not None:
                lamw = float(config.lambda_w_override)
            else:
                lamw = lambda_w(global_step / max(1, total_model_steps - 1), config.delta)

            sg = graphs_for(len(idx_cls), len(xt) if has_target else 0, len(idx_adv))

            if has_target:
                bindings = dict(params)
                bindings["fs_adv"] = nets.forward_bound(f_params.spec, params, "F", xs_adv)
                bindings["ft"] = nets.forward_bound(f_params.spec, params, "F", xt)
                bindings["lambda_w"] = np.asarray(lamw)
                for critic_step in range(config.critic_steps_per_update):
                    eps_seed = derive_seed(seed, "eps", epoch, step, critic_step)
                    bindings["xhat"] = transport.interpolates(xs_adv, xt, eps_seed)
                    vals = forward_eval(sg.critic_graph, bindings, sg.critic_outputs)
                    cgrads = {nm: vals[sg.critic_nodes["grads"][nm]] for nm in d_names}
                    params = opt_critic.step_ascent(params, cgrads)
                    for nm in d_names:
                        bindings[nm] = params[nm]
                sums["penalty"] += float(vals[sg.critic_nodes["penalty"]])

            bindings = dict(params)
            bindings["xs_cls"] = xs_cls
            bindings["y_onehot"] = _one_hot(yb, n_classes)
            if has_query:
                bindings["qx"] = query_x
                bindings["q_onehot"] = q_onehot
                bindings["q_alpha"] = q_alpha
            if has_target:
                bindings["xs_adv"] = xs_adv
                bindings["xt"] = xt
                bindings["lambda_w"] = np.asarray(lamw)
            vals = forward_eval(sg.model_graph, bindings, sg.model_outputs)
            obj = float(vals[sg.model_nodes["objective"]])
            if not np.isfinite(obj):
                raise TrainingDivergedError(epoch)
            mgrads = {nm: vals[sg.model_nodes["grads"][nm]] for nm in model_names}
            params = opt_model.step(params, mgrads)
            global_step += 1

            sums["objective"] += obj
            sums["l_cls"] += float(vals[sg.model_nodes["l_cls"]])
            if sg.model_nodes["l_wq"] is not None:
                sums["l_wq"] += float(vals[sg.model_nodes["l_wq"]])
            if sg.model_nodes["w1"] is not None:
                sums["w1"] += float(vals[sg.model_nodes["w1"]])
            sums["lambda_w"] += lamw

        record = {
            "epoch": epoch,
            "objective": sums["objective"] / steps_per_epoch,
            "L_cls": sums["l_cls"] / steps_per_epoch,
            "W1_estimate": sums["w1"] / steps_per_epoch,
            "L_grad": sums["penalty"] / steps_per_epoch,
            "L_w_q": sums["l_wq"] / steps_per_epoch,
            "lambda_w": sums["lambda_w"] / steps_per_epoch,
        }
        if eval_cb is not None:
            f_now, c_now, _ = _unpack(params, f_params, c_params, d_params)
            record.update(eval_cb(f_now, c_now))
        history.epochs.append(record)

        if best - record["objective"] < config.early_stop_tol:
            stale += 1
            if stale >= config.early_stop_patience:
                history.stopped_early = True
                break
        else:
            stale = 0
        best = min(best, record["objective"])

    return (*_unpack(params, f_params, c_params, d_params), history)


def _unpack(params: dict, f_params, c_params, d_params):
    return tuple(nets.params_from_bindings(params, net, name)
                 for name, net in (("F", f_params), ("C", c_params), ("D", d_params)))


def stage1_train(source: Dataset, target: Dataset, f_params, c_params, d_params,
                 config: TrainConfig, seed: int | None = None, eval_cb=None):
    """Adversarial pre-adaptation on the unlabeled target pool."""
    if len(source) == 0 or len(target) == 0:
        raise ValueError("stage 1 needs non-empty source and target pools")
    if seed is None:
        seed = derive_seed(config.seed, "stage", 1)
    return _adversarial_fit(f_params, c_params, d_params, source, target,
                            config, config.stage1_epochs, seed, eval_cb=eval_cb)


def stage3_train(f_params, c_params, d_params, source: Dataset, query_x, query_y,
                 remaining_target: Dataset, weights: WeightVector | None,
                 config: TrainConfig, seed: int | None = None, eval_cb=None):
    """Retraining with the queried set folded in.

    With an empty query set this is exactly the stage-1 dynamics on
    (source, target): same graphs, same batch streams, same updates.
    """
    if seed is None:
        seed = derive_seed(config.seed, "stage", 3, 0)
    has_query = query_x is not None and len(query_x) > 0
    if has_query:
        adv_source = Dataset(
            features=np.vstack([source.features, np.asarray(query_x, dtype=np.float64)]),
            labels=np.concatenate([source.labels, np.asarray(query_y, dtype=np.int64)]),
            domain_tag="source",
        )
        if weights is None:
            raise ValueError("queried retraining needs uncertainty weights")
    else:
        adv_source = source
        query_x = query_y = None
    return _adversarial_fit(f_params, c_params, d_params, source, remaining_target,
                            config, config.stage3_epochs, seed,
                            query_x=query_x, query_y=query_y, weights=weights,
                            adv_source=adv_source, eval_cb=eval_cb)


# ----------------------------------------------------------------------
# the full pipeline


def run_algorithm_1(source: Dataset, target: Dataset, config: TrainConfig,
                    eval_cb_factory=None) -> RunRecord:
    """Stage 1, then per round: query -> pool update -> weights -> stage 3.

    ``target.labels`` acts as the annotation oracle for queried instances
    (and is never read otherwise).  The per-round budget is
    ``config.budget / config.query_rounds`` of the then-current pool.
    ``eval_cb_factory(stage_tag)`` may supply a per-epoch metrics callback.
    Every target label must be a source class (DataError otherwise).
    """
    if source.labels is None:
        raise ValueError("source pool must be labeled")
    n_classes = int(source.labels.max()) + 1 if source.labels.size else 2
    n_classes = max(n_classes, 2)
    if target.labels is not None and target.labels.size and target.labels.max() >= n_classes:
        raise DataError(f"target label {int(target.labels.max())} is not a source class "
                        f"(the source has {n_classes} classes)")
    f_spec = nets.default_feature_spec(source.dim)
    c_spec = nets.default_classifier_spec(n_classes)
    d_spec = nets.default_critic_spec()
    f_params = nets.init_network(f_spec, derive_seed(config.seed, "init", "F"))
    c_params = nets.init_network(c_spec, derive_seed(config.seed, "init", "C"))
    d_params = nets.init_network(d_spec, derive_seed(config.seed, "init", "D"))

    def cb(tag):
        return None if eval_cb_factory is None else eval_cb_factory(tag)

    f_params, c_params, d_params, hist1 = stage1_train(
        source, target, f_params, c_params, d_params, config, eval_cb=cb("stage1"))

    cur_source = source
    cur_target = target
    original_index = np.arange(len(target), dtype=np.int64)
    cum_labels: list = []
    cum_entropies: list = []
    cum_features: list = []
    rounds: list[RoundRecord] = []

    per_round_budget = config.budget / config.query_rounds
    for round_index in range(1, config.query_rounds + 1):
        query = None
        orig_idx = None
        q_labels = None
        weights = None
        if config.strategy != "none" and len(cur_target) > 0:
            scores = query_scores(f_params, c_params, d_params, cur_target, config)
            if config.strategy == "active":
                picked = select_queries(scores, len(cur_target), per_round_budget)
            else:
                picked = random_queries(len(cur_target), per_round_budget,
                                        derive_seed(config.seed, "query", round_index))
            if target.labels is None:
                raise ValueError("querying needs target labels as the oracle")
            orig_idx = original_index[picked]
            q_labels = target.labels[orig_idx]
            query = QueryResult(
                indices=picked,
                uncertainty=scores.uncertainty,
                diversity=scores.diversity,
                combined=scores.combined,
            )
            cum_labels.append(q_labels)
            cum_entropies.append(scores.uncertainty[picked])
            cum_features.append(cur_target.features[picked])
            cur_source, cur_target = update_pools(cur_source, cur_target, picked, q_labels)
            keep = np.ones(original_index.size, dtype=bool)
            keep[picked] = False
            original_index = original_index[keep]
            weights = uncertainty_weights(np.concatenate(cum_labels),
                                          np.concatenate(cum_entropies), n_classes)

        query_x = np.vstack(cum_features) if cum_features else None
        query_y = np.concatenate(cum_labels) if cum_labels else None
        f_params, c_params, d_params, hist3 = stage3_train(
            f_params, c_params, d_params, source, query_x, query_y,
            cur_target, weights, config,
            seed=derive_seed(config.seed, "stage", 3, round_index),
            eval_cb=cb(f"stage3-round{round_index}"),
        )
        rounds.append(RoundRecord(
            round_index=round_index,
            query=query,
            queried_original_indices=orig_idx,
            queried_labels=q_labels,
            weights=weights,
            stage3=hist3,
        ))

    record = RunRecord(
        config=config,
        stage1=hist1,
        rounds=rounds,
        params={"F": f_params, "C": c_params, "D": d_params},
    )
    record.final_source_accuracy = accuracy(f_params, c_params,
                                            source.features, source.labels)
    if target.labels is not None:
        record.final_target_accuracy = accuracy(f_params, c_params,
                                                target.features, target.labels)
    return record
