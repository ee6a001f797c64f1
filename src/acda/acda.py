"""The three-stage active adaptation algorithm.

Stage 1 trains feature extractor F, classifier C and critic D adversarially:
the critic ascends lambda_w * (W1_estimate - gradient_penalty), the penalty
taken at interpolates between source and target features, while the model
descends  L_cls + lambda_w * W1_estimate.  Stage 2 scores the target
pool by predictive entropy minus a scaled critic score, queries the top
slice of the budget, and moves the queried points into the labeled pool.
Stage 3 retrains with an extra per-class uncertainty-weighted loss on the
queried set.  Everything is deterministic in the run's seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import nets, transport
from .autodiff import Graph, Step
from .data import Dataset, batch_iterator, class_ids
from .errors import CapacityError, DataError, TrainingDivergedError
from .optim import Adam
from .seeding import check_seed, derive_seed, make_rng

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


# Fixed training constants: the steepness of the lambda_w schedule (DANN,
# arXiv 1409.7495), critic steps per model step (WGAN-GP, arXiv 1704.00028),
# and the least drop in the epoch objective that resets early-stop patience.
LAMBDA_W_DELTA = 10.0
CRITIC_STEPS = 5
EARLY_STOP_TOL = 1e-4

# The loss terms of an epoch record, which metrics.csv writes in this order:
# each is the mean over the epoch's model steps of a step graph's term of
# that name (L_grad: of the mean penalty over a model step's critic steps).
LOSS_NAMES = ("L_cls", "W1_estimate", "L_grad", "L_w_q")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the full pipeline, with documented defaults.

    The critic takes ``CRITIC_STEPS`` ascent steps on lambda_w * (W1 -
    penalty) per model step, and lambda_w follows the :func:`lambda_w`
    schedule over the stage's steps.  Float fields must be finite numbers
    and integer fields integers (neither takes a bool, nor an integer field
    a float; ValueError otherwise); each is stored as a Python float or int.
    """

    budget: float = 0.1
    lambda_div: float = 10.0
    query_rounds: int = 1
    stage1_epochs: int = 20
    stage3_epochs: int = 20
    batch_size: int = 128
    learning_rate: float = 2e-3
    early_stop_patience: int = 5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            number = not isinstance(value, bool)
            if isinstance(f.default, float) and not (
                    number and isinstance(value, (int, float, np.integer, np.floating))
                    and np.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
            if isinstance(f.default, int) and not (number
                                                   and isinstance(value, (int, np.integer))):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            object.__setattr__(self, f.name, type(f.default)(value))  # no numpy scalars
        if not 0.0 < self.budget < 1.0:
            raise ValueError(f"budget must lie in (0, 1), got {self.budget}")
        if self.lambda_div < 0:
            raise ValueError("lambda_div must be non-negative")
        for name in ("query_rounds", "stage1_epochs", "stage3_epochs", "batch_size",
                     "early_stop_patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def _check_strategy(strategy):
    """ValueError unless ``strategy`` is one of ``_STRATEGIES``."""
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy '{strategy}' (choose from {list(_STRATEGIES)})")


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
    """One query round; its fields are the round's keys in the run JSON."""

    round: int
    query: QueryResult | None
    queried_original_indices: np.ndarray | None
    queried_labels: np.ndarray | None
    alpha: np.ndarray | None
    class_counts: np.ndarray | None
    stage3: StageHistory


def _json_fields(pairs) -> dict:
    """``asdict``'s dict factory for the run JSON: arrays become lists, and
    the parameters, which go to the checkpoint, are left out."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in pairs if k != "params"}


@dataclass
class RunRecord:
    config: TrainConfig
    seed: int
    strategy: str
    stage1: StageHistory
    rounds: list
    params: dict
    final_source_accuracy: float
    final_target_accuracy: float  # NaN without target labels

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=_json_fields)


def lambda_w(progress: float) -> float:
    """Adversarial-weight schedule 2 / (1 + exp(-delta * p)) - 1 on p in [0, 1],
    with delta = ``LAMBDA_W_DELTA`` (10)."""
    p = min(1.0, max(0.0, float(progress)))
    return 2.0 / (1.0 + np.exp(-LAMBDA_W_DELTA * p)) - 1.0


def query_size(m_t: int, budget: float) -> int:
    """Number of queries for a pool of size m_t: round-half-up, floor of 1."""
    return max(1, int(np.floor(budget * m_t + 0.5)))


def accuracy(params: dict, data: Dataset) -> float:
    """Share of ``data``'s rows that C(F(x)) labels right; NaN without labels."""
    if data.labels is None:
        return float("nan")
    probs = nets.forward(params["C"], nets.forward(params["F"], data.features))
    return float((probs.argmax(axis=1) == data.labels).mean())


# ----------------------------------------------------------------------
# query machinery


def query_scores(params: dict, target_pool: Dataset, lambda_div: float) -> QueryResult:
    """Rank every target-pool instance for querying.

    The combined score is the predictive entropy minus ``lambda_div`` times
    the critic score D(F(x)), min-max scaled to [0, 1] over the pool.  The
    critic ascends W1 = mean D(F(xs)) - mean D(F(xt)), so D scores
    source-like points high, and subtracting it prefers target-like points.
    ``indices`` holds the full ranking, best first, ties to the lower index.
    """
    if len(target_pool) == 0:
        raise ValueError("cannot score an empty target pool")
    feats = nets.forward(params["F"], target_pool.features)
    uncertainty = nets.predictive_entropy(nets.forward(params["C"], feats))
    diversity = _minmax(nets.forward(params["D"], feats).reshape(-1))
    combined = uncertainty - lambda_div * diversity
    order = np.lexsort((np.arange(combined.size), -combined))
    return QueryResult(indices=order.astype(np.int64), uncertainty=uncertainty,
                       diversity=diversity, combined=combined)


def _minmax(raw: np.ndarray) -> np.ndarray:
    """``raw`` scaled to [0, 1]; all zeros if its span is below 1e-12."""
    span = raw.max() - raw.min()
    if span < 1e-12:
        return np.zeros_like(raw)
    return (raw - raw.min()) / span


def _pool_query_size(m_t: int, budget: float) -> int:
    """query_size(m_t, budget); a CapacityError if that exceeds the pool."""
    m_q = query_size(m_t, budget)
    if m_q > m_t:
        raise CapacityError(f"cannot query {m_q} of {m_t} instances")
    return m_q


def select_queries(scores: QueryResult, budget: float) -> np.ndarray:
    """Top query_size(m_t, budget) pool indices by combined score, where the
    pool size m_t is the number of scores."""
    return scores.indices[:_pool_query_size(scores.combined.size, budget)].copy()


def random_queries(m_t: int, budget: float, seed: int) -> np.ndarray:
    """Uniform sample without replacement of query_size(m_t, budget) indices."""
    m_q = _pool_query_size(m_t, budget)
    return np.sort(make_rng(seed, "random-query").choice(m_t, size=m_q, replace=False))


def update_pools(source: Dataset, target: Dataset, query_indices,
                 query_labels) -> tuple:
    """Move queried target instances (with their oracle labels) into the
    labeled pool: returns (source + queried, target without queried).
    ValueError for a repeated, fractional or out-of-range index, labels that
    :func:`class_ids` refuses or that differ in count, or an unlabeled source."""
    idx = np.asarray(query_indices)
    if not np.array_equal(idx, idx.astype(np.int64)):
        raise ValueError("query indices must be whole numbers")
    idx = idx.astype(np.int64)
    labels = class_ids(query_labels)
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
    )
    keep = np.ones(len(target), dtype=bool)
    keep[idx] = False
    new_target = Dataset(
        features=target.features[keep],
        labels=None if target.labels is None else target.labels[keep],
    )
    return new_source, new_target


def uncertainty_weights(labels, entropies, n_classes: int) -> WeightVector:
    """Per-class weights: alpha_j = N_j * mean-entropy_j / total entropy.

    Classes absent from the queried set get weight 0.  If the total entropy
    is below 1e-12 the weights fall back to class frequencies N_j / m_q.
    ValueError unless the labels are a non-empty list of class ids in
    [0, n_classes) (see :func:`class_ids`) with one entropy per label.
    """
    labels = class_ids(labels, n_classes)
    entropies = np.asarray(entropies, dtype=np.float64)
    if labels.size == 0:
        raise ValueError("need at least one queried instance")
    if entropies.shape != labels.shape:
        raise ValueError(f"need one entropy per label, got {entropies.size} for "
                         f"{labels.size} labels")
    counts = np.bincount(labels, minlength=n_classes).astype(np.int64)
    total = entropies.sum()
    if total < 1e-12:
        alpha = counts / labels.size
    else:
        sums = np.bincount(labels, weights=entropies, minlength=n_classes)
        alpha = sums / total  # == N_j * mean_j / total
    return WeightVector(alpha=alpha, counts=counts)


def weighted_query_loss(probabilities, labels, weights: WeightVector) -> float:
    """Mean over the queried batch of alpha[y_i] * (-log p_{y_i}).

    Training computes this loss in the model graph (``L_w_q``); this numpy
    form ships as the reference that graph is tested against, and as a
    ``check`` item.  ValueError unless the labels are a non-empty list of
    class ids (see :func:`class_ids`) with one probability row per label."""
    p = np.atleast_2d(np.asarray(probabilities, dtype=np.float64))
    labels = class_ids(labels, p.shape[1])
    if labels.size == 0:
        raise ValueError("need at least one queried label")
    if p.shape[0] != labels.size:
        raise ValueError(f"need one probability row per label, got {p.shape[0]} rows for "
                         f"{labels.size} labels")
    picked = p[np.arange(p.shape[0]), labels]
    per_instance = weights.alpha[labels] * -np.log(np.maximum(picked, 1e-300))
    return float(per_instance.mean())


# ----------------------------------------------------------------------
# adversarial training (shared by stage 1 and stage 3)


class _StepGraphs:
    """Static step graphs for one (batch-shape) combination.

    ``critic`` is :func:`transport.build_critic_step` at penalty weight 1,
    on the features F(xs_adv) and F(xt); without a target batch it is None.
    The model graph descends classification (+ weighted query) loss plus
    the W1 term in (theta_f, theta_c).  Parameters enter as leaves so the
    same graph serves every step.  ``dims`` holds the batch row counts
    ``(ns_cls, nt, ns_adv, nq)``, and ``specs`` the F, C and D specs by name.
    """

    def __init__(self, dims, specs: dict):
        ns_cls, nt, ns_adv, nq = dims
        f_spec, c_spec, d_spec = specs["F"], specs["C"], specs["D"]
        self.critic = transport.build_critic_step(d_spec, ns_adv, nt, 1.0) if nt else None

        m = Graph()
        xs_cls = m.leaf("xs_cls", (ns_cls, f_spec.input_dim))
        y_onehot = m.leaf("y_onehot", (ns_cls, c_spec.output_dim))
        logits = nets.build_forward(m, c_spec, nets.build_forward(m, f_spec, xs_cls, "F"), "C")
        lse = m.logsumexp(logits, axis=1)
        picked = m.sum(m.mul(logits, y_onehot), axis=1)
        terms = {"L_cls": m.mean(m.sub(lse, picked))}
        objective = terms["L_cls"]
        if nq:
            qx = m.leaf("qx", (nq, f_spec.input_dim))
            q_onehot = m.leaf("q_onehot", (nq, c_spec.output_dim))
            q_alpha = m.leaf("q_alpha", (nq,))
            q_logits = nets.build_forward(m, c_spec, nets.build_forward(m, f_spec, qx, "F"), "C")
            q_ce = m.sub(m.logsumexp(q_logits, axis=1), m.sum(m.mul(q_logits, q_onehot), axis=1))
            terms["L_w_q"] = m.mean(m.mul(q_alpha, q_ce))
            objective = m.add(objective, terms["L_w_q"])
        if nt:
            xs_adv_m = m.leaf("xs_adv", (ns_adv, f_spec.input_dim))
            xt_m = m.leaf("xt", (nt, f_spec.input_dim))
            lamw_m = m.leaf("lambda_w", ())
            terms["W1_estimate"] = transport.build_critic_w1(
                m, d_spec, nets.build_forward(m, f_spec, xs_adv_m, "F"),
                nets.build_forward(m, f_spec, xt_m, "F"))
            objective = m.add(objective, m.mul(lamw_m, terms["W1_estimate"]))
        self.model = Step(m, objective, {"objective": objective, **terms},
                          nets.param_leaf_names(f_spec, "F") + nets.param_leaf_names(c_spec, "C"))


def _adversarial_fit(params: dict, source: Dataset, target: Dataset, config: TrainConfig,
                     epochs: int, seed: int, labelled: Dataset,
                     weights: WeightVector | None = None, eval_cb=None):
    """Alternating critic/model updates; returns updated params and history.

    ``source`` drives the classification loss; ``labelled`` (``source``
    followed by the queried rows) and ``target`` drive the adversarial W1
    term; the queried rows, the ones past ``len(source)``, add the loss
    weighted by ``weights``.  Stage 1 is exactly this with no queried rows.

    Each network is copied once, as float64, and each Adam step updates
    the copies in place; ``eval_cb`` reads, and the fit returns, their dict.
    One ``bindings`` dict feeds both graphs for the whole fit: the copies'
    arrays, the query leaves, bound once, and the batch leaves, which each
    step rebinds.
    """
    one_hot = np.eye(params["C"].spec.output_dim)
    query_y = labelled.labels[len(source):]
    specs = {name: net.spec for name, net in params.items()}

    params = {name: net.copy() for name, net in params.items()}
    bindings = {}
    for name, net in params.items():
        bindings.update(nets.param_bindings(net, name))
    if query_y.size:
        bindings.update(qx=labelled.features[len(source):], q_onehot=one_hot[query_y],
                        q_alpha=weights.alpha[query_y])

    opt_model = Adam(config.learning_rate)
    opt_critic = Adam(config.learning_rate)
    graphs: dict[tuple, _StepGraphs] = {}

    cls_seed = derive_seed(seed, "batches-cls")
    tgt_seed = derive_seed(seed, "batches-tgt")
    adv_seed = derive_seed(seed, "batches-adv")

    # labelled holds source, and an empty target adds no steps
    steps_per_epoch = max(-(-len(labelled) // config.batch_size),
                          -(-len(target) // config.batch_size))
    total_model_steps = max(1, epochs * steps_per_epoch)

    history = StageHistory(seed=seed)
    best = np.inf
    stale = 0

    for epoch in range(epochs):
        cls_batches = list(batch_iterator(len(source), config.batch_size, cls_seed, epoch))
        adv_batches = list(batch_iterator(len(labelled), config.batch_size, adv_seed, epoch))
        tgt_batches = list(batch_iterator(len(target), config.batch_size, tgt_seed, epoch))
        sums = dict.fromkeys(("objective", *LOSS_NAMES, "lambda_w"), 0.0)
        for step in range(steps_per_epoch):
            idx_cls = cls_batches[step % len(cls_batches)]
            idx_adv = adv_batches[step % len(adv_batches)]
            lamw = lambda_w((epoch * steps_per_epoch + step) / max(1, total_model_steps - 1))
            bindings.update(xs_cls=source.features[idx_cls],
                            y_onehot=one_hot[source.labels[idx_cls]],
                            xs_adv=labelled.features[idx_adv], lambda_w=np.asarray(lamw))
            nt = 0
            if tgt_batches:
                bindings["xt"] = target.features[tgt_batches[step % len(tgt_batches)]]
                nt = len(bindings["xt"])

            key = (len(idx_cls), nt, len(idx_adv))
            if key not in graphs:
                graphs[key] = _StepGraphs((*key, query_y.size), specs)
            sg = graphs[key]

            if nt:
                bindings["fs_adv"] = nets.logits(params["F"], bindings["xs_adv"])
                bindings["ft"] = nets.logits(params["F"], bindings["xt"])
                penalty = 0.0
                for critic_step in range(CRITIC_STEPS):
                    penalty += transport.critic_ascent(
                        sg.critic, bindings, opt_critic,
                        derive_seed(seed, "eps", epoch, step, critic_step))
                sums["L_grad"] += penalty / CRITIC_STEPS

            terms, grads = sg.model.evaluate(bindings)
            if not np.isfinite(terms["objective"]):
                raise TrainingDivergedError(epoch)
            opt_model.step(bindings, grads)
            for name, value in terms.items():
                sums[name] += value
            sums["lambda_w"] += lamw

        record = {"epoch": epoch, **{k: v / steps_per_epoch for k, v in sums.items()}}
        if eval_cb is not None:
            record.update(eval_cb(params))
        history.epochs.append(record)

        if best - record["objective"] < EARLY_STOP_TOL:
            stale += 1
            if stale >= config.early_stop_patience:
                history.stopped_early = True
                break
        else:
            stale = 0
        best = min(best, record["objective"])

    return params, history


def stage1_train(params: dict, source: Dataset, target: Dataset, config: TrainConfig,
                 seed: int, eval_cb=None):
    """Adversarial pre-adaptation on the unlabeled target pool; returns ``(params, history)``."""
    if len(source) == 0 or len(target) == 0:
        raise ValueError("stage 1 needs non-empty source and target pools")
    return _adversarial_fit(params, source, target, config, config.stage1_epochs, seed,
                            labelled=source, eval_cb=eval_cb)


def stage3_train(params: dict, source: Dataset, labelled: Dataset, remaining_target: Dataset,
                 weights: WeightVector | None, config: TrainConfig, seed: int, eval_cb=None):
    """Retraining with the queried set folded in; returns ``(params, history)``.

    ``labelled`` is ``source`` followed by the queried rows, as
    :func:`update_pools` builds it.  With no queried rows this is exactly
    the stage-1 dynamics on (source, target): same graphs, same batch
    streams, same updates.  ValueError for an empty ``source``, or a queried
    label that has no weight in ``weights.alpha`` (or no ``weights``).
    """
    if len(source) == 0:
        raise ValueError("stage 3 needs a non-empty source pool")
    queried = labelled.labels[len(source):]
    if queried.size and (weights is None or queried.max() >= len(weights.alpha)):
        raise ValueError("queried retraining needs an uncertainty weight for each queried label")
    return _adversarial_fit(params, source, remaining_target, config, config.stage3_epochs,
                            seed, labelled=labelled, weights=weights, eval_cb=eval_cb)


# ----------------------------------------------------------------------
# the full pipeline


def run_algorithm_1(source: Dataset, target: Dataset, config: TrainConfig, seed: int,
                    strategy: str, eval_cb=None) -> RunRecord:
    """Stage 1, then per round: query -> pool update -> weights -> stage 3.

    ``target.labels`` acts as the annotation oracle for queried instances
    (and is never read otherwise).  The per-round budget is
    ``config.budget / config.query_rounds`` of the then-current pool.
    ``strategy`` is "active", "random" or "none" (no queries); every random
    choice derives from ``seed``.  Every stage takes and returns F, C and D
    as one dict; ``eval_cb(params)`` may add metrics to every epoch record.
    A bad seed or strategy (ValueError), a target label that is no source
    class (DataError) and a querying strategy without target labels
    (ValueError) fail before stage 1.
    """
    check_seed(seed)
    _check_strategy(strategy)
    if source.labels is None:
        raise ValueError("source pool must be labeled")
    n_classes = int(source.labels.max()) + 1 if source.labels.size else 2
    n_classes = max(n_classes, 2)
    if target.labels is not None and target.labels.size and target.labels.max() >= n_classes:
        raise DataError(f"target label {int(target.labels.max())} is not a source class "
                        f"(the source has {n_classes} classes)")
    if strategy != "none" and target.labels is None:
        raise ValueError("querying needs target labels as the oracle")
    specs = {"F": nets.default_feature_spec(source.dim),
             "C": nets.default_classifier_spec(n_classes),
             "D": nets.default_critic_spec()}
    params = {name: nets.init_network(spec, derive_seed(seed, "init", name))
              for name, spec in specs.items()}
    params, hist1 = stage1_train(params, source, target, config, derive_seed(seed, "stage", 1),
                                 eval_cb=eval_cb)

    # labelled = source + every queried row so far; pool = the rest of the
    # target, whose row i is target row original_index[i]
    labelled, pool = source, target
    original_index = np.arange(len(target), dtype=np.int64)
    queried_entropy = np.zeros(0)
    weights = None  # kept: a round with an empty pool retrains on the weights so far
    rounds: list[RoundRecord] = []

    per_round_budget = config.budget / config.query_rounds
    for round_index in range(1, config.query_rounds + 1):
        query = orig_idx = q_labels = None
        if strategy != "none" and len(pool) > 0:
            scores = query_scores(params, pool, config.lambda_div)
            if strategy == "active":
                picked = select_queries(scores, per_round_budget)
            else:
                picked = random_queries(len(pool), per_round_budget,
                                        derive_seed(seed, "query", round_index))
            orig_idx = original_index[picked]
            q_labels = target.labels[orig_idx]
            query = replace(scores, indices=picked)
            queried_entropy = np.concatenate([queried_entropy, scores.uncertainty[picked]])
            labelled, pool = update_pools(labelled, pool, picked, q_labels)
            original_index = np.delete(original_index, picked)
            weights = uncertainty_weights(labelled.labels[len(source):], queried_entropy,
                                          n_classes)

        params, hist3 = stage3_train(params, source, labelled, pool, weights, config,
                                     derive_seed(seed, "stage", 3, round_index), eval_cb=eval_cb)
        alpha, counts = (None, None) if weights is None else (weights.alpha, weights.counts)
        rounds.append(RoundRecord(round=round_index, query=query,
                                  queried_original_indices=orig_idx, queried_labels=q_labels,
                                  alpha=alpha, class_counts=counts, stage3=hist3))

    return RunRecord(
        config=config, seed=int(seed), strategy=strategy, stage1=hist1, rounds=rounds,
        params=params, final_source_accuracy=accuracy(params, source),
        final_target_accuracy=accuracy(params, target))
