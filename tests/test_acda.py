"""Unit tests for the three-stage algorithm: querying, weighting, training."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acda.acda import (CRITIC_STEPS, EARLY_STOP_TOL, LAMBDA_W_DELTA, QueryResult,
                       TrainConfig, WeightVector, accuracy, lambda_w,
                       query_scores, query_size, random_queries, run_algorithm_1,
                       select_queries, stage1_train, stage3_train,
                       uncertainty_weights, update_pools, weighted_query_loss)
from acda.data import Dataset, gen_gaussian_shift_pair, gen_two_moons_pair
from acda.errors import CapacityError, DataError, TrainingDivergedError
from acda import nets
from acda.nets import (NetworkParams, NetworkSpec, default_classifier_spec,
                       default_critic_spec, default_feature_spec, init_network,
                       predictive_entropy)
from acda.seeding import derive_seed


def _nets_for(dim=2, n_classes=2, seed=0):
    """The ``{"F", "C", "D"}`` networks dict that the stages take."""
    return {"F": init_network(default_feature_spec(dim), derive_seed(seed, "f")),
            "C": init_network(default_classifier_spec(n_classes), derive_seed(seed, "c")),
            "D": init_network(default_critic_spec(), derive_seed(seed, "d"))}


def _stage1_seed(seed):
    """The stage-1 seed ``run_algorithm_1`` derives from the run's seed."""
    return derive_seed(seed, "stage", 1)


def _small_pair(seed=0, n=60):
    pair = gen_gaussian_shift_pair(n_classes=2, dim=2, mean_shift=2.0,
                                   covariance_scale=0.8, swap_fraction=0.0,
                                   n_source=n, n_target=n, seed=seed)
    return pair.source, pair.target


# --------------------------------------------------------------- TrainConfig


def test_config_documented_defaults():
    cfg = TrainConfig()
    assert cfg.budget == 0.1
    assert cfg.lambda_div == 10.0
    assert cfg.query_rounds == 1
    assert (LAMBDA_W_DELTA, CRITIC_STEPS, EARLY_STOP_TOL) == (10.0, 5, 1e-4)
    assert [f.name for f in fields(TrainConfig)] == [
        "budget", "lambda_div", "query_rounds", "stage1_epochs", "stage3_epochs",
        "batch_size", "learning_rate", "early_stop_patience"]


@pytest.mark.parametrize("bad", [
    {"budget": 0.0}, {"budget": 1.0}, {"budget": 1.5},
    {"lambda_div": -1.0}, {"query_rounds": 0}, {"batch_size": 0},
    {"learning_rate": 0.0}, {"stage1_epochs": 0}, {"stage3_epochs": 0},
    {"early_stop_patience": 0}, {"lambda_div": float("nan")}, {"learning_rate": float("inf")},
    {"budget": float("nan")},
    {"stage1_epochs": 2.5}, {"batch_size": 40.0}, {"early_stop_patience": 1.5},
    {"query_rounds": True},
    {"learning_rate": True}, {"lambda_div": False},
    {"learning_rate": "0.1"}, {"budget": None}, {"lambda_div": [1.0]},
    {"learning_rate": -1e-3},
])
def test_config_rejects_invalid_values(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


# ----------------------------------------------------------------- schedule


def test_lambda_w_schedule_shape():
    assert lambda_w(0.0) == 0.0
    assert abs(lambda_w(1.0) - 0.9999092) < 1e-7
    grid = np.array([lambda_w(p) for p in np.linspace(0, 1, 100)])
    assert np.all(np.diff(grid) > 0)
    assert lambda_w(-0.5) == lambda_w(0.0)  # progress is clamped
    assert lambda_w(2.0) == lambda_w(1.0)


# ----------------------------------------------------------------- querying


def test_query_size_rounds_half_up_with_floor_one():
    assert query_size(1000, 0.05) == 50
    assert query_size(90, 0.05) == 5   # 4.5 rounds up
    assert query_size(10, 0.001) == 1  # floor of one
    assert query_size(975, 0.01) == 10  # 9.75 -> 10


def test_query_scores_hand_example():
    """1-d points through F(x) = x, C logits (f, -f) and critic D(f) = f.

    Points 1 and 2 (x = 0.5, -0.5) are equally uncertain; the critic scores
    source-like points high, so with lambda_div > 0 the lower-scored
    point 2 ranks first; with lambda_div = 0 the entropy ranking holds and
    the tie goes to the lower index.
    """
    def net(weight, out="identity"):
        w = np.array([weight], dtype=np.float64)
        return NetworkParams(NetworkSpec((1, w.shape[1]), out), [w], [np.zeros(w.shape[1])])

    f, c, d = net([1.0]), net([1.0, -1.0], "softmax"), net([1.0])
    pool = Dataset(np.array([[2.0], [0.5], [-0.5], [0.1]]), None)
    entropy = predictive_entropy(nets.forward(c, pool.features))
    assert entropy[1] == entropy[2]

    flat = query_scores({"F": f, "C": c, "D": d}, pool, 0.0)
    np.testing.assert_array_equal(flat.indices, [3, 1, 2, 0])
    np.testing.assert_array_equal(flat.combined, entropy)

    scores = query_scores({"F": f, "C": c, "D": d}, pool, 0.01)
    np.testing.assert_allclose(scores.diversity, [1.0, 0.4, 0.0, 0.24], atol=1e-15)
    np.testing.assert_array_equal(scores.combined, entropy - 0.01 * scores.diversity)
    np.testing.assert_array_equal(scores.indices, [3, 2, 1, 0])


def test_query_scores_with_zero_lambda_is_entropy_ranking():
    params = _nets_for()
    source, target = _small_pair(seed=3)
    scores = query_scores(params, target, 0.0)
    from acda import nets
    ent = predictive_entropy(nets.forward(params["C"], nets.forward(params["F"], target.features)))
    np.testing.assert_array_equal(scores.indices,
                                  np.lexsort((np.arange(len(ent)), -ent)))
    np.testing.assert_allclose(scores.combined, ent, atol=0)


def test_query_scores_minmax_is_shift_invariant_and_handles_degenerate():
    rng = np.random.default_rng(0)
    U = rng.uniform(size=30)
    raw = rng.normal(size=30)
    from acda.acda import _minmax
    a = U - 2.0 * _minmax(raw)
    b = U - 2.0 * _minmax(raw + 123.4)
    np.testing.assert_array_equal(np.argsort(a), np.argsort(b))
    np.testing.assert_array_equal(_minmax(np.full(9, 3.3)), np.zeros(9))


def test_query_scores_rejects_empty_pool():
    empty = Dataset(np.zeros((0, 2)), None)
    with pytest.raises(ValueError):
        query_scores(_nets_for(), empty, 10.0)


def test_select_queries_matches_brute_force_top_k():
    rng = np.random.default_rng(8)
    for _ in range(50):
        m = int(rng.integers(2, 40))
        combined = np.round(rng.normal(size=m), 2)  # rounding forces ties
        scores = QueryResult(
            indices=np.lexsort((np.arange(m), -combined)),
            uncertainty=np.zeros(m), diversity=np.zeros(m), combined=combined)
        picked = select_queries(scores, budget=0.3)
        k = query_size(m, 0.3)
        expected = sorted(range(m), key=lambda i: (-combined[i], i))[:k]
        np.testing.assert_array_equal(picked, expected)


def test_select_queries_ties_prefer_lower_index():
    combined = np.array([1.0, 2.0, 2.0, 0.5])
    scores = QueryResult(indices=np.lexsort((np.arange(4), -combined)),
                         uncertainty=np.zeros(4), diversity=np.zeros(4),
                         combined=combined)
    np.testing.assert_array_equal(select_queries(scores, 0.25), [1])
    np.testing.assert_array_equal(select_queries(scores, 0.5), [1, 2])


def test_select_queries_refuses_more_queries_than_scores():
    scores = QueryResult(indices=np.arange(4), uncertainty=np.zeros(4),
                         diversity=np.zeros(4), combined=np.zeros(4))
    with pytest.raises(CapacityError):
        select_queries(scores, 1.5)


def test_random_queries_are_seeded_and_without_replacement():
    a = random_queries(100, 0.1, seed=5)
    b = random_queries(100, 0.1, seed=5)
    c = random_queries(100, 0.1, seed=6)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert len(np.unique(a)) == 10
    with pytest.raises(CapacityError):
        random_queries(0, 0.5, seed=0)


def test_random_queries_near_full_budget_leaves_one_index():
    picked = random_queries(10, 0.94, seed=3)
    assert len(picked) == 9
    assert len(set(range(10)) - set(picked.tolist())) == 1


def test_random_queries_selection_frequency_is_binomial():
    # Each index is included with probability m_q/m_t per draw, so over
    # n draws its count is Binomial(n, p); check every count sits within
    # 3 standard deviations of n*p.
    m_t, budget, draws = 20, 0.25, 10000
    m_q = query_size(m_t, budget)
    counts = np.zeros(m_t, dtype=np.int64)
    for d in range(10000, 10000 + draws):
        counts[random_queries(m_t, budget, seed=d)] += 1
    p = m_q / m_t
    sigma = np.sqrt(draws * p * (1.0 - p))
    assert np.all(np.abs(counts - draws * p) <= 3.0 * sigma)


def test_update_pools_moves_instances_with_labels():
    source, target = _small_pair(seed=1, n=20)
    idx = np.array([3, 7])
    labels = np.array([1, 0])
    new_source, new_target = update_pools(source, target, idx, labels)
    assert len(new_source) == 22 and len(new_target) == 18
    np.testing.assert_array_equal(new_source.features[-2:], target.features[idx])
    np.testing.assert_array_equal(new_source.labels[-2:], labels)
    rest = np.setdiff1d(np.arange(20), idx)
    np.testing.assert_array_equal(new_target.features, target.features[rest])
    np.testing.assert_array_equal(new_target.labels, target.labels[rest])
    with pytest.raises(ValueError):
        update_pools(source, target, np.array([1, 1]), np.array([0, 0]))
    with pytest.raises(ValueError):
        update_pools(source, target, np.array([25]), np.array([0]))
    with pytest.raises(ValueError, match="query indices must be whole numbers"):
        update_pools(source, target, [1.7], [0])  # not target row 1


_PROBS = np.array([[0.4, 0.6]])
_FRACTIONAL_LABEL_CALLERS = {
    "Dataset": lambda y: Dataset(np.zeros((1, 2)), y),
    "update_pools": lambda y: update_pools(*_small_pair(seed=1, n=20), [3], y),
    "uncertainty_weights": lambda y: uncertainty_weights(y, [0.5], n_classes=2),
    "weighted_query_loss": lambda y: weighted_query_loss(
        _PROBS, y, WeightVector(alpha=np.array([0.5, 0.5]), counts=np.array([1, 1]))),
    "cross_entropy": lambda y: nets.cross_entropy(_PROBS, y),
    "cross_entropy_from_logits": lambda y: nets.cross_entropy_from_logits(_PROBS, y),
}


@pytest.mark.parametrize("caller", list(_FRACTIONAL_LABEL_CALLERS))
def test_every_label_reader_refuses_a_fractional_label(caller):
    """Each reads its labels through ``class_ids``: 0.6 is no class id, and
    is never truncated to class 0; the whole-number float 1.0 is class 1."""
    read = _FRACTIONAL_LABEL_CALLERS[caller]
    with pytest.raises(ValueError, match="labels must be integer class ids"):
        read([0.6])
    read([1.0])


# ----------------------------------------------------------------- weights


def test_uncertainty_weights_hand_case():
    wv = uncertainty_weights([0, 0, 1], [0.2, 0.6, 0.2], n_classes=2)
    np.testing.assert_allclose(wv.alpha, [0.8, 0.2], atol=1e-12)
    np.testing.assert_array_equal(wv.counts, [2, 1])


def test_uncertainty_weights_uniform_entropy_gives_frequencies():
    wv = uncertainty_weights([0, 1, 1, 2], [0.3, 0.3, 0.3, 0.3], n_classes=3)
    np.testing.assert_allclose(wv.alpha, [0.25, 0.5, 0.25], atol=1e-12)


def test_uncertainty_weights_zero_entropy_fallback():
    wv = uncertainty_weights([0, 1, 1], [0.0, 0.0, 0.0], n_classes=2)
    np.testing.assert_allclose(wv.alpha, [1 / 3, 2 / 3], atol=1e-15)
    assert abs(wv.alpha.sum() - 1.0) < 1e-15


def test_uncertainty_weights_single_class_and_bad_labels():
    wv = uncertainty_weights([1, 1], [0.5, 0.7], n_classes=3)
    np.testing.assert_allclose(wv.alpha, [0.0, 1.0, 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        uncertainty_weights([0, 3], [0.1, 0.1], n_classes=3)
    with pytest.raises(ValueError):
        uncertainty_weights([], [], n_classes=2)
    with pytest.raises(ValueError, match="one entropy per label, got 1 for 2 labels"):
        uncertainty_weights([0, 1], [0.0], n_classes=2)  # not the zero-entropy fallback
    with pytest.raises(ValueError, match="one entropy per label, got 3 for 2 labels"):
        uncertainty_weights([0, 1], [0.2, 0.3, 0.4], n_classes=2)
    with pytest.raises(ValueError, match=r"labels must be 1-d, got shape \(1, 2\)"):
        uncertainty_weights([[0, 1]], [[0.1, 0.2]], n_classes=2)  # not bincount's message


@settings(derandomize=True, max_examples=100)
@given(st.integers(2, 6), st.integers(1, 30), st.integers(0, 2**31 - 1),
       st.booleans())
def test_uncertainty_weights_always_sum_to_one(n_classes, m_q, seed, zero_entropy):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=m_q)
    entropies = np.zeros(m_q) if zero_entropy else rng.uniform(0, np.log(n_classes),
                                                               size=m_q)
    wv = uncertainty_weights(labels, entropies, n_classes)
    assert abs(wv.alpha.sum() - 1.0) < 1e-9
    assert np.all(wv.alpha[wv.counts == 0] == 0.0)


def test_weighted_query_loss_identities():
    rng = np.random.default_rng(2)
    probs = rng.dirichlet(np.ones(4), size=6)
    labels = rng.integers(0, 4, size=6)
    uniform = WeightVector(alpha=np.full(4, 0.25), counts=np.ones(4, dtype=int))
    from acda.nets import cross_entropy
    np.testing.assert_allclose(weighted_query_loss(probs, labels, uniform),
                               cross_entropy(probs, labels) / 4, atol=1e-12)
    silent = WeightVector(alpha=np.array([0.0, 1.0, 0.0, 0.0]),
                          counts=np.array([0, 2, 0, 0]))
    only_other = labels * 0  # all label 0, alpha_0 = 0
    assert weighted_query_loss(probs, only_other, silent) == 0.0


def test_weighted_query_loss_hand_case():
    wv = WeightVector(alpha=np.array([0.8, 0.2]), counts=np.array([1, 1]))
    loss = weighted_query_loss(np.array([[0.5, 0.5], [0.5, 0.5]]),
                               np.array([0, 1]), wv)
    assert abs(loss - 0.346574) < 1e-6


@pytest.mark.parametrize("rows, labels", [(1, [0, 1, 1]), (3, [0, 1])],
                         ids=["one-row-three-labels", "three-rows-two-labels"])
def test_weighted_query_loss_needs_one_probability_row_per_label(rows, labels):
    """One row is not broadcast over several labels, and extra rows are not
    an IndexError."""
    wv = WeightVector(alpha=np.array([0.5, 0.5]), counts=np.array([1, 1]))
    with pytest.raises(ValueError, match=f"got {rows} rows for {len(labels)} labels"):
        weighted_query_loss(np.full((rows, 2), 0.5), labels, wv)


@pytest.mark.parametrize("probabilities, labels, message", [
    ([[0.2, 0.8], [0.6, 0.4]], [[1], [0]], r"labels must be 1-d, got shape \(2, 1\)"),
    (np.zeros((0, 2)), [], "need at least one queried label"),
], ids=["column-of-labels", "no-labels"])
def test_weighted_query_loss_needs_a_non_empty_1d_label_list(probabilities, labels, message):
    """A column of labels is not broadcast to a 2 x 2 pick, and an empty
    batch is not numpy's zero-size reduction error."""
    wv = WeightVector(alpha=np.array([0.5, 0.5]), counts=np.array([1, 1]))
    with pytest.raises(ValueError, match=message):
        weighted_query_loss(probabilities, labels, wv)


# ----------------------------------------------------------------- training


def test_stage1_same_seed_is_bitwise_reproducible():
    source, target = _small_pair(seed=5)
    cfg = TrainConfig(stage1_epochs=3, batch_size=32)
    params = _nets_for(seed=1)
    a, _ = stage1_train(params, source, target, cfg, 99)
    b, _ = stage1_train(params, source, target, cfg, 99)
    assert list(a) == list(b) == ["F", "C", "D"]
    for name in a:
        for wa, wb in zip(a[name].weights, b[name].weights):
            np.testing.assert_array_equal(wa, wb)


def test_stage1_adapts_identical_pools_toward_zero_w1():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(120, 2))
    labels = (x[:, 0] > 0).astype(np.int64)
    source = Dataset(x, labels)
    target = Dataset(x.copy(), None)
    cfg = TrainConfig(stage1_epochs=30, batch_size=60, learning_rate=2e-3)
    _, hist = stage1_train(_nets_for(seed=2), source, target, cfg, _stage1_seed(3))
    first = abs(hist.epochs[0]["W1_estimate"])
    last = abs(hist.epochs[-1]["W1_estimate"])
    assert last <= max(0.1 * first, 0.05)


@pytest.mark.parametrize("weight", [1.0, 50.0])
def test_critic_graph_penalty_equals_gradient_penalty_on_the_same_features(weight):
    """The critic step reads F(xs_adv), F(xt) and the interpolates between
    them as leaves; its penalty is bit for bit ``gradient_penalty`` on the
    same inputs, networks and seed, and its objective is lambda_w times W1
    minus ``weight`` times that penalty.  Training's critic is weight 1."""
    from acda import nets, transport
    from acda.acda import _StepGraphs
    from acda.autodiff import forward_eval

    f_spec = default_feature_spec(2)
    specs = {"F": f_spec, "C": default_classifier_spec(2), "D": default_critic_spec()}
    critic = (_StepGraphs((128, 100, 128, 0), specs).critic if weight == 1.0
              else transport.build_critic_step(specs["D"], 128, 100, weight))
    assert critic.graph.shapes[critic.graph.leaves["xhat"]] == (100, f_spec.output_dim)

    rng = np.random.default_rng(9)
    xs_adv, xt = rng.normal(size=(128, 2)), rng.normal(size=(100, 2)) + 1.0
    params = _nets_for(seed=4)
    f, d = params["F"], params["D"]
    bindings = {**nets.param_bindings(f, "F"), **nets.param_bindings(d, "D"),
                "lambda_w": np.asarray(0.7)}
    bindings["fs_adv"] = nets.logits(f, xs_adv)
    bindings["ft"] = nets.logits(f, xt)
    bindings["xhat"] = transport.interpolates(bindings["fs_adv"], bindings["ft"], 11)
    vals = forward_eval(critic.graph, bindings)
    step = forward_eval(critic.graph, bindings, critic.outputs)

    penalty, w1, objective = critic.terms["L_grad"], critic.w1, critic.objective
    fs, ft = nets.forward(f, xs_adv), nets.forward(f, xt)
    expected = transport.gradient_penalty(d, fs, ft, 11)
    assert vals[penalty].tobytes() == np.float64(expected).tobytes()
    assert float(vals[w1]) == transport.critic_w1_estimate(d, fs, ft)
    assert float(vals[objective]) == 0.7 * (float(vals[w1]) - weight * expected)
    for node in critic.outputs:
        assert step[node].tobytes() == vals[node].tobytes()


def test_model_graph_losses_equal_the_numpy_references():
    """With a query set, the model graph's L_cls is ``cross_entropy_from_logits``
    on the cls-batch logits, and its L_w_q is ``weighted_query_loss`` on the
    query-set softmax."""
    from acda.acda import _StepGraphs
    from acda.autodiff import forward_eval

    specs = {"F": default_feature_spec(2), "C": default_classifier_spec(2),
             "D": default_critic_spec()}
    sg = _StepGraphs((40, 30, 40, 7), specs)
    params = _nets_for(seed=6)
    f, c, d = params["F"], params["C"], params["D"]
    rng = np.random.default_rng(10)
    xs_cls, qx = rng.normal(size=(40, 2)), rng.normal(size=(7, 2))
    y, qy = rng.integers(0, 2, size=40), np.array([0, 1, 1, 0, 1, 1, 1])
    weights = uncertainty_weights(qy, rng.uniform(size=7), 2)
    bindings = {**nets.param_bindings(f, "F"), **nets.param_bindings(c, "C"),
                **nets.param_bindings(d, "D"), "xs_cls": xs_cls, "y_onehot": np.eye(2)[y],
                "qx": qx, "q_onehot": np.eye(2)[qy], "q_alpha": weights.alpha[qy],
                "xs_adv": rng.normal(size=(40, 2)), "xt": rng.normal(size=(30, 2)),
                "lambda_w": np.asarray(0.5)}
    vals = forward_eval(sg.model.graph, bindings, sg.model.outputs)

    logits = nets.logits(c, nets.forward(f, xs_cls))
    l_cls = float(vals[sg.model.terms["L_cls"]])
    assert abs(l_cls - nets.cross_entropy_from_logits(logits, y)) < 1e-12
    q_probs = nets.forward(c, nets.forward(f, qx))
    l_wq = float(vals[sg.model.terms["L_w_q"]])
    assert abs(l_wq - weighted_query_loss(q_probs, qy, weights)) < 1e-12


def test_stopping_rule_matches_the_recorded_objectives():
    """A stage stops once ``early_stop_patience`` consecutive epochs fail to
    lower the best objective by EARLY_STOP_TOL; with a patience of at least
    the epoch count, every epoch runs."""
    source, target = _small_pair(seed=17, n=30)
    params = _nets_for(seed=7)
    epochs = 6
    stopped = {}
    for patience in (1, 2, epochs, epochs + 3):
        cfg = TrainConfig(stage1_epochs=epochs, batch_size=15, early_stop_patience=patience)
        _, hist = stage1_train(params, source, target, cfg, _stage1_seed(9))
        objectives = [rec["objective"] for rec in hist.epochs]
        best, stale, ran, stop = np.inf, 0, epochs, False
        for epoch, objective in enumerate(objectives):
            stale = stale + 1 if best - objective < EARLY_STOP_TOL else 0
            best = min(best, objective)
            if stale >= patience:
                ran, stop = epoch + 1, True
                break
        assert len(objectives) == ran
        assert hist.stopped_early == stop
        stopped[patience] = stop
    assert stopped[1]
    assert not stopped[epochs] and not stopped[epochs + 3]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_diverged_error_carries_epoch():
    source, target = _small_pair(seed=7, n=30)
    bad = Dataset(source.features * np.inf, source.labels)
    cfg = TrainConfig(stage1_epochs=2, batch_size=16)
    with pytest.raises(TrainingDivergedError) as err:
        stage1_train(_nets_for(seed=3), bad, target, cfg, _stage1_seed(0))
    assert err.value.epoch == 0


def test_l_grad_is_the_mean_penalty_over_the_critic_steps(monkeypatch):
    """An epoch's L_grad averages every critic step's penalty, not only the
    last critic step of each model step."""
    import acda.autodiff as autodiff

    penalties = []
    real_eval = autodiff.forward_eval

    def spy(graph, bindings, outputs=None):
        vals = real_eval(graph, bindings, outputs)
        if "xhat" in graph.leaves:  # a critic step; its first output is the penalty
            penalties.append(float(vals[outputs[0]]))
        return vals

    monkeypatch.setattr(autodiff, "forward_eval", spy)
    source, target = _small_pair(seed=15, n=60)
    cfg = TrainConfig(stage1_epochs=1, batch_size=20)
    _, hist = stage1_train(_nets_for(seed=5), source, target, cfg, _stage1_seed(8))
    per_step = np.array(penalties).reshape(3, CRITIC_STEPS)  # 3 model steps
    assert np.ptp(per_step, axis=1).min() > 0
    assert hist.epochs[0]["L_grad"] == pytest.approx(per_step.mean(axis=1).mean(), rel=1e-12)


def test_stage3_with_empty_query_set_equals_stage1_dynamics():
    source, target = _small_pair(seed=8)
    params = _nets_for(seed=4)
    cfg = TrainConfig(stage1_epochs=3, stage3_epochs=3, batch_size=32)
    a, _ = stage1_train(params, source, target, cfg, 123)
    b, _ = stage3_train(params, source, source, target, None, cfg, 123)
    for wa, wb in zip(a["F"].weights + a["C"].weights, b["F"].weights + b["C"].weights):
        np.testing.assert_array_equal(wa, wb)


def test_stage3_with_an_empty_source_pool_fails_before_any_step(monkeypatch):
    import acda.acda as algorithm

    monkeypatch.setattr(algorithm, "_adversarial_fit", lambda *a, **k: pytest.fail("trained"))
    _, target = _small_pair(seed=8, n=20)
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    cfg = TrainConfig(stage3_epochs=1, batch_size=8)
    with pytest.raises(ValueError, match="non-empty source"):
        stage3_train(_nets_for(seed=4), empty, empty, target, None, cfg, 5)


def test_stage3_with_a_queried_label_alpha_lacks_fails_before_any_step(monkeypatch):
    """A queried label past the end of ``alpha`` is a ValueError, not an
    IndexError from the weight lookup."""
    import acda.acda as algorithm

    monkeypatch.setattr(algorithm, "_adversarial_fit", lambda *a, **k: pytest.fail("trained"))
    source, target = _small_pair(seed=8, n=20)
    labelled, rest = update_pools(source, target, [2], [1])
    short = WeightVector(alpha=np.array([1.0]), counts=np.array([1]))
    cfg = TrainConfig(stage3_epochs=1, batch_size=8)
    with pytest.raises(ValueError, match="needs an uncertainty weight for each queried label"):
        stage3_train(_nets_for(seed=4), source, labelled, rest, short, cfg, 5)


def _net_bytes(params):
    return {name: [a.tobytes() for a in net.weights + net.biases]
            for name, net in params.items()}


def test_stages_train_copies_and_leave_the_callers_networks_alone():
    """Adam steps the stage's own float64 copies in place: the caller's
    arrays keep their bytes, and ``eval_cb`` sees the dict the stage returns."""
    source, target = _small_pair(seed=12, n=40)
    cfg = TrainConfig(stage1_epochs=2, stage3_epochs=2, batch_size=16)
    params = _nets_for(seed=7)
    before = _net_bytes(params)
    seen = []
    out1, _ = stage1_train(params, source, target, cfg, 31, eval_cb=lambda p: seen.append(p) or {})
    assert len(seen) == 2 and all(p is out1 for p in seen)
    after1 = _net_bytes(out1)
    labelled, pool = update_pools(source, target, [0, 3, 5], target.labels[[0, 3, 5]])
    weights = uncertainty_weights(labelled.labels[len(source):], [0.2, 0.5, 0.1], 2)
    out3, _ = stage3_train(out1, source, labelled, pool, weights, cfg, 32)
    assert _net_bytes(params) == before and _net_bytes(out1) == after1
    for name, net in out3.items():
        assert not any(np.shares_memory(a, b) for a in net.weights + net.biases
                       for b in out1[name].weights + out1[name].biases)
    assert _net_bytes(out3) != _net_bytes(out1)


def test_accuracy_is_nan_without_labels():
    source, _ = _small_pair(seed=2, n=20)
    params = _nets_for()
    predicted = nets.forward(params["C"], nets.forward(params["F"], source.features)).argmax(1)
    assert accuracy(params, source) == np.mean(predicted == source.labels)
    assert np.isnan(accuracy(params, Dataset(source.features, None)))


# ----------------------------------------------------------------- pipeline


def test_run_algorithm_none_strategy_never_queries():
    source, target = _small_pair(seed=9)
    cfg = TrainConfig(budget=0.2, stage1_epochs=2, stage3_epochs=2, batch_size=32)
    record = run_algorithm_1(source, target, cfg, 2, "none")
    assert record.rounds[0].query is None
    assert record.rounds[0].alpha is None
    assert np.isfinite(record.final_target_accuracy)


def test_run_algorithm_queries_are_disjoint_across_rounds():
    source, target = _small_pair(seed=10, n=80)
    cfg = TrainConfig(budget=0.2, query_rounds=2, stage1_epochs=2,
                      stage3_epochs=2, batch_size=32)
    record = run_algorithm_1(source, target, cfg, 3, "active")
    first = record.rounds[0].queried_original_indices
    second = record.rounds[1].queried_original_indices
    assert len(np.intersect1d(first, second)) == 0
    # per-round budget: 0.1 of the current pool, half-up, floor 1
    assert len(first) == query_size(80, 0.1)
    assert len(second) == query_size(80 - len(first), 0.1)


def test_run_algorithm_oracle_labels_match_target_pool():
    source, target = _small_pair(seed=11, n=60)
    cfg = TrainConfig(budget=0.1, stage1_epochs=2, stage3_epochs=2, batch_size=32)
    record = run_algorithm_1(source, target, cfg, 4, "random")
    r = record.rounds[0]
    np.testing.assert_array_equal(r.queried_labels,
                                  target.labels[r.queried_original_indices])


def test_run_record_serializes_to_json():
    source, target = _small_pair(seed=12, n=40)
    cfg = TrainConfig(budget=0.1, stage1_epochs=2, stage3_epochs=2, batch_size=20)
    record = run_algorithm_1(source, target, cfg, 5, "active")
    blob = json.dumps(record.to_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["config"]["budget"] == 0.1
    assert len(parsed["rounds"]) == 1
    assert parsed["rounds"][0]["alpha"] is not None
    assert parsed["stage1"]["epochs"][0]["L_cls"] > 0


def test_run_algorithm_is_bitwise_deterministic():
    source, target = _small_pair(seed=13, n=50)
    cfg = TrainConfig(budget=0.1, stage1_epochs=2, stage3_epochs=2, batch_size=25)
    a = run_algorithm_1(source, target, cfg, 6, "active")
    b = run_algorithm_1(source, target, cfg, 6, "active")
    assert a.final_target_accuracy == b.final_target_accuracy
    for name in ("F", "C", "D"):
        for wa, wb in zip(a.params[name].weights, b.params[name].weights):
            np.testing.assert_array_equal(wa, wb)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(),
                                                                 sort_keys=True)


def test_run_algorithm_rejects_target_only_class_before_stage1(monkeypatch):
    import acda.acda as algorithm

    def stage1_must_not_run(*args, **kwargs):
        raise AssertionError("stage 1 ran before the class check")

    monkeypatch.setattr(algorithm, "_adversarial_fit", stage1_must_not_run)
    source, target = _small_pair(seed=14, n=40)
    target = Dataset(target.features, np.where(target.labels == 1, 2, 0))
    cfg = TrainConfig(budget=0.1, stage1_epochs=2, stage3_epochs=2, batch_size=20)
    with pytest.raises(DataError, match="target label 2"):
        run_algorithm_1(source, target, cfg, 7, "active")


def test_run_algorithm_rejects_querying_without_oracle_before_stage1(monkeypatch):
    import acda.acda as algorithm

    def stage1_must_not_run(*args, **kwargs):
        raise AssertionError("stage 1 ran before the oracle check")

    monkeypatch.setattr(algorithm, "_adversarial_fit", stage1_must_not_run)
    source, target = _small_pair(seed=16, n=40)
    unlabelled = Dataset(target.features, None)
    cfg = TrainConfig(budget=0.1, stage1_epochs=2, stage3_epochs=2, batch_size=20)
    for strategy in ("active", "random"):
        with pytest.raises(ValueError, match="querying needs target labels"):
            run_algorithm_1(source, unlabelled, cfg, 7, strategy)


@pytest.mark.parametrize("seed, strategy, message", [
    (-1, "active", "seed must be non-negative, got -1"),
    (1.5, "active", "seed must be an integer, got 1.5"),
    (True, "active", "seed must be an integer, got True"),
    (0, "greedy", r"unknown strategy 'greedy' \(choose from \['active', 'random', 'none'\]\)"),
], ids=["negative-seed", "fractional-seed", "bool-seed", "unknown-strategy"])
def test_run_algorithm_rejects_bad_seed_or_strategy_before_stage1(monkeypatch, seed,
                                                                  strategy, message):
    import acda.acda as algorithm

    def stage1_must_not_run(*args, **kwargs):
        raise AssertionError("stage 1 ran before the seed and strategy check")

    monkeypatch.setattr(algorithm, "_adversarial_fit", stage1_must_not_run)
    source, target = _small_pair(seed=16, n=40)
    with pytest.raises(ValueError, match=message):
        run_algorithm_1(source, target, TrainConfig(), seed, strategy)


def test_run_algorithm_keeps_weights_once_the_pool_is_empty():
    """Two target points and three rounds: rounds 1 and 2 query one point
    each, round 3 has nothing left to query and retrains on the weights of
    everything queried so far."""
    pair = gen_gaussian_shift_pair(n_classes=2, dim=2, mean_shift=2.0,
                                   covariance_scale=0.8, swap_fraction=0.0,
                                   n_source=20, n_target=2, seed=0)
    cfg = TrainConfig(budget=0.5, query_rounds=3, stage1_epochs=1, stage3_epochs=1,
                      batch_size=10)
    record = run_algorithm_1(pair.source, pair.target, cfg, 1, "random")
    first, second, last = record.rounds
    assert sorted(np.concatenate([first.queried_original_indices,
                                  second.queried_original_indices])) == [0, 1]
    assert last.query is None
    assert last.alpha is second.alpha
    assert len(last.stage3.epochs) == 1
