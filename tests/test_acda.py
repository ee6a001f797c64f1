"""Unit tests for the three-stage algorithm: querying, weighting, training."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acda.acda import (QueryResult, TrainConfig, WeightVector, lambda_w,
                       query_scores, query_size, random_queries, run_algorithm_1,
                       select_queries, stage1_train, stage3_train,
                       uncertainty_weights, update_pools, weighted_query_loss)
from acda.data import Dataset, gen_gaussian_shift_pair, gen_two_moons_pair
from acda.errors import CapacityError, DataError, TrainingDivergedError
from acda.nets import (default_classifier_spec, default_critic_spec,
                       default_feature_spec, init_network, predictive_entropy)
from acda.seeding import derive_seed


def _nets_for(dim=2, n_classes=2, seed=0):
    f = init_network(default_feature_spec(dim), derive_seed(seed, "f"))
    c = init_network(default_classifier_spec(n_classes), derive_seed(seed, "c"))
    d = init_network(default_critic_spec(), derive_seed(seed, "d"))
    return f, c, d


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
    assert cfg.delta == 10.0
    assert cfg.query_rounds == 1
    assert cfg.critic_steps_per_update == 5
    assert cfg.strategy == "active"
    assert cfg.diversity_normalization == "minmax"
    assert cfg.query_sign == "as_written"


@pytest.mark.parametrize("bad", [
    {"budget": 0.0}, {"budget": 1.0}, {"budget": 1.5},
    {"lambda_div": -1.0}, {"query_rounds": 0}, {"batch_size": 0},
    {"learning_rate": 0.0}, {"strategy": "greedy"},
    {"diversity_normalization": "softmax"}, {"query_sign": "both"},
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
    """U=[0.1,0.9,0.5,0.2], d=[1,0,0.5,0], lam=1 -> combined [-0.9,0.9,0,0.2]."""
    U = np.array([0.1, 0.9, 0.5, 0.2])
    d = np.array([1.0, 0.0, 0.5, 0.0])
    combined = U - 1.0 * d
    np.testing.assert_allclose(combined, [-0.9, 0.9, 0.0, 0.2], atol=1e-15)
    order = np.lexsort((np.arange(4), -combined))
    np.testing.assert_array_equal(order, [1, 3, 2, 0])  # ranking (2,4,3,1) 1-based


def test_query_scores_with_zero_lambda_is_entropy_ranking():
    f, c, d = _nets_for()
    source, target = _small_pair(seed=3)
    cfg = TrainConfig(lambda_div=0.0)
    scores = query_scores(f, c, d, target, cfg)
    from acda import nets
    ent = predictive_entropy(nets.forward(c, nets.forward(f, target.features)))
    np.testing.assert_array_equal(scores.indices,
                                  np.lexsort((np.arange(len(ent)), -ent)))
    np.testing.assert_allclose(scores.combined, ent, atol=0)


def test_query_scores_minmax_is_shift_invariant_and_handles_degenerate():
    rng = np.random.default_rng(0)
    U = rng.uniform(size=30)
    raw = rng.normal(size=30)
    from acda.acda import _normalize_diversity
    a = U - 2.0 * _normalize_diversity(raw, "minmax")
    b = U - 2.0 * _normalize_diversity(raw + 123.4, "minmax")
    np.testing.assert_array_equal(np.argsort(a), np.argsort(b))
    np.testing.assert_array_equal(_normalize_diversity(np.full(9, 3.3), "minmax"),
                                  np.zeros(9))
    np.testing.assert_array_equal(_normalize_diversity(np.full(9, 3.3), "zscore"),
                                  np.zeros(9))


def test_query_scores_rejects_empty_pool():
    f, c, d = _nets_for()
    empty = Dataset(np.zeros((0, 2)), None, "target")
    with pytest.raises(ValueError):
        query_scores(f, c, d, empty, TrainConfig())


def test_select_queries_matches_brute_force_top_k():
    rng = np.random.default_rng(8)
    for _ in range(50):
        m = int(rng.integers(2, 40))
        combined = np.round(rng.normal(size=m), 2)  # rounding forces ties
        scores = QueryResult(
            indices=np.lexsort((np.arange(m), -combined)),
            uncertainty=np.zeros(m), diversity=np.zeros(m), combined=combined)
        picked = select_queries(scores, m, budget=0.3)
        k = query_size(m, 0.3)
        expected = sorted(range(m), key=lambda i: (-combined[i], i))[:k]
        np.testing.assert_array_equal(picked, expected)


def test_select_queries_ties_prefer_lower_index():
    combined = np.array([1.0, 2.0, 2.0, 0.5])
    scores = QueryResult(indices=np.lexsort((np.arange(4), -combined)),
                         uncertainty=np.zeros(4), diversity=np.zeros(4),
                         combined=combined)
    np.testing.assert_array_equal(select_queries(scores, 4, 0.25), [1])
    np.testing.assert_array_equal(select_queries(scores, 4, 0.5), [1, 2])


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
    with pytest.raises(ValueError):
        update_pools(source, target, np.array([1, 1]), np.array([0, 0]))
    with pytest.raises(ValueError):
        update_pools(source, target, np.array([25]), np.array([0]))


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


# ----------------------------------------------------------------- training


def test_stage1_with_lambda_zero_is_pure_source_classification():
    pair = gen_gaussian_shift_pair(n_classes=2, dim=2, mean_shift=1.0,
                                   covariance_scale=0.3, swap_fraction=0.0,
                                   n_source=200, n_target=50, seed=4)
    f, c, d = _nets_for()
    cfg = TrainConfig(stage1_epochs=40, batch_size=50, learning_rate=3e-3,
                      lambda_w_override=0.0, seed=1)
    f2, c2, d2, hist = stage1_train(pair.source, pair.target, f, c, d, cfg)
    from acda.acda import accuracy
    assert accuracy(f2, c2, pair.source.features, pair.source.labels) > 0.95
    assert all(rec["W1_estimate"] == 0.0 or True for rec in hist.epochs)


def test_stage1_same_seed_is_bitwise_reproducible():
    source, target = _small_pair(seed=5)
    cfg = TrainConfig(stage1_epochs=3, batch_size=32, seed=7)
    f, c, d = _nets_for(seed=1)
    a = stage1_train(source, target, f, c, d, cfg, seed=99)
    b = stage1_train(source, target, f, c, d, cfg, seed=99)
    for wa, wb in zip(a[0].weights + a[1].weights + a[2].weights,
                      b[0].weights + b[1].weights + b[2].weights):
        np.testing.assert_array_equal(wa, wb)


def test_stage1_adapts_identical_pools_toward_zero_w1():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(120, 2))
    labels = (x[:, 0] > 0).astype(np.int64)
    source = Dataset(x, labels, "source")
    target = Dataset(x.copy(), None, "target")
    f, c, d = _nets_for(seed=2)
    cfg = TrainConfig(stage1_epochs=30, batch_size=60, learning_rate=2e-3, seed=3)
    _, _, _, hist = stage1_train(source, target, f, c, d, cfg)
    first = abs(hist.epochs[0]["W1_estimate"])
    last = abs(hist.epochs[-1]["W1_estimate"])
    assert last <= max(0.1 * first, 0.05)


@pytest.mark.parametrize("penalty_mode", ["as_written", "separate"])
def test_hoisted_critic_graph_matches_critic_on_f_of_inputs(penalty_mode):
    """The critic graph reads F(xs_adv) and F(xt) as leaves; its objective,
    W1, penalty and D-gradients are bit for bit those of the graph that
    passes the inputs through F itself."""
    from acda import nets, transport
    from acda.acda import _StepGraphs
    from acda.autodiff import Graph, forward_eval

    f_spec, c_spec, d_spec = (default_feature_spec(2), default_classifier_spec(2),
                              default_critic_spec())
    config = TrainConfig(penalty_mode=penalty_mode)
    sg = _StepGraphs((128, 100, 128, 0, 2), (f_spec, c_spec, d_spec), config, 2)

    g = Graph()
    xs, xt = g.leaf("xs_adv", (128, 2)), g.leaf("xt", (100, 2))
    xhat, lamw = g.leaf("xhat", (100, 2)), g.leaf("lambda_w", ())
    w1 = transport.build_critic_w1(g, d_spec, nets.build_forward(g, f_spec, xs, "F"),
                                   nets.build_forward(g, f_spec, xt, "F"))
    penalty = transport.build_gradient_penalty(g, f_spec, d_spec, xhat)
    if penalty_mode == "as_written":
        objective = g.mul(lamw, g.sub(w1, penalty))
    else:
        objective = g.sub(g.mul(lamw, w1), g.affine(penalty, config.gp_coeff, 0.0))
    d_names = nets.param_leaf_names(d_spec, "D")
    grads = g.add_gradient_nodes(objective, [g.leaves[nm] for nm in d_names])

    rng = np.random.default_rng(9)
    bindings = {"xs_adv": rng.normal(size=(128, 2)), "xt": rng.normal(size=(100, 2)) + 1.0,
                "lambda_w": np.asarray(0.7)}
    bindings["xhat"] = transport.interpolates(bindings["xs_adv"], bindings["xt"], 11)
    f, _, d = _nets_for(seed=4)
    bindings.update(nets.param_bindings(f, "F"))
    bindings.update(nets.param_bindings(d, "D"))
    composed = forward_eval(g, bindings)
    bindings["fs_adv"] = nets.forward_bound(f_spec, bindings, "F", bindings["xs_adv"])
    bindings["ft"] = nets.forward_bound(f_spec, bindings, "F", bindings["xt"])
    hoisted = forward_eval(sg.critic_graph, bindings)
    step = forward_eval(sg.critic_graph, bindings, sg.critic_outputs)

    nodes = sg.critic_nodes
    pairs = [(nodes["objective"], objective), (nodes["w1"], w1), (nodes["penalty"], penalty)]
    pairs += [(nodes["grads"][nm], grads[g.leaves[nm]]) for nm in d_names]
    for mine, theirs in pairs:
        assert hoisted[mine].tobytes() == composed[theirs].tobytes()
    for mine in sg.critic_outputs:
        assert step[mine].tobytes() == hoisted[mine].tobytes()
    assert sg.critic_graph.num_nodes < g.num_nodes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_diverged_error_carries_epoch():
    source, target = _small_pair(seed=7, n=30)
    bad = Dataset(source.features * np.inf, source.labels, "source")
    f, c, d = _nets_for(seed=3)
    cfg = TrainConfig(stage1_epochs=2, batch_size=16, seed=0)
    with pytest.raises(TrainingDivergedError) as err:
        stage1_train(bad, target, f, c, d, cfg)
    assert err.value.epoch == 0


def test_stage3_with_empty_query_set_equals_stage1_dynamics():
    source, target = _small_pair(seed=8)
    f, c, d = _nets_for(seed=4)
    cfg = TrainConfig(stage1_epochs=3, stage3_epochs=3, batch_size=32, seed=5)
    a = stage1_train(source, target, f, c, d, cfg, seed=123)
    b = stage3_train(f, c, d, source, None, None, target, None, cfg, seed=123)
    for wa, wb in zip(a[0].weights + a[1].weights, b[0].weights + b[1].weights):
        np.testing.assert_array_equal(wa, wb)


# ----------------------------------------------------------------- pipeline


def test_run_algorithm_none_strategy_never_queries():
    source, target = _small_pair(seed=9)
    cfg = TrainConfig(budget=0.2, stage1_epochs=2, stage3_epochs=2,
                      batch_size=32, seed=2, strategy="none")
    record = run_algorithm_1(source, target, cfg)
    assert record.rounds[0].query is None
    assert record.rounds[0].weights is None
    assert np.isfinite(record.final_target_accuracy)


def test_run_algorithm_queries_are_disjoint_across_rounds():
    source, target = _small_pair(seed=10, n=80)
    cfg = TrainConfig(budget=0.2, query_rounds=2, stage1_epochs=2,
                      stage3_epochs=2, batch_size=32, seed=3, strategy="active")
    record = run_algorithm_1(source, target, cfg)
    first = record.rounds[0].queried_original_indices
    second = record.rounds[1].queried_original_indices
    assert len(np.intersect1d(first, second)) == 0
    # per-round budget: 0.1 of the current pool, half-up, floor 1
    assert len(first) == query_size(80, 0.1)
    assert len(second) == query_size(80 - len(first), 0.1)


def test_run_algorithm_oracle_labels_match_target_pool():
    source, target = _small_pair(seed=11, n=60)
    cfg = TrainConfig(budget=0.1, stage1_epochs=2, stage3_epochs=2,
                      batch_size=32, seed=4, strategy="random")
    record = run_algorithm_1(source, target, cfg)
    r = record.rounds[0]
    np.testing.assert_array_equal(r.queried_labels,
                                  target.labels[r.queried_original_indices])


def test_run_record_serializes_to_json():
    source, target = _small_pair(seed=12, n=40)
    cfg = TrainConfig(budget=0.1, stage1_epochs=2, stage3_epochs=2,
                      batch_size=20, seed=5, strategy="active")
    record = run_algorithm_1(source, target, cfg)
    blob = json.dumps(record.to_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["config"]["budget"] == 0.1
    assert len(parsed["rounds"]) == 1
    assert parsed["rounds"][0]["alpha"] is not None
    assert parsed["stage1"]["epochs"][0]["L_cls"] > 0


def test_run_algorithm_is_bitwise_deterministic():
    source, target = _small_pair(seed=13, n=50)
    cfg = TrainConfig(budget=0.1, stage1_epochs=2, stage3_epochs=2,
                      batch_size=25, seed=6, strategy="active")
    a = run_algorithm_1(source, target, cfg)
    b = run_algorithm_1(source, target, cfg)
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
    target = Dataset(target.features, np.where(target.labels == 1, 2, 0), "target")
    cfg = TrainConfig(budget=0.1, stage1_epochs=2, stage3_epochs=2,
                      batch_size=20, seed=7, strategy="active")
    with pytest.raises(DataError, match="target label 2"):
        run_algorithm_1(source, target, cfg)
