"""Unit tests for exact transport, the critic estimate, and the risk bound."""

import itertools
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from acda import transport
from acda._assignment import backend
from acda.data import gen_two_moons_pair
from acda.errors import CapacityError
from acda.nets import NetworkSpec, forward, init_network
from acda.transport import (EXACT_W1_SIZE_LIMIT, bound_rhs, critic_w1_estimate, exact_w1,
                            fit_critic, gradient_penalty, lipschitz_normalize,
                            interpolates)


def brute_force_w1(a: np.ndarray, b: np.ndarray) -> float:
    """Minimum mean transport cost over all permutations (equal sizes)."""
    n = len(a)
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    best = min(sum(cost[i, p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))
    return best / n


def quantile_w1_1d(a, b) -> Fraction:
    """Exact 1-D W1 between uniform empirical measures of unequal sizes.

    Integrates |F_a^{-1} - F_b^{-1}| over the merged probability grid using
    rational arithmetic, so the reference value is exact.
    """
    a = sorted(Fraction(x).limit_denominator(10**12) for x in a)
    b = sorted(Fraction(x).limit_denominator(10**12) for x in b)
    cuts = sorted(set(Fraction(i, len(a)) for i in range(len(a) + 1))
                  | set(Fraction(j, len(b)) for j in range(len(b) + 1)))
    total = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        qa = a[min(int(mid * len(a)), len(a) - 1)]
        qb = b[min(int(mid * len(b)), len(b) - 1)]
        total += abs(qa - qb) * (hi - lo)
    return total


def test_hand_case_offset_pairs():
    a = np.array([[0.0], [1.0]])
    b = np.array([[0.5], [1.5]])
    value, plan = exact_w1(a, b)
    assert abs(value - 0.5) < 1e-12
    assert plan.marginal_error() < 1e-12


def test_identical_clouds_have_zero_distance():
    pts = np.random.default_rng(0).normal(size=(20, 3))
    value, _ = exact_w1(pts, pts.copy())
    assert abs(value) < 1e-12


def test_equal_size_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, 2))
        b = rng.normal(size=(n, 2))
        value, _ = exact_w1(a, b)
        assert abs(value - brute_force_w1(a, b)) < 1e-9


def test_unequal_sizes_match_rational_quantile_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        a = rng.normal(size=m)
        b = rng.normal(size=n)
        value, plan = exact_w1(a[:, None], b[:, None])
        oracle = float(quantile_w1_1d(a, b))
        assert abs(value - oracle) < 1e-9
        assert plan.marginal_error() < 1e-9


def _count_lp_calls(monkeypatch) -> list:
    """Record the size of every transportation LP that exact_w1 solves."""
    calls = []
    real = transport._transport_lp

    def spy(cost, m, n):
        calls.append((m, n))
        return real(cost, m, n)

    monkeypatch.setattr(transport, "_transport_lp", spy)
    return calls


def test_pair_with_lcm_above_the_limit_goes_through_the_lp(monkeypatch):
    calls = _count_lp_calls(monkeypatch)
    rng = np.random.default_rng(29)
    a = rng.normal(size=23)
    b = rng.normal(size=29) + 0.4
    value, plan = exact_w1(a[:, None], b[:, None])  # lcm(23, 29) = 667 > 512
    assert calls == [(23, 29)]
    assert abs(value - float(quantile_w1_1d(a, b))) < 1e-9
    assert plan.marginal_error() < 1e-9


@pytest.mark.parametrize("m, n", [(1, 5), (2, 4), (3, 6), (6, 9), (64, 128), (128, 256)])
def test_split_point_assignment_matches_the_lp(monkeypatch, m, n):
    """Unequal sizes with lcm(m, n) <= 512 are one assignment on split
    points: its value is the LP's, and its coupling is an exact plan in
    whole multiples of 1/lcm(m, n)."""
    calls = _count_lp_calls(monkeypatch)
    rng = np.random.default_rng(m * 1000 + n)
    a = rng.normal(size=(m, 2))
    b = rng.normal(size=(n, 2)) + [0.5, 0.0]
    value, plan = exact_w1(a, b)
    assert calls == []
    lp = transport._transport_lp(plan.cost, m, n)
    assert abs(value - float((lp * plan.cost).sum())) < 1e-9
    assert plan.marginal_error() < 1e-12
    assert abs(float((plan.coupling * plan.cost).sum()) - value) < 1e-9
    counts = plan.coupling * np.lcm(m, n)
    np.testing.assert_allclose(counts, np.round(counts), rtol=0, atol=1e-9)


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a, b, c = (rng.normal(size=(n, 2)) for _ in range(3))
        ab, _ = exact_w1(a, b)
        ba, _ = exact_w1(b, a)
        bc, _ = exact_w1(b, c)
        ac, _ = exact_w1(a, c)
        assert abs(ab - ba) < 1e-9
        assert ac <= ab + bc + 1e-9
        assert exact_w1(a, a)[0] < 1e-9


def test_size_limit_enforced():
    pts = np.zeros((EXACT_W1_SIZE_LIMIT + 1, 1))
    with pytest.raises(CapacityError):
        exact_w1(pts, pts)
    with pytest.raises(CapacityError):
        exact_w1(pts, pts[:2])


def test_empty_and_mismatched_inputs_rejected():
    with pytest.raises(ValueError):
        exact_w1(np.zeros((0, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        exact_w1(np.zeros((3, 2)), np.zeros((3, 3)))


def test_non_finite_points_rejected_on_both_paths():
    rng = np.random.default_rng(4)
    for bad in (np.nan, np.inf, -np.inf):
        for m, n in ((5, 5), (5, 7)):
            a = rng.normal(size=(m, 2))
            b = rng.normal(size=(n, 2))
            a[2, 1] = bad
            with pytest.raises(ValueError, match="a_points must be finite"):
                exact_w1(a, b)
            with pytest.raises(ValueError, match="b_points must be finite"):
                exact_w1(b, a)


def test_equal_size_coupling_is_a_scaled_permutation():
    assert backend() == "scipy"
    rng = np.random.default_rng(3)
    a = rng.normal(size=(30, 2))
    b = rng.normal(size=(30, 2)) + 1.0
    value, plan = exact_w1(a, b)
    assert sorted(np.unique(plan.coupling)) == [0.0, 1.0 / 30]
    assert (plan.coupling > 0).sum(axis=0).tolist() == [1] * 30
    assert (plan.coupling > 0).sum(axis=1).tolist() == [1] * 30
    assert value == pytest.approx((plan.coupling * plan.cost).sum(), abs=1e-12)


def test_interpolates_lie_on_segments_and_are_seeded():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 2))
    b = rng.normal(size=(8, 2)) + 4.0
    x1 = interpolates(a, b, seed=77)
    x2 = interpolates(a, b, seed=77)
    x3 = interpolates(a, b, seed=78)
    np.testing.assert_array_equal(x1, x2)
    assert not np.array_equal(x1, x3)
    t = (x1 - b) / (a - b)
    np.testing.assert_allclose(t[:, 1], t[:, 0], atol=1e-9)  # same eps per row
    assert np.all(t >= 0) and np.all(t <= 1)


def test_gradient_penalty_of_constant_critic_is_one():
    d = init_network(NetworkSpec((2, 4, 1), "identity"), seed=1)
    for w in d.weights:
        w *= 0.0  # constant output -> zero input gradient -> penalty (0-1)^2
    rng = np.random.default_rng(0)
    pen = gradient_penalty(d, rng.normal(size=(6, 2)), rng.normal(size=(6, 2)), seed=3)
    assert abs(pen - 1.0) < 1e-9


def test_gradient_penalty_matches_closed_form_for_one_hidden_layer_critic():
    """For D(f) = tanh(f W0 + b0) W1 + b1 the feature gradient is
    ((1 - tanh^2(f W0 + b0)) * W1^T) W0^T; the penalty is the mean of
    (||that row||_2 - 1)^2 over the interpolates between F(xs) and F(xt)."""
    rng = np.random.default_rng(12)
    f = init_network(NetworkSpec((3, 5, 4), "identity"), seed=2)
    d = init_network(NetworkSpec((4, 6, 1), "identity"), seed=3)
    d.biases[0] += rng.normal(size=6)
    xs, xt = rng.normal(size=(9, 3)), rng.normal(size=(7, 3)) + 1.0
    fhat = interpolates(forward(f, xs), forward(f, xt), seed=5)
    w0, b0, w1 = d.weights[0], d.biases[0], d.weights[1]
    grad = ((1.0 - np.tanh(fhat @ w0 + b0) ** 2) * w1.T) @ w0.T
    expected = np.mean((np.linalg.norm(grad, axis=1) - 1.0) ** 2)
    assert gradient_penalty(d, forward(f, xs), forward(f, xt), seed=5) == pytest.approx(
        expected, rel=1e-12)


def test_lipschitz_normalize_keeps_weight_norms_at_most_one():
    params = init_network(NetworkSpec((3, 16, 8, 1), "identity"), seed=2)
    for w in params.weights:
        w *= 25.0
    normed = lipschitz_normalize(params)
    for w in normed.weights:
        assert np.linalg.norm(w) <= 1.0 + 1e-12


def test_normalized_critic_never_beats_exact_distance():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(24, 2))
    b = rng.normal(size=(24, 2)) + [1.5, 0.0]
    exact, _ = exact_w1(a, b)
    for seed in (0, 1):
        d = lipschitz_normalize(
            init_network(NetworkSpec((2, 32, 1), "identity"), seed=seed))
        est = critic_w1_estimate(d, a, b)
        assert est <= exact + 1e-6


@pytest.mark.parametrize("steps", [0, -3])
def test_fit_critic_needs_at_least_one_step(steps):
    a = np.zeros((4, 2))
    with pytest.raises(ValueError, match=f"steps must be >= 1, got {steps}"):
        fit_critic(a, a + 1.0, steps=steps)


@pytest.mark.parametrize("steps", [2.5, "10", True])
def test_fit_critic_steps_must_be_an_integer(steps):
    a = np.zeros((4, 2))
    with pytest.raises(ValueError, match="steps must be an integer"):
        fit_critic(a, a + 1.0, steps=steps)


def test_point_pairs_of_different_widths_are_one_value_error():
    a = np.zeros((4, 2))
    b = np.ones((4, 3))
    d_params = init_network(NetworkSpec((2, 8, 1), "identity"), seed=0)
    for call in (lambda: exact_w1(a, b), lambda: fit_critic(a, b, steps=2),
                 lambda: gradient_penalty(d_params, a, b, seed=0),
                 lambda: interpolates(a, b, seed=0),
                 lambda: critic_w1_estimate(d_params, a, b)):
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            call()


def test_scalar_critic_functions_refuse_a_wider_network():
    pair = gen_two_moons_pair(20, 20, rotation_deg=25.0, noise_sd=0.08,
                              label_flip_rate=0.2, seed=3)
    a, b = pair.source.features, pair.target.features
    wide = init_network(NetworkSpec((2, 8, 2), "identity"), seed=0)
    for label, call in (("d_params", lambda: critic_w1_estimate(wide, a, b)),
                        ("d_params", lambda: gradient_penalty(wide, a, b, seed=0)),
                        ("h_params", lambda: bound_rhs(wide, a, b, pair.f_source,
                                                       pair.f_target))):
        with pytest.raises(ValueError, match=f"{label} must be a scalar-output network, "
                                             "got output width 2"):
            call()


def test_fit_critic_returns_its_own_critic_and_leaves_the_points_alone():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(12, 2)), rng.normal(size=(9, 2)) + 1.0
    a0, b0 = a.tobytes(), b.tobytes()
    first = fit_critic(a, b, steps=3, seed=4)
    second = fit_critic(a, b, steps=3, seed=4)
    assert (a.tobytes(), b.tobytes()) == (a0, b0)
    fresh = init_network(first.spec, first.init_seed)
    for x, y, z in zip(first.weights, second.weights, fresh.weights):
        assert x is not y and x.tobytes() == y.tobytes() != z.tobytes()


def test_fit_critic_reaches_duality_band_quickly():
    rng = np.random.default_rng(2024)
    a = rng.normal(size=(32, 2))
    b = rng.normal(size=(32, 2)) + [2.0, -1.0]
    exact, _ = exact_w1(a, b)
    d_params = fit_critic(a, b, steps=800, seed=0)
    est = critic_w1_estimate(d_params, a, b)
    assert 0.6 * exact <= est <= 1.15 * exact  # acceptance uses the tighter band


def test_bound_report_holds_and_serializes():
    pair = gen_two_moons_pair(50, 60, rotation_deg=25.0, noise_sd=0.08,
                              label_flip_rate=0.2, seed=3)
    h = lipschitz_normalize(
        init_network(NetworkSpec((2, 16, 1), "identity"), seed=4))
    report = bound_rhs(h, pair.source.features, pair.target.features,
                       pair.f_source, pair.f_target)
    assert report.holds
    assert report.target_risk <= report.rhs + 1e-6
    d = asdict(report)
    assert set(d) == {"source_risk", "w1_term", "disagreement", "rhs",
                      "target_risk", "holds"}
    assert d["rhs"] == pytest.approx(d["source_risk"] + d["w1_term"]
                                     + d["disagreement"])
