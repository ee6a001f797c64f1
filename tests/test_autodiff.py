"""Unit tests for the reverse-mode engine, including gradient-of-gradient."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acda.autodiff import (_FORWARD, _GRAD, Graph, finite_difference_check,
                           forward_eval, gradient, input_gradient_node)
from acda.errors import GraphError


def test_forward_matches_numpy():
    g = Graph()
    x = g.leaf("x", (2, 3))
    w = g.leaf("w", (3, 2))
    out = g.tanh(g.matmul(x, w))
    xv = np.arange(6.0).reshape(2, 3)
    wv = np.linspace(-1, 1, 6).reshape(3, 2)
    vals = forward_eval(g, {"x": xv, "w": wv})
    np.testing.assert_allclose(vals[out], np.tanh(xv @ wv), rtol=0, atol=0)


def test_gradient_of_sum_of_squares_is_two_x():
    g = Graph()
    x = g.leaf("x", (4,))
    y = g.sum(g.mul(x, x))
    xv = np.array([1.0, -2.0, 0.5, 3.0])
    grads = gradient(g, y, ["x"], {"x": xv})
    np.testing.assert_allclose(grads["x"], 2 * xv, atol=1e-15)


def test_finite_difference_dense_chain():
    g = Graph()
    x = g.leaf("x", (3, 4))
    w = g.leaf("w", (4, 2))
    b = g.leaf("b", (2,))
    h = g.tanh(g.add(g.matmul(x, w), b))
    loss = g.mean(g.square(h))
    rng = np.random.default_rng(0)
    bindings = {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 2)),
                "b": rng.normal(size=(2,))}
    for leaf in ("x", "w", "b"):
        assert finite_difference_check(g, loss, leaf, bindings) < 1e-6


def test_logsumexp_gradient_is_softmax():
    g = Graph()
    x = g.leaf("x", (2, 5))
    y = g.sum(g.logsumexp(x, axis=1))
    rng = np.random.default_rng(1)
    xv = rng.normal(size=(2, 5)) * 30.0  # large scale: fd would be useless here
    grads = gradient(g, y, ["x"], {"x": xv})
    shifted = np.exp(xv - xv.max(axis=1, keepdims=True))
    softmax = shifted / shifted.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(grads["x"], softmax, atol=1e-12)


def test_logsumexp_stable_at_extreme_inputs():
    g = Graph()
    x = g.leaf("x", (1, 3))
    y = g.sum(g.logsumexp(x, axis=1))
    xv = np.array([[1000.0, 999.0, -1000.0]])
    vals = forward_eval(g, {"x": xv})
    assert np.isfinite(vals[y])
    np.testing.assert_allclose(vals[y], 1000.0 + np.log(1 + np.exp(-1.0)), rtol=1e-15)


def test_broadcast_gradients_unbroadcast_correctly():
    g = Graph()
    a = g.leaf("a", (3, 4))
    b = g.leaf("b", (4,))
    c = g.leaf("c", (3, 1))
    y = g.sum(g.mul(g.add(a, b), c))
    rng = np.random.default_rng(2)
    bindings = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4,)),
                "c": rng.normal(size=(3, 1))}
    grads = gradient(g, y, ["a", "b", "c"], bindings)
    assert grads["a"].shape == (3, 4)
    assert grads["b"].shape == (4,)
    assert grads["c"].shape == (3, 1)
    for leaf in ("a", "b", "c"):
        assert finite_difference_check(g, y, leaf, bindings) < 1e-6


def test_concat_slice_pad_gradients():
    g = Graph()
    a = g.leaf("a", (2, 3))
    b = g.leaf("b", (2, 2))
    joined = g.concat([a, b], axis=1)
    trimmed = g.slice_axis(joined, axis=1, start=1, stop=4)
    y = g.sum(g.square(trimmed))
    rng = np.random.default_rng(3)
    bindings = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(2, 2))}
    for leaf in ("a", "b"):
        assert finite_difference_check(g, y, leaf, bindings) < 1e-6


def test_second_order_grad_norm_hand_case():
    # d/dw of ||grad_x (w . x)||^2 = d/dw ||w||^2 = 2w
    g = Graph()
    w = g.leaf("w", (2,))
    x = g.leaf("x", (2,))
    y = g.sum(g.mul(w, x))
    inner = g.add_gradient_nodes(y, [g.leaves["x"]])
    gx = inner[g.leaves["x"]]
    norm_sq = g.sum(g.square(gx))
    grads = gradient(g, norm_sq, ["w"], {"w": np.array([3.0, 4.0]),
                                         "x": np.array([0.7, -0.2])})
    np.testing.assert_allclose(grads["w"], [6.0, 8.0], atol=1e-12)


def test_second_order_through_nonlinear_net():
    """Parameter gradient of an input-gradient norm, against finite differences."""
    g = Graph()
    w = g.leaf("w", (3, 1))
    x = g.leaf("x", (1, 3))
    out = g.sum(g.tanh(g.matmul(x, w)))
    inner = g.add_gradient_nodes(out, [g.leaves["x"]])
    penalty = g.sum(g.square(inner[g.leaves["x"]]))
    rng = np.random.default_rng(4)
    bindings = {"w": rng.normal(size=(3, 1)), "x": rng.normal(size=(1, 3))}
    assert finite_difference_check(g, penalty, "w", bindings) < 1e-5
    assert finite_difference_check(g, penalty, "x", bindings) < 1e-5


def test_unreached_leaf_gets_zero_gradient():
    g = Graph()
    a = g.leaf("a", (2,))
    b = g.leaf("b", (2,))
    y = g.sum(g.square(a))
    grads = gradient(g, y, ["a", "b"], {"a": np.ones(2), "b": np.ones(2)})
    np.testing.assert_array_equal(grads["b"], np.zeros(2))


def test_relu_warning_recorded_once():
    g = Graph()
    x = g.leaf("x", (3,))
    y = g.sum(g.relu(x))
    g.add_gradient_nodes(y, [g.leaves["x"]])
    g.add_gradient_nodes(y, [g.leaves["x"]])
    assert len(g.warnings) == 1


def test_input_gradient_node_evaluates():
    g = Graph()
    w = g.leaf("w", (3,))
    x = g.leaf("x", (3,))
    y = g.sum(g.mul(w, x))
    g2, node = input_gradient_node(g, y, "x")
    vals = forward_eval(g2, {"w": np.array([1.0, 2.0, 3.0]), "x": np.zeros(3)})
    np.testing.assert_allclose(vals[node], [1.0, 2.0, 3.0])
    # the original graph is untouched
    assert len(g.ops) < len(g2.ops)


def test_forward_eval_rejects_bad_shapes_and_unbound_leaves():
    g = Graph()
    x = g.leaf("x", (2, 2))
    g.sum(x)
    with pytest.raises(GraphError):
        forward_eval(g, {"x": np.zeros((3, 2))})
    with pytest.raises(GraphError):
        forward_eval(g, {})


def test_matmul_shape_mismatch_rejected_at_build_time():
    g = Graph()
    a = g.leaf("a", (2, 3))
    b = g.leaf("b", (2, 3))
    with pytest.raises(GraphError):
        g.matmul(a, b)


def test_eval_is_bitwise_deterministic():
    g = Graph()
    x = g.leaf("x", (5, 5))
    y = g.mean(g.exp(g.mul(x, x)))
    xv = np.random.default_rng(5).normal(size=(5, 5))
    a = forward_eval(g, {"x": xv})[y]
    b = forward_eval(g, {"x": xv})[y]
    assert a == b


@settings(derandomize=True, max_examples=25)
@given(rows=st.integers(1, 4), cols=st.integers(1, 4),
       data=st.integers(0, 2**31 - 1))
def test_elementwise_chain_gradients_fuzz(rows, cols, data):
    g = Graph()
    x = g.leaf("x", (rows, cols))
    y = g.sum(g.sigmoid(g.mul(g.tanh(x), x)))
    xv = np.random.default_rng(data).normal(size=(rows, cols))
    assert finite_difference_check(g, y, "x", {"x": xv}) < 1e-5


def test_every_op_has_a_gradient_rule():
    assert set(_GRAD) == set(_FORWARD) | {"leaf"}


# (op applied to leaf x, shape of x, inputs kept positive)
_OP_CASES = {
    "reciprocal": (lambda g, x: g.reciprocal(x), (2, 3), True),
    "sqrt": (lambda g, x: g.sqrt(x), (2, 3), True),
    "log": (lambda g, x: g.log(x), (2, 3), True),
    "exp": (lambda g, x: g.exp(x), (2, 3), False),
    "affine": (lambda g, x: g.affine(x, -1.5, 0.3), (2, 3), False),
    "broadcast_to": (lambda g, x: g.broadcast_to(x, (4, 3)), (1, 3), False),
    "transpose": (lambda g, x: g.transpose(x), (2, 3), False),
    "pad": (lambda g, x: g.pad_axis(x, 1, 1, 2), (2, 3), False),
    "max_detached": (lambda g, x: g.logsumexp(x, axis=1), (2, 3), False),
    "mean_axis": (lambda g, x: g.mean(x, axis=0), (2, 3), False),
    "mean_axis_keepdims": (lambda g, x: g.mean(x, axis=-1, keepdims=True), (2, 3), False),
}


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("case", sorted(_OP_CASES))
def test_op_gradients_match_finite_differences(case, order):
    """First order: d sum(tanh(op(x)))/dx.  Second order: the gradient of
    the norm of that gradient, which differentiates the op's gradient rule."""
    build, shape, positive = _OP_CASES[case]
    g = Graph()
    x = g.leaf("x", shape)
    y = g.sum(g.tanh(build(g, x)))
    if order == 2:
        y = g.l2norm(g.add_gradient_nodes(y, [x])[x])
    rng = np.random.default_rng(6)
    xv = rng.uniform(0.5, 2.0, size=shape) if positive else rng.normal(size=shape)
    assert finite_difference_check(g, y, "x", {"x": xv}) < 1e-5
