"""Unit tests for the reverse-mode engine, including gradient-of-gradient."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acda.autodiff import (_FORWARD, _GRAD, Graph, finite_difference_check,
                           forward_eval, gradient)
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
    y = g.sum(g.log(g.affine(g.exp(g.mul(g.tanh(x), x)), 1.0, 1.0)))
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
    "reshape": (lambda g, x: g.reshape(x, (3, 2)), (2, 3), False),
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


# ---------------------------------------------------------------- the plan


def _reference_eval(graph, bindings):
    """Node-by-node evaluation with no plan: every node, in id order."""
    vals = []
    for op, ps, at in zip(graph.ops, graph.parents, graph.attrs):
        if op == "leaf":
            vals.append(np.asarray(bindings[at["name"]], dtype=np.float64))
        else:
            vals.append(_FORWARD[op](at)(*[vals[p] for p in ps]))
    return vals


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _all_op_graph():
    """Every primitive, differentiated twice: the parameter gradient of the
    norm of an input gradient."""
    g = Graph()
    x = g.leaf("x", (3, 2))
    w = g.leaf("w", (2, 4))
    h = g.add(g.matmul(x, w), g.constant(np.full(4, 0.1)))
    h = g.tanh(h)
    h = g.mul(h, g.affine(h, 1.0, 0.0))
    h = g.add(g.exp(h), g.sqrt(g.square(h)))
    h = g.mul(h, g.reciprocal(g.affine(g.log(g.affine(h, 1.0, 2.0)), 1.0, 1.0)))
    joined = g.mul(h, g.transpose(g.reshape(h, (4, 3))))
    rows = g.broadcast_to(g.mean(joined, axis=0, keepdims=True), (5, 4))
    y = g.add(g.sum(g.logsumexp(rows, axis=1)), g.mean(joined))
    gx = g.add_gradient_nodes(y, [x])[x]
    z = g.l2norm(gx)
    gw = g.add_gradient_nodes(z, [w])[w]
    rng = np.random.default_rng(7)
    bindings = {"x": rng.normal(size=(3, 2)), "w": rng.normal(size=(2, 4))}
    return g, bindings, [y, z, gw]


def _step_graphs(query: bool):
    """The criterion-7 step graphs (two-moons, batch 128) with random bindings."""
    from acda import nets
    from acda.acda import _StepGraphs

    specs = {"F": nets.default_feature_spec(2), "C": nets.default_classifier_spec(2),
             "D": nets.default_critic_spec()}
    sg = _StepGraphs((128, 128, 128, 5 if query else 0), specs)
    rng = np.random.default_rng(8)
    bindings = {}
    for name, spec in specs.items():
        bindings.update(nets.param_bindings(nets.init_network(spec, 3), name))
    for graph in (sg.critic.graph, sg.model.graph):
        for name, nid in graph.leaves.items():
            bindings.setdefault(name, rng.normal(size=graph.shapes[nid]))
    return sg, bindings


def _plan_case(case):
    if case == "all_ops":
        return _all_op_graph()
    sg, bindings = _step_graphs(query=case == "model_query")
    if case == "critic":
        return sg.critic.graph, bindings, sg.critic.outputs
    return sg.model.graph, bindings, sg.model.outputs


@pytest.mark.parametrize("case", ["all_ops", "critic", "model", "model_query"])
def test_plan_matches_node_by_node_reference(case):
    graph, bindings, outputs = _plan_case(case)
    if case == "all_ops":
        assert set(graph.ops) == set(_FORWARD) | {"leaf"}
    reference = _reference_eval(graph, bindings)
    full = forward_eval(graph, bindings)
    assert all(_same_bits(a, b) for a, b in zip(full, reference))
    for _ in range(2):  # the second call reuses the compiled plan
        vals = forward_eval(graph, bindings, outputs)
        assert all(_same_bits(vals[n], reference[n]) for n in outputs)
    assert len(graph.compile(outputs).steps) < len(graph.compile().steps)


def test_step_graphs_use_exactly_the_engine_primitives():
    """Pins the criterion-7 step graphs' sizes and their plans' step counts,
    and that the ops they build are the engine's primitives: no primitive
    unused, none missing.  The critic graph is D alone: it reads features,
    never F's parameters."""
    with_query, _ = _step_graphs(query=True)
    without_query, _ = _step_graphs(query=False)
    for step, nodes, steps in ((with_query.critic, 115, 89), (with_query.model, 230, 193),
                               (without_query.model, 156, 128)):
        assert step.graph.num_nodes == nodes
        assert len(step.graph.compile(step.outputs).steps) == steps
    assert not [name for name in with_query.critic.graph.leaves if name.startswith("F.")]
    used = {op for sg in (with_query, without_query)
            for graph in (sg.critic.graph, sg.model.graph) for op in graph.ops}
    assert used == set(_FORWARD) | {"leaf"}


_NUMPY = [  # (op, attrs, numpy expression the kernel must reproduce)
    ("affine", {"scale": 1.0, "shift": 0.0}, lambda x: x * 1.0 + 0.0),
    ("affine", {"scale": 1.0, "shift": -0.0}, lambda x: x * 1.0 + -0.0),
    ("affine", {"scale": -1.0, "shift": 0.0}, lambda x: x * -1.0 + 0.0),
    ("affine", {"scale": 0.3, "shift": 1e-24}, lambda x: x * 0.3 + 1e-24),
    ("sum", {"axis": None, "keepdims": False}, lambda x: np.asarray(np.sum(x))),
    ("sum", {"axis": 1, "keepdims": True}, lambda x: np.sum(x, axis=1, keepdims=True)),
    ("mean", {"axis": None, "keepdims": False}, lambda x: np.asarray(np.mean(x))),
    ("mean", {"axis": None, "keepdims": True}, lambda x: np.mean(x, keepdims=True)),
    ("mean", {"axis": 0, "keepdims": False}, lambda x: np.mean(x, axis=0)),
    ("mean", {"axis": -1, "keepdims": True}, lambda x: np.mean(x, axis=-1, keepdims=True)),
    ("max_detached", {"axis": 1, "keepdims": True}, lambda x: np.max(x, axis=1, keepdims=True)),
    ("reshape", {"target": (7, 5)}, lambda x: np.reshape(x, (7, 5))),
    ("sum", {"axis": None, "keepdims": True}, lambda x: np.sum(x, keepdims=True)),
    ("reciprocal", {}, lambda x: 1.0 / x),
]


@pytest.mark.filterwarnings("ignore:divide by zero")
@pytest.mark.parametrize("op,attrs,expression", _NUMPY,
                         ids=[f"{op}-{i}" for i, (op, _, _) in enumerate(_NUMPY)])
def test_kernels_repeat_numpy_arithmetic(op, attrs, expression):
    """Kernels skip numpy's Python wrappers but not its arithmetic: the bits,
    signed zeros included, are those of the plain numpy expression."""
    x = np.random.default_rng(10).normal(size=(5, 7))
    x[0, :2] = -0.0, 0.0
    assert _same_bits(_FORWARD[op](attrs)(x), expression(x))


def test_graph_holds_repeats_once_but_keeps_signed_zero_shifts():
    g = Graph()
    x = g.leaf("x", (2,))
    t = g.tanh(x)
    assert g.tanh(x) == t
    plus, minus = g.affine(x, 1.0, 0.0), g.affine(x, 1.0, -0.0)
    assert plus != minus
    e = g.exp(g.constant(1.0))
    assert g.ops[e] == "const" and _same_bits(g.attrs[e]["value"], np.exp(1.0))
    value = np.array([np.exp(1.0)])
    c = g.constant(value)
    value[0] = 0.0  # the graph keeps its own copy, so the repeat still matches
    assert g.constant(np.reshape(np.exp(1.0), (1,))) == c != g.constant(value)
    assert g.num_nodes == 8 and len(g.compile().steps) == 3
    vals = forward_eval(g, {"x": np.array([-0.0, 1.5])})
    assert not np.signbit(vals[plus][0]) and np.signbit(vals[minus][0])


def test_plan_is_recompiled_when_the_graph_grows():
    g = Graph()
    x = g.leaf("x", (3,))
    s = g.sum(x)
    xv = np.array([0.5, -1.0, 2.0])
    assert forward_eval(g, {"x": xv})[s] == 1.5
    first = g.compile()
    e = g.exp(s)
    assert g.compile() is not first
    assert forward_eval(g, {"x": xv})[e] == np.exp(1.5)
    assert forward_eval(g, {"x": xv}, [e])[e] == np.exp(1.5)


def test_compiled_plan_still_checks_leaves():
    g = Graph()
    x = g.leaf("x", (2, 2))
    u = g.leaf("unused", (1,))
    s = g.sum(x)
    forward_eval(g, {"x": np.ones((2, 2)), "unused": np.ones(1)})
    forward_eval(g, {"x": np.ones((2, 2))}, [s])  # u is not needed for s
    with pytest.raises(GraphError, match="unbound leaf 'unused'"):
        forward_eval(g, {"x": np.ones((2, 2))})
    with pytest.raises(GraphError, match="expects shape"):
        forward_eval(g, {"x": np.ones((2, 3))}, [s])
    with pytest.raises(GraphError, match="unbound leaf 'x'"):
        forward_eval(g, {"unused": np.ones(1)}, [s, u])
