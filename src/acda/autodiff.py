"""Reverse-mode automatic differentiation on static dense-tensor graphs.

The engine is deliberately small: a ``Graph`` is an append-only list of
primitive nodes with static shapes, evaluated with numpy in topological
(append) order.  Differentiation is *symbolic*: ``Graph.add_gradient_nodes``
appends the adjoint computation to the graph as ordinary nodes, so a gradient
is itself a differentiable expression.  That property is what makes the
input-gradient penalty used by adversarial training differentiable with
respect to network parameters (double backpropagation).

A primitive is one builder method on ``Graph`` plus one entry in each of two
module-level tables: ``_FORWARD`` (its numpy value, used by ``forward_eval``)
and ``_GRAD`` (its adjoint nodes, used by ``Graph.add_gradient_nodes``).

Tensors are 64-bit float numpy arrays, row-major.  No fusion, no dynamic
shapes: correctness and determinism over speed.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphError

# A tensor is a float64 ndarray; scalars are 0-d arrays.
Tensor = np.ndarray

# Additive cushion inside the L2-norm composite so the norm stays smooth
# (and double-differentiable) at exactly zero input; its sqrt (1e-12) is far
# below every tolerance used in this package.
_NORM_EPS = 1e-24

__all__ = [
    "Tensor",
    "Graph",
    "forward_eval",
    "gradient",
    "input_gradient_node",
    "finite_difference_check",
]


def _as_shape(shape) -> tuple:
    if isinstance(shape, (int, np.integer)):
        return (int(shape),)
    return tuple(int(s) for s in shape)


class Graph:
    """Append-only computation graph.

    Node ``i`` is described by ``ops[i]`` (a primitive name), ``parents[i]``
    (ids of its inputs, all ``< i``), ``attrs[i]`` (op-specific constants)
    and ``shapes[i]`` (statically inferred output shape).  Acyclicity is
    guaranteed by construction: a node may only reference earlier nodes.
    """

    def __init__(self):
        self.ops: list[str] = []
        self.parents: list[tuple] = []
        self.attrs: list[dict] = []
        self.shapes: list[tuple] = []
        self.leaves: dict[str, int] = {}
        self.warnings: list[str] = []

    # ------------------------------------------------------------------
    # plumbing

    @property
    def num_nodes(self) -> int:
        return len(self.ops)

    def node_shape(self, node: int) -> tuple:
        return self.shapes[node]

    def clone(self) -> "Graph":
        g = Graph()
        g.ops = list(self.ops)
        g.parents = list(self.parents)
        g.attrs = list(self.attrs)  # attr dicts are never mutated after creation
        g.shapes = list(self.shapes)
        g.leaves = dict(self.leaves)
        g.warnings = list(self.warnings)
        return g

    def _check(self, node) -> int:
        if not isinstance(node, (int, np.integer)) or not 0 <= node < self.num_nodes:
            raise GraphError(f"unknown node id {node!r}")
        return int(node)

    def _append(self, op: str, parents: tuple, shape: tuple, **attrs) -> int:
        self.ops.append(op)
        self.parents.append(tuple(self._check(p) for p in parents))
        self.attrs.append(attrs)
        self.shapes.append(tuple(shape))
        return len(self.ops) - 1

    # ------------------------------------------------------------------
    # leaves and constants

    def leaf(self, name: str, shape) -> int:
        """A named input fed at evaluation time (data or parameters)."""
        if name in self.leaves:
            raise GraphError(f"leaf {name!r} already exists")
        nid = self._append("leaf", (), _as_shape(shape), name=name)
        self.leaves[name] = nid
        return nid

    def constant(self, value) -> int:
        value = np.asarray(value, dtype=np.float64)
        return self._append("const", (), value.shape, value=value)

    # ------------------------------------------------------------------
    # arithmetic primitives

    def add(self, a: int, b: int) -> int:
        a, b = self._check(a), self._check(b)
        shape = self._broadcast(a, b, "add")
        return self._append("add", (a, b), shape)

    def mul(self, a: int, b: int) -> int:
        a, b = self._check(a), self._check(b)
        shape = self._broadcast(a, b, "mul")
        return self._append("mul", (a, b), shape)

    def _broadcast(self, a: int, b: int, op: str) -> tuple:
        try:
            return np.broadcast_shapes(self.shapes[a], self.shapes[b])
        except ValueError:
            raise GraphError(
                f"{op}: incompatible shapes {self.shapes[a]} and {self.shapes[b]} "
                f"(nodes {a}, {b})"
            ) from None

    def matmul(self, a: int, b: int) -> int:
        a, b = self._check(a), self._check(b)
        sa, sb = self.shapes[a], self.shapes[b]
        if len(sa) != 2 or len(sb) != 2 or sa[1] != sb[0]:
            raise GraphError(f"matmul: incompatible shapes {sa} @ {sb} (nodes {a}, {b})")
        return self._append("matmul", (a, b), (sa[0], sb[1]))

    def affine(self, a: int, scale: float, shift: float) -> int:
        """Elementwise ``scale * a + shift`` with scalar constants."""
        a = self._check(a)
        return self._append("affine", (a,), self.shapes[a], scale=float(scale), shift=float(shift))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.affine(b, -1.0, 0.0))

    # ------------------------------------------------------------------
    # elementwise nonlinearities

    def _unary(self, op: str, a: int) -> int:
        a = self._check(a)
        return self._append(op, (a,), self.shapes[a])

    def tanh(self, a: int) -> int:
        return self._unary("tanh", a)

    def relu(self, a: int) -> int:
        return self._unary("relu", a)

    def sigmoid(self, a: int) -> int:
        return self._unary("sigmoid", a)

    def exp(self, a: int) -> int:
        return self._unary("exp", a)

    def log(self, a: int) -> int:
        return self._unary("log", a)

    def square(self, a: int) -> int:
        return self._unary("square", a)

    def sqrt(self, a: int) -> int:
        return self._unary("sqrt", a)

    def reciprocal(self, a: int) -> int:
        return self._unary("reciprocal", a)

    def gtzero(self, a: int) -> int:
        """Indicator (a > 0) as floats; derivative defined as zero."""
        return self._unary("gtzero", a)

    # ------------------------------------------------------------------
    # reductions and shape ops

    def _reduced_shape(self, a: int, axis, keepdims: bool) -> tuple:
        sa = self.shapes[a]
        if axis is None:
            return tuple(1 for _ in sa) if keepdims else ()
        if not -len(sa) <= axis < len(sa):
            raise GraphError(f"reduction axis {axis} out of range for shape {sa}")
        axis %= len(sa)
        if keepdims:
            return tuple(1 if i == axis else s for i, s in enumerate(sa))
        return tuple(s for i, s in enumerate(sa) if i != axis)

    def _reduce(self, op: str, a: int, axis, keepdims: bool) -> int:
        a = self._check(a)
        shape = self._reduced_shape(a, axis, keepdims)
        return self._append(op, (a,), shape, axis=axis, keepdims=keepdims)

    def sum(self, a: int, axis=None, keepdims: bool = False) -> int:
        return self._reduce("sum", a, axis, keepdims)

    def mean(self, a: int, axis=None, keepdims: bool = False) -> int:
        return self._reduce("mean", a, axis, keepdims)

    def max_detached(self, a: int, axis=None, keepdims: bool = True) -> int:
        """Maximum treated as a constant by differentiation.

        Used to stabilize log-sum-exp: the subtracted maximum cancels in
        value, so a zero derivative for this node leaves all gradients exact.
        """
        return self._reduce("max_detached", a, axis, keepdims)

    def broadcast_to(self, a: int, shape) -> int:
        a = self._check(a)
        shape = _as_shape(shape)
        try:
            if np.broadcast_shapes(self.shapes[a], shape) != shape:
                raise ValueError
        except ValueError:
            raise GraphError(f"cannot broadcast {self.shapes[a]} to {shape}") from None
        return self._append("broadcast_to", (a,), shape, target=shape)

    def reshape(self, a: int, shape) -> int:
        a = self._check(a)
        shape = _as_shape(shape)
        if int(np.prod(self.shapes[a], dtype=np.int64)) != int(np.prod(shape, dtype=np.int64)):
            raise GraphError(f"cannot reshape {self.shapes[a]} to {shape}")
        return self._append("reshape", (a,), shape, target=shape)

    def transpose(self, a: int) -> int:
        a = self._check(a)
        sa = self.shapes[a]
        if len(sa) != 2:
            raise GraphError(f"transpose expects a matrix, got shape {sa}")
        return self._append("transpose", (a,), (sa[1], sa[0]))

    def concat(self, nodes, axis: int = 0) -> int:
        nodes = tuple(self._check(n) for n in nodes)
        if not nodes:
            raise GraphError("concat of zero nodes")
        base = self.shapes[nodes[0]]
        axis %= max(1, len(base))
        total = 0
        for n in nodes:
            s = self.shapes[n]
            if len(s) != len(base) or any(
                s[i] != base[i] for i in range(len(base)) if i != axis
            ):
                raise GraphError(f"concat: mismatched shapes {base} vs {s}")
            total += s[axis]
        shape = tuple(total if i == axis else s for i, s in enumerate(base))
        return self._append("concat", nodes, shape, axis=axis)

    def slice_axis(self, a: int, axis: int, start: int, stop: int) -> int:
        a = self._check(a)
        sa = self.shapes[a]
        axis %= len(sa)
        if not 0 <= start <= stop <= sa[axis]:
            raise GraphError(f"slice [{start}:{stop}] out of range for shape {sa}")
        shape = tuple(stop - start if i == axis else s for i, s in enumerate(sa))
        return self._append("slice", (a,), shape, axis=axis, start=start, stop=stop)

    def pad_axis(self, a: int, axis: int, before: int, after: int) -> int:
        a = self._check(a)
        sa = self.shapes[a]
        axis %= len(sa)
        shape = tuple(s + (before + after if i == axis else 0) for i, s in enumerate(sa))
        return self._append("pad", (a,), shape, axis=axis, before=before, after=after)

    # ------------------------------------------------------------------
    # composites built from primitives (fully differentiable)

    def l2norm(self, a: int, axis=None) -> int:
        """Euclidean norm along ``axis`` (all elements when None).

        Realized as sqrt(sum(a^2) + tiny) so the expression stays smooth at
        zero; the cushion is far below every tolerance used in this package.
        """
        return self.sqrt(self.affine(self.sum(self.square(a), axis=axis), 1.0, _NORM_EPS))

    def logsumexp(self, a: int, axis: int) -> int:
        """Row-stable log-sum-exp along ``axis`` with exact gradients."""
        a = self._check(a)
        m = self.max_detached(a, axis=axis, keepdims=True)
        z = self.add(a, self.affine(m, -1.0, 0.0))
        se = self.sum(self.exp(z), axis=axis)
        return self.add(self.log(se), self.reshape(m, self.shapes[se]))

    # ------------------------------------------------------------------
    # symbolic reverse mode

    def _ancestors(self, node: int) -> np.ndarray:
        mark = np.zeros(self.num_nodes, dtype=bool)
        stack = [node]
        while stack:
            n = stack.pop()
            if mark[n]:
                continue
            mark[n] = True
            stack.extend(self.parents[n])
        return mark

    def _depends_on(self, targets) -> np.ndarray:
        mark = np.zeros(self.num_nodes, dtype=bool)
        for t in targets:
            mark[t] = True
        for n in range(self.num_nodes):
            if not mark[n] and any(mark[p] for p in self.parents[n]):
                mark[n] = True
        return mark

    def _unbroadcast(self, g: int, target: tuple) -> int:
        """Reduce an adjoint of a broadcast result back to ``target`` shape."""
        while len(self.shapes[g]) > len(target):
            g = self.sum(g, axis=0)
        for i, t in enumerate(target):
            if t == 1 and self.shapes[g][i] != 1:
                g = self.sum(g, axis=i, keepdims=True)
        if self.shapes[g] != target:
            g = self.reshape(g, target)
        return g

    def _warn_once(self, message: str):
        if message not in self.warnings:
            self.warnings.append(message)

    def add_gradient_nodes(self, scalar_node: int, wrt: list) -> dict:
        """Append adjoint nodes for d(scalar)/d(leaf) for each leaf in ``wrt``.

        Returns a map leaf-id -> adjoint node id.  Leaves the scalar does not
        depend on get a zero constant of the leaf's shape.  The appended
        nodes are ordinary primitives, so the result supports further
        differentiation.
        """
        scalar_node = self._check(scalar_node)
        if int(np.prod(self.shapes[scalar_node], dtype=np.int64)) != 1:
            raise GraphError(
                f"gradient target must be scalar, node {scalar_node} has shape "
                f"{self.shapes[scalar_node]}"
            )
        wrt_ids = []
        for w in wrt:
            w = self._check(w)
            if self.ops[w] != "leaf":
                raise GraphError(f"gradient requested w.r.t. non-leaf node {w}")
            wrt_ids.append(w)

        relevant = self._ancestors(scalar_node)
        active = relevant & self._depends_on(wrt_ids)

        adj: dict[int, int] = {}
        adj[scalar_node] = self.constant(np.ones(self.shapes[scalar_node]))

        def accumulate(p: int, contrib):
            if contrib is None:
                return
            if p in adj:
                adj[p] = self.add(adj[p], contrib)
            else:
                adj[p] = contrib

        for n in range(scalar_node, -1, -1):
            if n not in adj or not active[n]:
                continue
            rule = _GRAD[self.ops[n]]
            if rule is None:
                continue
            for i, p in enumerate(self.parents[n]):
                if active[p]:
                    accumulate(p, rule(self, n, i, adj[n]))

        out = {}
        for w in wrt_ids:
            out[w] = adj[w] if w in adj else self.constant(np.zeros(self.shapes[w]))
        return out


# ----------------------------------------------------------------------
# the op table: one forward rule and one gradient rule per primitive
#
# ``_FORWARD[op](vals, parents, attrs)`` returns the node's value from the
# values of its parents.  ``_GRAD[op](graph, node, i, adjoint)`` appends the
# nodes of the adjoint contribution to parent ``i`` and returns the last of
# them, or None when there is none; the entry itself is None for ops that pass
# no gradient on.  Gradient rules read forward values only through nodes
# (``node`` itself or its parents), which keeps them differentiable.


def _reduction(fn):
    return lambda vals, ps, at: np.asarray(
        fn(vals[ps[0]], axis=at["axis"], keepdims=at["keepdims"])
    )


def _slice(vals, ps, at):
    index = (slice(None),) * at["axis"] + (slice(at["start"], at["stop"]),)
    return vals[ps[0]][index]


def _pad(vals, ps, at):
    x = vals[ps[0]]
    width = [(0, 0)] * x.ndim
    width[at["axis"]] = (at["before"], at["after"])
    return np.pad(x, width)


_FORWARD = {
    "const": lambda vals, ps, at: at["value"],
    "add": lambda vals, ps, at: vals[ps[0]] + vals[ps[1]],
    "mul": lambda vals, ps, at: vals[ps[0]] * vals[ps[1]],
    "matmul": lambda vals, ps, at: vals[ps[0]] @ vals[ps[1]],
    "affine": lambda vals, ps, at: vals[ps[0]] * at["scale"] + at["shift"],
    "tanh": lambda vals, ps, at: np.tanh(vals[ps[0]]),
    "relu": lambda vals, ps, at: np.maximum(vals[ps[0]], 0.0),
    "sigmoid": lambda vals, ps, at: 0.5 * (np.tanh(0.5 * vals[ps[0]]) + 1.0),
    "exp": lambda vals, ps, at: np.exp(vals[ps[0]]),
    "log": lambda vals, ps, at: np.log(vals[ps[0]]),
    "square": lambda vals, ps, at: np.square(vals[ps[0]]),
    "sqrt": lambda vals, ps, at: np.sqrt(vals[ps[0]]),
    "reciprocal": lambda vals, ps, at: 1.0 / vals[ps[0]],
    "gtzero": lambda vals, ps, at: (vals[ps[0]] > 0.0).astype(np.float64),
    "sum": _reduction(np.sum),
    "mean": _reduction(np.mean),
    "max_detached": _reduction(np.max),
    "broadcast_to": lambda vals, ps, at: np.broadcast_to(vals[ps[0]], at["target"]),
    "reshape": lambda vals, ps, at: np.reshape(vals[ps[0]], at["target"]),
    "transpose": lambda vals, ps, at: vals[ps[0]].T,
    "concat": lambda vals, ps, at: np.concatenate([vals[p] for p in ps], axis=at["axis"]),
    "slice": _slice,
    "pad": _pad,
}


def _spread(g: Graph, n: int, adj: int) -> int:
    """Broadcast a reduction's adjoint back over the reduced operand."""
    p = g.parents[n][0]
    if not g.attrs[n]["keepdims"]:
        adj = g.reshape(adj, g._reduced_shape(p, g.attrs[n]["axis"], True))
    return g.broadcast_to(adj, g.shapes[p])


def _grad_mean(g: Graph, n: int, i: int, adj: int) -> int:
    sa, axis = g.shapes[g.parents[n][0]], g.attrs[n]["axis"]
    count = int(np.prod(sa, dtype=np.int64)) if axis is None else sa[axis]
    return g.affine(_spread(g, n, adj), 1.0 / count, 0.0)


def _grad_relu(g: Graph, n: int, i: int, adj: int) -> int:
    x = g.parents[n][0]
    g._warn_once(
        f"relu at node {x}: subgradient 0 at 0; second-order "
        "paths through it are piecewise-constant"
    )
    return g.mul(adj, g.gtzero(x))


def _grad_gtzero(g: Graph, n: int, i: int, adj: int) -> None:
    g._warn_once(
        f"gtzero at node {n}: derivative is zero almost everywhere; "
        "higher-order contribution dropped"
    )


def _grad_concat(g: Graph, n: int, i: int, adj: int) -> int:
    ps, axis = g.parents[n], g.attrs[n]["axis"]
    start = sum(g.shapes[p][axis] for p in ps[:i])
    return g.slice_axis(adj, axis, start, start + g.shapes[ps[i]][axis])


def _grad_slice(g: Graph, n: int, i: int, adj: int) -> int:
    at = g.attrs[n]
    after = g.shapes[g.parents[n][0]][at["axis"]] - at["stop"]
    return g.pad_axis(adj, at["axis"], at["start"], after)


def _grad_pad(g: Graph, n: int, i: int, adj: int) -> int:
    axis, before = g.attrs[n]["axis"], g.attrs[n]["before"]
    extent = g.shapes[g.parents[n][0]][axis]
    return g.slice_axis(adj, axis, before, before + extent)


_GRAD = {
    "leaf": None,
    "const": None,
    "add": lambda g, n, i, adj: g._unbroadcast(adj, g.shapes[g.parents[n][i]]),
    "mul": lambda g, n, i, adj: g._unbroadcast(
        g.mul(adj, g.parents[n][1 - i]), g.shapes[g.parents[n][i]]
    ),
    "matmul": lambda g, n, i, adj: (
        g.matmul(adj, g.transpose(g.parents[n][1])) if i == 0
        else g.matmul(g.transpose(g.parents[n][0]), adj)
    ),
    "affine": lambda g, n, i, adj: g.affine(adj, g.attrs[n]["scale"], 0.0),
    "tanh": lambda g, n, i, adj: g.mul(adj, g.affine(g.square(n), -1.0, 1.0)),
    "relu": _grad_relu,
    "sigmoid": lambda g, n, i, adj: g.mul(adj, g.mul(n, g.affine(n, -1.0, 1.0))),
    "exp": lambda g, n, i, adj: g.mul(adj, n),
    "log": lambda g, n, i, adj: g.mul(adj, g.reciprocal(g.parents[n][0])),
    "square": lambda g, n, i, adj: g.mul(adj, g.affine(g.parents[n][0], 2.0, 0.0)),
    "sqrt": lambda g, n, i, adj: g.mul(adj, g.affine(g.reciprocal(n), 0.5, 0.0)),
    "reciprocal": lambda g, n, i, adj: g.mul(adj, g.affine(g.square(n), -1.0, 0.0)),
    "gtzero": _grad_gtzero,
    "sum": lambda g, n, i, adj: _spread(g, n, adj),
    "mean": _grad_mean,
    # detached by design: the maximum cancels in value, so zero is exact
    "max_detached": None,
    "broadcast_to": lambda g, n, i, adj: g._unbroadcast(adj, g.shapes[g.parents[n][0]]),
    "reshape": lambda g, n, i, adj: g.reshape(adj, g.shapes[g.parents[n][0]]),
    "transpose": lambda g, n, i, adj: g.transpose(adj),
    "concat": _grad_concat,
    "slice": _grad_slice,
    "pad": _grad_pad,
}


# ----------------------------------------------------------------------
# module-level operations


def forward_eval(graph: Graph, bindings: dict) -> list:
    """Evaluate every node; returns a list indexed by node id.

    ``bindings`` maps leaf names to arrays.  Extra keys are ignored so a
    superset (e.g. a full parameter dictionary) can be fed to many graphs.
    """
    vals: list = [None] * graph.num_nodes
    for n, (op, ps, at) in enumerate(zip(graph.ops, graph.parents, graph.attrs)):
        if op == "leaf":
            name = at["name"]
            if name not in bindings:
                raise GraphError(f"unbound leaf {name!r}")
            x = np.asarray(bindings[name], dtype=np.float64)
            if x.shape != graph.shapes[n]:
                raise GraphError(
                    f"leaf {name!r} expects shape {graph.shapes[n]}, got {x.shape}"
                )
            vals[n] = x
        else:
            vals[n] = _FORWARD[op](vals, ps, at)
    return vals


def _leaf_id(graph: Graph, leaf) -> int:
    if isinstance(leaf, str):
        if leaf not in graph.leaves:
            raise GraphError(f"unknown leaf {leaf!r}")
        return graph.leaves[leaf]
    return graph._check(leaf)


def gradient(graph: Graph, scalar_node: int, wrt, bindings: dict) -> dict:
    """Numeric reverse-mode gradients of a scalar node w.r.t. leaves.

    ``wrt`` is an iterable of leaf ids or leaf names; the returned dict is
    keyed by the identifiers given.  Unreached leaves map to zero tensors.
    """
    wrt = list(wrt)
    g2 = graph.clone()
    ids = [_leaf_id(g2, w) for w in wrt]
    adjoints = g2.add_gradient_nodes(scalar_node, ids)
    vals = forward_eval(g2, bindings)
    return {key: vals[adjoints[i]] for key, i in zip(wrt, ids)}


def input_gradient_node(graph: Graph, scalar_node: int, input_leaf) -> tuple:
    """Extend the graph with nodes computing d(scalar)/d(input_leaf).

    Returns ``(extended_graph, node_id)``; the original graph is untouched.
    The new node has the leaf's shape and remains differentiable with
    respect to every other leaf (double backpropagation).  Non-smooth
    primitives on the path leave a note in ``extended_graph.warnings``.
    """
    g2 = graph.clone()
    lid = _leaf_id(g2, input_leaf)
    adjoints = g2.add_gradient_nodes(scalar_node, [lid])
    return g2, adjoints[lid]


def finite_difference_check(
    graph: Graph, scalar_node: int, leaf, bindings: dict, step: float = 1e-5
) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    The error for coordinate k is |ad_k - fd_k| / max(1e-12, |ad_k|, |fd_k|);
    non-finite values anywhere yield +inf.
    """
    if not step > 0:
        raise GraphError("finite-difference step must be positive")
    lid = _leaf_id(graph, leaf)
    name = graph.attrs[lid]["name"]
    ad = gradient(graph, scalar_node, [lid], bindings)[lid]
    base = np.asarray(bindings[name], dtype=np.float64)
    worst = 0.0
    for k in range(base.size):
        shifted = dict(bindings)
        plus = base.copy().reshape(-1)
        plus[k] += step
        shifted[name] = plus.reshape(base.shape)
        f_plus = float(forward_eval(graph, shifted)[scalar_node])
        minus = base.copy().reshape(-1)
        minus[k] -= step
        shifted[name] = minus.reshape(base.shape)
        f_minus = float(forward_eval(graph, shifted)[scalar_node])
        fd = (f_plus - f_minus) / (2.0 * step)
        adk = float(ad.reshape(-1)[k])
        if not (np.isfinite(fd) and np.isfinite(adk)):
            return float("inf")
        err = abs(adk - fd) / max(1e-12, abs(adk), abs(fd))
        worst = max(worst, err)
    return worst
