"""Reverse-mode automatic differentiation on static dense-tensor graphs.

The engine is deliberately small: a ``Graph`` is an append-only list of
primitive nodes with static shapes, evaluated with numpy in topological
(append) order.  Differentiation is *symbolic*: ``Graph.add_gradient_nodes``
appends the adjoint computation to the graph as ordinary nodes, so a gradient
is itself a differentiable expression.  That property is what makes the
input-gradient penalty used by adversarial training differentiable with
respect to network parameters (double backpropagation).

A primitive is one builder method on ``Graph`` plus one entry in each of two
module-level tables: ``_FORWARD`` (a factory for its numpy kernel) and
``_GRAD`` (its adjoint nodes, used by ``Graph.add_gradient_nodes``).  The
primitives are the ones the training graphs build: tanh networks, the
log-sum-exp cross-entropy, the critic's W1 term and the gradient-norm
penalty, and the adjoints of those.

A graph holds each computation once: a builder call that repeats an
existing node's (op, parents, attrs) returns that node, and one whose inputs
are all constants returns a constant holding its value.  ``forward_eval``
runs a graph through a plan that ``Graph.compile`` makes on first use and
keeps until the graph grows.  The plan resolves every node's kernel once,
drops the nodes the requested outputs do not need, and releases each
intermediate value after its last reader.  Kernels call numpy's ufuncs
directly and repeat numpy's own arithmetic, so a plan's values equal those
of a node-by-node evaluation bit for bit.

Tensors are 64-bit float numpy arrays, row-major; scalars are 0-d arrays.
No fusion, no dynamic shapes: correctness and determinism over speed.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphError

# Additive cushion inside the L2-norm composite so the norm stays smooth
# (and double-differentiable) at exactly zero input; its sqrt (1e-12) is far
# below every tolerance used in this package.
_NORM_EPS = 1e-24

__all__ = [
    "Graph",
    "Step",
    "forward_eval",
    "gradient",
    "finite_difference_check",
]


def _as_shape(shape) -> tuple:
    if isinstance(shape, (int, np.integer)):
        return (int(shape),)
    return tuple(int(s) for s in shape)


def _attr_key(op: str, at: dict):
    """Hashable attrs; repr keeps -0.0 apart from 0.0, and a constant is
    keyed by its shape and bytes."""
    if op == "const":
        return at["value"].shape, at["value"].tobytes()
    return repr(sorted(at.items()))


class Graph:
    """Append-only computation graph.

    Node ``i`` is described by ``ops[i]`` (a primitive name), ``parents[i]``
    (ids of its inputs, all ``< i``), ``attrs[i]`` (op-specific constants)
    and ``shapes[i]`` (statically inferred output shape).  Acyclicity is
    guaranteed by construction: a node may only reference earlier nodes.
    Repeats and constant-only nodes are resolved when a node is built: a
    builder call that repeats a node's (op, parents, attrs) returns that
    node, and one whose parents are all constants returns a ``const`` of its
    value.  Leaves have unique names, so they are never merged.
    """

    def __init__(self):
        self.ops: list[str] = []
        self.parents: list[tuple] = []
        self.attrs: list[dict] = []
        self.shapes: list[tuple] = []
        self.leaves: dict[str, int] = {}
        self._index: dict = {}  # (op, parents, attr key) -> node id
        self._plans: dict = {}
        self._planned_nodes = 0

    # ------------------------------------------------------------------
    # plumbing

    @property
    def num_nodes(self) -> int:
        return len(self.ops)

    def compile(self, outputs=None) -> "_Plan":
        """The evaluation plan for ``outputs`` (node ids; None means every
        node), compiled on first request and reused until the graph grows."""
        if self._planned_nodes != self.num_nodes:
            self._plans = {}
            self._planned_nodes = self.num_nodes
        key = None if outputs is None else tuple(outputs)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _Plan(self, key)
        return plan

    def clone(self) -> "Graph":
        g = Graph()
        g.ops = list(self.ops)
        g.parents = list(self.parents)
        g.attrs = list(self.attrs)  # attr dicts are never mutated after creation
        g.shapes = list(self.shapes)
        g.leaves = dict(self.leaves)
        g._index = dict(self._index)
        return g

    def _check(self, node) -> int:
        if not isinstance(node, (int, np.integer)) or not 0 <= node < self.num_nodes:
            raise GraphError(f"unknown node id {node!r}")
        return int(node)

    def _append(self, op: str, parents: tuple, shape: tuple, **attrs) -> int:
        # every builder has checked ``parents`` with :meth:`_check` already
        if parents and all(self.ops[p] == "const" for p in parents):
            value = np.asarray(_FORWARD[op](attrs)(*[self.attrs[p]["value"] for p in parents]))
            op, parents, shape, attrs = "const", (), value.shape, {"value": value}
        key = (op, parents, _attr_key(op, attrs))
        if key not in self._index:
            self._index[key] = len(self.ops)
            self.ops.append(op)
            self.parents.append(parents)
            self.attrs.append(attrs)
            self.shapes.append(tuple(shape))
        return self._index[key]

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
        # a copy: a constant is keyed by its bytes, so the caller's later
        # edits to ``value`` must not reach it (a folded value is kept as
        # its kernel made it, whose layout later reductions' bits depend on)
        value = np.array(value, dtype=np.float64)
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
        se = self.sum(self.exp(self.sub(a, m)), axis=axis)
        return self.add(self.log(se), self.reshape(m, self.shapes[se]))

    # ------------------------------------------------------------------
    # symbolic reverse mode

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

        # the sweep reaches only ancestors of the scalar (nodes with an
        # adjoint), so pruning to the nodes that depend on ``wrt`` suffices
        active = self._depends_on(wrt_ids)

        adj: dict[int, int] = {}
        adj[scalar_node] = self.constant(np.ones(self.shapes[scalar_node]))

        for n in range(scalar_node, -1, -1):
            if n not in adj or not active[n]:
                continue
            rule = _GRAD[self.ops[n]]
            if rule is None:
                continue
            for i, p in enumerate(self.parents[n]):
                if active[p]:
                    contrib = rule(self, n, i, adj[n])
                    adj[p] = self.add(adj[p], contrib) if p in adj else contrib

        out = {}
        for w in wrt_ids:
            out[w] = adj[w] if w in adj else self.constant(np.zeros(self.shapes[w]))
        return out


# ----------------------------------------------------------------------
# the op table: one forward rule and one gradient rule per primitive
#
# ``_FORWARD[op](attrs)`` is a kernel factory: it returns ``fn`` with
# ``fn(*parent_values)`` the node's value; a plan resolves it once per node.
# ``_GRAD[op](graph, node, i, adjoint)`` appends the
# nodes of the adjoint contribution to parent ``i`` and returns the last of
# them; the entry itself is None for ops that pass no gradient on.  Gradient
# rules read forward values only through nodes (``node`` itself or its
# parents), which keeps them differentiable.


def _reduction(ufunc):
    """``np.sum``/``np.max`` without their Python wrappers: the same
    ``ufunc.reduce`` call, so the same bits."""
    def factory(at):
        axis, keepdims = at["axis"], at["keepdims"]
        if axis is None and not keepdims:
            return lambda x: np.asarray(ufunc.reduce(x, axis=None))
        return lambda x: ufunc.reduce(x, axis=axis, keepdims=keepdims)
    return factory


def _mean(at):
    """``np.mean``'s arithmetic without its wrapper: a sum, then one
    division by the element count."""
    axis, keepdims = at["axis"], at["keepdims"]
    if axis is None and not keepdims:
        return lambda x: np.asarray(np.add.reduce(x, axis=None) / x.size)
    return lambda x: np.true_divide(
        np.add.reduce(x, axis=axis, keepdims=keepdims),
        x.size if axis is None else x.shape[axis],
    )


def _affine(at):
    scale, shift = at["scale"], at["shift"]
    if scale == 1.0:  # x * 1.0 == x exactly, so one pass suffices
        return lambda x: np.add(x, shift)
    return lambda x: np.add(np.multiply(x, scale), shift)


def _plain(fn):
    """Factory for a kernel that reads no attrs."""
    return lambda at: fn


_FORWARD = {
    "const": lambda at: lambda: at["value"],
    "add": _plain(np.add),
    "mul": _plain(np.multiply),
    "matmul": _plain(np.matmul),
    "affine": _affine,
    "tanh": _plain(np.tanh),
    "exp": _plain(np.exp),
    "log": _plain(np.log),
    "square": _plain(np.square),
    "sqrt": _plain(np.sqrt),
    "reciprocal": _plain(lambda x: 1.0 / x),
    "sum": _reduction(np.add),
    "mean": _mean,
    "max_detached": _reduction(np.maximum),
    "broadcast_to": lambda at: lambda x: np.broadcast_to(x, at["target"]),
    "reshape": lambda at: lambda x: x.reshape(at["target"]),
    "transpose": _plain(lambda x: x.T),
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
    "exp": lambda g, n, i, adj: g.mul(adj, n),
    "log": lambda g, n, i, adj: g.mul(adj, g.reciprocal(g.parents[n][0])),
    "square": lambda g, n, i, adj: g.mul(adj, g.affine(g.parents[n][0], 2.0, 0.0)),
    "sqrt": lambda g, n, i, adj: g.mul(adj, g.affine(g.reciprocal(n), 0.5, 0.0)),
    "reciprocal": lambda g, n, i, adj: g.mul(adj, g.affine(g.square(n), -1.0, 0.0)),
    "sum": lambda g, n, i, adj: _spread(g, n, adj),
    "mean": _grad_mean,
    # detached by design: the maximum cancels in value, so zero is exact
    "max_detached": None,
    "broadcast_to": lambda g, n, i, adj: g._unbroadcast(adj, g.shapes[g.parents[n][0]]),
    "reshape": lambda g, n, i, adj: g.reshape(adj, g.shapes[g.parents[n][0]]),
    "transpose": lambda g, n, i, adj: g.transpose(adj),
}


# ----------------------------------------------------------------------
# module-level operations


class _Plan:
    """A graph's evaluation compiled for one set of requested nodes.

    ``leaves`` are bound and checked on every run; each constant's value is
    in ``preset``; ``steps`` are ``(node, kernel, parents, done)`` in
    topological order, with each kernel resolved from ``_FORWARD`` once.
    Compiling drops the nodes the requested ones do not need; the graph
    has already resolved repeats and constant-only nodes as it was built.
    ``done`` lists the unrequested values whose last reader is this step; a
    run lets go of them there, so the allocator hands their memory to later
    steps instead of returning a large heap to the operating system after
    every run and faulting it back in on the next.  Every value a run
    returns is computed by the same kernel from the same inputs as a
    node-by-node evaluation, so the two agree bit for bit.
    """

    def __init__(self, graph: Graph, outputs):
        n_nodes = graph.num_nodes
        wanted = range(n_nodes) if outputs is None else [graph._check(o) for o in outputs]
        live = [False] * n_nodes
        stack = list(wanted)
        while stack:
            n = stack.pop()
            if not live[n]:
                live[n] = True
                stack.extend(graph.parents[n])

        self.preset: list = [None] * n_nodes
        self.leaves: list = []
        self.steps: list = []
        for n in range(n_nodes):
            if not live[n]:
                continue
            op, at = graph.ops[n], graph.attrs[n]
            if op == "leaf":
                self.leaves.append((n, at["name"], graph.shapes[n]))
            elif op == "const":
                self.preset[n] = at["value"]
            else:
                self.steps.append((n, _FORWARD[op](at), graph.parents[n]))

        kept = set(wanted)
        last_reader = {p: i for i, (_, _, ps) in enumerate(self.steps) for p in ps if p not in kept}
        done: list = [[] for _ in self.steps]
        for p, i in last_reader.items():
            done[i].append(p)
        self.steps = [step + (tuple(d),) for step, d in zip(self.steps, done)]

    def run(self, bindings: dict) -> list:
        vals = list(self.preset)
        for n, name, shape in self.leaves:
            if name not in bindings:
                raise GraphError(f"unbound leaf {name!r}")
            x = np.asarray(bindings[name], dtype=np.float64)
            if x.shape != shape:
                raise GraphError(f"leaf {name!r} expects shape {shape}, got {x.shape}")
            vals[n] = x
        for n, kernel, ps, done in self.steps:
            vals[n] = kernel(*[vals[p] for p in ps])
            for p in done:
                vals[p] = None
        return vals


def forward_eval(graph: Graph, bindings: dict, outputs=None) -> list:
    """Evaluate the graph; returns a list indexed by node id.

    ``bindings`` maps leaf names to arrays.  Extra keys are ignored so a
    superset (e.g. a full parameter dictionary) can be fed to many graphs.
    With ``outputs`` (node ids) only those nodes and the nodes they need are
    evaluated, and only those leaves must be bound; other entries may be
    None.  The plan is compiled on first use and kept on the graph until
    the graph grows (see :meth:`Graph.compile`).
    """
    return graph.compile(outputs).run(bindings)


class Step:
    """One step graph as a training step reads it: ``terms`` maps
    epoch-record names to scalar nodes, and ``grads`` maps each leaf in
    ``wrt`` to the gradient of ``objective`` with respect to it.  An
    evaluation computes the terms, then the gradients, and nothing else."""

    def __init__(self, graph: Graph, objective: int, terms: dict, wrt: list):
        grads = graph.add_gradient_nodes(objective, [graph.leaves[nm] for nm in wrt])
        self.graph, self.objective, self.terms = graph, objective, terms
        self.grads = {nm: grads[graph.leaves[nm]] for nm in wrt}
        self.outputs = (*terms.values(), *self.grads.values())

    def evaluate(self, bindings: dict) -> tuple:
        """(terms as floats, gradients as arrays), both keyed by name."""
        vals = forward_eval(self.graph, bindings, self.outputs)
        return ({name: float(vals[n]) for name, n in self.terms.items()},
                {name: vals[n] for name, n in self.grads.items()})


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
    vals = forward_eval(g2, bindings, [adjoints[i] for i in ids])
    return {key: vals[adjoints[i]] for key, i in zip(wrt, ids)}


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
        f_plus = float(forward_eval(graph, shifted, [scalar_node])[scalar_node])
        minus = base.copy().reshape(-1)
        minus[k] -= step
        shifted[name] = minus.reshape(base.shape)
        f_minus = float(forward_eval(graph, shifted, [scalar_node])[scalar_node])
        fd = (f_plus - f_minus) / (2.0 * step)
        adk = float(ad.reshape(-1)[k])
        if not (np.isfinite(fd) and np.isfinite(adk)):
            return float("inf")
        err = abs(adk - fd) / max(1e-12, abs(adk), abs(fd))
        worst = max(worst, err)
    return worst
