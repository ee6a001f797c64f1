"""Dense networks: feature extractor, classifier and critic.

Provides parameter initialization, fast numpy inference, symbolic graph
builders for training, classification losses, the predictive-entropy
uncertainty measure, and a flat binary checkpoint format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import struct

import numpy as np
from scipy.special import softmax

from .autodiff import Graph
from .data import class_ids
from .errors import CheckpointError
from .seeding import make_rng

__all__ = [
    "NetworkSpec",
    "NetworkParams",
    "init_network",
    "forward",
    "logits",
    "build_forward",
    "param_bindings",
    "cross_entropy",
    "cross_entropy_from_logits",
    "predictive_entropy",
    "default_feature_spec",
    "default_classifier_spec",
    "default_critic_spec",
    "save_checkpoint",
    "load_checkpoint",
]

_OUTPUT_ACTIVATIONS = ("identity", "softmax")


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of a dense network with tanh hidden layers.

    ``layer_widths`` includes the input width: ``(d_in, h_1, ..., d_out)``.
    ``output_activation`` (identity or softmax) is applied by :func:`forward`.
    """

    layer_widths: tuple
    output_activation: str = "identity"

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ValueError("a network needs an input width and at least one layer")
        if any(w <= 0 for w in widths):
            raise ValueError(f"layer widths must be positive, got {widths}")
        if self.output_activation not in _OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def output_dim(self) -> int:
        return self.layer_widths[-1]


@dataclass
class NetworkParams:
    """Weights and biases matching a :class:`NetworkSpec`.

    ``weights[i]`` has shape (fan_in, fan_out); ``biases[i]`` has shape
    (fan_out,).  Rebuilding from ``(spec, init_seed)`` via
    :func:`init_network` is bitwise-reproducible.
    """

    spec: NetworkSpec
    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    init_seed: int = 0

    def __post_init__(self):
        widths = self.spec.layer_widths
        if len(self.weights) != self.spec.n_layers or len(self.biases) != self.spec.n_layers:
            raise ValueError("parameter count does not match layer_widths")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            expect = (widths[i], widths[i + 1])
            if w.shape != expect or b.shape != (widths[i + 1],):
                raise ValueError(
                    f"layer {i}: expected weights {expect} and biases "
                    f"({widths[i + 1]},), got {w.shape} and {b.shape}"
                )

    def copy(self) -> "NetworkParams":
        """A float64 copy: in-place updates of its arrays never reach these."""
        return NetworkParams(
            spec=self.spec,
            weights=[w.astype(np.float64) for w in self.weights],
            biases=[b.astype(np.float64) for b in self.biases],
            init_seed=self.init_seed,
        )


def default_feature_spec(input_dim: int) -> NetworkSpec:
    return NetworkSpec((input_dim, 64, 32), "identity")


def default_classifier_spec(n_classes: int) -> NetworkSpec:
    return NetworkSpec((32, 32, n_classes), "softmax")


def default_critic_spec(feature_dim: int = 32) -> NetworkSpec:
    return NetworkSpec((feature_dim, 32, 1), "identity")


def init_network(spec: NetworkSpec, seed: int) -> NetworkParams:
    """Centered-uniform init with limit sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = make_rng(seed, "net-init")
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return NetworkParams(spec=spec, weights=weights, biases=biases, init_seed=int(seed))


def forward(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Batch inference; applies the configured output activation to :func:`logits`."""
    h = logits(params, x)
    return softmax(h, axis=-1) if params.spec.output_activation == "softmax" else h


def logits(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """The network's output before its output activation: the value of
    :func:`build_forward`'s output node, in numpy."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.spec.input_dim:
        raise ValueError(f"expected input of shape (n, {params.spec.input_dim}), got {h.shape}")
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.tanh(h @ w + b)
    return h @ params.weights[-1] + params.biases[-1]


def build_forward(graph: Graph, spec: NetworkSpec, input_node: int, name: str) -> int:
    """Append the network's computation to ``graph``; returns the output node.

    Parameters become leaves named by :func:`param_leaf_names`; if those
    leaves already exist in the graph (a second pass through the same
    network) they are reused, which shares parameters between paths.  The
    output activation is *not* applied: training losses work on logits and
    critic scores are linear outputs.
    """
    names = param_leaf_names(spec, name)
    h = input_node
    last = spec.n_layers - 1
    for i, (fan_in, fan_out) in enumerate(zip(spec.layer_widths[:-1], spec.layer_widths[1:])):
        w, b = [graph.leaves[nm] if nm in graph.leaves else graph.leaf(nm, shape)
                for nm, shape in zip(names[2 * i:2 * i + 2], ((fan_in, fan_out), (fan_out,)))]
        h = graph.add(graph.matmul(h, w), b)
        if i != last:
            h = graph.tanh(h)
    return h


def param_bindings(params: NetworkParams, name: str) -> dict:
    """Leaf-name bindings for :func:`build_forward` graphs, to the network's
    own arrays (an in-place step on a binding updates the network)."""
    arrays = [a for pair in zip(params.weights, params.biases) for a in pair]
    return dict(zip(param_leaf_names(params.spec, name), arrays))


def param_leaf_names(spec: NetworkSpec, name: str) -> list:
    """The one spelling of parameter leaf names: ``{name}.W{i}``, ``{name}.b{i}``."""
    return [f"{name}.{kind}{i}" for i in range(spec.n_layers) for kind in ("W", "b")]


# ----------------------------------------------------------------------
# losses and uncertainty


def cross_entropy(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class.

    Training computes its losses from logits in the graphs; this numpy form
    ships as the reference that ``weighted_query_loss`` is checked against
    (acceptance criterion 5)."""
    p = np.atleast_2d(np.asarray(probabilities, dtype=np.float64))
    labels = class_ids(labels, p.shape[1])
    picked = p[np.arange(p.shape[0]), labels]
    return float(np.mean(-np.log(np.maximum(picked, 1e-300))))


def cross_entropy_from_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    """Numerically stable cross-entropy straight from logits.

    Training computes this loss in the model graph (``L_cls``); this numpy
    form ships as the reference that graph is tested against."""
    z = np.asarray(logits, dtype=np.float64)
    labels = class_ids(labels, z.shape[1])
    m = z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z - m).sum(axis=1)) + m[:, 0]
    picked = z[np.arange(z.shape[0]), labels]
    return float(np.mean(lse - picked))


def predictive_entropy(probabilities: np.ndarray):
    """Shannon entropy (natural log) with 0*log(0) = 0.

    Accepts one probability vector (returns a float) or a batch of rows
    (returns a per-row array).  Values lie in [0, ln C].
    """
    p = np.asarray(probabilities, dtype=np.float64)
    single = p.ndim == 1
    if single:
        p = p[None, :]
    terms = np.where(p > 0.0, p * np.log(np.maximum(p, 1e-300)), 0.0)
    h = -terms.sum(axis=1)
    return float(h[0]) if single else h


# ----------------------------------------------------------------------
# checkpoints
#
# Flat binary layout, little-endian:
#   magic "ACDA" | version u8 | network count u8
#   per network, in declared order:
#     name length u8 | name utf-8 bytes
#     width count u32 | widths u32 each
#     hidden activation u8 (always tanh) | output activation u8 | init seed u64
#     per layer: weight matrix row-major f64, then bias vector f64

_MAGIC = b"ACDA"
_VERSION = 1
# relu (1) and sigmoid (4) keep their numbers; a file naming them is refused
_ACT_CODE = {"tanh": 0, "relu": 1, "identity": 2, "softmax": 3, "sigmoid": 4}
_ACT_NAME = {v: k for k, v in _ACT_CODE.items()}


def save_checkpoint(path, networks: dict):
    """Write named networks to ``path``; iteration order is preserved.
    CheckpointError, before the file is opened, for more than 255 networks,
    a name longer than 255 UTF-8 bytes or an init seed outside [0, 2**64)."""
    if len(networks) > 255:
        raise CheckpointError(f"{len(networks)} networks; a checkpoint holds at most 255")
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<BB", _VERSION, len(networks))
    for name, params in networks.items():
        encoded = name.encode("utf8")
        if len(encoded) > 255:
            raise CheckpointError(f"network name too long: {name!r}")
        if not 0 <= params.init_seed < 2**64:
            raise CheckpointError(f"{name!r}: init seed {params.init_seed} is outside [0, 2**64)")
        spec = params.spec
        blob += struct.pack("<B", len(encoded)) + encoded
        blob += struct.pack("<I", len(spec.layer_widths))
        blob += struct.pack(f"<{len(spec.layer_widths)}I", *spec.layer_widths)
        blob += struct.pack(
            "<BBQ",
            _ACT_CODE["tanh"],
            _ACT_CODE[spec.output_activation],
            params.init_seed,
        )
        for w, b in zip(params.weights, params.biases):
            blob += np.ascontiguousarray(w, dtype="<f8").tobytes()
            blob += np.ascontiguousarray(b, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise CheckpointError(
                f"truncated checkpoint: wanted {count} bytes at offset {self.pos}, "
                f"file has {len(self.data)}"
            )
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> dict:
    """Read networks written by :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    if r.take(4) != _MAGIC:
        raise CheckpointError("bad magic: not a parameter checkpoint")
    version, count = r.unpack("<BB")
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    networks = {}
    for _ in range(count):
        (name_len,) = r.unpack("<B")
        try:
            name = r.take(name_len).decode("utf8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: network name {exc.object!r} is not UTF-8") from None
        (n_widths,) = r.unpack("<I")
        if n_widths < 2 or n_widths > 1024:
            raise CheckpointError(f"implausible width count {n_widths}")
        widths = r.unpack(f"<{n_widths}I")
        hidden_code, output_code, seed = r.unpack("<BBQ")
        try:
            if hidden_code != _ACT_CODE["tanh"]:
                raise ValueError(f"hidden activation code {hidden_code} is not tanh")
            spec = NetworkSpec(widths, _ACT_NAME[output_code])
        except (KeyError, ValueError) as exc:
            raise CheckpointError(f"invalid architecture for {name!r}: {exc}") from exc
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            w = np.frombuffer(r.take(8 * fan_in * fan_out), dtype="<f8")
            weights.append(w.reshape(fan_in, fan_out).astype(np.float64))
            b = np.frombuffer(r.take(8 * fan_out), dtype="<f8")
            biases.append(b.astype(np.float64))
        networks[name] = NetworkParams(
            spec=spec, weights=weights, biases=biases, init_seed=int(seed)
        )
    if r.pos != len(r.data):
        raise CheckpointError(f"trailing bytes after offset {r.pos}")
    return networks
