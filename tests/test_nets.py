"""Unit tests for network definitions, losses, and checkpoints."""

import numpy as np
import pytest

from acda.autodiff import Graph, forward_eval
from acda.errors import CheckpointError
from acda.nets import (NetworkParams, NetworkSpec, build_forward, cross_entropy,
                       cross_entropy_from_logits, default_classifier_spec,
                       default_critic_spec, default_feature_spec, forward,
                       init_network, load_checkpoint, param_bindings,
                       param_leaf_names, predictive_entropy, save_checkpoint)


def test_default_specs_have_documented_shapes():
    f = default_feature_spec(input_dim=7)
    c = default_classifier_spec(n_classes=3)
    d = default_critic_spec()
    assert f.layer_widths == (7, 64, 32)
    assert c.layer_widths == (32, 32, 3)
    assert d.layer_widths == (32, 32, 1)
    assert c.output_activation == "softmax"
    assert d.output_activation == "identity"


def test_init_is_glorot_bounded_with_zero_biases():
    spec = NetworkSpec((5, 8, 2), "identity")
    params = init_network(spec, seed=42)
    for i, w in enumerate(params.weights):
        fan_in, fan_out = spec.layer_widths[i], spec.layer_widths[i + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w).max() <= limit
        assert w.shape == (fan_in, fan_out)
    for b in params.biases:
        assert np.all(b == 0.0)


def test_init_deterministic_and_seed_sensitive():
    spec = NetworkSpec((4, 6, 2), "identity")
    a = init_network(spec, seed=1)
    b = init_network(spec, seed=1)
    c = init_network(spec, seed=2)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_softmax_forward_rows_sum_to_one():
    params = init_network(NetworkSpec((3, 8, 4), "softmax"), seed=0)
    x = np.random.default_rng(0).normal(size=(10, 3))
    probs = forward(params, x)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(10), atol=1e-12)
    assert np.all(probs >= 0)


def test_graph_forward_matches_direct_forward():
    spec = NetworkSpec((4, 6, 3), "softmax")
    params = init_network(spec, seed=9)
    x = np.random.default_rng(9).normal(size=(5, 4))
    g = Graph()
    xin = g.leaf("x", (5, 4))
    logits_node = build_forward(g, spec, xin, "net")
    bindings = {"x": x}
    bindings.update(param_bindings(params, "net"))
    logits = forward_eval(g, bindings)[logits_node]
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    np.testing.assert_allclose(shifted / shifted.sum(axis=1, keepdims=True),
                               forward(params, x), atol=1e-12)


def test_build_forward_reuses_leaves_for_shared_parameters():
    spec = NetworkSpec((4, 6, 3), "identity")
    g = Graph()
    a = g.leaf("a", (2, 4))
    b = g.leaf("b", (3, 4))
    build_forward(g, spec, a, "F")
    n_leaves = len(g.leaves)
    build_forward(g, spec, b, "F")
    assert len(g.leaves) == n_leaves  # same parameter leaves on both paths
    assert set(param_leaf_names(spec, "F")) <= set(g.leaves)


def test_cross_entropy_values():
    probs = np.full((4, 5), 0.2)
    labels = np.array([0, 1, 2, 3])
    np.testing.assert_allclose(cross_entropy(probs, labels), np.log(5), atol=1e-12)
    ideal = np.eye(3)[np.array([0, 1, 2])]
    assert cross_entropy(ideal, np.array([0, 1, 2])) < 1e-12
    with pytest.raises(ValueError):
        cross_entropy(probs, np.array([0, 1, 2, 5]))


def test_cross_entropy_from_logits_matches_probability_form():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(6, 4)) * 3
    labels = rng.integers(0, 4, size=6)
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = shifted / shifted.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(cross_entropy_from_logits(logits, labels),
                               cross_entropy(probs, labels), atol=1e-12)


def test_predictive_entropy_identities():
    assert predictive_entropy(np.array([0.0, 1.0, 0.0])) == 0.0
    for c in (2, 3, 7):
        np.testing.assert_allclose(predictive_entropy(np.full(c, 1.0 / c)),
                                   np.log(c), atol=1e-12)
    batch = np.array([[0.5, 0.5], [1.0, 0.0]])
    ent = predictive_entropy(batch)
    np.testing.assert_allclose(ent, [np.log(2), 0.0], atol=1e-12)


def test_checkpoint_round_trip(tmp_path):
    nets = {
        "F": init_network(NetworkSpec((3, 8, 4), "identity"), seed=1),
        "C": init_network(NetworkSpec((4, 5, 2), "softmax"), seed=2),
        "lo": init_network(NetworkSpec((2, 1), "identity"), seed=0),
        "hi": init_network(NetworkSpec((2, 1), "identity"), seed=2**64 - 1),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, nets)
    loaded = load_checkpoint(path)
    assert list(loaded) == ["F", "C", "lo", "hi"]
    for name in nets:
        assert loaded[name].spec == nets[name].spec
        assert loaded[name].init_seed == nets[name].init_seed
        for wa, wb in zip(nets[name].weights, loaded[name].weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(nets[name].biases, loaded[name].biases):
            np.testing.assert_array_equal(ba, bb)


@pytest.mark.parametrize("seed", [-1, 2**64 + 5])
def test_checkpoint_refuses_a_seed_outside_u64_before_writing(tmp_path, seed):
    net = init_network(NetworkSpec((2, 1), "identity"), seed=0)
    net.init_seed = seed
    path = tmp_path / "model.ckpt"
    with pytest.raises(CheckpointError, match=f"init seed {seed} is outside"):
        save_checkpoint(path, {"F": net})
    assert not path.exists()


def test_checkpoint_refuses_more_than_255_networks_before_writing(tmp_path):
    """The network count is a one-byte field."""
    net = init_network(NetworkSpec((2, 1), "identity"), seed=0)
    path = tmp_path / "model.ckpt"
    with pytest.raises(CheckpointError, match="256 networks; a checkpoint holds at most 255"):
        save_checkpoint(path, {f"n{i}": net for i in range(256)})
    assert not path.exists()


def test_checkpoint_rejects_corruption(tmp_path):
    nets = {"F": init_network(NetworkSpec((2, 3, 1), "identity"), seed=0)}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, nets)
    blob = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)

    trailing = tmp_path / "long.ckpt"
    trailing.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(trailing)


def test_checkpoint_activation_codes(tmp_path):
    """Hidden layers are stored as tanh (code 0) beside the output code; a
    file with any other hidden code, or sigmoid (4) as output, is refused."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"F": init_network(NetworkSpec((2, 3, 1), "softmax"), seed=0)})
    blob = path.read_bytes()
    at = 4 + 2 + 2 + 4 + 3 * 4  # magic, version and count, name, widths
    assert blob[at:at + 2] == bytes([0, 3])
    for offset, code in ((0, 1), (0, 2), (1, 4)):
        bad = bytearray(blob)
        bad[at + offset] = code
        path.write_bytes(bytes(bad))
        with pytest.raises(CheckpointError, match="invalid architecture"):
            load_checkpoint(path)
