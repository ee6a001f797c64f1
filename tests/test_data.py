"""Unit tests for dataset generation, labeling rules, IDX parsing, batching."""

import struct

import numpy as np
import pytest

from acda.data import (Dataset, LabelingFunction, batch_iterator, class_ids, export_csv,
                       gen_gaussian_shift_pair, gen_two_moons_pair, load_csv,
                       load_idx, standardize_features)
from acda.errors import CheckpointError, ConfigError, DataError
from acda.experiments import parse_config
from acda.nets import NetworkSpec, init_network, load_checkpoint, save_checkpoint


# ---------------------------------------------------------------- two moons


def test_moons_shapes_and_tags():
    pair = gen_two_moons_pair(120, 80, rotation_deg=30.0, noise_sd=0.05,
                              label_flip_rate=0.1, seed=0)
    assert pair.source.features.shape == (120, 2)
    assert pair.target.features.shape == (80, 2)
    assert set(np.unique(pair.source.labels)) <= {0, 1}
    assert len(pair.source) == 120 and pair.target.dim == 2


def test_moons_labels_come_from_the_labeling_rules():
    pair = gen_two_moons_pair(60, 60, rotation_deg=45.0, noise_sd=0.1,
                              label_flip_rate=0.2, seed=5)
    np.testing.assert_array_equal(pair.source.labels,
                                  pair.f_source.label(pair.source.features))
    np.testing.assert_array_equal(pair.target.labels,
                                  pair.f_target.label(pair.target.features))


def test_moons_zero_flip_means_shared_rule():
    pair = gen_two_moons_pair(30, 30, rotation_deg=60.0, noise_sd=0.1,
                              label_flip_rate=0.0, seed=2)
    grid = np.stack(np.meshgrid(np.linspace(-2, 3, 21),
                                np.linspace(-2, 2, 21)), axis=-1).reshape(-1, 2)
    np.testing.assert_array_equal(pair.f_source.label(grid),
                                  pair.f_target.label(grid))


def test_moons_flip_rate_is_approximately_honored():
    pair = gen_two_moons_pair(4000, 4000, rotation_deg=40.0, noise_sd=0.08,
                              label_flip_rate=0.12, seed=9)
    disagree = (pair.f_source.label(pair.target.features)
                != pair.target.labels).mean()
    assert 0.06 <= disagree <= 0.18


def test_moons_determinism_and_seed_sensitivity():
    a = gen_two_moons_pair(50, 50, 30.0, 0.1, 0.1, seed=4)
    b = gen_two_moons_pair(50, 50, 30.0, 0.1, 0.1, seed=4)
    c = gen_two_moons_pair(50, 50, 30.0, 0.1, 0.1, seed=6)
    np.testing.assert_array_equal(a.source.features, b.source.features)
    np.testing.assert_array_equal(a.target.labels, b.target.labels)
    assert not np.array_equal(a.source.features, c.source.features)


def test_moons_input_validation():
    with pytest.raises(ValueError):
        gen_two_moons_pair(1, 30, 30.0, 0.1, 0.1, seed=0)
    with pytest.raises(ValueError):
        gen_two_moons_pair(30, 30, 30.0, -0.1, 0.1, seed=0)
    with pytest.raises(ValueError):
        gen_two_moons_pair(30, 30, 30.0, 0.1, 0.5, seed=0)


# ---------------------------------------------------------------- gaussians


def test_gaussian_full_swap_with_two_classes_inverts_the_rule():
    pair = gen_gaussian_shift_pair(n_classes=2, dim=3, mean_shift=1.0,
                                   covariance_scale=1.0, swap_fraction=1.0,
                                   n_source=40, n_target=40, seed=1)
    pts = np.random.default_rng(0).normal(size=(64, 3)) * 2
    np.testing.assert_array_equal(pair.f_target.label(pts),
                                  1 - pair.f_source.label(pts))


def test_gaussian_no_swap_shares_the_rule():
    pair = gen_gaussian_shift_pair(n_classes=3, dim=2, mean_shift=2.0,
                                   covariance_scale=1.5, swap_fraction=0.0,
                                   n_source=30, n_target=30, seed=2)
    pts = np.random.default_rng(1).normal(size=(50, 2)) * 3
    np.testing.assert_array_equal(pair.f_source.label(pts),
                                  pair.f_target.label(pts))


def test_gaussian_mean_shift_moves_target_cloud():
    pair = gen_gaussian_shift_pair(n_classes=2, dim=2, mean_shift=5.0,
                                   covariance_scale=0.5, swap_fraction=0.0,
                                   n_source=300, n_target=300, seed=3)
    gap = np.linalg.norm(pair.target.features.mean(axis=0)
                         - pair.source.features.mean(axis=0))
    assert gap > 2.0


# ---------------------------------------------------------- labeling rules


def test_labeling_ties_prefer_the_lower_anchor_index():
    anchors = np.array([[0.0, 0.0], [2.0, 0.0]])
    f = LabelingFunction(anchors=anchors, anchor_labels=np.array([0, 1]),
                         n_classes=2)
    assert f.label(np.array([[1.0, 0.0]]))[0] == 0  # equidistant -> first wins


def test_labeling_score_is_clipped_to_unit_interval():
    anchors = np.array([[0.0], [10.0]])
    f = LabelingFunction(anchors=anchors, anchor_labels=np.array([0, 1]),
                         n_classes=2)
    scores = f.score(np.array([[-50.0], [0.0], [5.0], [10.0], [60.0]]))
    assert np.all(scores >= 0.0) and np.all(scores <= 1.0)
    assert scores[0] == 0.0 and scores[-1] == 1.0
    assert abs(scores[2] - 0.5) < 1e-12


def test_oracle_label_reads_the_target_rule():
    """A run's annotator answers with ``target.labels``: both generators
    label the target with the target rule, conditional shift included."""
    for pair in (gen_two_moons_pair(40, 40, 20.0, 0.05, 0.1, seed=8),
                 gen_gaussian_shift_pair(3, 4, 2.0, 1.0, 1.0, 40, 40, seed=8)):
        np.testing.assert_array_equal(
            pair.target.labels, pair.f_target.label(pair.target.features))
        assert (pair.target.labels != pair.f_source.label(pair.target.features)).any()


# ------------------------------------------------------------------- idx io


def _write_idx_pair(tmp_path, n=7, rows=3, cols=2):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    images_path = tmp_path / "imgs.idx3-ubyte"
    labels_path = tmp_path / "labs.idx1-ubyte"
    images_path.write_bytes(struct.pack(">iiii", 2051, n, rows, cols)
                            + pixels.tobytes())
    labels_path.write_bytes(struct.pack(">ii", 2049, n) + labels.tobytes())
    return images_path, labels_path, pixels, labels


def test_idx_round_trip(tmp_path):
    images_path, labels_path, pixels, labels = _write_idx_pair(tmp_path)
    ds = load_idx(images_path, labels_path)
    assert ds.features.shape == (7, 6)
    np.testing.assert_allclose(ds.features,
                               pixels.reshape(7, -1).astype(np.float64) / 255.0)
    np.testing.assert_array_equal(ds.labels, labels)


def test_idx_max_items(tmp_path):
    images_path, labels_path, _, labels = _write_idx_pair(tmp_path)
    ds = load_idx(images_path, labels_path, max_items=3)
    assert len(ds) == 3
    np.testing.assert_array_equal(ds.labels, labels[:3])
    with pytest.raises(ValueError, match="max_items must be non-negative, got -1"):
        load_idx(images_path, labels_path, max_items=-1)


def test_idx_bad_magic_rejected(tmp_path):
    """A bad magic number, and a negative count or dimension, are refused
    from the header, naming the file."""
    images_path, labels_path, _, _ = _write_idx_pair(tmp_path)
    blob = images_path.read_bytes()
    images_path.write_bytes(struct.pack(">iiii", 1234, 7, 3, 2) + blob[16:])
    with pytest.raises(DataError):
        load_idx(images_path, labels_path)
    # (2, -2, -2) asks for 2 * -2 * -2 = 8 pixel bytes, which the file has
    for header in ((2051, 2, -2, -2), (2051, -1, 3, 2), (2051, 7, 3, -2)):
        images_path.write_bytes(struct.pack(">iiii", *header) + blob[16:24])
        with pytest.raises(DataError, match="imgs.idx3-ubyte: negative size in header"):
            load_idx(images_path, labels_path)


def test_idx_count_mismatch_rejected(tmp_path):
    images_path, labels_path, _, _ = _write_idx_pair(tmp_path)
    labels_path.write_bytes(struct.pack(">ii", 2049, 3) + b"\x00\x01\x02")
    with pytest.raises(DataError):
        load_idx(images_path, labels_path)


def test_idx_truncation_rejected(tmp_path):
    images_path, labels_path, _, _ = _write_idx_pair(tmp_path)
    blob = images_path.read_bytes()
    images_path.write_bytes(blob[:-5])
    with pytest.raises(DataError):
        load_idx(images_path, labels_path)


@pytest.mark.parametrize("images_header, labels_header, message", [
    ((2051, 2**31 - 1, 2**31 - 1, 2**31 - 1), (2049, 7),
     r"imgs.idx3-ubyte: truncated while reading pixel data at byte offset 16 "
     rf"\(wanted {(2**31 - 1) ** 3}, got 42\)"),
    ((2051, 2**31 - 1, 0, 0), (2049, 2**31 - 1),
     r"labs.idx1-ubyte: truncated while reading label data at byte offset 8 "
     rf"\(wanted {2**31 - 1}, got 7\)"),
], ids=["pixels", "labels"])
def test_idx_header_claiming_more_than_the_file_holds_is_refused_before_reading(
        tmp_path, images_header, labels_header, message):
    """Each byte count is compared with the file's size before it is read,
    so an overstated header is a DataError, not a read of its size."""
    images_path, labels_path, _, _ = _write_idx_pair(tmp_path)
    images_path.write_bytes(struct.pack(">iiii", *images_header) + images_path.read_bytes()[16:])
    labels_path.write_bytes(struct.pack(">ii", *labels_header) + labels_path.read_bytes()[8:])
    with pytest.raises(DataError, match=message):
        load_idx(images_path, labels_path)


# --------------------------------------------------------------- utilities


def test_batch_iterator_partitions_without_replacement():
    batches = list(batch_iterator(23, batch_size=5, seed=1, epoch=0))
    sizes = [len(b) for b in batches]
    assert sizes == [5, 5, 5, 5, 3]
    np.testing.assert_array_equal(np.sort(np.concatenate(batches)), np.arange(23))


def test_batch_iterator_varies_by_epoch_not_by_call():
    a = list(batch_iterator(16, 4, seed=3, epoch=0))
    b = list(batch_iterator(16, 4, seed=3, epoch=0))
    c = list(batch_iterator(16, 4, seed=3, epoch=1))
    np.testing.assert_array_equal(np.concatenate(a), np.concatenate(b))
    assert not np.array_equal(np.concatenate(a), np.concatenate(c))


@pytest.mark.parametrize("batch_size, seed, message", [
    (0, 0, "batch_size must be >= 1"),
    (2, 2.5, "seed must be an integer, got 2.5"),
], ids=["batch_size-0", "seed-2.5"])
def test_batch_iterator_refuses_bad_arguments_at_the_call(batch_size, seed, message):
    """The check runs when the epoch's batches are asked for, not when the
    first batch is read."""
    with pytest.raises(ValueError, match=message):
        batch_iterator(10, batch_size, seed, 0)


def test_standardize_is_fit_on_source_only():
    rng = np.random.default_rng(4)
    src = rng.normal(loc=5.0, scale=3.0, size=(200, 3))
    tgt = rng.normal(loc=9.0, scale=3.0, size=(100, 3))
    sx, tx, mean, sd = standardize_features(src, tgt)
    np.testing.assert_allclose(sx.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(sx.std(axis=0), 1.0, atol=1e-12)
    assert np.all(tx.mean(axis=0) > 0.5)  # target keeps its shift
    np.testing.assert_allclose(mean, src.mean(axis=0))


def test_standardize_guards_constant_features():
    src = np.ones((10, 2))
    src[:, 1] = np.arange(10)
    sx, tx, _, sd = standardize_features(src, src.copy())
    assert sd[0] == 1.0
    assert np.all(np.isfinite(sx))


def test_csv_round_trip_is_exact(tmp_path):
    pair = gen_two_moons_pair(20, 25, 15.0, 0.1, 0.1, seed=12)
    path = tmp_path / "pair.csv"
    export_csv(path, pair.source, pair.target)
    source, target = load_csv(path)
    np.testing.assert_array_equal(source.features, pair.source.features)
    np.testing.assert_array_equal(target.features, pair.target.features)
    np.testing.assert_array_equal(source.labels, pair.source.labels)


def test_dataset_rejects_non_integer_labels():
    x = np.zeros((2, 2))
    with pytest.raises(ValueError, match="labels must be integer class ids"):
        Dataset(x, [0.5, 1.7])
    np.testing.assert_array_equal(Dataset(x, [0.0, 1.0]).labels, [0, 1])


@pytest.mark.parametrize("rows, line", [
    (["0.0,0.0,0,source", "1.0,1.0,,target", "2.0,2.0,1,target"], 4),
    (["0.0,0.0,0,source", "1.0,1.0,1,target", "2.0,2.0,,target"], 4),
    (["0.0,0.0,0.5,source"], 2),
    (["0.0,abc,0,source"], 2),
    (["nan,0.5,0,source"], 2),
    (["0.0,0.5,0,source", "inf,0.5,1,target"], 3),
    (["0.0,0.5,0,source", "0.5,-inf,,target"], 3),
    (["0.0,0.5,0,source", "0.5,0.5,-1,target"], 3),
], ids=["unlabelled-then-labelled", "labelled-then-unlabelled", "fractional-label",
        "non-numeric-feature", "nan-feature", "inf-feature", "minus-inf-feature",
        "negative-label"])
def test_load_csv_rejects_malformed_rows_with_their_line(tmp_path, rows, line):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["x_0,x_1,label,domain"] + rows) + "\n")
    with pytest.raises(DataError, match=f"bad.csv: line {line}: "):
        load_csv(path)


@pytest.mark.parametrize("header", ["a,b,label,domain", "x_1,x_0,label,domain",
                                    "x_0,label,domain,x_1", "label,domain"])
def test_load_csv_rejects_feature_columns_other_than_x_0_to_x_d(tmp_path, header):
    path = tmp_path / "cols.csv"
    path.write_text(header + "\n0.0,0.0,0,source\n")
    with pytest.raises(DataError, match=r"cols.csv: expected columns x_0..x_\(d-1\), label, "
                                        "domain"):
        load_csv(path)


def test_class_ids_are_1d_whole_numbers_in_range():
    np.testing.assert_array_equal(class_ids([0.0, 2.0, 1]), [0, 2, 1])
    assert class_ids(np.array([1, 0], dtype=np.uint8)).dtype == np.int64
    assert class_ids([]).shape == (0,)
    for labels, n_classes, message in [
            ([[0, 1]], None, r"labels must be 1-d, got shape \(1, 2\)"),
            ([0.6], None, "labels must be integer class ids"),
            ([np.nan], None, "labels must be integer class ids"),
            ([-1], None, r"labels must lie in \[0, inf\), got range \[-1, -1\]"),
            ([0, 2], 2, r"labels must lie in \[0, 2\), got range \[0, 2\]")]:
        with pytest.raises(ValueError, match=message):
            class_ids(labels, n_classes)


def test_load_csv_rejects_an_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    with pytest.raises(DataError, match="empty.csv: expected columns"):
        load_csv(path)


@pytest.mark.parametrize("name, content, reader, error, message", [
    ("nets.ckpt", None, load_checkpoint, CheckpointError,
     r"nets.ckpt: network name b'\\xff\\xfe' is not UTF-8"),
    ("pair.csv", b"x_0,x_1,label,domain\n0.0,0.0,0,source\n0.5,1.0,\xff,target\n", load_csv,
     DataError, "pair.csv: line 3: not UTF-8 text"),
    ("exp.cfg", b"budget = 0.1\n# caf\xff\nseeds = 1\n", parse_config, ConfigError,
     "exp.cfg: line 2: not UTF-8 text"),
], ids=["checkpoint", "csv", "config"])
def test_non_utf8_input_is_a_typed_error_naming_the_file(tmp_path, name, content, reader,
                                                         error, message):
    path = tmp_path / name
    if content is None:  # a checkpoint whose one network's two-byte name is not UTF-8
        save_checkpoint(path, {"ab": init_network(NetworkSpec((2, 3, 1), "identity"), 0)})
        blob = path.read_bytes()
        assert blob[6:9] == b"\x02ab"
        content = blob[:7] + b"\xff\xfe" + blob[9:]
    path.write_bytes(content)
    with pytest.raises(error, match=message):
        reader(str(path))
