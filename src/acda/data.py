"""Synthetic shifted-domain generators, an IDX loader, and pool plumbing.

Both generators return a :class:`DomainPair` carrying labeling-function
handles for the two domains.  The handles expose a hard ``label`` rule (used
to label every sampled point, and as the query oracle) and, for binary
problems, a 1-Lipschitz ``score`` in [0, 1] consumed by the bound
diagnostic.  When the conditional-shift knob (label flips / assignment
swaps) is zero the two handles are the same computation, so their
disagreement is exactly zero on any sample.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DataError
from .seeding import derive_seed, make_rng

__all__ = [
    "Dataset",
    "DomainPair",
    "class_ids",
    "LabelingFunction",
    "gen_two_moons_pair",
    "gen_gaussian_shift_pair",
    "load_idx",
    "load_idx_pair",
    "batch_iterator",
    "export_csv",
    "load_csv",
    "read_text",
    "standardize_features",
]


def class_ids(labels, n_classes: int | None = None) -> np.ndarray:
    """``labels`` as a 1-d int64 array, the one check of class labels; ValueError
    unless they are 1-d, whole numbers (0.6 is refused, never truncated) and in
    [0, ``n_classes``), or non-negative when ``n_classes`` is None."""
    given = np.asarray(labels)
    if given.ndim != 1:
        raise ValueError(f"labels must be 1-d, got shape {given.shape}")
    with np.errstate(invalid="ignore"):  # NaN and overflow fail the comparison below
        ids = given.astype(np.int64)
    if not np.array_equal(ids, given):
        raise ValueError("labels must be integer class ids")
    top = np.inf if n_classes is None else n_classes
    if ids.size and (ids.min() < 0 or ids.max() >= top):
        raise ValueError(f"labels must lie in [0, {top}), got range [{ids.min()}, {ids.max()}]")
    return ids


@dataclass
class Dataset:
    """A feature matrix with optional labels (see :func:`class_ids`)."""

    features: np.ndarray
    labels: np.ndarray | None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be (n, d), got {self.features.shape}")
        if self.labels is not None:
            self.labels = class_ids(self.labels)
            if self.labels.size != self.features.shape[0]:
                raise ValueError("label count must equal row count")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class LabelingFunction:
    """Nearest-anchor labeling rule with a 1-Lipschitz score relaxation.

    ``label(x)`` returns the label of the nearest anchor (ties go to the
    earliest anchor, so base geometry wins over shifted copies).  For binary
    problems ``score(x) = clip(0.5 + (d0(x) - d1(x)) / 2, 0, 1)`` where
    ``d_k`` is the distance to the nearest anchor of label k; each ``d_k``
    is 1-Lipschitz, so the score is too.
    """

    anchors: np.ndarray
    anchor_labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors, dtype=np.float64)
        self.anchor_labels = np.asarray(self.anchor_labels, dtype=np.int64)

    def label(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        nearest = np.argmin(cdist(x, self.anchors), axis=1)
        return self.anchor_labels[nearest]

    def score(self, x) -> np.ndarray:
        if self.n_classes != 2:
            raise ValueError("the Lipschitz score is defined for binary labels only")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        dist = cdist(x, self.anchors)
        d0 = dist[:, self.anchor_labels == 0].min(axis=1)
        d1 = dist[:, self.anchor_labels == 1].min(axis=1)
        return np.clip(0.5 + 0.5 * (d0 - d1), 0.0, 1.0)


@dataclass
class DomainPair:
    """Source and target datasets plus the generator's labeling functions
    (None for loaded data).

    Target labels are present (the generator knows them); a run reads them
    only as the annotator's answers to its queries and for final-accuracy
    evaluation.
    """

    source: Dataset
    target: Dataset
    f_source: LabelingFunction | None
    f_target: LabelingFunction | None

    def __post_init__(self):
        if self.source.dim != self.target.dim:
            raise ValueError("source and target dimensionality must match")


# ----------------------------------------------------------------------
# two moons with rotation (covariate shift) and label flips (conditional shift)

_MOON_CENTER = np.array([0.5, 0.25])
_SKELETON_POINTS = 256


def _moon_points(t: np.ndarray, arc: int) -> np.ndarray:
    if arc == 0:
        return np.column_stack([np.cos(t), np.sin(t)])
    return np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])


def _rotate(points: np.ndarray, degrees: float) -> np.ndarray:
    rad = np.deg2rad(degrees)
    rot = np.array([[np.cos(rad), -np.sin(rad)], [np.sin(rad), np.cos(rad)]])
    return (points - _MOON_CENTER) @ rot.T + _MOON_CENTER


def _moon_rules(rotation_deg: float, label_flip_rate: float):
    """Shared labeling rules for both domains.

    The anchor set is the union of the base arcs and the rotated arcs, each
    anchor labeled by the arc it belongs to (labels ride with the rotation).
    The target rule relabels the trailing ``label_flip_rate`` fraction of each
    rotated arc with the opposite label; with flip 0 both rules are the same
    arrays, hence the same function.
    """
    t = (np.arange(_SKELETON_POINTS) + 0.5) * (np.pi / _SKELETON_POINTS)
    base = np.vstack([_moon_points(t, 0), _moon_points(t, 1)])
    base_labels = np.concatenate([np.zeros(_SKELETON_POINTS, dtype=np.int64),
                                  np.ones(_SKELETON_POINTS, dtype=np.int64)])
    rotated = _rotate(base, rotation_deg)
    anchors = np.vstack([base, rotated])
    window = t >= np.pi * (1.0 - label_flip_rate)
    flipped = base_labels.copy()
    flipped[: _SKELETON_POINTS][window] = 1
    flipped[_SKELETON_POINTS :][window] = 0
    f_source = LabelingFunction(anchors, np.concatenate([base_labels, base_labels]), 2)
    f_target = LabelingFunction(anchors, np.concatenate([base_labels, flipped]), 2)
    return f_source, f_target


def _check_finite(**values):
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite")


def gen_two_moons_pair(n_source: int, n_target: int, rotation_deg: float,
                       noise_sd: float, label_flip_rate: float, seed: int) -> DomainPair:
    """Interleaved half-circles; the target generator is rotated about the
    moons' midpoint and a fraction of each target arc carries flipped labels.

    Caveat: when the rotation maps an arc exactly onto an arc of the other
    label (0 degrees with flips, or 180 degrees), the flipped segments sit on
    top of anchors of the opposite label and the nearest-anchor rule resolves
    the tie in favour of the base geometry.
    """
    if n_source < 2 or n_target < 2:
        raise ValueError("need at least 2 points per domain")
    _check_finite(rotation_deg=rotation_deg, noise_sd=noise_sd)
    if noise_sd < 0:
        raise ValueError("noise_sd must be non-negative")
    if not 0.0 <= label_flip_rate < 0.5:
        raise ValueError("label_flip_rate must lie in [0, 0.5)")
    f_source, f_target = _moon_rules(rotation_deg, label_flip_rate)

    def sample(n, rng, rotated):
        t = rng.uniform(0.0, np.pi, size=n)
        arc = rng.integers(0, 2, size=n)
        clean = np.where(arc[:, None] == 0, _moon_points(t, 0), _moon_points(t, 1))
        if rotated:
            clean = _rotate(clean, rotation_deg)
        return clean + rng.normal(0.0, 1.0, size=(n, 2)) * noise_sd

    xs = sample(n_source, make_rng(seed, "moons-source"), rotated=False)
    xt = sample(n_target, make_rng(seed, "moons-target"), rotated=True)
    return DomainPair(Dataset(xs, f_source.label(xs)), Dataset(xt, f_target.label(xt)),
                      f_source, f_target)


# ----------------------------------------------------------------------
# Gaussian clusters with mean shift (covariate) and assignment swaps (conditional)


def gen_gaussian_shift_pair(n_classes: int, dim: int, mean_shift: float,
                            covariance_scale: float, swap_fraction: float,
                            n_source: int, n_target: int, seed: int) -> DomainPair:
    """Gaussian clusters; target points are translated and rescaled copies,
    and a fraction of the cluster-to-label assignments is cyclically permuted.

    Both labeling rules partition the space by the *source* cluster means, so
    with swap 0 the rules coincide exactly whatever the shift; with a swap
    the target rule relabels whole cells.  round(swap_fraction * n_classes)
    clusters take part in the cycle (a single participant is a no-op).
    """
    if n_classes < 2 or dim < 1:
        raise ValueError("need n_classes >= 2 and dim >= 1")
    if n_source < 2 or n_target < 2:
        raise ValueError("need at least 2 points per domain")
    _check_finite(mean_shift=mean_shift, covariance_scale=covariance_scale)
    if covariance_scale <= 0:
        raise ValueError("covariance_scale must be positive")
    if not 0.0 <= swap_fraction <= 1.0:
        raise ValueError("swap_fraction must lie in [0, 1]")
    rng = make_rng(seed, "gaussian")
    means = rng.normal(size=(n_classes, dim)) * 3.0
    direction = rng.normal(size=dim)
    norm = np.linalg.norm(direction)
    direction = direction / norm if norm > 1e-12 else np.eye(dim)[0]
    shift_vec = mean_shift * direction

    src_assign = np.arange(n_classes, dtype=np.int64)
    tgt_assign = src_assign.copy()
    n_swapped = int(np.floor(swap_fraction * n_classes + 0.5))
    if n_swapped >= 2:
        chosen = np.sort(rng.choice(n_classes, size=n_swapped, replace=False))
        tgt_assign[chosen] = src_assign[np.roll(chosen, -1)]
    f_source = LabelingFunction(means, src_assign, n_classes)
    f_target = LabelingFunction(means, tgt_assign, n_classes)

    cid_s = rng.integers(0, n_classes, size=n_source)
    xs = means[cid_s] + rng.normal(size=(n_source, dim))
    cid_t = rng.integers(0, n_classes, size=n_target)
    xt = means[cid_t] + shift_vec + rng.normal(size=(n_target, dim)) * covariance_scale
    return DomainPair(Dataset(xs, f_source.label(xs)), Dataset(xt, f_target.label(xt)),
                      f_source, f_target)


# ----------------------------------------------------------------------
# IDX loader (big-endian headers; magic 2051 for images, 2049 for labels)


def _read_exact(fh, count: int, path, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise DataError(
            f"{path}: truncated while reading {what} at byte offset "
            f"{fh.tell() - len(data)} (wanted {count}, got {len(data)})"
        )
    return data


def load_idx(images_path, labels_path, max_items: int | None = None) -> Dataset:
    """Load an IDX image/label file pair as a flat [0, 1]-scaled dataset,
    cut to its first ``max_items`` items (None: all; a negative count is a
    ValueError, raised before either file is opened)."""
    if max_items is not None and max_items < 0:
        raise ValueError(f"max_items must be non-negative, got {max_items}")
    with open(images_path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(">iiii", _read_exact(fh, 16, images_path, "header"))
        if magic != 2051:
            raise DataError(f"{images_path}: bad magic {magic}, expected 2051")
        if min(count, rows, cols) < 0:
            raise DataError(f"{images_path}: negative size in header {(count, rows, cols)}")
        take = count if max_items is None else min(count, max_items)
        pixels = _read_exact(fh, take * rows * cols, images_path, "pixel data")
    with open(labels_path, "rb") as fh:
        magic, label_count = struct.unpack(">ii", _read_exact(fh, 8, labels_path, "header"))
        if magic != 2049:
            raise DataError(f"{labels_path}: bad magic {magic}, expected 2049")
        if label_count != count:
            raise DataError(
                f"item count mismatch: {images_path} has {count}, "
                f"{labels_path} has {label_count}"
            )
        label_bytes = _read_exact(fh, take, labels_path, "label data")
    features = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64) / 255.0
    features = features.reshape(take, rows * cols)
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    return Dataset(features, labels)


def load_idx_pair(source_images, source_labels, target_images, target_labels,
                  max_items: int = 0, seed: int | None = None) -> DomainPair:
    """Source and target IDX file pairs, each cut to ``max_items`` (0: all;
    a negative count is a ValueError), with no labeling functions.  ``seed``
    is ignored, so every dataset kind builds with the same call."""
    limit = max_items or None
    return DomainPair(load_idx(source_images, source_labels, limit),
                      load_idx(target_images, target_labels, limit), None, None)


# ----------------------------------------------------------------------
# batching, standardization, CSV round-trip


def batch_iterator(n: int, batch_size: int, seed: int, epoch: int):
    """Deterministic per-epoch permutation of 0..n-1 split into batches.

    Returns the epoch's list of index arrays; the final short batch is kept,
    and their union is 0..n-1.  ValueError, at the call, for a batch size
    below 1 or a bad seed.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = make_rng(derive_seed(seed, "batches"), "epoch", epoch).permutation(n)
    return [perm[start : start + batch_size] for start in range(0, n, batch_size)]


def standardize_features(source_x: np.ndarray, target_x: np.ndarray):
    """Zero-mean unit-variance scaling, fitted on the source only."""
    mean = source_x.mean(axis=0)
    sd = source_x.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return (source_x - mean) / sd, (target_x - mean) / sd, mean, sd


def export_csv(path, source: Dataset, target: Dataset):
    """One CSV holding both domains, source rows first: x_0..x_{d-1}, label, domain."""
    d = source.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{i}" for i in range(d)] + ["label", "domain"])
        for tag, ds in (("source", source), ("target", target)):
            labels = ds.labels if ds.labels is not None else [""] * len(ds)
            for row, label in zip(ds.features, labels):
                writer.writerow([repr(float(v)) for v in row] + [label, tag])


def read_text(path, error: type = DataError) -> str:
    """The file's UTF-8 text; other bytes are an ``error`` naming file and line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line_no}: not UTF-8 text ({exc.reason} "
                    f"at byte {exc.start})") from None


def load_csv(path):
    """Inverse of :func:`export_csv`; returns ``(source, target)``.

    Ships as the reader of the CSV that ``acda gen`` writes, so the pools a
    run trains on can be read back and tests can round-trip them."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, [])  # an empty file fails the column check
    d = len(header) - 2
    if d < 1 or header != [f"x_{i}" for i in range(d)] + ["label", "domain"]:
        raise DataError(f"{path}: expected columns x_0..x_(d-1), label, domain")
    feats = {"source": [], "target": []}
    labels = {"source": [], "target": []}
    for line_no, row in enumerate(reader, start=2):
        if len(row) != d + 2:
            raise DataError(f"{path}: line {line_no}: expected {d + 2} fields")
        tag = row[-1]
        if tag not in feats:
            raise DataError(f"{path}: line {line_no}: unknown domain {tag!r}")
        try:
            x = [float(v) for v in row[:d]]
            label = None if row[-2] == "" else int(row[-2])
        except ValueError as exc:
            raise DataError(f"{path}: line {line_no}: {exc}") from None
        if not np.isfinite(x).all():
            raise DataError(f"{path}: line {line_no}: non-finite feature in {row[:d]}")
        feats[tag].append(x)
        if labels[tag] and (labels[tag][0] is None) != (label is None):
            raise DataError(f"{path}: line {line_no}: {tag} rows must be all "
                            f"labelled or all unlabelled")
        labels[tag].append(label)
    out = []
    for tag in ("source", "target"):
        x = np.asarray(feats[tag], dtype=np.float64).reshape(len(feats[tag]), d)
        lab = labels[tag]
        y = None if (not lab or lab[0] is None) else np.asarray(lab, dtype=np.int64)
        out.append(Dataset(x, y))
    return tuple(out)
