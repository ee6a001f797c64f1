"""Deterministic RNG derivation.

Every stochastic step in the package draws from a generator derived here.
Derivation is hierarchical: a root seed plus a tuple of integer/str tags
maps to a child ``numpy.random.Generator`` via ``SeedSequence``, so the
stream consumed by one stage never depends on how many draws an earlier
stage happened to make.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["check_seed", "derive_seed", "make_rng"]


def check_seed(seed):
    """ValueError unless ``seed`` is a non-negative int (no bool)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


# Stable tag -> integer mapping so string tags hash identically across
# processes (the builtin hash() is salted per-process).
def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag)
    if isinstance(tag, str):
        return _fnv1a(tag)
    raise TypeError(f"seed tags must be int or str, got {type(tag).__name__}")


# The package derives seeds from a few dozen literal string tags, tens of
# thousands of times per run; the bound only caps what odd callers can add.
@functools.lru_cache(maxsize=1024)
def _fnv1a(tag: str) -> int:
    """FNV-1a, 64-bit: tiny, stable, good enough for namespacing."""
    h = 0xCBF29CE484222325
    for byte in tag.encode("utf8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def derive_seed(root: int, *tags) -> int:
    """Derive a child seed from ``root`` and a tuple of tags.

    The same (root, tags) always yields the same child seed; distinct
    tag tuples yield statistically independent streams.  ``root`` must
    pass :func:`check_seed`.
    """
    check_seed(root)
    entropy = [int(root)] + [_tag_to_int(t) for t in tags]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def make_rng(root: int, *tags) -> np.random.Generator:
    """A ``numpy.random.Generator`` seeded from (root, tags)."""
    return np.random.default_rng(derive_seed(root, *tags))
