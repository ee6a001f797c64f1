"""Seed derivation is pinned: a change to it would change every output file."""

import numpy as np
import pytest

from acda import nets
from acda.acda import random_queries
from acda.data import batch_iterator, gen_gaussian_shift_pair, gen_two_moons_pair
from acda.seeding import derive_seed, make_rng
from acda.transport import fit_critic, interpolates

# Values from the uncached FNV-1a tag hash; each case is derived twice, so
# the second call reads the tag cache.
GOLDEN = [
    ((0,), 15793235383387715774),
    ((1, "data"), 11037465631172514440),
    ((7, "eps", 3, 4, 2), 550782884319887225),
    ((2**40, "stage", 3, 1), 5052051646920547978),
    ((5, "init", "F"), 2801141365026875571),
    ((12345, "batches-cls"), 4909222967634282815),
    ((3, "", "ünï"), 3489832486913244822),
]


@pytest.mark.parametrize("args,expected", GOLDEN)
def test_derive_seed_golden_values(args, expected):
    assert derive_seed(*args) == expected
    assert derive_seed(*args) == expected


def test_derive_seed_rejects_other_tag_types():
    with pytest.raises(TypeError):
        derive_seed(1, 2.5)


_POINTS = np.arange(8.0).reshape(4, 2)
_TAKES_A_SEED = {
    "derive_seed": lambda seed: derive_seed(seed, "x"),
    "make_rng": lambda seed: make_rng(seed, "x"),
    "gen_two_moons_pair": lambda seed: gen_two_moons_pair(10, 10, 30.0, 0.1, 0.1, seed=seed),
    "gen_gaussian_shift_pair": lambda seed: gen_gaussian_shift_pair(2, 2, 2.0, 1.0, 0.0, 10, 10,
                                                                    seed=seed),
    "init_network": lambda seed: nets.init_network(nets.default_critic_spec(2), seed),
    "batch_iterator": lambda seed: list(batch_iterator(10, 3, seed, 0)),
    "interpolates": lambda seed: interpolates(_POINTS, _POINTS + 1.0, seed),
    "random_queries": lambda seed: random_queries(10, 0.2, seed),
    "fit_critic": lambda seed: fit_critic(_POINTS, _POINTS + 1.0, steps=1, seed=seed),
}


@pytest.mark.parametrize("seed,message", [
    (2.7, "seed must be an integer, got 2.7"),
    (2.0, "seed must be an integer, got 2.0"),
    (True, "seed must be an integer, got True"),
    ("3", "seed must be an integer, got '3'"),
    (-1, "seed must be non-negative, got -1"),
], ids=["float", "integral-float", "bool", "str", "negative"])
@pytest.mark.parametrize("name", sorted(_TAKES_A_SEED))
def test_every_function_that_takes_a_seed_refuses_a_bad_one(name, seed, message):
    """Seeds are checked once, on ``derive_seed``'s root, so no caller
    truncates a float, reads a bool as 1 or parses a string."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        _TAKES_A_SEED[name](seed)
    _TAKES_A_SEED[name](np.int64(3))  # a numpy integer is a seed
