"""Seed derivation is pinned: a change to it would change every output file."""

import pytest

from acda.seeding import derive_seed

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
