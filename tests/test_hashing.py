"""Deterministic keyed hashing."""

import pytest

from repro.mpc.hashing import (
    encode_key,
    hash_to_bucket,
    hash_to_unit,
    stable_hash,
    stable_hash_encoded,
)


def test_determinism_across_calls():
    assert stable_hash(("a", 1, 2.5)) == stable_hash(("a", 1, 2.5))
    assert stable_hash("x", salt=3) == stable_hash("x", salt=3)


#: (value, stable_hash(value, 0), stable_hash(value, 3)) as the isinstance-
#: chain encoder of PR 18 computed them: every route, load and KMV unit in
#: the repository's pinned numbers descends from these bytes.
GOLDEN_HASHES = [
    ("x", 0xB6EBA743204B0A10, 0xF60845FECA2E5082),
    (0, 0x038225C361C3845A, 0x38C0F94AF3133122),
    (-1, 0xF8D260E277B1F82E, 0x7D9E4F07B4BE379D),
    (255, 0x3E3180074A705D5A, 0xFB1FFC7BB7049E36),
    (256, 0x1E99F41F7C061D20, 0xE148E1A12C3991BF),
    (2**70, 0xC8FD997CF360DC0F, 0x4A4DEDE026E7CC82),
    (-2**70, 0xF41EF780C27E96B3, 0xEBA5F78C11F4E7C6),
    (1.0, 0xC916CF7AE43260EF, 0xA08047B04D11796B),
    (-0.0, 0xDF2846740BA9FE5F, 0x98F5A557A69D6EDD),
    (True, 0x658C9D8DA91BC37D, 0xD09DCF83AE803EB4),
    (None, 0xFF516EA246EEA25A, 0x9C5B5EC8D19FE04A),
    (b"y", 0xD5B8963569653824, 0x9204A51E2C47098C),
    ((), 0x030588A0E86FA4C6, 0x1898AE05B74084F4),
    (("a", 1, 2.5), 0x6B025A16081C91D6, 0xBFCF6E736EE4423A),
    (((1, 2), (3,)), 0x8314C4FD5B932FE3, 0x108E81DAF7B8FA88),
    (frozenset({1, 2}), 0x0011DA46B25A71F3, 0x6677396FA7542A9F),
    (tuple(range(20)), 0x60B0F06089708217, 0x24E34B72119CC647),
]


@pytest.mark.parametrize("value,salt0,salt3", GOLDEN_HASHES,
                         ids=[repr(row[0])[:24] for row in GOLDEN_HASHES])
def test_golden_hashes(value, salt0, salt3):
    assert (stable_hash(value), stable_hash(value, salt=3)) == (salt0, salt3)
    # The batched entry point the codec and the sketches use agrees.
    assert stable_hash_encoded([encode_key(value)] * 2, 3) == [salt3, salt3]


def test_salts_behave_as_independent_functions():
    values = [stable_hash(i, salt=0) for i in range(100)]
    other = [stable_hash(i, salt=1) for i in range(100)]
    assert values != other


def test_type_discrimination():
    # Values that collide under naive str() must hash differently.
    assert stable_hash(1) != stable_hash("1")
    assert stable_hash(1) != stable_hash(1.0)
    assert stable_hash((1, 2)) != stable_hash((12,))
    assert stable_hash(("a", "bc")) != stable_hash(("ab", "c"))
    assert stable_hash(True) != stable_hash(1)
    assert stable_hash(None) != stable_hash(0)


def test_nested_tuples_and_frozensets():
    assert stable_hash(((1, 2), (3,))) == stable_hash(((1, 2), (3,)))
    assert stable_hash(frozenset({1, 2})) == stable_hash(frozenset({2, 1}))
    assert stable_hash(frozenset({1})) != stable_hash(frozenset({2}))


def test_unit_interval():
    for i in range(200):
        u = hash_to_unit(i)
        assert 0.0 <= u < 1.0


def test_bucket_range_and_rough_uniformity():
    buckets = 8
    counts = [0] * buckets
    for i in range(4000):
        b = hash_to_bucket(i, buckets)
        assert 0 <= b < buckets
        counts[b] += 1
    assert min(counts) > 4000 / buckets * 0.7
    assert max(counts) < 4000 / buckets * 1.3


def test_bucket_requires_positive_count():
    with pytest.raises(ValueError):
        hash_to_bucket("x", 0)


def test_unhashable_type_raises():
    with pytest.raises(TypeError):
        stable_hash([1, 2, 3])  # lists are not canonical keys
