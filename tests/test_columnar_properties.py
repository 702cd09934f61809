"""Property tests for the columnar representation and its kernels.

Hypothesis-style but dependency-free: a seeded generator produces many
random (and adversarial) inputs per property, and every kernel is checked
against a naive oracle written the obvious way.  The adversarial corners
are the ones the codec and batch layers are most likely to get wrong —
empty relations, single tuples, int64 boundary values, and duplicate-heavy
columns where interning and grouping actually collapse.
"""

from __future__ import annotations

import random

import pytest

from repro.backends.dispatch import HAS_NUMPY

pytestmark = pytest.mark.skipif(not HAS_NUMPY, reason="numpy unavailable")

if HAS_NUMPY:
    import numpy as np

    from repro.backends.batch import ColumnarBatch
    from repro.backends.columnar import ValueCodec, interns_exactly
    from repro.backends.kernels import (
        first_occurrence_unique,
        group_reduce,
        hash_join,
    )

#: int64 edges, zero, ±1, and values straddling the codec's exactness caps.
BOUNDARY_INTS = [
    0, 1, -1, 2**31 - 1, -(2**31), 2**62 - 1, -(2**62) + 1, 2**63 - 1, -(2**63),
]


def _value_pool(rng: random.Random):
    """A mixed pool of encodable values, duplicate-heavy by construction."""
    pool = [
        rng.randint(-5, 5),
        rng.choice(BOUNDARY_INTS),
        float(rng.randint(-3, 3)) / 2.0,
        f"s{rng.randint(0, 4)}",
        ("a", rng.randint(0, 3)),
        (rng.randint(0, 2), ("nested", rng.randint(0, 2))),
        None,
        rng.random() < 0.5,
    ]
    return pool


def test_codec_round_trip_adversarial():
    """encode_many ∘ decode_many is the identity (object equality), and
    equal values always intern to equal codes."""
    rng = random.Random(0x0DEC)
    for trial in range(50):
        codec = ValueCodec()
        if trial == 0:
            values = []  # empty relation
        elif trial == 1:
            values = [rng.choice(BOUNDARY_INTS)]  # single tuple
        else:
            pool = _value_pool(rng)
            values = [rng.choice(pool) for _ in range(rng.randint(2, 200))]
        codes = codec.encode_many(values)
        assert codes.dtype == np.int64
        assert codec.decode_many(codes) == values
        # Interning follows dict-key semantics (True == 1 == 1.0 collapse,
        # exactly as Relation.tuples keys do): equal values share a code,
        # distinct values never do.
        again = codec.encode_many(values)
        assert np.array_equal(codes, again)
        by_value = {}
        for value, code in zip(values, codes.tolist()):
            assert by_value.setdefault(value, code) == code
        assert len({code for code in codes.tolist()}) == len(by_value)


def test_interns_exactly_admits_only_self_equal_types():
    """Exact int/str/bytes/None leaves at any depth pass; anything equal to
    a value of another type — or able to be — does not."""
    import enum

    class Colour(enum.IntEnum):
        RED = 1

    assert interns_exactly([])
    assert interns_exactly([(1, "a"), (b"y", None), ((2, ("x",)), frozenset({3, "z"}))])
    for lookalike in (1.0, True, -0.0, Colour.RED, float("nan")):
        assert not interns_exactly([(1, "a"), (lookalike, "b")])
        assert not interns_exactly([(0, ((lookalike,),))])
        assert not interns_exactly([("a", frozenset({lookalike}))])


def test_batch_take_slice_concat_round_trip():
    """Row operations on batches commute with ``to_items``."""
    rng = random.Random(0xBA7C)
    codec = ValueCodec()
    for _ in range(30):
        n = rng.randint(0, 40)
        items = [
            ((rng.randint(0, 5), f"v{rng.randint(0, 3)}"), rng.randint(1, 9))
            for _ in range(n)
        ]
        columns = tuple(
            codec.encode_many([item[0][j] for item in items]) for j in range(2)
        )
        annotations = np.asarray([item[1] for item in items], dtype=np.int64)
        batch = ColumnarBatch(columns, annotations, n, "items")
        assert batch.to_items(codec) == items
        if n:
            picks = np.asarray(
                [rng.randrange(n) for _ in range(rng.randint(1, 2 * n))],
                dtype=np.int64,
            )
            assert batch.take(picks).to_items(codec) == [items[i] for i in picks]
            lo = rng.randint(0, n)
            hi = rng.randint(lo, n)
            assert batch.slice(lo, hi).to_items(codec) == items[lo:hi]
        halves = ColumnarBatch.concat(
            [batch.slice(0, n // 2), None, batch.slice(n // 2, n)]
        )
        assert halves is not None and halves.to_items(codec) == items


def test_group_reduce_matches_dict_fold_oracle():
    """group_reduce ≡ the obvious dict fold: same keys, same order, same
    sums — across duplicate-heavy, all-equal, and all-distinct id columns."""
    rng = random.Random(0x6F01)
    for trial in range(60):
        n = rng.choice([0, 1, 2, 7, 50, 1500])
        spread = rng.choice([1, 2, 5, n or 1])  # 1 => every id equal
        ids = np.asarray([rng.randrange(spread) for _ in range(n)], dtype=np.int64)
        values = np.asarray([rng.randint(-4, 9) for _ in range(n)], dtype=np.int64)
        unique_ids, reduced = group_reduce(ids, values, np.add)
        oracle: dict = {}
        for i, v in zip(ids.tolist(), values.tolist()):
            oracle[i] = oracle[i] + v if i in oracle else v
        assert unique_ids.tolist() == list(oracle)
        assert reduced.tolist() == list(oracle.values())
        assert first_occurrence_unique(ids).tolist() == list(dict.fromkeys(ids.tolist()))


def test_hash_join_matches_nested_loop_oracle():
    """hash_join emits exactly the nested-loop product stream, in the tuple
    kernels' probe-major order, for both orientations."""
    rng = random.Random(0x70C5)
    for _ in range(40):
        nl = rng.choice([0, 1, 3, 30])
        nr = rng.choice([0, 1, 4, 25])
        domain = rng.choice([1, 2, 4, 8])
        left = np.asarray([rng.randrange(domain) for _ in range(nl)], dtype=np.int64)
        right = np.asarray([rng.randrange(domain) for _ in range(nr)], dtype=np.int64)

        li, ri = hash_join(left, right, outer="right")
        oracle = [
            (i, j)
            for j in range(nr)
            for i in range(nl)
            if left[i] == right[j]
        ]
        assert list(zip(li.tolist(), ri.tolist())) == oracle

        li, ri = hash_join(left, right, outer="left")
        mirrored = [
            (i, j)
            for i in range(nl)
            for j in range(nr)
            if left[i] == right[j]
        ]
        assert list(zip(li.tolist(), ri.tolist())) == mirrored
