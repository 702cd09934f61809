"""Property tests for the three primitives of a planted round: the key
encoder behind every stable hash, the whole-batch reduce-by-key, and the
rank-ordered array multi-search.

The oracles are what each replaced or sits beside — the ``isinstance``
chain the encoder was (copied here verbatim), the item ``reduce_by_key``
and :func:`multi_search_reference` on a ``pytuple`` cluster — and the
contract is identity: bytes, result parts, serialized
:class:`~repro.mpc.stats.CostReport` and trace stream.
"""

from __future__ import annotations

import enum
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends.columnar import profile_of
from repro.mpc import MPCCluster, hashing
from repro.primitives import anti_semijoin, attach_by_key, reduce_by_key, semijoin
from repro.primitives.multi_search import multi_search_items, multi_search_rows
from repro.semiring.standard import BOOLEAN, COUNTING, TROPICAL_MIN_PLUS

from .test_sketch_search_properties import _observed, _parts


# -- _encode ≡ the isinstance chain it replaced ---------------------------------

def _chain_encode(value):
    """``repro.mpc.hashing._encode`` as of PR 18, verbatim."""
    if isinstance(value, bool):
        return b"b" + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        return b"i" + value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
    if isinstance(value, float):
        return b"f" + struct.pack(">d", value)
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, bytes):
        return b"y" + value
    if value is None:
        return b"n"
    if isinstance(value, tuple):
        parts = [b"t", len(value).to_bytes(4, "big")]
        for element in value:
            encoded = _chain_encode(element)
            parts.append(len(encoded).to_bytes(4, "big"))
            parts.append(encoded)
        return b"".join(parts)
    if isinstance(value, frozenset):
        encoded_elements = sorted(_chain_encode(element) for element in value)
        parts = [b"F", len(encoded_elements).to_bytes(4, "big")]
        for encoded in encoded_elements:
            parts.append(len(encoded).to_bytes(4, "big"))
            parts.append(encoded)
        return b"".join(parts)
    raise TypeError(f"unhashable key type for stable_hash: {type(value)!r}")


class _Colour(enum.IntEnum):
    RED = 1
    BIG = 2**40


class _Tag(str):
    """A ``str`` subclass: equal to, but not exactly, a string."""


class _Pair(tuple):
    """A ``tuple`` subclass."""


#: Leaves, look-alikes on purpose: 1 / 1.0 / True / RED and 0 / 0.0 / -0.0 /
#: False are equal as dict keys and must still encode apart.
_LEAVES = st.one_of(
    st.sampled_from([0, 1, -1, 255, 256, 2**70, -2**70, 1.0, 0.0, -0.0, True, False,
                     None, _Colour.RED, _Colour.BIG, _Tag("a"), _Tag(""), "a", "",
                     "é∀🙂", b"", b"y"]),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.binary(max_size=4),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5).map(tuple),
        st.lists(inner, min_size=15, max_size=20).map(tuple),  # past the header table
        st.lists(inner, max_size=3).map(_Pair),
        st.frozensets(_LEAVES, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=6), st.sampled_from([1, 3, 1 << 16]))
@example([(True, 1, 1.0, _Colour.RED), (1.0, 1, True), (0, False, -0.0, 0.0)], 1 << 16)
@example([tuple(range(40)), tuple(str(i) for i in range(17))], 3)
def test_encode_equals_the_isinstance_chain(values, memo_limit):
    """Whatever the leaf memo holds or forgets: driven past a bound of 1 or
    3 entries it is emptied mid-tuple, over and over."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hashing, "_LEAF_MEMO_LIMIT", memo_limit)
        patch.setattr(hashing, "_LEAVES", {})
        for _ in range(2):  # cold, then with whatever the memo kept
            for value in values:
                assert hashing._encode(value) == _chain_encode(value)
                assert len(hashing._LEAVES) <= memo_limit
        assert all(type(leaf) in (int, str) for leaf in hashing._LEAVES)


def test_encode_rejects_what_the_chain_rejects():
    for value in ([1], {1: 2}, (1, [2]), 1j, object()):
        with pytest.raises(TypeError):
            hashing._encode(value)


# -- whole-batch reduce-by-key ≡ item path --------------------------------------

#: name -> (profile, the combiner it declares, a strategy for annotations).
#: ±0.0 compare equal, which is all the contract (and `==` on the parts)
#: asks of them.
_PROFILES = {
    "counting": (profile_of(COUNTING), lambda a, b: a + b, st.integers(-50, 50)),
    "boolean": (profile_of(BOOLEAN), lambda a, b: a or b, st.booleans()),
    "tropical": (profile_of(TROPICAL_MIN_PLUS), min,
                 st.sampled_from([0.0, -0.0, 1.5, -2.5, 1e300, float("inf")])),
    "distinct": ("distinct", lambda a, _b: a, st.none()),
}


def _reduced(name, key_of, rows, p, salt=0):
    """Observed ``reduce_by_key`` of per-server ``(key number, value)`` rows."""
    profile, combine, _values = _PROFILES[name]

    def run(view):
        dist = _parts(view, [[(key_of(k), v) for k, v in part] for part in rows])
        return reduce_by_key(dist, lambda row: row[0], lambda row: row[1],
                             combine, salt, profile=profile)

    return run


_KEY_SHAPES = {
    "int": lambda k: k,
    "str": lambda k: f"k{k}",
    "tuple": lambda k: (f"s{k % 3}", k // 3),
}


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(["counting", "boolean", "tropical", "distinct"]),
       st.sampled_from(sorted(_KEY_SHAPES)), st.integers(1, 6), st.integers(0, 2))
def test_whole_batch_reduce_equals_item_path(data, name, shape, p, salt):
    values = _PROFILES[name][2]
    rows = data.draw(st.lists(
        st.lists(st.tuples(st.integers(0, 7), values), max_size=10), max_size=5))
    p = max(p, len(rows))
    run = _reduced(name, _KEY_SHAPES[shape], rows, p, salt)
    assert _observed("columnar", p, run) == _observed("pytuple", p, run)


@pytest.mark.parametrize("name", ["counting", "boolean", "tropical", "distinct"])
@pytest.mark.parametrize("rows,p", [
    ([[(3, 0)], [(3, 1)], [(3, 2)], [(3, 3)]], 4),                 # one key on every server
    ([[], [(1, 0), (2, 1), (1, 2)], [], [(2, 3)]], 5),             # empty servers
    ([[(5, 0), (6, 1)]], 6),                                       # p > rows
    ([], 3),                                                       # nothing at all
    ([[(k % 9, k) for k in range(s, 1500, 3)] for s in range(3)], 3),  # the bincount fold
], ids=["one-key-everywhere", "empty-servers", "p-over-rows", "empty", "large"])
def test_whole_batch_reduce_corner_shapes(name, rows, p):
    value = {"counting": lambda v: v + 1, "boolean": lambda v: v % 2 == 0,
             "tropical": lambda v: -0.0 if v % 2 else float(v % 5),
             "distinct": lambda v: None}[name]
    rows = [[(k, value(v)) for k, v in part] for part in rows]
    run = _reduced(name, _KEY_SHAPES["str"], rows, p)
    assert _observed("columnar", p, run) == _observed("pytuple", p, run)


def test_oversized_partials_fold_exactly_through_one_exchange(shipped):
    """Int partials far beyond the counting range are exact under a
    "number" profile's min: they fold as an int64 column in both stages,
    through the one exchange the item path makes."""
    big = (1 << 40) + 7
    rows = [[(0, big), (1, 5), (0, big + 1)], [(0, big - 9), (1, 3)], []]

    def run(view):
        dist = _parts(view, rows)
        return reduce_by_key(dist, lambda row: row[0], lambda row: row[1], min,
                             profile=_PROFILES["tropical"][0])

    columnar = _observed("columnar", 3, run)
    assert shipped == ["int64"]
    assert columnar == _observed("pytuple", 3, run)
    assert sorted(pair for part in columnar[0] for pair in part) == [(0, big - 9), (1, 3)]
    assert columnar[1]["rounds"] == 1


@pytest.mark.parametrize("name,values", [
    ("tropical", [1, 2.0]),                 # int beside float: would promote
    ("tropical", [1.0, float("nan")]),      # NaN makes min order-sensitive
    ("counting", [1, 1 << 30]),             # beyond the exact-sum range
    ("counting", [1, 2.5]),                 # not an int at all
    ("boolean", [True, 1]),
], ids=["int-float-mix", "nan", "oversized", "non-int", "int-as-bool"])
def test_untyped_values_fold_as_one_object_column(shipped, name, values):
    """Values the profile cannot type exactly are one object column for all
    servers, folded by ``combine``: the ⊕ partials ship as one object
    batch, and the call is the item path's (repr: NaN != NaN)."""
    profile, combine, _values = _PROFILES[name]

    def run(view):
        # The two values sit on different servers: each part alone would type.
        dist = _parts(view, [[("a", values[0])], [], [("a", values[1])]])
        return reduce_by_key(dist, lambda row: row[0], lambda row: row[1], combine, 0, profile)

    columnar = _observed("columnar", 3, run)
    assert shipped == [object]
    assert repr(columnar) == repr(_observed("pytuple", 3, run))


# -- ranked multi-search ≡ item path --------------------------------------------

#: Key number → key.  "k10" < "k2" and ("s0", 3) < ("s1", 0): rank order is
#: Python's order, not the numbers'.
_RANKED_SHAPES = {
    "str": lambda k: f"k{k}",
    "str-1-tuple": lambda k: (f"k{k}",),
    "2-tuple": lambda k: (f"s{k % 3}", k // 3),
    "3-tuple": lambda k: (k % 2, f"s{k}", 2**70 * (k - 4)),
    "nested": lambda k: ((f"a{k % 3}", k),),
}

_KEY_PARTS = st.lists(st.lists(st.integers(0, 11), max_size=12), max_size=4)

_CALLS = {
    "multi_search_items": lambda q, r: multi_search_items(
        q, r, lambda item: item[0], lambda pair: pair[0]),
    "attach_by_key": lambda q, r: attach_by_key(
        q, r, lambda item: item[0], default="none"),
    "semijoin": lambda q, r: semijoin(
        q, r, lambda item: item[0], lambda pair: pair[0]),
    "anti_semijoin": lambda q, r: anti_semijoin(
        q, r, lambda item: item[0], lambda pair: pair[0]),
}


@settings(max_examples=200, deadline=None)
@given(_KEY_PARTS, _KEY_PARTS, st.integers(1, 6), st.sampled_from(sorted(_CALLS)),
       st.sampled_from(sorted(_RANKED_SHAPES)))
# every query below every reference: no predecessor anywhere
@example([[0, 0, 1]], [[5, 6]], 3, "multi_search_items", "2-tuple")
# references-only and queries-only servers; one heavy key
@example([[], [3] * 12], [[3, 3, 2], []], 2, "attach_by_key", "str")
@example([[10, 2]], [[10], [2]], 3, "semijoin", "str")
@example([[1]], [[1]], 6, "anti_semijoin", "nested")
def test_ranked_search_equals_item_path(query_parts, reference_parts, p, call, shape):
    p = max(p, len(query_parts), len(reference_parts))
    key_of = _RANKED_SHAPES[shape]

    def run(view):
        queries = _parts(view, [[(key_of(k), ("q", s, i)) for i, k in enumerate(part)]
                                for s, part in enumerate(query_parts)])
        references = _parts(view, [[(key_of(k), ("r", s, i)) for i, k in enumerate(part)]
                                   for s, part in enumerate(reference_parts)])
        return _CALLS[call](queries, references)

    assert _observed("columnar", p, run) == _observed("pytuple", p, run)


@pytest.mark.parametrize("shape", sorted(_RANKED_SHAPES))
def test_ranked_shapes_do_take_the_array_path(shape):
    """The property above would hold vacuously if a shape were refused."""
    view = MPCCluster(3, backend="columnar").view()
    keys = [_RANKED_SHAPES[shape](k) for k in (10, 2, 2, 7)]
    dist = _parts(view, [keys[:2], keys[2:]])
    assert multi_search_rows(dist, dist, lambda k: k, lambda k: k) is not None
