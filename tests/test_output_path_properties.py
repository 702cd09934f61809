"""Property tests for the output path in code columns: the codec's row
hash, the column-keyed reduce-by-key, the local joins' batch partials and
the union that keeps them arrays.

The oracles are what each sits beside — ``stable_hash`` of the built tuple,
the item ``reduce_by_key`` / the tuple join kernels on a ``pytuple`` cluster
— and the contract is identity: digests, result parts, serialized
:class:`~repro.mpc.stats.CostReport` and trace stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import kernels
from repro.backends.batch import ColumnarBatch
from repro.backends.columnar import ValueCodec, encode_annotations
from repro.core.matmul_worst_case import matmul_worst_case
from repro.core.two_way_join import (
    JoinLayout,
    join_aggregate_pair,
    join_tasked,
    local_join_aggregate,
    local_join_partials,
)
from repro.data.relation import ColumnKey, DistRelation, annotation_of
from repro.mpc import MPCCluster
from repro.mpc.columnar import ColumnarData
from repro.mpc.distributed import Distributed
from repro.mpc.hashing import stable_hash
from repro.primitives import reduce_by_key
from repro.semiring.standard import COUNTING

from .test_planted_round_properties import _PROFILES
from .test_sketch_search_properties import _observed, _parts


# -- row hash ≡ stable_hash of the built tuple ----------------------------------

_LEAVES = st.one_of(
    st.integers(-3, 3), st.integers(-(2**70), 2**70), st.text(max_size=3),
    st.none(), st.binary(max_size=2),
)
_VALUES = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=5
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=6, unique_by=repr),
       st.sampled_from([0, 1, 2, 3, 4, 16, 19]), st.data())
@example([("a", 0, 2), (25, 5), None, ""], 2, None)
def test_row_hashes_equal_stable_hash_of_the_tuple(domain, width, data):
    codec = ValueCodec()
    codec.encode_many(["unrelated", ("never", "in", "a", "key", "column")])
    codes = codec.encode_many(domain)
    picks = st.lists(st.integers(0, len(domain) - 1), min_size=width, max_size=width)
    rows = [] if data is None else data.draw(st.lists(picks, max_size=8))
    rows += rows[:2]  # repeated rows hash alike, nothing is memoized per row
    columns = [codes[np.asarray([row[j] for row in rows], dtype=np.int64)]
               for j in range(width)]
    for salt in (0, 7):
        hashed = codec.row_hashes(columns, len(rows), salt)
        assert hashed.dtype == np.uint64
        assert hashed.tolist() == [
            stable_hash(tuple(domain[i] for i in row), salt) for row in rows
        ]
    # The piece table holds codes that occurred in a key column, no others.
    used = {int(codes[i]) for row in rows for i in row}
    assert set(codec._pieces) == used


def test_row_hashes_of_no_rows_and_of_no_columns():
    codec = ValueCodec()
    codes = codec.encode_many(["x"])
    assert codec.row_hashes([codes[:0], codes[:0]], 0, 3).tolist() == []
    assert codec.row_hashes([], 2, 3).tolist() == [stable_hash((), 3)] * 2
    assert not codec._pieces


# -- column-keyed reduce-by-key ≡ item path --------------------------------------

#: Key number → the values tuple whose first ``width`` columns are the key.
_ROW_SHAPES = {
    "1-tuple": (1, lambda k: (f"k{k}", "pad")),
    "2-tuple": (2, lambda k: (f"s{k % 3}", k // 3, "pad")),
    "nested": (2, lambda k: ((f"a{k % 2}", k), None)),
    "4-tuple": (4, lambda k: (k % 2, f"s{k % 3}", k // 6, 2**70)),
    "empty": (0, lambda k: (k,)),
}


def _as_arrays(dist, profile, width=2):
    """``dist`` (item parts, ``width`` values each) as the ColumnarData a
    load or an earlier reduce-by-key would have left: one batch cut by
    server."""
    view, codec = dist.view, dist.view.cluster.codec
    items = dist.collect()
    whole = ColumnarBatch(
        tuple(codec.encode_many([item[0][j] for item in items]) for j in range(width)),
        None if profile == "distinct"
        else encode_annotations([item[1] for item in items], profile),
        len(items), "items",
    )
    return ColumnarData(view, whole, np.cumsum([0] + dist.part_sizes()).tolist(), codec)


def _column_reduced(name, shape, rows, salt=0, arrays=False):
    """Observed column-keyed ``reduce_by_key`` of per-server ``(key number,
    value)`` rows; ``arrays`` hands the columnar side a ColumnarData."""
    profile, combine, _values = _PROFILES[name]
    width, values_of = _ROW_SHAPES[shape]

    def run(view):
        dist = _parts(view, [[(values_of(k), v) for k, v in part] for part in rows])
        if arrays and view.cluster.backend == "columnar":
            dist = _as_arrays(dist, profile, len(values_of(0)))
        return reduce_by_key(dist, ColumnKey(range(width)), annotation_of,
                             combine, salt, profile=profile)

    return run


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(sorted(_PROFILES)), st.sampled_from(sorted(_ROW_SHAPES)),
       st.integers(1, 6), st.integers(0, 2), st.booleans())
def test_column_keyed_reduce_equals_item_path(data, name, shape, p, salt, arrays):
    values = _PROFILES[name][2]
    rows = data.draw(st.lists(
        st.lists(st.tuples(st.integers(0, 11), values), max_size=10), max_size=5))
    p = max(p, len(rows))
    run = _column_reduced(name, shape, rows, salt, arrays)
    columnar = _observed("columnar", p, run)
    assert columnar == _observed("pytuple", p, run)
    # Keys come back as tuples of the key's width, values beside them.
    width = _ROW_SHAPES[shape][0]
    assert all(type(key) is tuple and len(key) == width
               for part in columnar[0] for key, _value in part)


@pytest.mark.parametrize("name", sorted(_PROFILES))
@pytest.mark.parametrize("arrays", [False, True], ids=["items", "arrays"])
def test_a_key_space_that_does_not_pack_is_ranked_densely(monkeypatch, name, arrays):
    """With no room to pack even two columns the fold ranks the rows; the
    result, the report and the trace are the packed fold's and the item
    path's, and the key tuples are still never interned."""
    value = {"counting": lambda v: v + 1, "boolean": lambda v: v % 2 == 0,
             "tropical": lambda v: -0.0 if v % 2 else float(v % 5),
             "distinct": lambda v: None}[name]
    rows = [[(k % 7, value(k)) for k in range(s, 90, 3)] for s in range(3)] + [[]]
    run = _column_reduced(name, "4-tuple", rows, salt=1, arrays=arrays)
    packed = _observed("columnar", 4, run)
    monkeypatch.setattr(kernels, "_PACK_LIMIT", 2)
    assert kernels.combine_columns([np.arange(3)] * 2, 3, 3)[0] is None
    cluster = MPCCluster(4, backend="columnar")
    ranked = run(cluster.view())
    assert ranked.parts == packed[0] and cluster.report().to_dict() == packed[1]
    assert not any(type(value) is tuple for value in cluster.codec._values)
    assert packed == _observed("pytuple", 4, run)


def test_fold_rows_ranked_equals_packed_equals_the_dict_fold(monkeypatch):
    rng = np.random.default_rng(5)
    columns = [rng.integers(0, high, 400) for high in (3, 1, 50, 4)]
    values = rng.integers(-9, 9, 400)
    expected = {}
    for *row, value in zip(*columns, values.tolist()):
        expected[tuple(row)] = expected.get(tuple(row), 0) + value

    def folded(values):
        out, reduced = kernels.fold_rows(columns, values, np.add)
        keys = list(zip(*(column.tolist() for column in out)))
        return keys, None if reduced is None else reduced.tolist()

    packed = folded(values)
    assert packed == (list(expected), list(expected.values()))
    assert folded(None) == (list(expected), None)
    monkeypatch.setattr(kernels, "_PACK_LIMIT", 2)
    assert folded(values) == packed and folded(None) == (list(expected), None)
    empty, nothing = kernels.fold_rows([column[:0] for column in columns], values[:0], np.add)
    assert [column.shape for column in empty] == [(0,)] * 4 and nothing.shape == (0,)


def test_distinct_over_a_loaded_relation_ignores_its_annotations():
    from repro.data import Relation
    from repro.primitives import distinct_keys

    relation = Relation("R", ("A", "B"), [((i % 4, f"b{i % 3}"), i + 1) for i in range(12)])

    def run(view):
        loaded = DistRelation.load(view, relation, COUNTING)
        return distinct_keys(loaded.data, loaded.key_fn(("B", "A")), salt=2)

    columnar = _observed("columnar", 3, run)
    assert columnar == _observed("pytuple", 3, run)
    assert sorted(key for part in columnar[0] for key in part) == sorted(
        {(b, a) for a, b in relation.tuples})


@pytest.mark.parametrize("arrays", [False, True], ids=["items", "arrays"])
def test_oversized_partials_of_a_column_key_fold_exactly(shipped, arrays):
    big = (1 << 40) + 7
    rows = [[(0, big), (1, 5), (0, big + 1)], [(0, big - 9), (1, 3)], []]
    run = _column_reduced("tropical", "2-tuple", rows, arrays=arrays)
    columnar = _observed("columnar", 3, run)
    assert shipped == ["int64"]
    assert columnar == _observed("pytuple", 3, run)
    assert sorted(pair for part in columnar[0] for pair in part) == [
        (("s0", 0), big - 9), (("s1", 0), 3)]
    assert columnar[1]["rounds"] == 1


@pytest.mark.parametrize("name,values", [
    ("tropical", [1, 2.0]), ("tropical", [1.0, float("nan")]),
    ("counting", [1, 1 << 30]), ("boolean", [True, 1]),
], ids=["int-float-mix", "nan", "oversized", "int-as-bool"])
def test_column_key_folds_untyped_values_as_objects(shipped, name, values):
    profile, combine, _values = _PROFILES[name]

    def run(view):
        dist = _parts(view, [[(("a", 0), values[0])], [], [(("a", 0), values[1])]])
        return reduce_by_key(dist, ColumnKey((0, 1)), annotation_of, combine, 0, profile)

    columnar = _observed("columnar", 3, run)
    assert shipped == [object]
    assert repr(columnar) == repr(_observed("pytuple", 3, run))


def test_array_annotations_are_checked_like_lists():
    """An array a batch already holds is typed by ``encode_annotations``
    exactly when its ``tolist()`` would be — wrong dtype, range and NaN
    make an object column of the same values — and kept as is when it
    fits."""
    counting, boolean, tropical = (_PROFILES[n][0] for n in ("counting", "boolean", "tropical"))
    cases = [
        np.array([1, 2, -3]), np.array([1, 1 << 20]), np.array([1.5, -0.0]),
        np.array([1.0, float("nan")]), np.array([True, False]),
        np.array([], dtype=np.int64), np.array([], dtype=bool), np.array([1 << 53]),
    ]
    for profile in (counting, boolean, tropical):
        for array in cases:
            from_list = encode_annotations(array.tolist(), profile)
            from_array = encode_annotations(array, profile)
            assert from_array.ndim == 1
            assert repr(from_array.tolist()) == repr(array.tolist())
            if array.size:
                assert (from_array.dtype == object) == (from_list.dtype == object), (
                    profile.name, array)
            if from_array.dtype != object:
                assert from_array is array


# -- batch partials ≡ dict partials ----------------------------------------------

_SIDES = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(1, 5)),
                  max_size=14)


def _layouts(keep=("A", "C")):
    """The same join described on a columnar and on a pytuple cluster."""
    return [
        JoinLayout(MPCCluster(2, backend=backend).view(), COUNTING,
                   ("A", "B"), ("B", "C"), keep)
        for backend in ("columnar", "pytuple")
    ]


@settings(max_examples=200, deadline=None)
@given(_SIDES, _SIDES, st.sampled_from([("A", "C"), ("C", "A"), ("A", "B", "C"), ("C",), ()]))
def test_local_join_batch_equals_dict_partials(left, right, keep):
    left_items = [((f"a{a}", b), w) for a, b, w in left]
    right_items = [((b, (c, "c")), w) for b, c, w in right]
    arrays, tuples = _layouts(keep)
    batch, products = local_join_partials(left_items, right_items, arrays, COUNTING)
    expected, expected_products = local_join_partials(left_items, right_items, tuples, COUNTING)
    assert type(expected) is list and products == expected_products
    if products:
        assert isinstance(batch, ColumnarBatch) and batch.kind == "items"
        assert len(batch.columns) == len(keep)
        batch = batch.to_items(arrays.codec)
    assert batch == expected  # same keys, same order, same weights
    for layout in (arrays, tuples):
        assert local_join_aggregate(left_items, right_items, layout, COUNTING) == (
            dict(expected), products)


def _tasked(messages, p=3):
    def run(view):
        layout = JoinLayout(view, COUNTING, ("A", "B"), ("B", "C"), ("A", "C"))
        return join_tasked(_parts(view, messages), layout, COUNTING, salt=2)
    return run


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.tuples(
    st.sampled_from("LR"), st.integers(0, 2), st.integers(0, 3), st.integers(0, 2),
    st.sampled_from([1, 2, 3, 1 << 21])), max_size=16), max_size=3))
@example([[("L", 0, 0, 0, 1), ("R", 0, 0, 0, 1), ("L", 1, 1, 0, 1 << 21), ("R", 1, 2, 0, 1)]])
def test_join_tasked_batches_equal_dict_partials(servers):
    """Tasks whose weights fit join as arrays, the others (2²¹ is beyond
    the exact-product range) by the tuple kernel — on one server both may
    happen, and then that dataset is items, exactly the tuple backend's."""
    messages = [
        [(tag, task, ((f"a{x}", b) if tag == "L" else (b, f"c{x}"), w))
         for tag, task, x, b, w in part]
        for part in servers
    ]
    run = _tasked(messages)
    assert _observed("columnar", 3, run) == _observed("pytuple", 3, run)


def test_one_fallback_task_decays_the_servers_partials_before_the_reduce():
    fits = [("L", 0, (("a", 0), 2)), ("R", 0, ((0, "c"), 3))]
    too_big = [("L", 1, (("a", 0), 1 << 21)), ("R", 1, ((0, "d"), 1))]
    seen = []

    def spying(dist, *args, **kwargs):
        seen.append(type(dist).__name__)
        return reduce_by_key(dist, *args, **kwargs)

    import repro.core.two_way_join as module
    original = module.reduce_by_key
    module.reduce_by_key = spying
    try:
        for messages in ([fits, fits], [fits, fits + too_big]):
            run = _tasked(messages)
            assert _observed("columnar", 3, run) == _observed("pytuple", 3, run)
    finally:
        module.reduce_by_key = original
    assert seen == ["ColumnarData", "Distributed", "Distributed", "Distributed"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1, 3, 1 << 21]), st.integers(2, 5))
def test_cell_kernels_equal_the_tuple_backend(seed, heavy_weight, p):
    """``compute_cells`` (§3.1 light-light) and the fragment-replicate cell
    kernel through their callers: answers, order, products, meters, trace."""
    import random
    rng = random.Random(seed)
    r1 = [((f"a{rng.randrange(6)}", rng.randrange(4)), rng.choice([1, 2, heavy_weight]))
          for _ in range(40)]
    r2 = [((rng.randrange(4), f"c{rng.randrange(6)}"), rng.randrange(1, 4))
          for _ in range(40)]

    def relations(view):
        return (DistRelation(("A", "B"), Distributed.from_items(view, list(dict(r1).items()))),
                DistRelation(("B", "C"), Distributed.from_items(view, list(dict(r2).items()))))

    for algorithm in (
        lambda view: matmul_worst_case(*relations(view), COUNTING).data,
        lambda view: join_aggregate_pair(*relations(view), ("A", "C"), COUNTING, salt=1).data,
    ):
        assert _observed("columnar", p, algorithm) == _observed("pytuple", p, algorithm)


# -- union keeps batches of one layout ------------------------------------------

def test_union_concatenates_batches_and_decays_beside_items():
    cluster = MPCCluster(3, backend="columnar")
    view = cluster.view()
    counting, tropical = _PROFILES["counting"][0], _PROFILES["tropical"][0]
    first = _parts(view, [[(("a", 1), 2)], [], [(("b", 2), 3), (("a", 1), 4)]])
    second = _parts(view, [[], [(("c", 3), 5)], [(("d", 4), 6)]])
    floats = _parts(view, [[(("e", 5), 1.5)], [], []])
    folded = first.concat(second).parts

    arrays = Distributed.union(view, [_as_arrays(first, counting), _as_arrays(second, counting)])
    assert isinstance(arrays, ColumnarData) and arrays._decoded is None
    assert arrays.part_sizes() == [1, 1, 3] and arrays.parts == folded

    for mixed in (
        [_as_arrays(first, counting), second],             # a batch input beside items
        [first, _as_arrays(second, counting)],
    ):
        union = Distributed.union(view, mixed)
        assert type(union) is Distributed and union.parts == folded
    # An int batch beside a float one would promote: items keep both.
    union = Distributed.union(view, [_as_arrays(first, counting), _as_arrays(floats, tropical)])
    assert type(union) is Distributed
    assert union.parts == first.concat(floats).parts
    assert [type(item[1]) for part in union.parts for item in part] == [int, float, int, int]
    empty = Distributed.union(view, [])
    assert type(empty) is Distributed and empty.parts == [[], [], []]
