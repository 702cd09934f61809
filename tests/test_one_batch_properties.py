"""Property tests for one batch per dataset: a ``ColumnarData`` is one
``ColumnarBatch`` plus server cuts, ``exchange_batches`` moves one batch in
one sort, and the steps built on them — union, the §5/§7 reshapes, the
semijoins, the multi-search — stay in code columns.

The oracles are the item paths each sits beside — ``ClusterView.exchange``,
the item union, the tuple reshapes, the semijoin and multi-search over item
lists — and the contract is identity: result parts, serialized
:class:`~repro.mpc.stats.CostReport` and trace stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends.batch import ColumnarBatch
from repro.core import tree
from repro.core.star import unpack_pairs
from repro.data import DistRelation, Relation
from repro.data.relation import ColumnKey
from repro.errors import RoutingError
from repro.mpc import Distributed, MPCCluster
from repro.mpc.columnar import ColumnarData, assemble
from repro.obs import RingBufferSink, Tracer, event_to_dict
from repro.primitives import anti_semijoin, semijoin
from repro.primitives.multi_search import multi_search_rows
from repro.semiring.standard import COUNTING

from .test_output_path_properties import _as_arrays
from .test_planted_round_properties import _PROFILES
from .test_sketch_search_properties import _observed, _parts

_COUNTING = _PROFILES["counting"][0]


# -- exchange_batches ≡ exchange -------------------------------------------------

#: Per source server, ``(destination, value, annotation)`` rows.
_OUTBOXES = st.lists(st.lists(st.tuples(
    st.integers(0, 7), st.sampled_from(["a", "b", 3, ("t", 1), None]), st.integers(-5, 5),
), max_size=8), max_size=6)


@settings(max_examples=200, deadline=None)
@given(_OUTBOXES, st.integers(1, 6))
@example([], 3)                                            # nothing sent at all
@example([[], [], []], 3)                                  # every source empty
@example([[], [(2, "a", 1), (0, "b", 2), (2, 3, 3)]], 3)   # one source
@example([[(0, "a", 1)], [(0, "b", 2), (0, 3, 3)]], 1)     # p = 1
def test_exchange_batches_equals_item_exchange(outboxes, p):
    p = max(p, len(outboxes))
    outboxes = [[(dest % p, value, ann) for dest, value, ann in box] for box in outboxes]
    outboxes += [[] for _ in range(p - len(outboxes))]

    def run(view):
        if view.cluster.backend == "pytuple":
            return Distributed(view, view.exchange(
                [[(dest, ((value,), ann)) for dest, value, ann in box] for box in outboxes]))
        codec = view.cluster.codec
        rows = [row for box in outboxes for row in box]  # source-server order
        batch = ColumnarBatch(
            (codec.encode_many([value for _, value, _ in rows]),),
            np.asarray([ann for *_, ann in rows], dtype=np.int64), len(rows))
        dests = np.asarray([dest for dest, *_ in rows], dtype=np.int64)
        delivered, cuts = view.exchange_batches(dests, batch)
        assert len(cuts) == p + 1 and cuts[0] == 0 and cuts[-1] == len(rows)
        return ColumnarData(view, delivered, cuts, codec)

    assert _observed("columnar", p, run) == _observed("pytuple", p, run)


@pytest.mark.parametrize("dests,size", [
    ([0, 3], 2), ([-1, 0], 2), ([0], 2), ([0, 1, 2], 2),
], ids=["beyond-view", "negative", "too-few", "too-many"])
def test_exchange_batches_refuses_before_any_charge(dests, size):
    sink = RingBufferSink()
    cluster = MPCCluster(3, backend="columnar", tracer=Tracer((sink,)))
    view = cluster.view()
    batch = ColumnarBatch((np.arange(size, dtype=np.int64),), None, size)
    with pytest.raises(RoutingError):
        view.exchange_batches(np.asarray(dests, dtype=np.int64), batch)
    report = cluster.report()
    assert (report.rounds, report.total_communication, report.max_load) == (0, 0, 0)
    assert view.round == 0 and not sink.events


# -- union of one-batch inputs ≡ item union --------------------------------------

#: Datasets as (kind, per-server (key number, weight) rows): "counting" and
#: "tropical" become one-batch inputs of two annotation dtypes (int,
#: float), "items" stays item lists.
_DATASETS = st.lists(st.tuples(
    st.sampled_from(["counting", "tropical", "items"]),
    st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4)), max_size=4),
             max_size=4),
), max_size=4)


@settings(max_examples=200, deadline=None)
@given(_DATASETS, st.integers(1, 5))
@example([], 3)                                                    # no input
@example([("counting", [])], 2)                                    # one empty input
@example([("counting", [[(1, 2)], [], [(3, 4)]])], 3)              # one input
@example([("counting", [[(1, 2)]]), ("tropical", [])], 2)          # empty other layout
@example([("counting", [[], [(1, 2)]]), ("counting", [[(0, 1)], [(2, 3)]])], 2)
def test_union_of_one_batch_inputs_equals_item_union(datasets, p):
    p = max([p] + [len(parts) for _, parts in datasets])
    cluster = MPCCluster(p, backend="columnar")
    view = cluster.view()

    def build(arrays):
        built = []
        for kind, parts in datasets:
            number = float if kind == "tropical" else int
            dist = _parts(view, [[((f"k{k}", k), number(w)) for k, w in part]
                                 for part in parts])
            if arrays and kind != "items":
                dist = _as_arrays(dist, _PROFILES[kind][0])
            built.append(dist)
        return built

    united = Distributed.union(view, build(arrays=True))
    expected = Distributed.union(view, build(arrays=False))
    assert united.parts == expected.parts
    assert [type(item[1]) for item in united.collect()] == [
        type(item[1]) for item in expected.collect()]
    held = {kind for kind, parts in datasets if any(parts)}
    kinds = {kind for kind, _ in datasets}
    # Typed columns of different dtypes unite as one object column.
    assert isinstance(united, ColumnarData) == (bool(held) and "items" not in kinds)
    assert cluster.report().total_communication == 0


def test_union_refuses_another_clusters_batch_and_keeps_its_own():
    view = MPCCluster(2, backend="columnar").view()
    other = MPCCluster(2, backend="columnar").view()  # same servers, own codec
    foreign = _as_arrays(_parts(other, [[(("a", 1), 1)], [(("b", 2), 2)]]), _COUNTING)
    local = _as_arrays(_parts(view, [[(("c", 3), 3)]]), _COUNTING)
    for inputs in ([foreign], [local, foreign]):
        with pytest.raises(RoutingError):
            Distributed.union(view, inputs)
    united = Distributed.union(view, [local, local])
    assert isinstance(united, ColumnarData) and united.view is view
    assert united.parts == [[(("c", 3), 3)] * 2, []]


def test_assemble_cuts_around_empty_servers():
    cluster = MPCCluster(4, backend="columnar")
    view, codec = cluster.view(), cluster.codec

    def batch(keys):
        return ColumnarBatch((codec.encode_many(keys),), np.arange(len(keys)), len(keys))

    data = assemble(view, [[batch(["a"]), batch([])], [], [batch(["b", "c"]), batch(["d"])],
                           [batch([])]])
    assert isinstance(data, ColumnarData) and data.cuts == [0, 1, 1, 4, 4]
    assert data.part_sizes() == [1, 0, 3, 0] and data._decoded is None
    assert data.parts == [[(("a",), 0)], [], [(("b",), 0), (("c",), 1), (("d",), 0)], []]
    nothing = assemble(view, [[batch([])], [], [], []])
    assert type(nothing) is Distributed and nothing.parts == [[], [], [], []]


# -- the §5/§7 reshapes ≡ the item reshapes --------------------------------------

_PRODUCT_ROWS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 3)),
                         max_size=12)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), _PRODUCT_ROWS, st.integers(1, 5),
       st.booleans())
@example(1, 1, [(0, 1, 2), (1, 1, 1)], 3, False)   # one-arm sides: 1-tuples
@example(2, 1, [], 2, True)                        # an empty product
def test_unpack_pairs_equals_the_item_reshape(left_width, right_width, rows, p, flip):
    left_attrs = tuple(f"L{i}" for i in range(left_width))
    right_attrs = tuple(f"R{i}" for i in range(right_width))
    out_order = tuple(sorted(left_attrs + right_attrs, reverse=flip))
    relation = Relation("P", ("__odd", "__even"), list({
        (tuple(f"a{x + i}" for i in range(left_width)),
         tuple(y * i for i in range(right_width))): w
        for x, y, w in rows
    }.items()))
    inputs = []

    def run(view):
        product = DistRelation.load(view, relation, COUNTING)
        inputs.append(product.data)
        return unpack_pairs(product, left_attrs, right_attrs, out_order)

    assert _observed("columnar", p, run) == _observed("pytuple", p, run)
    arrays = inputs[0]  # the columnar run's product: never decoded
    assert isinstance(arrays, ColumnarData) and arrays._decoded is None


def _nested_context():
    """A context with a depth-2 expansion ``A = (E, B)``, ``B = (C, D)``
    and a one-component one ``X = (G,)``."""
    ctx = tree._Context(semiring=COUNTING, salt=3)
    inner = ctx.fresh_comb("B", ("C", "D"))
    outer = ctx.fresh_comb("A", ("E", inner))
    single = ctx.fresh_comb("X", ("G",))
    return ctx, outer, single


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2),
                          st.integers(0, 3), st.integers(1, 4)), max_size=14),
       st.integers(1, 5))
@example([], 3)                                    # nothing to expand
@example([(1, 1, 1, 0, 2), (1, 1, 1, 1, 3)], 2)    # rows that aggregate together
def test_expand_and_aggregate_equals_the_item_reshape(rows, p):
    _, outer, single = _nested_context()
    relation = Relation("T", (outer, "F", single), list({
        ((f"e{e}", (c, f"d{d}")), g % 2, (f"g{g}",)): w for e, c, d, g, w in rows
    }.items()))
    out_schema = ("C", "D", "E", "F", "G")

    def run(view):
        ctx, _, _ = _nested_context()
        return tree._expand_and_aggregate(
            DistRelation.load(view, relation, COUNTING), ctx, out_schema).data

    assert _observed("columnar", p, run) == _observed("pytuple", p, run)


# -- semijoins of a one-batch target ≡ item path --------------------------------

#: Key number → the target/source values tuple and the key's columns.
_SEMIJOIN_KEYS = {
    "int": ((0,), lambda k: (k, "pad")),
    "str": ((0,), lambda k: (f"k{k}", "pad")),
    "2-column": ((1, 0), lambda k: (f"s{k % 3}", k // 3)),
}
_KEY_PARTS = st.lists(st.lists(st.integers(0, 8), max_size=10), max_size=4)


@settings(max_examples=150, deadline=None)
@given(_KEY_PARTS, _KEY_PARTS, st.integers(1, 5), st.booleans(),
       st.sampled_from(sorted(_SEMIJOIN_KEYS)), st.booleans())
@example([[1, 1, 2], [3]], [[2]], 3, True, "str", False)
@example([[]], [], 2, False, "int", True)
@example([], [], 1, False, "2-column", False)     # empty columns of a 2-column key
def test_semijoins_of_a_one_batch_target_equal_the_item_path(
        target_parts, source_parts, p, keep, shape, source_arrays):
    p = max(p, len(target_parts), len(source_parts))
    indices, values_of = _SEMIJOIN_KEYS[shape]
    call = semijoin if keep else anti_semijoin
    targets = []

    def run(view):
        target = _parts(view, [[(values_of(k), i) for i, k in enumerate(part)]
                               for part in target_parts])
        source = _parts(view, [[(values_of(k), 1) for k in part] for part in source_parts])
        if view.cluster.backend == "columnar":
            target = _as_arrays(target, _COUNTING)
            if source_arrays:
                source = _as_arrays(source, _COUNTING)
        result = call(target, source, ColumnKey(indices), salt=1)
        targets.append((target, result))
        return result

    assert _observed("columnar", p, run) == _observed("pytuple", p, run)
    (target, result), _ = targets
    # The target's rows never left their codes: the kept ones are its batch.
    assert isinstance(result, ColumnarData) and target._decoded is None


# -- multi-search reading code columns ≡ the key-function path ------------------

#: Key number → a values tuple whose first ``width`` columns are the key.
_SEARCH_SHAPES = {
    "int": (1, lambda k: (k - 4, "pad")),
    "str": (1, lambda k: (f"k{k}", "pad")),
    "1-tuple": (1, lambda k: ((f"k{k % 5}",), k)),
    "2-tuple": (2, lambda k: (f"s{k % 3}", k // 3, "pad")),
}


def _searched(shape, query_parts, reference_parts, p, arrays):
    """Observed ``multi_search_rows`` over ColumnKey sides; ``arrays`` names
    the sides handed over as ColumnarData."""
    width, values_of = _SEARCH_SHAPES[shape]
    sink = RingBufferSink()
    cluster = MPCCluster(p, backend="columnar", tracer=Tracer((sink,)))
    view = cluster.view()
    sides = []
    for name, parts in (("queries", query_parts), ("references", reference_parts)):
        dist = _parts(view, [[(values_of(k), i) for i, k in enumerate(part)] for part in parts])
        sides.append(_as_arrays(dist, _COUNTING) if name in arrays else dist)
    rows = multi_search_rows(*sides, ColumnKey(range(width)), ColumnKey(range(width)))
    assert all(side._decoded is None for side in sides if isinstance(side, ColumnarData))
    return (None if rows is None else [field.tolist() for field in rows],
            cluster.report().to_dict(), [event_to_dict(event) for event in sink.events])


@settings(max_examples=150, deadline=None)
@given(_KEY_PARTS, _KEY_PARTS, st.integers(1, 5), st.sampled_from(sorted(_SEARCH_SHAPES)),
       st.sampled_from([("queries",), ("references",), ("queries", "references")]))
@example([[3, 3, 3], [3]], [[3], []], 2, "str", ("queries", "references"))
@example([], [], 3, "2-tuple", ("queries",))
def test_search_on_code_columns_equals_the_key_function_path(
        query_parts, reference_parts, p, shape, arrays):
    p = max(p, len(query_parts), len(reference_parts))
    columns = _searched(shape, query_parts, reference_parts, p, arrays)
    assert columns == _searched(shape, query_parts, reference_parts, p, ())
    assert columns[0] is not None


@pytest.mark.parametrize("values_of", [
    lambda k: (k if k % 2 else f"k{k}", "pad"),          # int beside str
    lambda k: ((k,) if k % 2 else (k, k), "pad"),        # ragged tuples
    lambda k: (float("nan") if k == 3 else float(k), "pad"),
    lambda k: (k % 2 == 0, "pad"),                       # bools
], ids=["int-str", "ragged", "nan", "bool"])
@pytest.mark.parametrize("arrays", [(), ("queries",), ("queries", "references")],
                         ids=["items", "queries", "both"])
def test_refused_key_shapes_cost_nothing(monkeypatch, values_of, arrays):
    monkeypatch.setitem(_SEARCH_SHAPES, "refused", (1, values_of))
    rows, report, events = _searched("refused", [[0, 1, 2], [3]], [[1, 3]], 3, arrays)
    assert rows is None and not events
    assert (report["rounds"], report["total_communication"],
            report["control_messages"]) == (0, 0, 0)
