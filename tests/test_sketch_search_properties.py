"""Property tests for the two whole-view array primitives: KMV sketch
propagation (``k_smallest_distinct`` and the sketch table built on it) and
the array multi-search (``sample_sort_routes`` / ``multi_search_rows``).

The oracles are the item paths themselves — a fold of :meth:`KMV.merge`
over :meth:`KMV.of`, and :func:`multi_search_reference` on a ``pytuple``
cluster — and the contract is bit-identity: sketch values, result parts,
serialized :class:`~repro.mpc.stats.CostReport` and trace stream.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import kernels
from repro.backends.columnar import ValueCodec
from repro.data import DistRelation, Relation
from repro.mpc import Distributed, Fault, FaultSchedule, MPCCluster
from repro.obs import RingBufferSink, Tracer, event_to_dict
from repro.primitives import (
    KMV,
    anti_semijoin,
    attach_by_key,
    estimate_path_out,
    semijoin,
)
from repro.primitives import kmv as kmv_module
from repro.primitives.estimate_out import _hash_order
from repro.primitives.multi_search import (
    multi_search_items,
    multi_search_reference,
    multi_search_rows,
)


# -- k smallest distinct: the fold of KMV.merge --------------------------------

def _coarse_unit(value, salt):
    """A hash with few distinct units, so different values collide on one
    unit (a rank tie) and "distinct" has to mean distinct *unit*."""
    return ((value * 7 + salt * 3) % 11) / 16.0


class _CoarseCodec(ValueCodec):
    """The cluster codec with :func:`_coarse_unit` for its unit hash."""

    def units(self, ids, salt):
        return np.asarray([_coarse_unit(value, salt) for value in self.decode_many(ids)])


@contextmanager
def _coarse_hash_and_slabs_of(cells):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kmv_module, "hash_to_unit", _coarse_unit)
        patch.setattr(kernels, "_SLAB_CELLS", cells)
        yield


def _merge_fold(rows, k, repetitions, salt):
    """``{(server, key): per-repetition KMV values}`` by folding singleton
    sketches in row order, as reduce-by-key's dict fold does."""
    folded = {}
    for server, key, value in rows:
        singles = [KMV.of([value], k, salt + r) for r in range(repetitions)]
        if (server, key) in folded:
            folded[server, key] = [
                mine.merge(new) for mine, new in zip(folded[server, key], singles)
            ]
        else:
            folded[server, key] = singles
    return {group: [sketch.values for sketch in sketches]
            for group, sketches in folded.items()}


def _kernel_fold(rows, k, repetitions, salt, two_stage, wide=False):
    """The same table through the hash order and the kernel; with
    ``two_stage`` the per-server partials are folded once more per key (the
    post-exchange stage, whose input blocks are k wide).  ``wide`` pads
    with a sentinel so large that the sort key needs 64 bits."""
    order, ranks = _hash_order(
        _CoarseCodec(), [value for _s, _k, value in rows], k, repetitions, salt
    )
    sentinel = order.sentinel
    if wide:
        sentinel, ranks = (1 << 31) - 1, ranks.astype(np.uint32)
    servers = np.asarray([server for server, _k, _v in rows], dtype=np.int64)
    keys = np.asarray([key for _s, key, _v in rows], dtype=np.int64)
    firsts, out = kernels.k_smallest_distinct(
        servers * 100 + keys, ranks[:, :, None], k, sentinel
    )
    labels = [(int(servers[row]), int(keys[row])) for row in firsts.tolist()]
    if two_stage:
        # Shuffle the partials through `rows=` to cover the indirection.
        perm = np.arange(firsts.shape[0])[::-1]
        firsts2, out = kernels.k_smallest_distinct(
            keys[firsts][perm], out, k, sentinel, perm
        )
        labels = [labels[perm[row]][1] for row in firsts2.tolist()]
    table = {}
    for label, block in zip(labels, out):
        table[label] = [
            tuple(order.units[r, held[held != sentinel]].tolist())
            for r, held in enumerate(block)
        ]
    return labels, table


_ROWS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 40)), max_size=60
)


@settings(max_examples=150, deadline=None)
@given(_ROWS, st.integers(2, 5), st.integers(1, 3),
       st.sampled_from([1, 8, 1 << 20]), st.booleans())
# exactly k and k + 1 distinct units under one key (11 units exist in all)
@example([(0, 0, v) for v in range(3)], 3, 1, 1 << 20, False)
@example([(0, 0, v) for v in range(4)], 3, 1, 1 << 20, False)
# one key on one server only, servers 1 and 2 empty, values that collide
@example([(0, 1, 5), (3, 2, 5), (3, 2, 16), (0, 1, 27)], 2, 2, 1, True)
def test_kernel_equals_merge_fold(rows, k, repetitions, slab, wide):
    rows.sort(key=lambda row: row[0])  # rows arrive server by server
    # A slab budget of 1 or 8 cells puts a boundary after every group or so.
    with _coarse_hash_and_slabs_of(slab):
        expected = _merge_fold(rows, k, repetitions, 17)
        labels, table = _kernel_fold(rows, k, repetitions, 17, False, wide)
    assert table == expected
    # First-occurrence order, server by server: the dict fold's .items().
    assert labels == list(expected)


@settings(max_examples=100, deadline=None)
@given(_ROWS, st.integers(2, 5), st.integers(1, 3), st.sampled_from([1, 64, 1 << 20]))
def test_two_stage_fold_equals_one_fold_per_key(rows, k, repetitions, slab):
    """Folding per-server partials again per key (width-k blocks, reached
    through ``rows=``) is the fold over all of the key's values."""
    rows.sort(key=lambda row: row[0])
    with _coarse_hash_and_slabs_of(slab):
        expected = _merge_fold([(0, key, value) for _s, key, value in rows],
                               k, repetitions, 5)
        _labels, table = _kernel_fold(rows, k, repetitions, 5, True)
    assert table == {key: values for (_zero, key), values in expected.items()}


def test_kernel_of_nothing_is_empty():
    firsts, out = kernels.k_smallest_distinct(
        np.empty(0, dtype=np.int64), np.empty((0, 3, 1), dtype=np.uint8), 4, 0
    )
    assert firsts.shape == (0,) and out.shape == (0, 3, 4)


# -- array multi-search ≡ item path ---------------------------------------------

def _observed(backend, p, fn):
    """``fn(view)``'s result parts with the cost report and trace stream."""
    sink = RingBufferSink()
    cluster = MPCCluster(p, backend=backend, tracer=Tracer((sink,)))
    result = fn(cluster.view())
    return (result.parts, cluster.report().to_dict(),
            [event_to_dict(event) for event in sink.events])


def _parts(view, parts):
    return Distributed(view, [list(part) for part in parts] +
                       [[] for _ in range(view.p - len(parts))])


#: Per-server key lists: few distinct keys, so duplicates are heavy.
_KEY_PARTS = st.lists(st.lists(st.integers(-2, 6), max_size=12), max_size=4)

_CALLS = {
    "multi_search_items": lambda q, r: multi_search_items(
        q, r, lambda item: item[0], lambda pair: pair[0]),
    "attach_by_key": lambda q, r: attach_by_key(
        q, r, lambda item: item[0], default="none"),
    "semijoin": lambda q, r: semijoin(
        q, r, lambda item: (item[0],), lambda pair: (pair[0],)),
    "anti_semijoin": lambda q, r: anti_semijoin(
        q, r, lambda item: (item[0],), lambda pair: (pair[0],)),
}


@settings(max_examples=120, deadline=None)
@given(_KEY_PARTS, _KEY_PARTS, st.integers(1, 6), st.sampled_from(sorted(_CALLS)))
# every query below every reference: no predecessor anywhere
@example([[0, 0, 1]], [[5, 6]], 3, "multi_search_items")
# references-only and queries-only servers; one heavy key
@example([[], [3] * 12], [[3, 3, 2], []], 2, "attach_by_key")
# p larger than the row count
@example([[1]], [[1]], 6, "semijoin")
@example([], [], 4, "multi_search_items")
def test_array_search_equals_item_path(query_parts, reference_parts, p, call):
    p = max(p, len(query_parts), len(reference_parts))

    def run(view):
        queries = _parts(view, [[(key, ("q", s, i)) for i, key in enumerate(part)]
                                for s, part in enumerate(query_parts)])
        references = _parts(view, [[(key, ("r", s, i)) for i, key in enumerate(part)]
                                   for s, part in enumerate(reference_parts)])
        return _CALLS[call](queries, references)

    assert _observed("columnar", p, run) == _observed("pytuple", p, run)


def test_array_search_orders_floats_and_negative_zero_like_python():
    keys = [0.0, -0.0, 1.5, -2.5, 0.0, 1e300, -1e300]

    def run(view):
        queries = Distributed.from_items(view, [(key, i) for i, key in enumerate(keys)])
        references = Distributed.from_items(view, [(key, -i) for i, key in enumerate(keys[:4])])
        return attach_by_key(queries, references, lambda item: item[0])

    assert _observed("columnar", 3, run) == _observed("pytuple", 3, run)


@pytest.mark.parametrize("query_keys,reference_keys", [
    ([True, False], [True]),                    # bool
    ([1, 2], [1.0]),                            # int against float
    ([(1,), (2,)], [1]),                        # 1-tuple against bare
    ([float("nan"), 1.0], [1.0]),               # NaN orders by accident
    ([1 << 62], [0]),                           # does not fit the sort's int64
    ([("a", 1), ("b",)], [("a", 1)]),           # tuples of two lengths
    ([("a", 1), ("b", 2)], [(1, "a")]),         # str and int in one position
], ids=["bool", "int-float", "tuple-bare", "nan", "oversized", "ragged-tuple",
        "str-int-position-mix"])
def test_other_keys_take_the_item_path_before_any_exchange(query_keys, reference_keys):
    cluster = MPCCluster(3, backend="columnar")
    view = cluster.view()
    queries = Distributed.from_items(view, query_keys)
    references = Distributed.from_items(view, reference_keys)
    assert multi_search_rows(queries, references, lambda k: k, lambda k: k) is None
    report = cluster.report()
    assert (report.rounds, report.total_communication, report.control_messages) == (0, 0, 0)


@pytest.mark.parametrize("query_keys,reference_keys", [
    (["a", "b"], ["a"]),
    ([(1, 2), (0, 1)], [(1, 2)]),
], ids=["str", "2-tuple"])
def test_ranked_keys_take_the_array_path(query_keys, reference_keys):
    """Refusals until keys were ranked: strings and same-shape tuples now
    search as arrays, observably equal to the item path."""
    def search(view, call):
        return call(Distributed.from_items(view, query_keys),
                    Distributed.from_items(view, reference_keys),
                    lambda k: k, lambda k: k)

    assert search(MPCCluster(3, backend="columnar").view(), multi_search_rows) is not None
    assert (_observed("columnar", 3, lambda view: search(view, multi_search_items))
            == _observed("pytuple", 3, lambda view: search(view, multi_search_items)))


def test_item_path_is_what_pytuple_and_faulted_views_run():
    """A pytuple view runs the item path, faulted or not: faults never
    choose the path (a faulted columnar view searches as arrays)."""
    faults = FaultSchedule([Fault("drop", 0, 0)])
    columnar = Distributed.from_items(
        MPCCluster(3, faults=faults, backend="columnar").view(), [1, 2, 3]
    )
    assert multi_search_rows(columnar, columnar, lambda k: k, lambda k: k) is not None
    for cluster in (MPCCluster(3, faults=faults), MPCCluster(3, backend="pytuple")):
        view = cluster.view()
        dist = Distributed.from_items(view, [1, 2, 3])
        assert multi_search_rows(dist, dist, lambda k: k, lambda k: k) is None
        assert (multi_search_items(dist, dist, lambda k: k, lambda k: k).parts
                == multi_search_reference(dist, dist, lambda k: k, lambda k: k).parts)


# -- the estimate end to end: the table against the bundles ---------------------

_EDGES = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                  min_size=1, max_size=40, unique=True)


@settings(max_examples=60, deadline=None)
@given(_EDGES, _EDGES, _EDGES, st.integers(2, 4), st.integers(1, 4),
       st.sampled_from([int, str]))
def test_estimate_path_out_identical_across_backends(e1, e2, e3, k, repetitions, cast):
    """Small k fills sketches; ``str`` values reach the array multi-search
    through their ranks, as ``int`` values do directly."""
    relations = [
        Relation(name, schema, [((cast(a), cast(b)), 1) for a, b in edges])
        for name, schema, edges in (
            ("R1", ("A", "B"), e1), ("R2", ("B", "C"), e2), ("R3", ("C", "D"), e3))
    ]

    def run(view):
        loaded = [DistRelation.load(view, relation) for relation in relations]
        total, per_value = estimate_path_out(
            loaded, ["A", "B", "C", "D"], k=k, repetitions=repetitions
        )
        per_value.parts.append([total])  # compared with the parts
        return per_value

    assert _observed("columnar", 3, run) == _observed("pytuple", 3, run)
