"""Multi-search (paper §2.1, [13]).

Given a set ``X`` of queries and a set ``Y`` of ordered reference records,
find for every ``x ∈ X`` its predecessor in ``Y`` — the reference with the
largest key ≤ the query's key (the variant semijoins and table-attachment
need: an equal reference must be found).  O(1) rounds, O(N/p) load.

Crucially, the tagged union is sorted with a *unique tiebreak* per record,
so a heavily duplicated key spreads over many servers instead of landing on
one (the skew case where hash co-partitioning fails and the paper reaches
for multi-search).  The per-server boundary is stitched by carrying each
server's last reference record across the control channel.

Under the columnar backend, keys that are plain numbers (or 1-tuples of
them), strings, or tuples of one shape over strings and ints take the
array path, :func:`multi_search_rows`: the same sort, the same samples,
splitters, destinations and control charges, computed on row numbers for
every server at once (strings and tuples through their rank among the
call's distinct keys).  Any other key returns to the item path,
:func:`multi_search_reference`, before anything is communicated.
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

from ..backends.batch import ColumnarBatch
from ..backends.dispatch import columnar_enabled, np
from ..data.relation import ColumnKey
from ..mpc.columnar import ColumnarData
from ..mpc.distributed import Distributed
from .sort import _scalar_keys, distributed_sort

__all__ = ["multi_search", "multi_search_items", "multi_search_rows",
           "multi_search_reference", "SearchRows"]


class SearchRows(NamedTuple):
    """A multi-search result on row numbers, one entry per query, in the
    order the result is laid out (server by server, key-sorted within).

    A row number counts through a dataset's parts in order
    (``dist.collect()[row]``).
    """

    #: Server holding each result row (non-decreasing).
    servers: Any
    #: The query's row number.
    queries: Any
    #: Row number of the predecessor reference, −1 when there is none.
    predecessors: Any
    #: True where the predecessor exists and carries the query's own key.
    exact: Any

    def spread(self, view: Any, rows: List[Any], keep: Any = None) -> Distributed:
        """``rows`` (one per result row, or per kept one) as a dataset."""
        servers = self.servers if keep is None else self.servers[keep]
        bounds = np.searchsorted(servers, np.arange(view.p + 1)).tolist()
        return Distributed(
            view, [rows[bounds[i] : bounds[i + 1]] for i in range(view.p)]
        )


def multi_search_rows(
    queries: Distributed,
    references: Distributed,
    query_key: Callable[[Any], Any],
    reference_key: Callable[[Any], Any],
) -> Optional[SearchRows]:
    """The array multi-search, or None (nothing communicated) when the view
    is not columnar or the keys of both sides together are neither plain
    numbers of one type nor rankable (:func:`_ranked_keys`).

    Rows are laid out references first, then queries, each in part order:
    array position is then the item path's ``(rank, part, position)``
    tiebreak, and one stable sort by key is its total order.  Metering,
    control charges and the resulting distribution equal the item path's.
    """
    view = queries.view
    if not columnar_enabled(view):
        return None
    reference_keys, reference_rows = _side_keys(references, reference_key)
    query_keys, query_rows = _side_keys(queries, query_key)
    # One check over both sides: (1,) == 1 is False and 1 == 1.0 is not an
    # int64 comparison, so a mix of shapes or types is the item path's.
    # Both maps are elementwise or rank the distinct set, so running them
    # on a side's distinct keys and gathering is running them on its rows.
    both = reference_keys + query_keys
    keys = _scalar_keys(both)
    if keys is None:
        keys = _ranked_keys(both)
        if keys is None:
            return None
    keys = keys[np.concatenate((reference_rows, len(reference_keys) + query_rows))]
    from ..backends.kernels import sample_sort_routes

    p = view.p
    sizes = references.part_sizes() + queries.part_sizes()
    servers = np.arange(p, dtype=np.min_scalar_type(p))
    sources = np.repeat(np.concatenate((servers, servers)), sizes)
    order, dests, sampled, splitters = sample_sort_routes(keys, sources, p)
    view.control_gather([None] * sampled)
    view.control_scatter(splitters)

    # The exchange moves row numbers, in source-server order.  Its inbox
    # goes unread: destinations never decrease along `order`, so every
    # server's sorted inbox is a contiguous run of `order`, and the
    # predecessor scan — with the last reference of the servers before
    # carried in over the control channel — is one running maximum.
    leaving = np.argsort(sources, kind="stable")
    dest_of = np.empty(order.shape[0], dtype=np.int64)
    dest_of[order] = dests
    view.exchange_batches(
        dest_of[leaving],
        ColumnarBatch((leaving,), None, int(leaving.shape[0]), "pairs"),
    )
    view.control_gather([None] * p)
    view.control_scatter(1)
    held = references.total_size
    is_reference = order < held
    at = np.flatnonzero(~is_reference)
    last = np.maximum.accumulate(
        np.where(is_reference, np.arange(order.shape[0]), -1)
    )[at]
    found = last >= 0
    predecessors = np.where(found, order[last], -1)
    exact = found & (keys[predecessors] == keys[order[at]])
    return SearchRows(dests[at], order[at] - held, predecessors, exact)


def _side_keys(dist: Distributed, key_fn: Callable[[Any], Any]) -> Tuple[List[Any], Any]:
    """``(keys, rows)``: row ``i`` of ``dist`` has key ``keys[rows[i]]``.

    A :class:`~repro.data.relation.ColumnKey` of a
    :class:`~repro.mpc.columnar.ColumnarData` is read from its code
    columns: ``keys`` are the distinct key tuples, decoded once each, and
    nothing else is decoded.  Any other side lists every row's key.
    """
    if (isinstance(dist, ColumnarData) and isinstance(key_fn, ColumnKey)
            and key_fn.indices and dist.batch.kind == "items"):
        columns = [dist.batch.columns[index] for index in key_fn.indices]
        ids = columns[0]
        for column in columns[1:]:  # widen the dense rank of the ones before
            ids = np.unique(ids, return_inverse=True)[1] * (int(column.max(initial=0)) + 1) + column
        _, firsts, rows = np.unique(ids, return_index=True, return_inverse=True)
        decode = dist.codec.decode_many
        return list(zip(*(decode(column[firsts]) for column in columns))), rows
    keys = [key_fn(item) for part in dist.parts for item in part]
    return keys, np.arange(len(keys))


def _ranked_keys(keys: List[Any]) -> Optional[Any]:
    """The dense rank of every key among the distinct keys, or None.

    Rank order is Python's order and equal ranks are equal keys only when
    one comparison rule covers all of them: every key exactly a ``str``, or
    every key a tuple of one shape (:func:`_one_shape`).  Bare numbers are
    :func:`~repro.primitives.sort._scalar_keys`' to take or refuse.  The
    ranks are of this list alone, so the caller passes both sides at once.
    """
    kinds = set(map(type, keys))
    if kinds != {str} and not (kinds == {tuple} and _one_shape(keys)):
        return None
    rank = {key: index for index, key in enumerate(sorted(set(keys)))}
    return np.fromiter(map(rank.__getitem__, keys), dtype=np.int64, count=len(keys))


def _one_shape(values: Sequence[Any]) -> bool:
    """True when ``values`` are all exactly ``str``, all exactly ``int``, or
    all tuples of one length whose every position is, in turn, of one
    shape: no bool, no float beside an int, no ``(k,)`` beside ``k``, no
    ragged tuples — comparing any two of them compares like with like."""
    kinds = set(map(type, values))
    if kinds == {tuple}:
        return len(set(map(len, values))) == 1 and all(map(_one_shape, zip(*values)))
    return kinds == {str} or kinds == {int}


def multi_search_items(
    queries: Distributed,
    references: Distributed,
    query_key: Callable[[Any], Any],
    reference_key: Callable[[Any], Any],
) -> Distributed:
    """``(query_item, predecessor_reference_item_or_None)`` pairs.

    Both datasets must live on the same view.  The result keeps the sorted
    (by key, ties split) distribution of the queries.
    """
    rows = multi_search_rows(queries, references, query_key, reference_key)
    if rows is None:
        return multi_search_reference(queries, references, query_key, reference_key)
    asked = queries.collect()
    held = references.collect() + [None]  # row −1: no predecessor
    return rows.spread(queries.view, [
        (asked[q], held[r])
        for q, r in zip(rows.queries.tolist(), rows.predecessors.tolist())
    ])


def multi_search_reference(
    queries: Distributed,
    references: Distributed,
    query_key: Callable[[Any], Any],
    reference_key: Callable[[Any], Any],
) -> Distributed:
    """The item path of :func:`multi_search_items` (every backend's
    reference, and the only path for keys of mixed types or shapes)."""
    view = queries.view

    def tag(dist: Distributed, rank: int, key_fn) -> Distributed:
        parts = []
        for part_index, part in enumerate(dist.parts):
            parts.append(
                [
                    (key_fn(item), rank, (part_index, position), item)
                    for position, item in enumerate(part)
                ]
            )
        return Distributed(view, parts)

    # References sort before queries at equal keys (rank 0 < 1); the unique
    # (origin server, position) tiebreak splits duplicated keys evenly.
    tagged = tag(references, 0, reference_key).concat(tag(queries, 1, query_key))
    ordered = distributed_sort(tagged, lambda row: (row[0], row[1], row[2]))

    last_refs: List[Optional[Tuple[Any, Any]]] = []
    for part in ordered.parts:
        last: Optional[Tuple[Any, Any]] = None
        for key, rank, _uid, item in part:
            if rank == 0:
                last = (key, item)
        last_refs.append(last)
    view.control_gather([ref is not None for ref in last_refs])
    carry: List[Optional[Tuple[Any, Any]]] = []
    running: Optional[Tuple[Any, Any]] = None
    for ref in last_refs:
        carry.append(running)
        if ref is not None:
            running = ref
    view.control_scatter(1)

    parts: List[List[Tuple[Any, Optional[Any]]]] = []
    for part, incoming in zip(ordered.parts, carry):
        current = incoming
        rows: List[Tuple[Any, Optional[Any]]] = []
        for key, rank, _uid, item in part:
            if rank == 0:
                current = (key, item)
            else:
                rows.append((item, current[1] if current is not None else None))
        parts.append(rows)
    return Distributed(view, parts)


def multi_search(
    queries: Distributed,
    references: Distributed,
    query_key: Callable[[Any], Any],
    reference_key: Callable[[Any], Any],
) -> Distributed:
    """``(query_item, predecessor_reference_key_or_None)`` pairs (the paper's
    original formulation: only the predecessor's key is reported)."""
    with_items = multi_search_items(queries, references, query_key, reference_key)
    return with_items.map_items(
        lambda pair: (pair[0], None if pair[1] is None else reference_key(pair[1]))
    )
