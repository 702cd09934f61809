"""Reduce-by-key (paper §2.1, [13]).

Computes the "sum" of values per key under any associative, commutative
combiner in O(1) rounds with O(N/p + K/p) load: local pre-aggregation first
(so each server emits at most one partial per key), then a hash
repartitioning of the ≤ p·K partials, then a final local combine.  The
pre-aggregation is what caps the per-key fan-in at p and keeps heavy keys
harmless.

On the columnar backend both aggregation stages run as
sort-and-segment-reduce kernels instead of dict folds and the partials
ship as array batches.  The caller may identify the combiner via a
``profile`` (an :class:`~repro.backends.columnar.AnnotationProfile`, or
``"distinct"`` for dedup-only reductions) so values that fit its dtype
fold as typed columns; every other value — and every value of a call
without a profile — folds as an object column by ``combine`` itself, in
arrival order.  The array path emits partials in the same
first-occurrence order and routes them to the same hashed destinations in
the same delivery order, and therefore meters identically.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from ..backends.dispatch import columnar_enabled
from ..data.relation import ColumnKey, annotation_of
from ..mpc.distributed import Distributed
from ..mpc.hashing import hash_to_bucket

__all__ = ["reduce_by_key", "count_by_key", "distinct_keys"]


def reduce_by_key(
    dist: Distributed,
    key_fn: Callable[[Any], Any],
    value_fn: Callable[[Any], Any],
    combine: Callable[[Any, Any], Any],
    salt: int = 0,
    profile: Optional[Any] = None,
) -> Distributed:
    """Return a dataset of ``(key, combined_value)`` pairs, one per distinct key,
    hash-partitioned by key.

    ``profile`` (optional) declares what ``combine`` computes so the columnar
    backend may fold typed columns: pass the semiring's
    :func:`~repro.backends.columnar.profile_of` result, or ``"distinct"``
    when ``combine`` just keeps the first value; without one the values
    fold as an object column by ``combine``.  The caller is responsible
    for profile/combine agreement; results and metering are identical with
    or without it.  A ``key_fn`` that is a
    :class:`~repro.data.relation.ColumnKey` says which columns the key is,
    and the array path then never builds the key tuples.
    """
    view = dist.view
    p = view.p

    if columnar_enabled(view):
        return _reduce_by_key_columnar(dist, key_fn, value_fn, combine, salt, profile)

    partials = dist.map_parts(
        lambda part: _fold_pairs(zip(map(key_fn, part), map(value_fn, part)), combine)
    )
    routed = partials.repartition(lambda pair: hash_to_bucket(pair[0], p, salt))
    return routed.map_parts(lambda part: _fold_pairs(part, combine))


def _fold_pairs(pairs: Iterable[Any], combine: Callable[[Any, Any], Any]) -> List[Any]:
    """The dict fold of both stages: ``(key, value)`` pairs folded per key,
    keys in first-arrival order."""
    totals: Dict[Any, Any] = {}
    for key, value in pairs:
        if key in totals:
            totals[key] = combine(totals[key], value)
        else:
            totals[key] = value
    return list(totals.items())


def _reduce_by_key_columnar(
    dist: Distributed,
    key_fn: Callable[[Any], Any],
    value_fn: Callable[[Any], Any],
    combine: Callable[[Any, Any], Any],
    salt: int,
    profile: Any,
) -> Distributed:
    """The array path of both stages.

    A :class:`~repro.data.relation.ColumnKey` is folded, hashed and returned
    as one code column per key position (an ``"items"`` batch; the key
    tuples are never built); any other key function is called per item and
    its keys interned (one column, ``"pairs"``).  Each stage folds every
    server's rows in one :func:`~repro.backends.kernels.fold_rows` with the
    server as the leading column.  Rows are laid out server by server, so
    the first occurrences of a (server, key) row are each server's first
    occurrences in turn and the folded rows come out grouped by server —
    one batch for the exchange, one ``searchsorted`` for its cuts.
    """
    from ..backends.batch import ColumnarBatch
    from ..backends.columnar import OBJECT_PROFILE, encode_annotations
    from ..backends.dispatch import np
    from ..backends.kernels import fold_rows
    from ..mpc.columnar import ColumnarData, server_cuts

    view = dist.view
    p = view.p
    codec = view.cluster.codec
    distinct = profile == "distinct"
    by_column = isinstance(key_fn, ColumnKey)

    # One column for all servers: a "number" profile's ints on one server
    # and floats on another are one object column, where separate typed
    # arrays would promote to floats on concatenation.
    arrays = by_column and isinstance(dist, ColumnarData)
    held = dist.batch if arrays else None
    if arrays and held.kind == "items" and (
        distinct or (value_fn is annotation_of and held.annotations is not None)
    ):
        columns = [held.columns[index] for index in key_fn.indices]
        values = None if distinct else held.annotations
    else:
        items = dist.collect()
        values = None if distinct else [value_fn(item) for item in items]
        if by_column:
            rows = [item[0] for item in items]
            columns = [
                codec.encode_many([row[index] for row in rows])
                for index in key_fn.indices
            ]
        else:
            columns = [codec.encode_many([key_fn(item) for item in items])]
    add_ufunc = None
    if not distinct:
        profile = profile or OBJECT_PROFILE
        values = encode_annotations(values, profile)
        add_ufunc = profile.adder(values, combine)
    kind = "items" if by_column else "pairs"

    def stage(sizes: List[int], columns: List[Any], values: Any) -> ColumnarData:
        """The rows of p servers (``sizes`` apiece) ⊕-folded per server and
        key, in first-occurrence order."""
        (servers, *keys), folded = fold_rows(
            [np.repeat(np.arange(p), sizes), *columns], values, add_ufunc
        )
        whole = ColumnarBatch(tuple(keys), folded, int(servers.shape[0]), kind)
        return ColumnarData(view, whole, server_cuts(servers, p), codec)

    # The partials go through the wire as one (key-code columns, value array)
    # batch — same destinations, same delivery order, same per-server
    # counts as the item path.  A typed column's partials fold exactly in
    # the final stage too: its ints are bounded, so their sums are.
    partials = stage(dist.part_sizes(), columns, values).batch
    if by_column:
        hashes = codec.row_hashes(partials.columns, partials.size, salt)
    else:
        hashes = codec.hashes(partials.columns[0], salt)
    arrived, cuts = view.exchange_batches(
        (hashes % np.uint64(p)).astype(np.int64), partials
    )
    # The result stays array-native; consumers that need tuples decode lazily.
    sizes = [b - a for a, b in zip(cuts, cuts[1:])]
    return stage(sizes, list(arrived.columns), arrived.annotations)


def count_by_key(
    dist: Distributed, key_fn: Callable[[Any], Any], salt: int = 0
) -> Distributed:
    """Degree computation (§2.1): ``(key, multiplicity)`` pairs."""
    from ..backends.columnar import profile_of
    from ..semiring.standard import COUNTING

    return reduce_by_key(
        dist,
        key_fn,
        lambda _item: 1,
        lambda a, b: a + b,
        salt,
        profile=profile_of(COUNTING),
    )


def distinct_keys(
    dist: Distributed, key_fn: Callable[[Any], Any], salt: int = 0
) -> Distributed:
    """Distinct keys of the dataset, hash-partitioned (items are bare keys)."""
    reduced = reduce_by_key(
        dist, key_fn, lambda _item: None, lambda a, _b: a, salt, profile="distinct"
    )
    return reduced.map_items(lambda pair: pair[0])
