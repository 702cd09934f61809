"""Reduce-by-key (paper §2.1, [13]).

Computes the "sum" of values per key under any associative, commutative
combiner in O(1) rounds with O(N/p + K/p) load: local pre-aggregation first
(so each server emits at most one partial per key), then a hash
repartitioning of the ≤ p·K partials, then a final local combine.  The
pre-aggregation is what caps the per-key fan-in at p and keeps heavy keys
harmless.

When the cluster runs the columnar backend and the caller identifies the
combiner via a ``profile`` (an :class:`~repro.backends.columnar
.AnnotationProfile`, or ``"distinct"`` for dedup-only reductions), both
aggregation stages run as sort-and-segment-reduce kernels instead of dict
folds and the partials ship as array batches.  The vectorized path emits
partials in the same first-occurrence order and routes them to the same
hashed destinations in the same delivery order, and therefore meters
identically; anything it cannot encode exactly falls back to the dict
kernels before any communication happens.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..backends.dispatch import columnar_enabled
from ..data.relation import ColumnKey, annotation_of
from ..mpc.distributed import Distributed
from ..mpc.hashing import hash_to_bucket

__all__ = ["reduce_by_key", "count_by_key", "distinct_keys"]

#: Pre-aggregated partials may be much larger than raw annotations; the
#: final stage admits ints below 2^40 (sums of ≤ 2^22 of them stay exact).
_FINAL_INT_LIMIT = 1 << 40


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
    backend may vectorize: pass the semiring's
    :func:`~repro.backends.columnar.profile_of` result, or ``"distinct"``
    when ``combine`` just keeps the first value.  The caller is responsible
    for profile/combine agreement; results and metering are identical with
    or without it.  A ``key_fn`` that is a
    :class:`~repro.data.relation.ColumnKey` says which columns the key is,
    and the vectorized path then never builds the key tuples.
    """
    view = dist.view
    p = view.p

    if profile is not None and columnar_enabled(view):
        result = _reduce_by_key_columnar(dist, key_fn, value_fn, combine, salt, profile)
        if result is not None:
            return result

    def pre_aggregate(part: List[Any]) -> List[Any]:
        partials: Dict[Any, Any] = {}
        for item in part:
            key = key_fn(item)
            value = value_fn(item)
            if key in partials:
                partials[key] = combine(partials[key], value)
            else:
                partials[key] = value
        return list(partials.items())

    partials = dist.map_parts(pre_aggregate)
    routed = partials.repartition(lambda pair: hash_to_bucket(pair[0], p, salt))
    return routed.map_parts(lambda part: _fold_pairs(part, combine))


def _fold_pairs(pairs: List[Any], combine: Callable[[Any, Any], Any]) -> List[Any]:
    """The final local combine: ``(key, value)`` pairs folded per key, keys
    in first-arrival order."""
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
) -> Optional[Distributed]:
    """The vectorized both-stages path; None ⇒ caller falls back (and no
    communication has happened yet).

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
    from ..backends.columnar import encode_annotations
    from ..backends.dispatch import np
    from ..backends.kernels import fold_rows
    from ..mpc.columnar import ColumnarData, server_cuts

    view = dist.view
    p = view.p
    codec = view.cluster.codec
    distinct = profile == "distinct"
    by_column = isinstance(key_fn, ColumnKey)

    # Encode everything before touching the network, so a non-encodable
    # annotation anywhere aborts cleanly into the dict path.  One array for
    # all servers also refuses what must not concatenate: a "number"
    # profile's ints on one server and floats on another would promote to
    # floats where the reference path keeps the original objects.
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
    if not distinct:
        values = encode_annotations(values, profile)
        if values is None:
            return None
    kind = "items" if by_column else "pairs"
    add_ufunc = None if distinct else profile.add_ufunc

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
    # counts as the item path.
    partials = stage(dist.part_sizes(), columns, values).batch
    if by_column:
        hashes = codec.row_hashes(partials.columns, partials.size, salt)
    else:
        hashes = codec.hashes(partials.columns[0], salt)
    arrived, cuts = view.exchange_batches(
        (hashes % np.uint64(p)).astype(np.int64), partials
    )
    values = arrived.annotations
    if (
        not distinct
        and values.dtype == np.int64
        and values.shape[0]
        and max(abs(int(values.max())), abs(int(values.min()))) >= _FINAL_INT_LIMIT
    ):
        # Oversized partials: the reference stage 2 over the decoded pairs,
        # after the (already identical) exchange.
        inboxes = ColumnarData(view, arrived, cuts, codec).parts
        return Distributed(view, [_fold_pairs(inbox, combine) for inbox in inboxes])
    # The result stays array-native; consumers that need tuples decode lazily.
    sizes = [b - a for a, b in zip(cuts, cuts[1:])]
    return stage(sizes, list(arrived.columns), values)


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
