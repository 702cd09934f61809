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
    or without it.
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

    def final_aggregate(part: List[Any]) -> List[Any]:
        totals: Dict[Any, Any] = {}
        for key, value in part:
            if key in totals:
                totals[key] = combine(totals[key], value)
            else:
                totals[key] = value
        return list(totals.items())

    return routed.map_parts(final_aggregate)


def _reduce_by_key_columnar(
    dist: Distributed,
    key_fn: Callable[[Any], Any],
    value_fn: Callable[[Any], Any],
    combine: Callable[[Any, Any], Any],
    salt: int,
    profile: Any,
) -> Optional[Distributed]:
    """The vectorized both-stages path; None ⇒ caller falls back (and no
    communication has happened yet)."""
    from ..backends.columnar import encode_annotations
    from ..backends.kernels import first_occurrence_unique, group_reduce

    view = dist.view
    p = view.p
    codec = view.cluster.codec
    distinct = profile == "distinct"

    # Stage 1 (local): encode every part before touching the network, so a
    # non-encodable annotation anywhere aborts cleanly into the dict path.
    staged: List[tuple] = []
    for part in dist.parts:
        keys = [key_fn(item) for item in part]
        if distinct:
            values = None
        else:
            values = encode_annotations([value_fn(item) for item in part], profile)
            if values is None and part:
                return None
        staged.append((keys, values))
    if not _uniform_dtype([values for _keys, values in staged]):
        return None

    reduced_parts: List[tuple] = []
    for keys, values in staged:
        key_ids = codec.encode_many(keys)
        if distinct:
            unique_ids = first_occurrence_unique(key_ids)
            reduced = None
        else:
            unique_ids, reduced = group_reduce(key_ids, values, profile.add_ufunc)
        destinations = codec.buckets(unique_ids, p, salt)
        reduced_parts.append((unique_ids, reduced, destinations))

    # The per-part partials go through the wire as one (key-code column,
    # value array) batch per server — same destinations, same delivery
    # order, same per-server counts as the item path.
    return _ship_columnar(view, codec, profile, distinct, combine,
                          reduced_parts)


def _uniform_dtype(value_arrays: List[Any]) -> bool:
    """True when every non-empty annotation array shares one dtype.

    Mixed dtypes (a "number" profile may encode one part as int64 and
    another as float64) must not concatenate — promotion would turn ints
    into floats where the reference path keeps the original objects."""
    dtypes = {
        values.dtype
        for values in value_arrays
        if values is not None and values.shape[0]
    }
    return len(dtypes) <= 1


def _ship_columnar(
    view: Any,
    codec: Any,
    profile: Any,
    distinct: bool,
    combine: Callable[[Any, Any], Any],
    reduced_parts: List[tuple],
) -> Distributed:
    """Stage 1→2 over batches: partials ship as arrays, the final fold is
    the same segment-reduce, and the result stays array-native (consumers
    that need tuples decode lazily)."""
    from ..backends.batch import ColumnarBatch
    from ..backends.dispatch import np
    from ..backends.kernels import first_occurrence_unique, group_reduce
    from ..mpc.columnar import ColumnarData

    dests = []
    batches = []
    for unique_ids, reduced, destinations in reduced_parts:
        dests.append(destinations)
        batches.append(
            ColumnarBatch((unique_ids,), reduced, int(unique_ids.shape[0]),
                          "pairs")
        )
    inboxes = view.exchange_batches(dests, batches)

    final_batches: List[Any] = []
    for inbox in inboxes:
        key_ids = inbox.columns[0]
        if distinct:
            unique_ids = first_occurrence_unique(key_ids)
            final_batches.append(
                ColumnarBatch((unique_ids,), None, int(unique_ids.shape[0]),
                              "pairs")
            )
            continue
        values = inbox.annotations
        if (
            values.dtype == np.int64
            and values.shape[0]
            and max(abs(int(values.max())), abs(int(values.min())))
            >= _FINAL_INT_LIMIT
        ):
            final_batches = None  # oversized partials: dict-fold everywhere
            break
        unique_ids, reduced = group_reduce(key_ids, values, profile.add_ufunc)
        final_batches.append(
            ColumnarBatch((unique_ids,), reduced, int(unique_ids.shape[0]),
                          "pairs")
        )
    if final_batches is not None:
        return ColumnarData(view, final_batches, codec)

    # Local fallback after the (already identical) exchange: dict folds over
    # the decoded pairs, exactly the reference stage 2.
    final_parts: List[List[Any]] = []
    for inbox in inboxes:
        totals: Dict[Any, Any] = {}
        for key, value in inbox.to_items(codec):
            if key in totals:
                totals[key] = combine(totals[key], value)
            else:
                totals[key] = value
        final_parts.append(list(totals.items()))
    return Distributed(view, final_parts)


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
