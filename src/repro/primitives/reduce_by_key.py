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

    Each stage folds every server's rows in one kernel call on the
    composite id ``server · len(codec) + key code``.  Rows are laid out
    server by server, so the first occurrences of the composite are each
    server's first occurrences in turn and the folded rows come out grouped
    by server: one ``searchsorted`` cuts them back into the p batches.
    """
    from ..backends.batch import ColumnarBatch
    from ..backends.columnar import encode_annotations
    from ..backends.dispatch import np
    from ..backends.kernels import first_occurrence_unique, group_reduce
    from ..mpc.columnar import ColumnarData

    view = dist.view
    p = view.p
    codec = view.cluster.codec
    distinct = profile == "distinct"

    # Encode everything before touching the network, so a non-encodable
    # annotation anywhere aborts cleanly into the dict path.  One array for
    # all servers also refuses what must not concatenate: a "number"
    # profile's ints on one server and floats on another would promote to
    # floats where the reference path keeps the original objects.
    items = dist.collect()
    values = None
    if not distinct:
        values = encode_annotations([value_fn(item) for item in items], profile)
        if values is None:
            return None
    key_ids = codec.encode_many([key_fn(item) for item in items])
    span = len(codec)

    def stage(sizes: List[int], key_ids: Any, values: Any) -> tuple:
        """The rows of p servers (``sizes`` apiece) ⊕-folded per server and
        key, in first-occurrence order: ``(key codes, cuts, batches)`` with
        server ``i``'s rows at ``cuts[i]:cuts[i + 1]``."""
        composite = np.repeat(np.arange(p) * span, sizes) + key_ids
        if distinct:
            composite, folded = first_occurrence_unique(composite), None
        else:
            composite, folded = group_reduce(composite, values, profile.add_ufunc)
        servers, key_ids = np.divmod(composite, span)
        cuts = np.searchsorted(servers, np.arange(p + 1)).tolist()
        folded = ColumnarBatch((key_ids,), folded, int(key_ids.shape[0]), "pairs")
        return key_ids, cuts, [folded.slice(a, b) for a, b in zip(cuts, cuts[1:])]

    # The partials go through the wire as one (key-code column, value array)
    # batch per server — same destinations, same delivery order, same
    # per-server counts as the item path.
    key_ids, cuts, partials = stage(dist.part_sizes(), key_ids, values)
    destinations = codec.buckets(key_ids, p, salt)
    inboxes = view.exchange_batches(
        [destinations[a:b] for a, b in zip(cuts, cuts[1:])], partials
    )

    arrived = ColumnarBatch.concat(inboxes)
    values = arrived.annotations
    if (
        not distinct
        and values.dtype == np.int64
        and values.shape[0]
        and max(abs(int(values.max())), abs(int(values.min()))) >= _FINAL_INT_LIMIT
    ):
        # Oversized partials: the reference stage 2 over the decoded pairs,
        # after the (already identical) exchange.
        return Distributed(
            view, [_fold_pairs(inbox.to_items(codec), combine) for inbox in inboxes]
        )
    # The result stays array-native; consumers that need tuples decode lazily.
    _, _, totals = stage([inbox.size for inbox in inboxes], arrived.columns[0], values)
    return ColumnarData(view, totals, codec)


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
