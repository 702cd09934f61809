"""Output-size estimation for line queries (paper §2.2).

For a line query ``∑ R1(A1,A2) ⋈ … ⋈ Rn(An,An+1)`` the output size is
``OUT = Σ_a OUT_a`` where ``OUT_a`` counts the distinct ``A_{n+1}`` values
reachable from ``a ∈ dom(A1)``.  The paper computes a constant-factor
approximation of every ``OUT_a`` (and hence of OUT) with linear load by
pushing KMV sketches from right to left with n reduce-by-key passes, using
the sketch merge as the "sum".

Sketch bundles are metered as one communication unit each: their true size
is O(k log N) = Õ(1), absorbed by the paper's Õ notation (see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..backends.dispatch import columnar_enabled, np
from ..data.relation import DistRelation
from ..mpc.distributed import Distributed
from .degrees import attach_by_key
from .kmv import KMV, MultiKMV
from .reduce_by_key import reduce_by_key

__all__ = ["estimate_path_out", "sketch_column", "propagate_sketches"]

#: Default sketch parameters: k controls the per-sketch accuracy (≈1/√k
#: relative error), repetitions the median boosting.
DEFAULT_K = 64
DEFAULT_REPETITIONS = 5


def sketch_column(
    relation: DistRelation,
    counted_attr: str,
    key_attr: str,
    k: int = DEFAULT_K,
    repetitions: int = DEFAULT_REPETITIONS,
    base_salt: int = 1000,
) -> Distributed:
    """Per ``key_attr`` value, a :class:`MultiKMV` over the joined
    ``counted_attr`` values: ``(key_value, bundle)`` pairs."""
    counted_index = relation.attr_index(counted_attr)
    key_index = relation.attr_index(key_attr)
    if columnar_enabled(relation.view):
        return _sketch_column_vec(
            relation, counted_index, key_index, k, repetitions, base_salt
        )
    singles = relation.data.map_items(
        lambda item: (
            item[0][key_index],
            MultiKMV.of([item[0][counted_index]], k, repetitions, base_salt),
        )
    )
    return reduce_by_key(
        singles,
        lambda pair: pair[0],
        lambda pair: pair[1],
        lambda a, b: a.merge(b),
    )


def _sketch_column_vec(
    relation: DistRelation,
    counted_index: int,
    key_index: int,
    k: int,
    repetitions: int,
    base_salt: int,
) -> Distributed:
    """The vectorized sketch build: equals the tuple path's reduce-by-key
    over singleton bundles (same partial bundles, same first-occurrence
    emission order, same exchange, same final merge).

    Folding singleton :class:`MultiKMV` merges per key leaves exactly the
    ``k`` smallest *distinct* hash units of the key's counted values, per
    repetition — computed here with one lexsort per repetition instead of
    one sketch allocation per tuple.
    """
    from ..backends.kernels import first_occurrence_unique

    view = relation.view
    p = view.p
    codec = view.cluster.codec

    outboxes: List[List[Tuple[int, Tuple]]] = []
    for part in relation.data.parts:
        key_ids = codec.encode_many([item[0][key_index] for item in part])
        counted_ids = codec.encode_many([item[0][counted_index] for item in part])
        unique_ids = first_occurrence_unique(key_ids)
        per_rep: List[Dict[int, Tuple[float, ...]]] = []
        for repetition in range(repetitions):
            units = codec.units(counted_ids, base_salt + repetition)
            per_rep.append(_k_smallest_distinct(key_ids, units, k))
        destinations = codec.buckets(unique_ids, p, 0).tolist()
        unique_keys = codec.decode_many(unique_ids)
        outbox = []
        for dest, key, key_id in zip(destinations, unique_keys, unique_ids.tolist()):
            bundle = MultiKMV(
                tuple(
                    KMV(k, base_salt + repetition, per_rep[repetition].get(key_id, ()))
                    for repetition in range(repetitions)
                )
            )
            outbox.append((dest, (key, bundle)))
        outboxes.append(outbox)

    inboxes = view.exchange(outboxes)
    final_parts: List[List[Tuple]] = []
    for inbox in inboxes:
        totals: Dict[Tuple, MultiKMV] = {}
        for key, bundle in inbox:
            if key in totals:
                totals[key] = totals[key].merge(bundle)
            else:
                totals[key] = bundle
        final_parts.append(list(totals.items()))
    return Distributed(view, final_parts)


def _k_smallest_distinct(
    key_ids, units, k: int
) -> Dict[int, Tuple[float, ...]]:
    """Per key id, the ``k`` smallest distinct unit hashes (ascending) —
    the ``tuple(sorted(set(...)))[:k]`` of :meth:`KMV.merge`, batched."""
    if key_ids.shape[0] == 0:
        return {}
    order = np.lexsort((units, key_ids))
    ks = key_ids[order]
    us = units[order]
    fresh = np.concatenate(([True], (ks[1:] != ks[:-1]) | (us[1:] != us[:-1])))
    ks = ks[fresh]
    us = us[fresh]
    starts = np.flatnonzero(np.concatenate(([True], ks[1:] != ks[:-1])))
    counts = np.diff(np.concatenate((starts, [ks.shape[0]])))
    ranks = np.arange(ks.shape[0], dtype=np.int64) - np.repeat(starts, counts)
    keep = ranks < k
    ks = ks[keep]
    us = us[keep]
    result: Dict[int, Tuple[float, ...]] = {}
    boundaries = np.flatnonzero(
        np.concatenate(([True], ks[1:] != ks[:-1]))
    ).tolist() + [ks.shape[0]]
    key_list = ks.tolist()
    unit_list = us.tolist()
    for i in range(len(boundaries) - 1):
        start, end = boundaries[i], boundaries[i + 1]
        result[key_list[start]] = tuple(unit_list[start:end])
    return result


def propagate_sketches(
    sketches: Distributed,
    relation: DistRelation,
    from_attr: str,
    to_attr: str,
) -> Distributed:
    """One right-to-left step: merge, for every ``to`` value, the bundles of
    all ``from`` values it joins with."""
    from_index = relation.attr_index(from_attr)
    to_index = relation.attr_index(to_attr)

    # Skew-safe attachment: a heavy `from` value must not pile its tuples
    # onto one server, so the bundles are joined in via multi-search.
    tagged = attach_by_key(
        relation.data, sketches, lambda item: item[0][from_index], default=None
    )
    emitted = tagged.filter_items(lambda entry: entry[1] is not None).map_items(
        lambda entry: (entry[0][0][to_index], entry[1])
    )
    return reduce_by_key(
        emitted,
        lambda pair: pair[0],
        lambda pair: pair[1],
        lambda a, b: a.merge(b),
    )


def estimate_path_out(
    relations: Sequence[DistRelation],
    attrs: Sequence[str],
    k: int = DEFAULT_K,
    repetitions: int = DEFAULT_REPETITIONS,
    base_salt: int = 1000,
) -> Tuple[float, Distributed]:
    """Estimate reachable-distinct counts along a path.

    ``attrs = [X0, …, Xm]`` and ``relations[i]`` has schema containing
    ``(X_i, X_{i+1})``.  Counts, for every value of ``X0``, the distinct
    ``Xm`` values reachable through the path, and returns
    ``(total_estimate, per_value)`` where ``per_value`` holds
    ``(x0_value, estimate)`` pairs hash-partitioned by value.

    This is the paper's OUT estimator when the path is the whole line query
    (then ``total ≈ OUT`` and per-value ≈ OUT_a), and the arm-statistics
    estimator ``d_i(b)`` for star-like queries (§6).
    """
    if len(relations) != len(attrs) - 1 or not relations:
        raise ValueError("need m relations for m+1 path attributes")
    sketches = sketch_column(
        relations[-1], attrs[-1], attrs[-2], k, repetitions, base_salt
    )
    for i in range(len(relations) - 2, -1, -1):
        sketches = propagate_sketches(sketches, relations[i], attrs[i + 1], attrs[i])
    per_value = sketches.map_items(lambda pair: (pair[0], pair[1].estimate()))
    local_sums = [sum(est for _value, est in part) for part in per_value.parts]
    per_value.view.control_gather(local_sums)
    return float(sum(local_sums)), per_value
