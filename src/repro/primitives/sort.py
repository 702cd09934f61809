"""Distributed sorting (paper §2.1, [10]).

Sample sort with regular sampling: O(1) rounds, O(N/p) load.  Each server
sorts locally, contributes p evenly spaced sample keys over the control
channel, the coordinator picks p−1 splitters, items are range-partitioned,
and each range is sorted locally.

By default a *unique tiebreak* (origin server, position) extends every key,
so heavily duplicated keys spread across servers — required for the O(N/p)
guarantee under skew.  ``split_ties=False`` keeps equal keys on one server,
which some algorithms rely on (e.g. the §3 unbalanced matmul case sorts by
the output attribute and needs each output value co-located; the paper
proves the relevant degree is ≤ N/p there, so the bound still holds).
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, List, Optional, Tuple

from ..backends.dispatch import columnar_enabled, np
from ..mpc.distributed import Distributed

__all__ = ["distributed_sort", "splitters_for"]


def splitters_for(
    dist: Distributed, key_fn: Callable[[Any], Any]
) -> List[Any]:
    """p−1 range splitters chosen by regular sampling (control-channel cost)."""
    view = dist.view
    p = view.p
    samples: List[Any] = []
    for part in dist.parts:
        keys = sorted(key_fn(item) for item in part)
        if not keys:
            continue
        step = max(1, len(keys) // p)
        samples.extend(keys[::step][:p])
    view.control_gather(samples)
    samples.sort()
    if not samples:
        return []
    step = max(1, len(samples) // p)
    splitters = samples[step::step][: p - 1]
    view.control_scatter(len(splitters))
    return splitters


def distributed_sort(
    dist: Distributed,
    key_fn: Callable[[Any], Any],
    split_ties: bool = True,
) -> Distributed:
    """Globally sort ``dist`` by ``key_fn``.

    Returns a dataset whose parts are locally sorted and globally
    range-ordered: every key on server ``i`` ≤ every key on server ``j`` for
    ``i < j``.  One data round (plus control traffic).
    """
    if not split_ties:
        if columnar_enabled(dist.view):
            vectorized = _sort_vec(dist, key_fn)
            if vectorized is not None:
                return vectorized
        splitters = splitters_for(dist, key_fn)
        routed = dist.repartition(
            lambda item: bisect.bisect_right(splitters, key_fn(item))
        )
        return routed.map_parts(lambda part: sorted(part, key=key_fn))

    # Tag with a unique (origin, position) tiebreak, sort by the extended
    # key, then strip the tags.
    tagged_parts: List[List[Tuple[Any, Tuple[int, int], Any]]] = []
    for part_index, part in enumerate(dist.parts):
        tagged_parts.append(
            [
                (key_fn(item), (part_index, position), item)
                for position, item in enumerate(part)
            ]
        )
    tagged = Distributed(dist.view, tagged_parts)
    splitters = splitters_for(tagged, lambda row: (row[0], row[1]))
    routed = tagged.repartition(
        lambda row: bisect.bisect_right(splitters, (row[0], row[1]))
    )
    ordered = routed.map_parts(
        lambda part: sorted(part, key=lambda row: (row[0], row[1]))
    )
    return ordered.map_items(lambda row: row[2])


#: int64 keys must convert exactly.
_SORT_INT_LIMIT = 1 << 62


def _scalar_keys(keys: List[Any]) -> Optional[Any]:
    """The keys as a numeric array ordering identically to Python ``sorted``,
    or None (non-scalar keys, mixed types, NaN, oversized ints).

    1-tuples are unwrapped — comparing ``(k,)`` tuples is comparing ``k``.
    The type sweeps run at C level (``map(type, …)``): this sits in front
    of every array sort and multi-search.
    """
    types = set(map(type, keys))
    if types == {tuple}:
        if set(map(len, keys)) != {1}:
            return None
        keys = [key[0] for key in keys]
        types = set(map(type, keys))
    if types <= {int}:  # bool is its own type and is refused
        try:
            array = np.fromiter(keys, dtype=np.int64, count=len(keys))
        except OverflowError:
            return None
        if keys and not (
            -_SORT_INT_LIMIT < int(array.min()) and int(array.max()) < _SORT_INT_LIMIT
        ):
            return None
        return array
    if types == {float}:
        array = np.fromiter(keys, dtype=np.float64, count=len(keys))
        return None if np.isnan(array).any() else array
    return None


def _sort_vec(dist: Distributed, key_fn: Callable[[Any], Any]) -> Optional[Distributed]:
    """Vectorized no-tiebreak sample sort for numeric scalar (or 1-tuple)
    keys: same samples, same splitters, same routing, same local order as
    the bisect path — stable argsort reproduces Timsort's permutation.

    Returns None (before any communication) when any part's keys are not
    uniformly numeric.
    """
    from ..backends.kernels import select_splitters

    view = dist.view
    p = view.p
    staged: List[Any] = []
    for part in dist.parts:
        arrays = _scalar_keys([key_fn(item) for item in part])
        if arrays is None and part:
            return None
        staged.append(arrays)

    sample_blocks: List[Any] = []
    gathered = 0
    for arrays in staged:
        if arrays is None or arrays.shape[0] == 0:
            continue
        ordered = np.sort(arrays, kind="stable")
        step = max(1, ordered.shape[0] // p)
        block = ordered[::step][:p]
        sample_blocks.append(block)
        gathered += block.shape[0]
    view.control_gather([None] * gathered)
    if sample_blocks:
        samples = np.sort(np.concatenate(sample_blocks), kind="stable")
    else:
        samples = np.empty(0, dtype=np.int64)
    splitters = select_splitters(samples, p)
    view.control_scatter(int(splitters.shape[0]))

    outboxes: List[List[Tuple[int, Any]]] = []
    for part, arrays in zip(dist.parts, staged):
        if arrays is None or arrays.shape[0] == 0:
            outboxes.append([])
            continue
        dests = np.searchsorted(splitters, arrays, side="right").tolist()
        outboxes.append(list(zip(dests, part)))
    inboxes = view.exchange(outboxes)

    sorted_parts: List[List[Any]] = []
    for inbox in inboxes:
        arrays = _scalar_keys([key_fn(item) for item in inbox])
        if arrays is None:
            sorted_parts.append(sorted(inbox, key=key_fn))
            continue
        order = np.argsort(arrays, kind="stable").tolist()
        sorted_parts.append([inbox[i] for i in order])
    return Distributed(view, sorted_parts)
