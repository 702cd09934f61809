"""Parallel-packing (paper §2.1, [14]).

Given items with sizes ``0 < x_i ≤ 1``, group them into sets ``Y_1 … Y_m``
with every group total ≤ 1, all but (at most) one group total ≥ 1/2, and
``m ≤ 1 + 2·Σx_i``.

Construction (zero data rounds, O(m) control traffic):

1. *Big* items (size ≥ 1/2) each form their own group.
2. *Small* items are pre-grouped by a distributed exclusive prefix sum with
   window ½ (pre-group = ⌊prefix/½⌋), so every pre-group total is < 1 and
   the number of pre-groups is ≤ 1 + 2·Σx.
3. The coordinator greedily merges consecutive pre-group totals until each
   merged group reaches ≥ ½ (staying < 1 because every pre-group added to a
   deficient group is itself < 1 − ½ + … see inline invariant), and scatters
   the pre-group → group map.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..mpc.distributed import Distributed
from .scan import exclusive_prefix

__all__ = ["parallel_packing", "scoped_parallel_packing"]


def parallel_packing(
    dist: Distributed, size_fn: Callable[[Any], float]
) -> Tuple[Distributed, int]:
    """Return ``(pairs, m)``: pairs are ``(item, group_index)`` on the same
    view; ``m`` is the number of groups.  Raises on sizes outside ``(0, 1]``."""
    view = dist.view

    def checked_size(item: Any) -> float:
        size = size_fn(item)
        if not 0 < size <= 1:
            raise ValueError(f"parallel-packing size {size!r} outside (0, 1]")
        return size

    big = dist.filter_items(lambda item: checked_size(item) >= 0.5)
    small = dist.filter_items(lambda item: size_fn(item) < 0.5)

    # Step 2: distributed pre-grouping of the small items.
    prefixed, _small_total = exclusive_prefix(small, size_fn)
    pre_pairs = prefixed.map_items(lambda pair: (pair[0], int(pair[1] // 0.5)))

    # Pre-group totals (control channel: one partial per (server, pre-group),
    # at most 2 pre-groups overlap a server boundary so this is O(m + p)).
    local_totals: List[Dict[int, float]] = []
    for part in pre_pairs.parts:
        totals: Dict[int, float] = {}
        for item, pre_group in part:
            totals[pre_group] = totals.get(pre_group, 0.0) + size_fn(item)
        local_totals.append(totals)
    flattened = [pair for totals in local_totals for pair in totals.items()]
    view.control_gather(flattened)
    pre_totals: Dict[int, float] = {}
    for pre_group, value in flattened:
        pre_totals[pre_group] = pre_totals.get(pre_group, 0.0) + value

    # Step 3: coordinator merge.  Invariant: a group is closed as soon as its
    # total reaches ½; every pre-group total is < 1, and a pre-group is only
    # added to a group with total < ½ — but a pre-group of total ≥ ½ then
    # closes it at < ½ + 1 = 1.5…  To keep totals ≤ 1 we treat pre-groups of
    # total ≥ ½ like big items (own group) and only merge the < ½ ones,
    # giving merged totals < ½ + ½ = 1.
    group_of_pre: Dict[int, int] = {}
    next_group = 0
    current_total = 0.0
    current_members: List[int] = []
    for pre_group in sorted(pre_totals):
        total = pre_totals[pre_group]
        if total >= 0.5:
            group_of_pre[pre_group] = next_group
            next_group += 1
            continue
        current_members.append(pre_group)
        current_total += total
        if current_total >= 0.5:
            for member in current_members:
                group_of_pre[member] = next_group
            next_group += 1
            current_members = []
            current_total = 0.0
    if current_members:
        for member in current_members:
            group_of_pre[member] = next_group
        next_group += 1
    view.control_scatter(max(1, len(group_of_pre)))

    small_offset = next_group
    small_final = pre_pairs.map_items(
        lambda pair: (pair[0], group_of_pre[pair[1]])
    )

    # Step 1: big items numbered after the merged groups via a zero-round
    # prefix count.
    big_prefixed, big_count = exclusive_prefix(big, lambda _item: 1.0)
    big_final = big_prefixed.map_items(
        lambda pair: (pair[0], small_offset + int(pair[1]))
    )

    groups = small_offset + int(big_count)
    return small_final.concat(big_final), groups


def scoped_parallel_packing(
    dist: Distributed,
    scope_fn: Callable[[Any], Any],
    size_fn: Callable[[Any], float],
) -> Tuple[Distributed, Dict[Any, int]]:
    """Parallel-packing *within scopes*: items of different scopes never share
    a group (needed by §3.2 step 4, which packs light columns per row-group).

    Returns ``(pairs, groups_per_scope)`` where pairs are
    ``(item, (scope, group_index))`` and group indices are dense within each
    scope.  The per-scope invariants match :func:`parallel_packing`:
    every group total ≤ 1 and all but at most one group per scope ≥ ½.

    One data round (the sort by scope); control traffic O(#pre-groups).
    """
    from .sort import distributed_sort

    def checked_size(item: Any) -> float:
        size = size_fn(item)
        if not 0 < size <= 1:
            raise ValueError(f"parallel-packing size {size!r} outside (0, 1]")
        return size

    ordered = distributed_sort(dist, lambda item: _scope_sort_key(scope_fn(item)))
    big = ordered.filter_items(lambda item: checked_size(item) >= 0.5)
    small = ordered.filter_items(lambda item: size_fn(item) < 0.5)

    prefixed, _total = exclusive_prefix(small, size_fn)
    pre_pairs = prefixed.map_items(
        lambda pair: (pair[0], (scope_fn(pair[0]), int(pair[1] // 0.5)))
    )

    view = dist.view
    local_totals: List[Dict[Tuple[Any, int], float]] = []
    for part in pre_pairs.parts:
        totals: Dict[Tuple[Any, int], float] = {}
        for item, pre_key in part:
            totals[pre_key] = totals.get(pre_key, 0.0) + size_fn(item)
        local_totals.append(totals)
    flattened = [pair for totals in local_totals for pair in totals.items()]
    view.control_gather(flattened)
    pre_totals: Dict[Tuple[Any, int], float] = {}
    for pre_key, value in flattened:
        pre_totals[pre_key] = pre_totals.get(pre_key, 0.0) + value

    group_of_pre: Dict[Tuple[Any, int], int] = {}
    groups_per_scope: Dict[Any, int] = {}

    def next_group(scope: Any) -> int:
        index = groups_per_scope.get(scope, 0)
        groups_per_scope[scope] = index + 1
        return index

    current_scope: Any = object()  # sentinel distinct from every real scope
    current_total = 0.0
    current_members: List[Tuple[Any, int]] = []

    def flush() -> None:
        nonlocal current_total, current_members
        if current_members:
            index = next_group(current_scope)
            for member in current_members:
                group_of_pre[member] = index
        current_members = []
        current_total = 0.0

    for pre_key in sorted(pre_totals, key=lambda k: (_scope_sort_key(k[0]), k[1])):
        scope, _window = pre_key
        if scope != current_scope:
            flush()
            current_scope = scope
        total = pre_totals[pre_key]
        if total >= 0.5:
            group_of_pre[pre_key] = next_group(scope)
            continue
        current_members.append(pre_key)
        current_total += total
        if current_total >= 0.5:
            flush()
            current_scope = scope
    flush()
    view.control_scatter(max(1, len(group_of_pre)))

    small_final = pre_pairs.map_items(
        lambda pair: (pair[0], (pair[1][0], group_of_pre[pair[1]]))
    )

    def big_group(item: Any) -> Tuple[Any, int]:
        scope = scope_fn(item)
        return (scope, next_group(scope))

    big_final = big.map_items(lambda item: (item, big_group(item)))
    return small_final.concat(big_final), groups_per_scope


def _scope_sort_key(scope: Any) -> Any:
    """Sortable proxy for arbitrary hashable scopes (mixed types)."""
    return (str(type(scope)), repr(scope))
