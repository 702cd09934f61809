"""Vectorized per-server kernels with *first-occurrence* output order.

Every kernel here replaces a Python dict/loop kernel of the tuple backend
and is required to reproduce its output **order**, not just its content:
downstream primitives tag items with (server, position) tiebreaks whose
values feed splitter sampling and routing, so any reordering — even of
equivalent results — would change the metered load.  The dict kernels all
emit results in key-first-occurrence order (Python dict insertion order),
which these kernels reconstruct with one stable argsort:

* :func:`group_reduce` — sort-and-segment-reduce equal to a dict ⊕-fold;
* :func:`first_occurrence_unique` — dedup equal to ``dict.fromkeys``;
* :func:`hash_join` — the exact elementary-product stream of the nested
  probe loops (outer side in arrival order, matches in arrival order);
* :func:`combine_columns` / :func:`split_codes` — pack multi-column keys
  into one int64 (mixed-radix over one base) and back;
* :func:`row_ids` — one id per row of code columns: packed, or a dense
  ranking of the rows for a key space too wide to pack;
* :func:`fold_rows` — the dict ⊕-fold keyed by a row of code columns:
  :func:`row_ids`, :func:`group_reduce`, unpack;
* :func:`select_splitters` — regular-sampling splitter selection;
* :func:`k_smallest_distinct` — the fold of ``KMV.merge`` per group, for
  every group, repetition and simulated server in one value sort;
* :func:`sample_sort_routes` — the tie-split sample sort's order, samples,
  splitters and destinations for every simulated server at once.

All keys are int64 code arrays from a :class:`~.columnar.ValueCodec`;
values are typed or object columns (:func:`~.columnar.encode_annotations`).
A call per simulated server is p tiny numpy calls where one suffices, so
the primitives make the server one more column of the row: reduce-by-key
folds ``(server, key columns…)`` with one :func:`fold_rows` per stage, and
the last two kernels take the server index as a column of their own.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..obs.profile import active_profiler
from .dispatch import np

__all__ = [
    "combine_columns",
    "first_occurrence_unique",
    "fold_rows",
    "group_index",
    "group_reduce",
    "hash_join",
    "k_smallest_distinct",
    "row_ids",
    "sample_sort_routes",
    "segment_gather",
    "select_splitters",
    "split_codes",
]

#: Packed multi-column keys must stay well inside int64.
_PACK_LIMIT = 1 << 62

#: Cells :func:`k_smallest_distinct` gathers and sorts at a time (1 MB of
#: uint32 composites, ~10 MB with the int64 positions beside them): bounds
#: the working set whatever the input size — 6.4 M cells in one piece put
#: a dense run's peak RSS 9 % up, slabs of this size leave it where it was.
_SLAB_CELLS = 1 << 18


def _rows(args: Tuple[Any, ...]) -> int:
    """Row count of the first array argument (the kernel's input size)."""
    return int(args[0].shape[0])


def _profiled(items_fn: Callable[[Tuple[Any, ...]], int] = _rows):
    """Record each call of the wrapped kernel as a profiler ``kernel`` span.

    The active profiler is the one the executor activated for the current
    run (:func:`repro.obs.profile.activate`); with none active — the
    default — the wrapper costs one context-variable read and one ``None``
    check, and the kernel's behaviour is untouched.  ``items_fn`` maps the
    call's positional arguments to the item count credited to the span.
    """

    def decorate(fn):
        label = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            profiler = active_profiler()
            if profiler is None:
                return fn(*args, **kwargs)
            with profiler.span(label, "kernel", "columnar") as span:
                result = fn(*args, **kwargs)
                span.add_items(items_fn(args))
            return result

        return wrapper

    return decorate


@_profiled()
def group_reduce(ids: Any, values: Any, add_ufunc: Any) -> Tuple[Any, Any]:
    """⊕-fold ``values`` per id — the dict-fold kernel, vectorized.

    Returns ``(unique_ids, reduced)`` with unique ids in first-occurrence
    order, exactly the ``.items()`` order of::

        acc = {}
        for i, v in zip(ids, values):
            acc[i] = add(acc[i], v) if i in acc else v

    A typed column's ``add_ufunc`` must be order-insensitive (the profiles
    guarantee this): segment reduction reassociates.
    """
    n = ids.shape[0]
    if n == 0:
        return ids[:0], values[:0]
    if add_ufunc is np.add and values.dtype == np.int64 and n >= 1024:
        fast = _group_sum_bincount(ids, values, n)
        if fast is not None:
            return fast
    # Quicksort beats the stable radix argsort ~4x on int64 keys, and the
    # fold tolerates intra-group permutation whenever ⊕ is bitwise
    # permutation-insensitive on the dtype — true for the int/bool
    # profiles.  Float min/max is value-insensitive but can see ±0.0
    # (equal-comparing, distinct bits) and an object ⊕ may be anything
    # (REAL's +): both keep the stable sort's exact arrival-order fold.
    stable = values.dtype.kind in "fO"
    order = np.argsort(ids, kind="stable" if stable else None)
    sorted_ids = ids[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    )
    if values.dtype == object:  # Python warns of no IEEE flag (min of NaN)
        with np.errstate(all="ignore"):
            reduced = add_ufunc.reduceat(values[order], starts)
    else:
        reduced = add_ufunc.reduceat(values[order], starts)
    # First-occurrence position per group: directly under a stable sort,
    # else the minimum original position within each segment.
    firsts = order[starts] if stable else np.minimum.reduceat(order, starts)
    rank = np.argsort(firsts, kind="stable")
    return sorted_ids[starts][rank], reduced[rank]


def _group_sum_bincount(ids: Any, values: Any, n: int) -> Optional[Tuple[Any, Any]]:
    """Sort-free int64 ⊕=+ fold for dense non-negative key spaces, or None.

    ``np.bincount`` accumulates in float64, which is exact as long as every
    partial sum is an integer below 2^53 — guaranteed here by bounding
    ``n * max|value|``.  First-occurrence order is recovered without a sort
    by scattering positions in reverse (with repeated indices the last
    assignment wins, so each key keeps its smallest position)."""
    span = int(ids.max()) + 1
    if int(ids.min()) < 0 or span > 4 * n + 1024:
        return None
    bound = max(abs(int(values.max())), abs(int(values.min()))) if n else 0
    if bound * n >= 1 << 53:
        return None
    counts = np.bincount(ids, minlength=span)
    sums = np.bincount(ids, weights=values, minlength=span)
    present = np.flatnonzero(counts)
    first_pos = np.zeros(span, dtype=np.int64)
    first_pos[ids[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
    unique = present[np.argsort(first_pos[present])]
    return unique, sums[unique].astype(np.int64)


@_profiled()
def first_occurrence_unique(ids: Any) -> Any:
    """Unique ids in first-occurrence order (= ``dict.fromkeys`` order)."""
    if ids.shape[0] == 0:
        return ids[:0]
    # Non-stable sort suffices: the first occurrence of a group is the
    # minimum original position within its segment.
    order = np.argsort(ids)
    sorted_ids = ids[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    )
    return ids[np.sort(np.minimum.reduceat(order, starts))]


def group_index(ids: Any) -> Tuple[Any, Any, Any, Any]:
    """Group rows by id: ``(order, unique_sorted, starts, counts)``.

    ``order`` is the stable permutation grouping equal ids together (arrival
    order within a group); ``unique_sorted[g]`` spans
    ``order[starts[g] : starts[g] + counts[g]]``.
    """
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    if sorted_ids.shape[0] == 0:
        empty = ids[:0]
        return order, empty, empty, empty
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    )
    counts = np.diff(np.concatenate((starts, [sorted_ids.shape[0]])))
    return order, sorted_ids[starts], starts, counts


def segment_gather(starts: Any, counts: Any) -> Any:
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` segments."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(ends - counts, counts)
        + np.repeat(starts, counts)
    )


@_profiled(lambda args: int(args[0].shape[0]) + int(args[1].shape[0]))
def hash_join(left_ids: Any, right_ids: Any, outer: str = "right") -> Tuple[Any, Any]:
    """Positions of every elementary product, in the tuple kernels' order.

    ``outer="right"`` replays ``local_join_aggregate``: for each right item
    in arrival order, all matching left items in arrival order.
    ``outer="left"`` is the mirror.  Returns ``(left_positions,
    right_positions)`` of equal length (the product count).
    """
    if outer == "right":
        build_ids, probe_ids = left_ids, right_ids
    elif outer == "left":
        build_ids, probe_ids = right_ids, left_ids
    else:  # pragma: no cover - internal misuse
        raise ValueError(f"outer must be 'left' or 'right', got {outer!r}")
    empty = np.empty(0, dtype=np.int64)
    if build_ids.shape[0] == 0 or probe_ids.shape[0] == 0:
        return empty, empty
    order, unique_sorted, starts, counts = group_index(build_ids)
    positions = np.searchsorted(unique_sorted, probe_ids)
    clipped = np.minimum(positions, unique_sorted.shape[0] - 1)
    matched = unique_sorted[clipped] == probe_ids
    probe_sel = np.flatnonzero(matched)
    if probe_sel.shape[0] == 0:
        return empty, empty
    groups = clipped[probe_sel]
    group_counts = counts[groups]
    probe_stream = np.repeat(probe_sel, group_counts)
    build_stream = order[segment_gather(starts[groups], group_counts)]
    if outer == "right":
        return build_stream, probe_stream
    return probe_stream, build_stream


def combine_columns(
    columns: Sequence[Any], base: int, size: int
) -> Tuple[Optional[Any], int]:
    """Pack parallel code columns into one int64 key per row (mixed radix).

    Returns ``(codes, base)``; codes is None when ``base ** len(columns)``
    would not fit (the caller falls back to tuple kernels).  Zero columns
    pack to the constant 0 (the empty tuple key).
    """
    base = max(1, base)
    if len(columns) == 0:
        return np.zeros(size, dtype=np.int64), base
    packed_span = 1
    for _ in columns:
        packed_span *= base
        if packed_span >= _PACK_LIMIT:
            return None, base
    packed = columns[0].astype(np.int64, copy=True)
    for column in columns[1:]:
        packed *= base
        packed += column
    return packed, base


def split_codes(packed: Any, base: int, width: int) -> List[Any]:
    """Inverse of :func:`combine_columns`: per-column code arrays."""
    if width == 0:
        return []
    columns: List[Any] = []
    remaining = packed
    for _ in range(width - 1):
        remaining, column = np.divmod(remaining, base)
        columns.append(column)
    columns.append(remaining)
    columns.reverse()
    return columns


def row_ids(columns: Sequence[Any], size: int) -> Tuple[Any, Optional[int]]:
    """``(ids, base)``: one int64 id per row of the parallel code
    ``columns``, equal exactly when the rows are — packed by mixed radix
    over the largest code (``base`` unpacks them), or where that does not
    fit ranked densely column by column (never above ``size²``; ``base``
    None)."""
    base = 1 + max((int(column.max()) for column in columns if column.size), default=0)
    ids, base = combine_columns(columns, base, size)
    if ids is not None:
        return ids, base
    ids = np.zeros(size, dtype=np.int64)
    for column in columns:
        codes = np.unique(column, return_inverse=True)[1]
        ids = np.unique(ids * (int(codes.max()) + 1) + codes, return_inverse=True)[1]
    return ids, None


@_profiled(lambda args: int((args[0][0] if args[1] is None else args[1]).shape[0]))
def fold_rows(
    columns: Sequence[Any], values: Optional[Any], add_ufunc: Any = None
) -> Tuple[List[Any], Optional[Any]]:
    """⊕-fold ``values`` per distinct row of the parallel code ``columns``;
    ``values=None`` only deduplicates (then at least one column is needed).

    Returns ``(columns of the distinct rows, reduced)``, rows in
    first-occurrence order — the ``.items()`` of the dict fold keyed by the
    row tuple, which is never built.  Rows are keyed by :func:`row_ids`;
    ranked ones are read back at their first occurrences.
    """
    size = int((columns[0] if values is None else values).shape[0])
    if size == 0:
        return [column[:0] for column in columns], values
    ids, base = row_ids(columns, size)
    if values is None:
        unique, reduced = first_occurrence_unique(ids), None
    else:
        unique, reduced = group_reduce(ids, values, add_ufunc)
    if base is not None:
        return split_codes(unique, base, len(columns)), reduced
    rows = np.unique(ids, return_index=True)[1][unique]
    return [column[rows] for column in columns], reduced


@_profiled()
def select_splitters(samples: Any, p: int) -> Any:
    """The regular-sampling splitter pick over gathered (sorted) samples:
    ``samples[step::step][: p - 1]`` with ``step = max(1, len // p)``."""
    if samples.shape[0] == 0:
        return samples[:0]
    step = max(1, samples.shape[0] // p)
    return samples[step::step][: p - 1]


@_profiled()
def k_smallest_distinct(
    groups: Any, values: Any, k: int, sentinel: int, rows: Optional[Any] = None
) -> Tuple[Any, Any]:
    """Per group and repetition, the ``k`` smallest distinct values.

    Input row ``i`` belongs to group ``groups[i]`` and contributes the
    cells ``values[rows[i]]`` (``rows=None``: ``values[i]``), a
    ``(repetitions, width)`` block of non-negative ints padded with
    ``sentinel``, which no real value reaches.  Returns ``(firsts, out)``:
    ``firsts`` lists, ascending, the input row at which each distinct group
    first occurs, and ``out[g]`` is the ``(repetitions, k)`` block of that
    group's smallest distinct values, ascending and sentinel-padded — with
    hash ranks for values, the fold of ``KMV.merge`` over the group.

    One value sort per slab of whole groups: the cells are keyed
    ``(group·repetitions + repetition) << bits | value`` in the narrowest
    unsigned dtype that holds it, sorted, adjacent duplicates dropped, and
    the first k of every (group, repetition) run are the answer.
    """
    n = groups.shape[0]
    repetitions, width = values.shape[1:]
    if n == 0:
        return (np.empty(0, dtype=np.int64),
                np.empty((0, repetitions, k), dtype=values.dtype))
    order, _, starts, counts = group_index(groups)
    dense = np.repeat(np.arange(starts.shape[0]), counts)
    source = order if rows is None else rows[order]
    out = np.empty((starts.shape[0] * repetitions, k), dtype=values.dtype)
    bits = int(sentinel).bit_length()
    reps = np.arange(repetitions)
    offsets = np.arange(k)
    slab_rows = max(1, _SLAB_CELLS // (repetitions * width))
    low = 0
    while low < n:
        # The slab ends at the first group boundary at or past its budget.
        beyond = int(np.searchsorted(starts, low + slab_rows))
        high = int(starts[beyond]) if beyond < starts.shape[0] else n
        base = int(dense[low]) * repetitions
        runs = (dense[low:high] - dense[low])[:, None] * repetitions + reps
        count = int(runs[-1, -1]) + 1
        ctype = np.uint32 if (count - 1).bit_length() + bits <= 32 else np.uint64
        cells = (
            (runs.astype(ctype) << bits)[:, :, None] | values[source[low:high]]
        ).ravel()
        cells.sort()
        cells = cells[np.concatenate(([True], cells[1:] != cells[:-1]))]
        # Every run holds a cell, so run r spans bounds[r]:bounds[r + 1] of
        # the distinct cells and its answer is the first k of that span.
        bounds = np.append(
            np.searchsorted(cells, np.arange(count, dtype=ctype) << bits),
            cells.shape[0],
        )
        at = bounds[:-1, None] + offsets
        picked = cells[np.minimum(at, cells.shape[0] - 1)] & ((1 << bits) - 1)
        out[base : base + count] = np.where(at < bounds[1:, None], picked, sentinel)
        low = high
    firsts = order[starts]  # stable sort: a group's first row leads its run
    arrival = np.argsort(firsts)
    return firsts[arrival], out.reshape(-1, repetitions, k)[arrival]


@_profiled()
def sample_sort_routes(keys: Any, sources: Any, p: int) -> Tuple[Any, Any, int, int]:
    """The routing of a tie-split regular-sampling sort, from ranks.

    Row ``i`` has sort key ``keys[i]`` and starts on server ``sources[i]``
    (any integer dtype; the narrowest sorts fastest);
    rows are listed in tiebreak order, so one stable argsort is the total
    order the tuple path reaches by sorting ``(key, tiebreak)`` tuples.
    Every server samples its rows at ``step = max(1, len // p)`` in that
    order (at most ``p`` samples), the splitters are
    :func:`select_splitters` of the merged samples, and a row goes to the
    server numbered by the splitters at or before it.

    Returns ``(order, dests, sampled, splitters)``: the rows in sorted
    order, the (non-decreasing) destination of each row of ``order``, and
    the sample and splitter counts the control channel is charged for.
    """
    n = keys.shape[0]
    order = np.argsort(keys, kind="stable")
    if n == 0:
        return order, order, 0, 0
    # Sorted positions grouped by source server, ascending within each (a
    # stable sort of ≤ 16-bit server numbers is numpy's radix sort).
    counts = np.bincount(sources, minlength=p)
    positions = np.argsort(sources[order], kind="stable")
    within = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
    steps = np.repeat(np.maximum(1, counts // p), counts)
    sampled = (within % steps == 0) & (within // steps < p)
    samples = np.sort(positions[sampled])
    splitters = select_splitters(samples, p)
    dests = np.searchsorted(splitters, np.arange(n), side="right")
    return order, dests, int(samples.shape[0]), int(splitters.shape[0])
