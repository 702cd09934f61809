"""Degree statistics and degree-annotation joins (paper §2.1).

The degree of value ``a`` in relation ``R_e`` w.r.t. attribute ``v`` is
``|σ_{v=a} R_e|``.  Degrees drive every heavy/light decomposition in the
paper.  ``attach_by_key`` co-partitions a dataset with a small per-key side
table (degrees, sketch estimates, group ids, …) and tags each item with its
key's entry — the workhorse for "identify tuples as heavy or light".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..backends.dispatch import np
from ..mpc.distributed import Distributed
from .multi_search import multi_search_reference, multi_search_rows
from .reduce_by_key import count_by_key

__all__ = ["degree_table", "attach_by_key", "lookup_table"]


def degree_table(
    dist: Distributed, key_fn: Callable[[Any], Any], salt: int = 0
) -> Distributed:
    """``(key, degree)`` pairs, hash-partitioned by key."""
    return count_by_key(dist, key_fn, salt)


def attach_by_key(
    dist: Distributed,
    table: Distributed,
    key_fn: Callable[[Any], Any],
    default: Any = None,
    salt: int = 0,
) -> Distributed:
    """Pair every item with its key's table entry: ``(item, entry)``.

    ``table`` holds ``(key, entry)`` pairs (one per key).  Implemented as a
    multi-search against the table so a heavy key's items stay spread over
    many servers (a hash co-partitioning would stack them on one); missing
    keys get ``default``.  The result is key-sorted with ties split.
    """
    del salt  # kept for API stability; the sorted formulation needs no hash
    rows = multi_search_rows(dist, table, key_fn, lambda pair: pair[0])
    if rows is not None:
        items = dist.collect()
        entries = [pair[1] for pair in table.items()] + [default]  # row −1
        matches = np.where(rows.exact, rows.predecessors, -1)
        return rows.spread(dist.view, [
            (items[q], entries[r])
            for q, r in zip(rows.queries.tolist(), matches.tolist())
        ])
    matched = multi_search_reference(dist, table, key_fn, lambda pair: pair[0])
    return matched.map_items(
        lambda row: (
            row[0],
            row[1][1]
            if row[1] is not None and row[1][0] == key_fn(row[0])
            else default,
        )
    )


def lookup_table(pairs: Distributed) -> Dict[Any, Any]:
    """Materialize a small ``(key, entry)`` dataset at the coordinator
    (control channel); used for O(p)-sized statistics such as heavy-value
    lists, never for bulk data."""
    view = pairs.view
    collected = pairs.collect()
    view.control_gather(collected)
    return dict(collected)
