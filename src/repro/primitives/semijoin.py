"""Distributed semijoin (paper §2.1: "a semijoin can be computed by a
multi-search").

Built on :func:`~repro.primitives.multi_search.multi_search_items` so that a
*heavy* key — one matching N tuples — spreads its tuples across servers
(the sorted union splits ties); a hash co-partitioning formulation would
pile all of them onto one server and break the O(N/p) load bound.  On the
array path a :class:`~repro.mpc.columnar.ColumnarData` target stays one:
its batch taken at the kept rows, cut by their result servers.
"""

from __future__ import annotations

from typing import Any, Callable

from ..mpc.columnar import ColumnarData
from ..mpc.distributed import Distributed
from .multi_search import multi_search_reference, multi_search_rows
from .reduce_by_key import distinct_keys

__all__ = ["semijoin", "anti_semijoin"]


def _filtered(
    target: Distributed,
    source: Distributed,
    key_fn: Callable[[Any], Any],
    source_key_fn: Callable[[Any], Any],
    keep_present: bool,
    salt: int,
) -> Distributed:
    keys = distinct_keys(source, source_key_fn, salt)
    rows = multi_search_rows(target, keys, key_fn, lambda key: key)
    if rows is not None:
        keep = rows.exact == keep_present
        if isinstance(target, ColumnarData):  # the kept rows, still in codes
            return target.with_batch(
                target.batch.take(rows.queries[keep]), rows.servers[keep]
            )
        items = target.collect()
        return rows.spread(
            target.view, [items[q] for q in rows.queries[keep].tolist()], keep
        )
    matched = multi_search_reference(
        target, keys, key_fn, lambda key: key
    )
    return matched.filter_items(
        lambda pair: (pair[1] == key_fn(pair[0])) == keep_present
    ).map_items(lambda pair: pair[0])


def semijoin(
    target: Distributed,
    source: Distributed,
    key_fn: Callable[[Any], Any],
    source_key_fn: Callable[[Any], Any] | None = None,
    salt: int = 0,
) -> Distributed:
    """Target items whose key appears in the source (key-sorted layout)."""
    return _filtered(target, source, key_fn, source_key_fn or key_fn, True, salt)


def anti_semijoin(
    target: Distributed,
    source: Distributed,
    key_fn: Callable[[Any], Any],
    source_key_fn: Callable[[Any], Any] | None = None,
    salt: int = 0,
) -> Distributed:
    """Target items whose key does *not* appear in the source."""
    return _filtered(target, source, key_fn, source_key_fn or key_fn, False, salt)
