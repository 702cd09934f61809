"""Degree statistics and degree-annotation joins (paper §2.1).

The degree of value ``a`` in relation ``R_e`` w.r.t. attribute ``v`` is
``|σ_{v=a} R_e|``.  Degrees drive every heavy/light decomposition in the
paper.  ``attach_by_key`` co-partitions a dataset with a small per-key side
table (degrees, sketch estimates, group ids, …) and tags each item with its
key's entry — the workhorse for "identify tuples as heavy or light".  The
label split built on it is spelled once here: :func:`label_tuples` labels a
relation's tuples by one attribute's table entry, :func:`select_labelled`
keeps one label class as a relation, and :func:`distinct_labels` tells the
coordinator which classes exist.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from ..backends.dispatch import np
from ..data.relation import DistRelation
from ..mpc.distributed import Distributed
from .multi_search import multi_search_reference, multi_search_rows
from .reduce_by_key import count_by_key, distinct_keys

__all__ = [
    "degree_table",
    "attach_by_key",
    "label_tuples",
    "select_labelled",
    "distinct_labels",
    "lookup_table",
]


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
) -> Distributed:
    """Pair every item with its key's table entry: ``(item, entry)``.

    ``table`` holds ``(key, entry)`` pairs (one per key).  Implemented as a
    multi-search against the table so a heavy key's items stay spread over
    many servers (a hash co-partitioning would stack them on one); missing
    keys get ``default``.  The result is key-sorted with ties split.
    """
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


def label_tuples(
    relation: DistRelation, table: Distributed, attribute: str, default: Any = None
) -> Distributed:
    """``(tuple, label)`` pairs: every tuple of ``relation`` with the entry
    ``table`` holds for its ``attribute`` value (``default`` when it holds
    none) — the paper's "identify each tuple as heavy or light".  ``table``
    is keyed by bare attribute values; see :func:`attach_by_key`."""
    index = relation.attr_index(attribute)
    return attach_by_key(relation.data, table, lambda item: item[0][index], default)


def select_labelled(
    relation: DistRelation, labelled: Distributed, keep: Callable[[Any], bool]
) -> DistRelation:
    """The tuples of ``labelled`` (a :func:`label_tuples` result for
    ``relation``) whose label satisfies ``keep``, as a relation with the
    labels stripped; one local pass."""
    return relation.with_data(
        labelled.map_parts(lambda part: [item for item, label in part if keep(label)])
    )


def distinct_labels(table: Distributed, salt: int = 0) -> List[Any]:
    """The distinct labels of a ``(key, label)`` table, sorted, at the
    coordinator: one reduce-by-key on the labels, then one control message
    per distinct label (there are O(1) of them — permutations, degree
    classes — never bulk data)."""
    labels = distinct_keys(table, lambda pair: pair[1], salt).collect()
    table.view.control_gather(labels)
    return sorted(labels)


def lookup_table(pairs: Distributed) -> Dict[Any, Any]:
    """Materialize a small ``(key, entry)`` dataset at the coordinator
    (control channel); used for O(p)-sized statistics such as heavy-value
    lists, never for bulk data."""
    view = pairs.view
    collected = pairs.collect()
    view.control_gather(collected)
    return dict(collected)
