"""High-level query builders — the sugar a downstream user reaches for.

The paper's formalism covers many everyday queries as special cases
(§1.1); these helpers build them without touching ``TreeQuery`` by hand:

* :func:`count_group_by` — ``SELECT y, COUNT(*) … GROUP BY y`` (annotations
  forced to 1 over the counting semiring);
* :func:`join_project` — the conjunctive query ``π_y(R1 ⋈ … ⋈ Rn)``
  (boolean semiring; returns the set of output tuples);
* :func:`k_hop` — ``∑ E(A0,A1) ⋈ E(A1,A2) ⋈ … ⋈ E(Ak−1,Ak)`` over any
  semiring: k-hop path counting, reachability, or shortest paths from one
  edge relation (a length-k line query, §4).

Each runs under an optional :class:`~repro.config.ExecutionConfig`
(default ``ExecutionConfig(p=16)``).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Set, Tuple

from .config import ExecutionConfig
from .core.executor import QueryResult, run_query
from .data.query import Instance, TreeQuery
from .data.relation import Relation
from .semiring import BOOLEAN, COUNTING, Semiring

__all__ = ["count_group_by", "join_project", "k_hop"]


def count_group_by(
    relations: Mapping[str, Relation],
    schemas: Sequence[Tuple[str, Tuple[str, str]]],
    group_by: Sequence[str],
    config: Optional[ExecutionConfig] = None,
) -> QueryResult:
    """COUNT(*) GROUP BY ``group_by`` over the natural join of ``schemas``.

    Existing annotations are ignored (set to 1).  With ``group_by = []``
    the result is the full join size |Q(R)| as a single tuple.
    """
    query = TreeQuery(tuple(schemas), frozenset(group_by))
    recounted = {
        name: Relation(name, rel.schema, [(values, 1) for values, _ in rel])
        for name, rel in relations.items()
    }
    instance = Instance(query, recounted, COUNTING)
    return run_query(instance, config or ExecutionConfig(p=16))


def join_project(
    relations: Mapping[str, Relation],
    schemas: Sequence[Tuple[str, Tuple[str, str]]],
    output: Sequence[str],
    config: Optional[ExecutionConfig] = None,
) -> Set[Tuple]:
    """The conjunctive query π_output(⋈ schemas): distinct output tuples."""
    query = TreeQuery(tuple(schemas), frozenset(output))
    as_boolean = {
        name: Relation(name, rel.schema, [(values, True) for values, _ in rel])
        for name, rel in relations.items()
    }
    instance = Instance(query, as_boolean, BOOLEAN)
    result = run_query(instance, config or ExecutionConfig(p=16))
    return {values for values, present in result.relation if present}


def k_hop(
    edges: Relation,
    k: int,
    semiring: Semiring,
    config: Optional[ExecutionConfig] = None,
) -> QueryResult:
    """Aggregate over all k-hop paths: result (source, target) → ⊕ over
    paths of the ⊗-product of edge annotations.

    Over COUNTING this counts k-hop paths, over BOOLEAN it is k-hop
    reachability, over (min,+) the cheapest k-hop route — one line query,
    many classics.
    """
    if k < 1:
        raise ValueError("k_hop needs k ≥ 1")
    if len(edges.schema) != 2:
        raise ValueError("k_hop needs a binary edge relation")
    attrs = [f"__H{i}" for i in range(k + 1)]
    schemas = tuple((f"E{i}", (attrs[i], attrs[i + 1])) for i in range(k))
    copies: Dict[str, Relation] = {
        f"E{i}": Relation(f"E{i}", (attrs[i], attrs[i + 1]), list(edges))
        for i in range(k)
    }
    query = TreeQuery(schemas, frozenset({attrs[0], attrs[-1]}))
    instance = Instance(query, copies, semiring)
    return run_query(instance, config or ExecutionConfig(p=16))
