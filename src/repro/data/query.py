"""Tree join-aggregate queries and their classification (paper §1.1, §1.5).

A :class:`TreeQuery` is a natural join whose hypergraph is a tree of binary
relations, together with a set of output attributes ``y``.  The paper's
algorithm zoo is organized by query shape; :meth:`TreeQuery.classify` places
a query into the finest class an algorithm exists for:

* ``free-connex`` — output attributes form a connected subtree (§1.2);
* ``matmul`` — ∑_B R1(A,B) ⋈ R2(B,C) (§3);
* ``line`` — path query, endpoints output (§4);
* ``star`` — all relations share a non-output centre, leaves output (§5);
* ``star-like`` — line-query arms sharing one non-output attribute (§6);
* ``twig`` — output attributes are exactly the leaves (§7.1);
* ``tree`` — anything else (general case, §7).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..semiring import Semiring
from .hypergraph import attribute_degrees, tree_adjacency
from .relation import Relation

__all__ = ["TreeQuery", "Instance", "QueryClass"]

QueryClass = str  # one of the literals documented above


@dataclass(frozen=True)
class TreeQuery:
    """An acyclic join-aggregate query over binary relations.

    ``relations[i] = (name, (x, y))`` and ``output ⊆ attributes``.
    """

    relations: Tuple[Tuple[str, Tuple[str, str]], ...]
    output: FrozenSet[str]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.relations]
        if len(set(names)) != len(names):
            raise ValueError("relation names must be unique")
        adjacency = tree_adjacency(self.relations)  # validates tree-ness
        unknown = set(self.output) - set(adjacency)
        if unknown:
            raise ValueError(f"output attributes {unknown!r} not in the query")

    # -- structure ---------------------------------------------------------------

    @cached_property
    def adjacency(self) -> Dict[str, List[Tuple[int, str]]]:
        return tree_adjacency(self.relations)

    @cached_property
    def attributes(self) -> FrozenSet[str]:
        return frozenset(self.adjacency)

    @cached_property
    def degrees(self) -> Dict[str, int]:
        return attribute_degrees(self.relations)

    @cached_property
    def leaves(self) -> FrozenSet[str]:
        return frozenset(a for a, d in self.degrees.items() if d == 1)

    @property
    def n(self) -> int:
        return len(self.relations)

    def relation_named(self, name: str) -> Tuple[str, Tuple[str, str]]:
        for entry in self.relations:
            if entry[0] == name:
                return entry
        raise KeyError(name)

    def schema_of(self, name: str) -> Tuple[str, str]:
        return self.relation_named(name)[1]

    def relation_between(self, left: str, right: str) -> str:
        """Name of the relation over attributes ``{left, right}`` (KeyError
        when the tree has no such edge)."""
        for name, attrs in self.relations:
            if set(attrs) == {left, right}:
                return name
        raise KeyError((left, right))

    # -- orientation helpers --------------------------------------------------------

    def path_order(self) -> Optional[List[str]]:
        """Attribute sequence if the tree is a path, else ``None``."""
        degrees = self.degrees
        if any(d > 2 for d in degrees.values()):
            return None
        endpoints = sorted(a for a, d in degrees.items() if d == 1)
        if len(endpoints) != 2:
            return None
        order = [endpoints[0]]
        previous: Optional[str] = None
        while True:
            current = order[-1]
            next_attrs = [b for _, b in self.adjacency[current] if b != previous]
            if not next_attrs:
                break
            previous = current
            order.append(next_attrs[0])
        return order

    def postorder(self, root: str) -> List[Tuple[int, str, str]]:
        """Relations as ``(index, child_attr, parent_attr)`` in a bottom-up
        order towards ``root`` (leaves first)."""
        if root not in self.attributes:
            raise KeyError(root)
        order: List[Tuple[int, str, str]] = []
        stack: List[Tuple[str, Optional[int]]] = [(root, None)]
        visit: List[Tuple[int, str, str]] = []
        seen_edges = set()
        while stack:
            attr, via = stack.pop()
            for rel_index, neighbour in self.adjacency[attr]:
                if rel_index == via or rel_index in seen_edges:
                    continue
                seen_edges.add(rel_index)
                visit.append((rel_index, neighbour, attr))
                stack.append((neighbour, rel_index))
        order = list(reversed(visit))
        return order

    def centre(self) -> Optional[str]:
        """The unique attribute of degree ≥ 3, if there is exactly one."""
        high = [a for a, d in self.degrees.items() if d >= 3]
        return high[0] if len(high) == 1 else None

    # -- classification ----------------------------------------------------------------

    def is_free_connex(self) -> bool:
        """Output attributes form a connected subtree (footnote 1)."""
        output = set(self.output)
        if len(output) <= 1:
            return True
        start = next(iter(output))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for _, neighbour in self.adjacency[current]:
                if neighbour in output and neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return seen == output

    def is_line(self) -> bool:
        """Path query whose outputs are exactly the two endpoints (§4)."""
        order = self.path_order()
        if order is None:
            return False
        return self.output == frozenset({order[0], order[-1]}) and len(order) >= 3

    def is_matmul(self) -> bool:
        return self.is_line() and self.n == 2

    def is_star(self) -> bool:
        """All relations share one non-output centre; leaves output (§5)."""
        if self.n < 2:
            return False
        shared = set.intersection(*(set(attrs) for _, attrs in self.relations))
        if len(shared) != 1:
            return False
        centre = next(iter(shared))
        others = self.attributes - {centre}
        return centre not in self.output and self.output == others

    def is_star_like(self) -> bool:
        """Line-query arms glued at one shared non-output attribute (§6).

        Structurally: every leaf is output, every internal attribute is
        non-output, and at most one attribute has degree ≥ 3.
        """
        if not self.is_twig():
            return False
        high = [a for a, d in self.degrees.items() if d >= 3]
        return len(high) <= 1

    def is_twig(self) -> bool:
        """Output attributes are exactly the leaves (§7.1)."""
        return self.output == self.leaves and self.n >= 1

    def classify(self) -> QueryClass:
        """Finest matching class, in the dispatch order used by the executor."""
        if self.is_free_connex():
            return "free-connex"
        if self.is_matmul():
            return "matmul"
        if self.is_line():
            return "line"
        if self.is_star():
            return "star"
        if self.is_star_like():
            return "star-like"
        if self.is_twig():
            return "twig"
        return "tree"


@dataclass
class Instance:
    """A query together with its relations and the semiring of annotations."""

    query: TreeQuery
    relations: Mapping[str, Relation]
    semiring: Semiring

    def __post_init__(self) -> None:
        for name, attrs in self.query.relations:
            if name not in self.relations:
                raise ValueError(f"missing relation {name!r}")
            if self.relations[name].schema != attrs:
                raise ValueError(
                    f"relation {name!r} schema {self.relations[name].schema!r} "
                    f"does not match query schema {attrs!r}"
                )

    @property
    def total_size(self) -> int:
        """The paper's N = Σ_e |R_e|."""
        return sum(len(r) for r in self.relations.values())

    def max_relation_size(self) -> int:
        return max(len(r) for r in self.relations.values())

    def relation(self, name: str) -> Relation:
        return self.relations[name]
