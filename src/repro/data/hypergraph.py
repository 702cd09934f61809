"""Join hypergraphs and acyclicity (paper §1.1).

A natural join is a hypergraph ``Q = (V, E)``: vertices are attributes,
hyperedges are relation schemas.  The paper restricts to *binary* relations
whose edge graph is a tree; this module provides the general hypergraph with
GYO-reduction acyclicity (used for validation) and the tree-specific
adjacency structure every algorithm walks.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

__all__ = [
    "Hypergraph",
    "is_alpha_acyclic",
    "tree_adjacency",
    "attribute_degrees",
    "join_tree_edges",
]


class Hypergraph:
    """An immutable hypergraph over named attributes."""

    def __init__(self, edges: Iterable[Sequence[str]]) -> None:
        self.edges: Tuple[FrozenSet[str], ...] = tuple(frozenset(e) for e in edges)
        if not self.edges:
            raise ValueError("hypergraph needs at least one edge")
        vertices: Set[str] = set()
        for edge in self.edges:
            if not edge:
                raise ValueError("empty hyperedge")
            vertices |= edge
        self.vertices: FrozenSet[str] = frozenset(vertices)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hypergraph({[set(e) for e in self.edges]})"


def is_alpha_acyclic(hypergraph: Hypergraph) -> bool:
    """GYO reduction: repeatedly remove *ears* until nothing is left.

    An ear is an edge whose non-exclusive vertices are all contained in some
    other edge.  The hypergraph is α-acyclic iff the reduction empties it.
    """
    edges: List[Set[str]] = [set(e) for e in hypergraph.edges]
    changed = True
    while changed and len(edges) > 1:
        changed = False
        # Remove vertices that occur in exactly one edge (they never block).
        counts: Dict[str, int] = {}
        for edge in edges:
            for vertex in edge:
                counts[vertex] = counts.get(vertex, 0) + 1
        for edge in edges:
            exclusive = {v for v in edge if counts[v] == 1}
            if exclusive:
                edge -= exclusive
                changed = True
        # Remove empty edges and edges contained in another edge.
        survivors: List[Set[str]] = []
        for i, edge in enumerate(edges):
            if not edge:
                changed = True
                continue
            contained = any(
                j != i and edge <= other for j, other in enumerate(edges)
            )
            if contained:
                changed = True
            else:
                survivors.append(edge)
        edges = survivors
    return len(edges) <= 1


def tree_adjacency(
    relations: Sequence[Tuple[str, Tuple[str, str]]],
) -> Dict[str, List[Tuple[int, str]]]:
    """Adjacency of the attribute tree of a binary-relation query.

    ``relations[i] = (name, (x, y))``.  Returns attribute →
    list of ``(relation index, neighbour attribute)``.  Raises if the edge
    graph is not a tree (cycle, self-loop, or disconnected).
    """
    adjacency: Dict[str, List[Tuple[int, str]]] = {}
    for index, (name, attrs) in enumerate(relations):
        if len(attrs) != 2 or attrs[0] == attrs[1]:
            raise ValueError(f"relation {name!r} must have two distinct attributes")
        x, y = attrs
        adjacency.setdefault(x, []).append((index, y))
        adjacency.setdefault(y, []).append((index, x))
    vertices = list(adjacency)
    if len(relations) != len(vertices) - 1:
        raise ValueError("edge graph is not a tree (|E| != |V| - 1)")
    # connectivity check
    seen = {vertices[0]}
    frontier = [vertices[0]]
    while frontier:
        current = frontier.pop()
        for _, neighbour in adjacency[current]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    if len(seen) != len(vertices):
        raise ValueError("edge graph is not connected")
    return adjacency


def join_tree_edges(
    relations: Sequence[Tuple[str, Sequence[str]]],
) -> List[Tuple[str, str, str]]:
    """A valid join tree over the relations of a tree query.

    Returns edges ``(name_a, name_b, shared_attribute)``.  Construction: for
    every attribute, link all relations containing it in a star around the
    first such relation.  For a binary tree query this yields exactly
    ``n − 1`` edges forming a tree in which, for every attribute, the
    relations containing it induce a connected subtree (the join-tree
    property Yannakakis needs).
    """
    first_holder: Dict[str, str] = {}
    edges: List[Tuple[str, str, str]] = []
    for name, attrs in relations:
        for attribute in attrs:
            if attribute in first_holder:
                edges.append((first_holder[attribute], name, attribute))
            else:
                first_holder[attribute] = name
    return edges


def attribute_degrees(
    relations: Sequence[Tuple[str, Tuple[str, str]]],
) -> Dict[str, int]:
    """Number of relations each attribute appears in."""
    degrees: Dict[str, int] = {}
    for _, attrs in relations:
        for attribute in attrs:
            degrees[attribute] = degrees.get(attribute, 0) + 1
    return degrees
