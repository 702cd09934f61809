"""Hypergraphs, tree queries, and their classification (paper §1.1, §1.5)."""

import pytest

from repro.data import Hypergraph, Instance, Relation, TreeQuery, is_alpha_acyclic
from repro.data.hypergraph import join_tree_edges, tree_adjacency
from repro.semiring import COUNTING
from tests.conftest import (
    GENERAL_TREE_QUERY,
    LINE3_QUERY,
    MATMUL_QUERY,
    STAR3_QUERY,
    TWIG_QUERY,
)


# -- hypergraph --------------------------------------------------------------------


def test_gyo_accepts_acyclic():
    assert is_alpha_acyclic(Hypergraph([("A", "B"), ("B", "C"), ("C", "D")]))
    assert is_alpha_acyclic(Hypergraph([("A", "B", "C"), ("C", "D")]))
    assert is_alpha_acyclic(Hypergraph([("A", "B")]))


def test_gyo_rejects_cycle():
    assert not is_alpha_acyclic(Hypergraph([("A", "B"), ("B", "C"), ("C", "A")]))


def test_tree_adjacency_rejects_cycles_and_disconnection():
    with pytest.raises(ValueError):
        tree_adjacency([("R1", ("A", "B")), ("R2", ("B", "A"))])
    with pytest.raises(ValueError):
        tree_adjacency(
            [("R1", ("A", "B")), ("R2", ("B", "C")), ("R3", ("C", "A"))]
        )
    with pytest.raises(ValueError):
        tree_adjacency([("R1", ("A", "A"))])


def test_join_tree_edges_properties():
    for query in (MATMUL_QUERY, LINE3_QUERY, STAR3_QUERY, TWIG_QUERY, GENERAL_TREE_QUERY):
        edges = join_tree_edges(query.relations)
        assert len(edges) == query.n - 1
        # Connectivity of relations containing each attribute.
        adjacency = {name: set() for name, _ in query.relations}
        for a, b, _shared in edges:
            adjacency[a].add(b)
            adjacency[b].add(a)
        for attribute in query.attributes:
            holders = [n for n, attrs in query.relations if attribute in attrs]
            seen = {holders[0]}
            frontier = [holders[0]]
            while frontier:
                current = frontier.pop()
                for neighbour in adjacency[current]:
                    if neighbour in holders and neighbour not in seen:
                        seen.add(neighbour)
                        frontier.append(neighbour)
            assert seen == set(holders), attribute


# -- classification ------------------------------------------------------------------


def test_classification_matrix():
    assert MATMUL_QUERY.classify() == "matmul"
    assert LINE3_QUERY.classify() == "line"
    assert STAR3_QUERY.classify() == "star"
    assert TWIG_QUERY.classify() == "twig"
    assert GENERAL_TREE_QUERY.classify() == "tree"


def test_free_connex_detection():
    # Full join is free-connex.
    full = TreeQuery(MATMUL_QUERY.relations, frozenset({"A", "B", "C"}))
    assert full.is_free_connex()
    assert full.classify() == "free-connex"
    # Connected output subtree.
    connected = TreeQuery(LINE3_QUERY.relations, frozenset({"A1", "A2"}))
    assert connected.is_free_connex()
    # Matmul outputs are disconnected.
    assert not MATMUL_QUERY.is_free_connex()
    # Empty output: trivially free-connex.
    scalar = TreeQuery(MATMUL_QUERY.relations, frozenset())
    assert scalar.is_free_connex()


def test_star_like_classification():
    starlike = TreeQuery(
        (
            ("R1", ("A1", "B")),
            ("R2", ("B", "C1")),
            ("R3", ("C1", "A2")),
            ("R4", ("B", "A3")),
        ),
        frozenset({"A1", "A2", "A3"}),
    )
    assert starlike.classify() == "star-like"
    assert starlike.centre() == "B"


def test_line_is_star_like_but_classified_finer():
    assert LINE3_QUERY.is_star_like()
    assert LINE3_QUERY.classify() == "line"


def test_path_order():
    order = LINE3_QUERY.path_order()
    assert order in (["A1", "A2", "A3", "A4"], ["A4", "A3", "A2", "A1"])
    assert STAR3_QUERY.path_order() is None


def test_centre_detection():
    assert STAR3_QUERY.centre() == "B"
    assert LINE3_QUERY.centre() is None
    assert TWIG_QUERY.centre() is None  # two high-degree attributes


def test_query_validation():
    with pytest.raises(ValueError):
        TreeQuery((("R1", ("A", "B")), ("R1", ("B", "C"))), frozenset())
    with pytest.raises(ValueError):
        TreeQuery((("R1", ("A", "B")),), frozenset({"Z"}))


def test_instance_validation():
    r1 = Relation("R1", ("A", "B"), [((1, 2), 1)])
    r2 = Relation("R2", ("B", "C"), [((2, 3), 1)])
    instance = Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, COUNTING)
    assert instance.total_size == 2
    with pytest.raises(ValueError):
        Instance(MATMUL_QUERY, {"R1": r1}, COUNTING)
    bad = Relation("R2", ("C", "B"), [((3, 2), 1)])
    with pytest.raises(ValueError):
        Instance(MATMUL_QUERY, {"R1": r1, "R2": bad}, COUNTING)


def test_leaves_and_degrees():
    assert TWIG_QUERY.leaves == frozenset({"A1", "A2", "A3", "A4"})
    assert TWIG_QUERY.degrees["B1"] == 3
    assert TWIG_QUERY.degrees["B2"] == 3
    assert GENERAL_TREE_QUERY.degrees["B"] == 3
