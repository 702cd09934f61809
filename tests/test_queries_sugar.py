"""High-level query builders (repro.queries)."""

import math

import pytest

from repro.config import ExecutionConfig
from repro.data import Relation
from repro.queries import count_group_by, join_project, k_hop
from repro.semiring import BOOLEAN, COUNTING, TROPICAL_MIN_PLUS


def _chain_edges(weight=None):
    # 0 → 1 → 2 → 3 plus a shortcut 0 → 2 (weight 5).  ``weight`` overrides
    # every annotation (k_hop aggregates the given annotations verbatim).
    edges = Relation("E", ("U", "V"))
    for u, v, w in [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 2, 5.0)]:
        edges.add((u, v), w if weight is None else weight)
    return edges


def test_count_group_by():
    r1 = Relation("R1", ("A", "B"), [((0, 0), 99), ((1, 0), 99)])
    r2 = Relation("R2", ("B", "C"), [((0, 0), 99), ((0, 1), 99)])
    result = count_group_by(
        {"R1": r1, "R2": r2},
        [("R1", ("A", "B")), ("R2", ("B", "C"))],
        group_by=["A"],
        config=ExecutionConfig(p=4),
    )
    # Annotations ignored (set to 1): each a joins 2 c's through b=0.
    assert result.relation.tuples == {(0,): 2, (1,): 2}


def test_count_star_full_join_size():
    r1 = Relation("R1", ("A", "B"), [((i, 0), 1) for i in range(3)])
    r2 = Relation("R2", ("B", "C"), [((0, j), 1) for j in range(4)])
    result = count_group_by(
        {"R1": r1, "R2": r2},
        [("R1", ("A", "B")), ("R2", ("B", "C"))],
        group_by=[],
        config=ExecutionConfig(p=4),
    )
    assert result.relation.tuples == {(): 12}


def test_join_project():
    r1 = Relation("R1", ("A", "B"), [((0, 0), 1), ((1, 1), 1)])
    r2 = Relation("R2", ("B", "C"), [((0, 5), 1), ((0, 6), 1)])
    projected = join_project(
        {"R1": r1, "R2": r2},
        [("R1", ("A", "B")), ("R2", ("B", "C"))],
        output=["A", "C"],
        config=ExecutionConfig(p=4),
    )
    assert projected == {(0, 5), (0, 6)}


def test_k_hop_counting():
    edges = _chain_edges(weight=1)
    result = k_hop(edges, 2, COUNTING, config=ExecutionConfig(p=4))
    # 2-hop paths: 0→1→2, 1→2→3, 0→2→3.
    assert result.relation.tuples == {(0, 2): 1, (1, 3): 1, (0, 3): 1}


def test_k_hop_reachability():
    edges = _chain_edges(weight=True)
    result = k_hop(edges, 3, BOOLEAN, config=ExecutionConfig(p=4))
    assert result.relation.tuples == {(0, 3): True}


def test_k_hop_shortest_paths():
    edges = _chain_edges()
    result = k_hop(edges, 2, TROPICAL_MIN_PLUS, config=ExecutionConfig(p=4))
    # 0→2 in two hops: via 1 costs 2.0 (beats nothing else 2-hop).
    assert result.relation.tuples[(0, 2)] == 2.0
    assert result.relation.tuples[(0, 3)] == 5.0 + 1.0  # 0→2 (5) → 3 (1)


def test_k_hop_single_hop_is_the_relation():
    edges = _chain_edges()
    result = k_hop(edges, 1, TROPICAL_MIN_PLUS, config=ExecutionConfig(p=2))
    assert result.relation.tuples == dict(edges.tuples)


def test_k_hop_validation():
    edges = _chain_edges()
    with pytest.raises(ValueError):
        k_hop(edges, 0, COUNTING)
    with pytest.raises(ValueError):
        k_hop(Relation("R", ("A", "B", "C")), 2, COUNTING)


def test_k_hop_matches_matrix_power():
    # Cross-validate 3-hop counts against numpy matrix power.
    import numpy as np

    size = 12
    adjacency = np.zeros((size, size), dtype=int)
    edges = Relation("E", ("U", "V"))
    import random

    rng = random.Random(4)
    for _ in range(30):
        u, v = rng.randrange(size), rng.randrange(size)
        if (u, v) not in edges:
            edges.add((u, v), 1)
            adjacency[u, v] = 1
    result = k_hop(edges, 3, COUNTING, config=ExecutionConfig(p=8))
    cube = np.linalg.matrix_power(adjacency, 3)
    expected = {
        (u, v): int(cube[u, v])
        for u in range(size)
        for v in range(size)
        if cube[u, v]
    }
    assert result.relation.tuples == expected
