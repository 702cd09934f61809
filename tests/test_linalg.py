"""Semiring linear algebra (matrix power, transitive closure)."""

import math
import random

import networkx as nx
import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.data import Relation
from repro.linalg import matrix_power, transitive_closure
from repro.queries import k_hop
from repro.semiring import BOOLEAN, COUNTING, TROPICAL_MIN_PLUS


def _random_digraph(nodes, edges, seed, weight_fn):
    rng = random.Random(seed)
    relation = Relation("E", ("A", "B"))
    graph = nx.DiGraph()
    graph.add_nodes_from(range(nodes))
    while len(relation) < edges:
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u != v and (u, v) not in relation:
            weight = weight_fn(rng)
            relation.add((u, v), weight)
            graph.add_edge(u, v, weight=weight)
    return relation, graph


def test_matrix_power_counts_walks():
    relation, _graph = _random_digraph(10, 25, seed=1, weight_fn=lambda r: 1)
    adjacency = np.zeros((10, 10), dtype=int)
    for (u, v), _w in relation:
        adjacency[u, v] = 1
    for k in (1, 2, 3, 5):
        power, report = matrix_power(relation, k, COUNTING, config=ExecutionConfig(p=6))
        truth = np.linalg.matrix_power(adjacency, k)
        expected = {
            (u, v): int(truth[u, v])
            for u in range(10)
            for v in range(10)
            if truth[u, v]
        }
        assert power.tuples == expected, k
        if k > 1:
            assert report.max_load > 0  # k = 1 returns the input untouched


def test_matrix_power_agrees_with_line_query():
    relation, _graph = _random_digraph(12, 30, seed=2, weight_fn=lambda r: 1)
    via_power, _ = matrix_power(relation, 3, COUNTING, config=ExecutionConfig(p=4))
    via_line = k_hop(relation, 3, COUNTING, config=ExecutionConfig(p=4))
    assert via_power.tuples == dict(via_line.relation.tuples)


def test_matrix_power_validation():
    relation = Relation("E", ("A", "B"), [((0, 1), 1)])
    with pytest.raises(ValueError):
        matrix_power(relation, 0, COUNTING)
    with pytest.raises(ValueError):
        matrix_power(Relation("T", ("A", "B", "C")), 2, COUNTING)


def test_transitive_closure_reachability():
    relation, graph = _random_digraph(14, 24, seed=3, weight_fn=lambda r: True)
    closure, _report = transitive_closure(relation, BOOLEAN,
                                          config=ExecutionConfig(p=6))
    # Ground truth: v reachable from u by a path of ≥ 1 edges.  That
    # includes (u, u) when u lies on a cycle (nx.descendants excludes the
    # source, so handle the diagonal separately).
    expected = {
        (u, v) for u in graph.nodes for v in nx.descendants(graph, u)
    } | {
        (u, u)
        for u in graph.nodes
        if any(nx.has_path(graph, w, u) for w in graph.successors(u))
    }
    assert {key for key, flag in closure if flag} == expected


def test_transitive_closure_shortest_paths():
    relation, graph = _random_digraph(
        12, 28, seed=4, weight_fn=lambda r: float(r.randint(1, 9))
    )
    closure, _report = transitive_closure(relation, TROPICAL_MIN_PLUS,
                                          config=ExecutionConfig(p=6))
    lengths = dict(nx.all_pairs_dijkstra_path_length(graph))
    for (u, v), distance in closure:
        if u == v:
            continue
        assert math.isclose(distance, lengths[u][v]), (u, v)
    # Every reachable pair appears.
    for u, targets in lengths.items():
        for v in targets:
            if u != v:
                assert (u, v) in closure


def test_reflexive_closure_includes_diagonal():
    relation = Relation("E", ("A", "B"), [((0, 1), True)])
    closure, _ = transitive_closure(
        relation, BOOLEAN, include_identity=True, config=ExecutionConfig(p=2)
    )
    assert (0, 0) in closure and (1, 1) in closure and (0, 1) in closure


def test_closure_rejects_non_idempotent():
    relation = Relation("E", ("A", "B"), [((0, 1), 1)])
    with pytest.raises(ValueError):
        transitive_closure(relation, COUNTING)


def test_closure_on_cycle_terminates():
    relation = Relation("E", ("A", "B"))
    for i in range(6):
        relation.add((i, (i + 1) % 6), 1.0)
    closure, _ = transitive_closure(relation, TROPICAL_MIN_PLUS,
                                    config=ExecutionConfig(p=3))
    # Every pair reachable on the 6-cycle, incl. the full loop back to self.
    assert len(closure) == 36
    assert closure.annotation((0, 0)) == 6.0


@pytest.mark.parametrize("seed", range(3))
def test_look_alike_values_meter_alike_on_both_backends(seed):
    """``1``, ``1.0`` and ``True`` are one key to the columnar codec, so
    ``linalg`` passes its matrix through the executor's admission check:
    a matrix holding them runs the tuple kernels whatever the backend, and
    every meter matches."""
    pool = [1, 1.0, True, 2, 2.0, 0, 0.0, False, 3, 4]
    rng = random.Random(seed)
    matrix = Relation("R", ("A", "B"))
    for _ in range(40):
        matrix.add((rng.choice(pool), rng.choice(pool)), 1, COUNTING)
    closure = Relation("R", ("A", "B"), [(values, True) for values in matrix.tuples])
    for run in (
        lambda config: matrix_power(matrix, 2, COUNTING, config=config),
        lambda config: transitive_closure(closure, BOOLEAN, config=config),
    ):
        (reference, ref_report), (columnar, col_report) = (
            run(ExecutionConfig(p=4, backend=backend))
            for backend in ("pytuple", "columnar")
        )
        assert reference.tuples == columnar.tuples
        assert ref_report.to_dict() == col_report.to_dict()


def test_matrix_power_loads_columns_on_the_columnar_backend(monkeypatch):
    """``linalg`` loads its matrix with the semiring, so a columnar run
    multiplies array datasets from the first step, and meters alike."""
    import repro.linalg as linalg

    relation, _graph = _random_digraph(12, 40, seed=4, weight_fn=lambda r: r.randint(1, 3))
    operands = []
    multiply = linalg._multiply

    def spying(left, right, semiring, salt):
        operands.append((type(left.data).__name__, type(right.data).__name__))
        return multiply(left, right, semiring, salt)

    monkeypatch.setattr(linalg, "_multiply", spying)
    runs = {}
    for backend in ("pytuple", "columnar"):
        operands.clear()
        runs[backend] = matrix_power(relation, 3, COUNTING,
                                     config=ExecutionConfig(p=4, backend=backend))
        if backend == "columnar":
            assert operands[0] == ("ColumnarData", "ColumnarData")
    (reference, ref_report), (columnar, col_report) = runs["pytuple"], runs["columnar"]
    assert reference.tuples == columnar.tuples
    assert ref_report.total_communication == col_report.total_communication
