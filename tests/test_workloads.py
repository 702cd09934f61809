"""Workload generators: realized sizes, planted OUT accuracy, skew."""

import random

import pytest

from repro.config import ExecutionConfig
from repro.ram import evaluate, output_size
from repro.semiring import COUNTING, TROPICAL_MIN_PLUS
from repro.workloads import (
    grid_road_network,
    line_instance,
    planted_out_line,
    planted_out_matmul,
    planted_out_star,
    power_law_edges,
    random_sparse_matmul,
    random_sparse_matrix,
    star_instance,
    starlike_instance,
    twig_instance,
    zipf_matmul,
)


def test_random_sparse_matrix_sizes_and_bounds():
    rng = random.Random(1)
    relation = random_sparse_matrix("R", ("A", "B"), 50, 20, 20, rng)
    assert len(relation) == 50
    assert all(0 <= a < 20 and 0 <= b < 20 for (a, b) in relation.tuples)
    with pytest.raises(ValueError):
        random_sparse_matrix("R", ("A", "B"), 100, 5, 5, rng)


def test_random_sparse_matmul_instance():
    instance = random_sparse_matmul(80, 90, 30, 10, 30, seed=2)
    assert len(instance.relation("R1")) == 80
    assert len(instance.relation("R2")) == 90
    assert instance.query.classify() == "matmul"


@pytest.mark.parametrize("out", [300, 1200, 9000, 90_000])
def test_planted_out_matmul_hits_target(out):
    n = 300
    instance = planted_out_matmul(n=n, out=out)
    assert len(instance.relation("R1")) == n
    assert len(instance.relation("R2")) == n
    realized = output_size(instance)
    assert out / 2 <= realized <= out * 2


def test_planted_out_matmul_validates_range():
    with pytest.raises(ValueError):
        planted_out_matmul(n=100, out=50)
    with pytest.raises(ValueError):
        planted_out_matmul(n=100, out=100 * 100 + 1)


def test_zipf_matmul_has_skew():
    instance = zipf_matmul(300, 300, 40, alpha=1.5, seed=3)
    degrees = sorted(
        (instance.relation("R1").degree("B", b) for b in range(40)), reverse=True
    )
    assert degrees[0] >= 5 * max(1, degrees[len(degrees) // 2])


def test_line_and_star_instances_classify():
    assert line_instance(4, 30, 8, seed=1).query.classify() == "line"
    assert star_instance(3, 30, 8, 4, seed=1).query.classify() == "star"
    assert starlike_instance([1, 2, 2], 20, 6, seed=1).query.classify() == "star-like"
    assert twig_instance(20, 5, seed=1).query.classify() == "twig"
    assert twig_instance(20, 5, seed=1, bridge_length=3).query.classify() == "twig"


@pytest.mark.parametrize("out", [500, 2000])
def test_planted_out_line_hits_target(out):
    instance = planted_out_line(length=3, n=200, out=out)
    realized = output_size(instance)
    assert out / 2 <= realized <= out * 2


def test_planted_out_star_shape():
    instance = planted_out_star(arms=3, n=60, out=6000)
    assert instance.query.classify() == "star"
    realized = output_size(instance)
    assert realized >= 600  # within an order of magnitude by construction


def test_power_law_edges_skew():
    edges = power_law_edges("E", ("U", "V"), nodes=200, edges=600, alpha=1.4, seed=4)
    assert len(edges) == 600
    in_degrees = sorted(
        (edges.degree("V", v) for v in edges.active_domain("V")), reverse=True
    )
    assert in_degrees[0] >= 10


def test_grid_road_network_structure():
    roads = grid_road_network("E", ("U", "V"), side=5, seed=5)
    # 2 directed edges per undirected segment; 2·5·4 segments.
    assert len(roads) == 2 * 2 * 5 * 4
    assert all(cost >= 1 for cost in roads.tuples.values())
    # Symmetric costs.
    for (u, v), cost in roads.tuples.items():
        assert roads.annotation((v, u)) == cost


def test_weight_fn_threading():
    instance = line_instance(
        3, 20, 6, seed=6, semiring=TROPICAL_MIN_PLUS, weight_fn=lambda: 2.5
    )
    for name, _ in instance.query.relations:
        assert all(w == 2.5 for w in instance.relation(name).tuples.values())


def test_caterpillar_instance_shape():
    from repro.workloads import caterpillar_instance

    instance = caterpillar_instance(spine=3, legs_per_hub=2, tuples=15,
                                    domain=4, seed=1)
    query = instance.query
    assert query.classify() == "twig"
    assert len(query.relations) == 2 + 3 * 2  # spine edges + legs
    high_degree = {a for a, d in query.degrees.items() if d >= 3}
    assert high_degree == {"B0", "B1", "B2"}
    # Runs end-to-end through §7.
    from repro import run_query

    result = run_query(instance, ExecutionConfig(p=4))
    assert result.relation.tuples == evaluate(instance).tuples
