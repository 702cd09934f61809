"""Heavier fixed-seed stress cases: deep trees, many twigs, fat domains.

These go beyond the hypothesis property tests (which keep instances tiny):
each case is a single seeded instance large enough to push several
algorithm phases at once, checked exactly against the oracle.
"""

import random

import pytest

from repro import run_query
from repro.config import ExecutionConfig
from repro.data import Instance, Relation, TreeQuery
from repro.ram import evaluate
from repro.semiring import COUNTING, TROPICAL_MIN_PLUS
from tests.conftest import random_instance


def _caterpillar_query(spine: int, legs_per_node: int, output_legs=True):
    """A spine B1—B2—…—Bk with ``legs_per_node`` output legs per spine node."""
    relations = []
    outputs = []
    for i in range(spine - 1):
        relations.append((f"S{i}", (f"B{i}", f"B{i+1}")))
    for i in range(spine):
        for leg in range(legs_per_node):
            attr = f"L{i}_{leg}"
            relations.append((f"R{i}_{leg}", (attr, f"B{i}")))
            if output_legs:
                outputs.append(attr)
    return TreeQuery(tuple(relations), frozenset(outputs))


def test_caterpillar_three_hubs():
    # 3 spine hubs × 2 legs = a twig with three branch roots (V* = spine).
    query = _caterpillar_query(spine=3, legs_per_node=2)
    assert query.classify() == "twig"
    rng = random.Random(21)
    instance = random_instance(query, 20, 4, rng, COUNTING, lambda r: r.randint(1, 3))
    result = run_query(instance, ExecutionConfig(p=8))
    assert result.relation.tuples == evaluate(instance).tuples


def test_caterpillar_four_hubs_tropical():
    query = _caterpillar_query(spine=4, legs_per_node=2)
    rng = random.Random(22)
    instance = random_instance(
        query, 12, 3, rng, TROPICAL_MIN_PLUS, lambda r: float(r.randint(0, 9))
    )
    result = run_query(instance, ExecutionConfig(p=6))
    assert result.relation.tuples == evaluate(instance).tuples


def test_mixed_outputs_long_chain():
    # A 7-relation chain with outputs scattered along it: decomposes into
    # several twigs glued at output attributes.
    attrs = [f"X{i}" for i in range(8)]
    relations = tuple(
        (f"R{i}", (attrs[i], attrs[i + 1])) for i in range(7)
    )
    query = TreeQuery(relations, frozenset({"X0", "X3", "X5", "X7"}))
    rng = random.Random(23)
    instance = random_instance(query, 30, 5, rng, COUNTING, lambda r: r.randint(1, 2))
    for algorithm in ("auto", "yannakakis"):
        result = run_query(instance, ExecutionConfig(p=8, algorithm=algorithm))
        assert result.relation.tuples == evaluate(instance).tuples, algorithm


def test_wide_star_many_arms():
    query = TreeQuery(
        tuple((f"R{i}", (f"A{i}", "B")) for i in range(5)),
        frozenset(f"A{i}" for i in range(5)),
    )
    assert query.classify() == "star"
    rng = random.Random(24)
    instance = random_instance(query, 18, 4, rng, COUNTING, lambda r: 1)
    result = run_query(instance, ExecutionConfig(p=8))
    assert result.relation.tuples == evaluate(instance).tuples


def test_big_matmul_all_strategies_agree():
    from repro.workloads import zipf_matmul

    instance = zipf_matmul(600, 600, 40, alpha=1.3, seed=9)
    expected = evaluate(instance)
    loads = {}
    for algorithm in ("auto", "yannakakis"):
        result = run_query(instance, ExecutionConfig(p=32, algorithm=algorithm))
        assert result.relation.tuples == expected.tuples
        loads[algorithm] = result.report.max_load
    assert loads["auto"] > 0


@pytest.mark.parametrize("seed", range(6))
def test_random_deep_trees(seed):
    """Random 9-relation trees with random outputs, auto vs oracle."""
    rng = random.Random(1000 + seed)
    attrs = [f"X{i}" for i in range(10)]
    relations = []
    for i in range(1, 10):
        parent = attrs[rng.randrange(i)]
        relations.append((f"R{i}", (parent, attrs[i])))
    outputs = frozenset(a for a in attrs if rng.random() < 0.4)
    query = TreeQuery(tuple(relations), outputs)
    instance = random_instance(query, 10, 3, rng, COUNTING, lambda r: r.randint(1, 2))
    result = run_query(instance, ExecutionConfig(p=5))
    assert result.relation.tuples == evaluate(instance).tuples, query.classify()
