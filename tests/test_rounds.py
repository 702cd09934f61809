"""Constant-round guarantees (§1.3: all algorithms are O(1)-round).

For each query class, the round count must depend on the query *shape*
(and at most logarithmically on data, via the §6 uniformization and §4
recursion), never linearly on N or OUT.  We measure rounds at two data
scales and assert near-equality.
"""

import pytest

from repro import run_query
from repro.config import ExecutionConfig
from repro.workloads import (
    bowtie_line,
    overlapping_star,
    planted_out_matmul,
    starlike_instance,
    twig_instance,
)


def _rounds(instance, algorithm="auto", p=8):
    return run_query(instance, ExecutionConfig(p=p, algorithm=algorithm)).report.rounds


def test_matmul_rounds_constant_in_n():
    small = _rounds(planted_out_matmul(n=100, out=800))
    large = _rounds(planted_out_matmul(n=800, out=6400))
    assert abs(large - small) <= 6


def test_line_rounds_constant_in_n():
    small = _rounds(bowtie_line(blocks=4, fan_out=10, fan_mid=10))
    large = _rounds(bowtie_line(blocks=16, fan_out=20, fan_mid=20))
    assert abs(large - small) <= 10


def test_star_rounds_grow_only_with_buckets():
    small = _rounds(overlapping_star(arms=3, centres=4, fan=6))
    large = _rounds(overlapping_star(arms=3, centres=32, fan=10))
    # Same bucket structure (all centres share one degree profile).
    assert abs(large - small) <= 10


def test_starlike_rounds_bounded():
    small = _rounds(starlike_instance([1, 2, 2], tuples=20, domain=6, seed=1))
    large = _rounds(starlike_instance([1, 2, 2], tuples=80, domain=12, seed=1))
    # §6 enumerates (φ, small/large) buckets and log-many degree classes;
    # the data-driven growth must stay within that logarithmic budget.
    assert large <= small + 40


def test_tree_rounds_bounded():
    small = _rounds(twig_instance(tuples=20, domain=8, seed=2))
    large = _rounds(twig_instance(tuples=120, domain=20, seed=2))
    assert large <= small + 60


def test_baseline_rounds_strictly_shape_dependent():
    # The Yannakakis baseline has no data-dependent branching at all.
    small = _rounds(planted_out_matmul(n=100, out=800), algorithm="yannakakis")
    large = _rounds(planted_out_matmul(n=1000, out=64000), algorithm="yannakakis")
    assert small == large


@pytest.mark.parametrize("p", [2, 8, 32])
def test_rounds_independent_of_cluster_size(p):
    instance = planted_out_matmul(n=200, out=1600)
    rounds = _rounds(instance, p=p)
    baseline = _rounds(instance, p=8)
    assert abs(rounds - baseline) <= 6
