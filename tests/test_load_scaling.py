"""Shape regression: measured loads must scale with the *exponents* the
bounds predict (log-log slope fits, generous tolerances).

These complement the benchmarks: benchmarks print tables for humans, these
tests pin the exponents in CI.  All instances are deterministic.
"""

import math

from repro import run_query
from repro.config import ExecutionConfig
from repro.core.matmul_output_sensitive import matmul_output_sensitive
from repro.core.matmul_worst_case import matmul_worst_case
from repro.data import DistRelation, Instance, Relation
from repro.mpc import MPCCluster
from repro.semiring import COUNTING
from repro.workloads import MATMUL_QUERY, planted_out_matmul


def _slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(xs)
    mean_x = sum(lx) / n
    mean_y = sum(ly) / n
    num = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    den = sum((a - mean_x) ** 2 for a in lx)
    return num / den


def _cartesian_instance(n):
    """|dom(B)| = 1: the √(N1N2/p) worst case, OUT = n²."""
    r1 = Relation("R1", ("A", "B"), [((i, 0), 1) for i in range(n)])
    r2 = Relation("R2", ("B", "C"), [((0, j), 1) for j in range(n)])
    return Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, COUNTING)


def test_worst_case_load_scales_like_inverse_sqrt_p():
    """L ∝ p^{-1/2} on the Cartesian family (the √(N1N2/p) branch)."""
    n = 256
    instance = _cartesian_instance(n)
    ps = [4, 16, 64]
    loads = []
    for p in ps:
        cluster = MPCCluster(p)
        view = cluster.view()
        matmul_worst_case(
            DistRelation.load(view, instance.relation("R1")),
            DistRelation.load(view, instance.relation("R2")),
            COUNTING,
        )
        loads.append(cluster.report().max_load)
    slope = _slope(ps, loads)
    assert -0.85 <= slope <= -0.25, (loads, slope)


def test_output_sensitive_load_scales_like_p_to_minus_two_thirds():
    """L ∝ p^{-2/3} on the (N1N2·OUT)^{1/3}/p^{2/3} branch of Theorem 1.

    With OUT = N the output-sensitive term equals N/p^{2/3} and dominates
    both linear terms (N/p and OUT/p are smaller by p^{1/3} for p ≥ 8), so
    the measured load's log-log slope against p isolates the -2/3 exponent
    — distinguishable from the worst-case branch's -1/2 and the trivial -1.
    """
    n = 16000
    instance = planted_out_matmul(n=n, out=n)
    ps = [8, 16, 64]
    loads = []
    for p in ps:
        cluster = MPCCluster(p)
        view = cluster.view()
        matmul_output_sensitive(
            DistRelation.load(view, instance.relation("R1")),
            DistRelation.load(view, instance.relation("R2")),
            COUNTING,
        )
        loads.append(cluster.report().max_load)
    slope = _slope(ps, loads)
    assert -0.8 <= slope <= -0.55, (loads, slope)


def test_worst_case_load_scales_linearly_in_n():
    """L ∝ N on the Cartesian family at fixed p (= √(N²/p))."""
    p = 16
    ns = [64, 128, 256, 512]
    loads = []
    for n in ns:
        instance = _cartesian_instance(n)
        cluster = MPCCluster(p)
        view = cluster.view()
        matmul_worst_case(
            DistRelation.load(view, instance.relation("R1")),
            DistRelation.load(view, instance.relation("R2")),
            COUNTING,
        )
        loads.append(cluster.report().max_load)
    slope = _slope(ns, loads)
    assert 0.75 <= slope <= 1.25, (loads, slope)


def test_baseline_load_scales_linearly_in_out():
    """The baseline's load ∝ OUT on the planted family (J = OUT)."""
    p = 16
    outs = [4000, 16000, 64000, 256000]
    loads = []
    for out in outs:
        instance = planted_out_matmul(n=1000, out=out)
        result = run_query(instance, ExecutionConfig(p=p, algorithm="yannakakis"))
        loads.append(result.report.max_load)
    slope = _slope(outs, loads)
    assert 0.75 <= slope <= 1.2, (loads, slope)


def test_new_algorithm_load_flat_in_out_beyond_crossover():
    """Theorem 1's load is OUT-independent once the min picks √(N1N2/p)."""
    p = 16
    outs = [16000, 64000, 256000]
    loads = []
    for out in outs:
        instance = planted_out_matmul(n=1000, out=out)
        result = run_query(instance, ExecutionConfig(p=p, algorithm="auto"))
        loads.append(result.report.max_load)
    slope = _slope(outs, loads)
    assert -0.2 <= slope <= 0.2, (loads, slope)
