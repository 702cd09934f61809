"""E11 — scaling in p (the figure implicit in every Table-1 bound).

At a fixed instance, the baseline's load falls like 1/p while the new
matmul algorithm's falls like max(1/p, 1/√p·…) per its two branches; both
series are recorded so the speedup-vs-p curve can be read off directly.
"""

import pytest

from repro import run_query
from repro.config import ExecutionConfig
from repro.workloads import planted_out_matmul, planted_out_star

from harness import registry

P_SWEEP = [4, 16, 64]


def test_matmul_scaling_in_p(benchmark):
    table = registry.table(
        "E11",
        "Load vs p — matmul, planted family (N=800, OUT=51200)",
        ["p", "L(yann)", "L(ours)", "speedup"],
    )
    instance = planted_out_matmul(n=800, out=51200)

    def run():
        rows = []
        for p in P_SWEEP:
            baseline = run_query(instance, ExecutionConfig(p=p, algorithm="yannakakis"))
            ours = run_query(instance, ExecutionConfig(p=p, algorithm="auto"))
            assert baseline.relation.tuples == ours.relation.tuples
            rows.append(
                (p, baseline.report.max_load, ours.report.max_load,
                 baseline.report.max_load / max(1, ours.report.max_load))
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for row in rows:
        table.add(*row)
    # Both loads must decrease in p.
    yann_loads = [row[1] for row in rows]
    our_loads = [row[2] for row in rows]
    assert yann_loads[0] > yann_loads[-1]
    assert our_loads[0] > our_loads[-1]


def test_star_scaling_in_p(benchmark):
    table = registry.table(
        "E11b",
        "Load vs p — star query, planted family (3 arms, N=300, OUT≈21600)",
        ["p", "L(yann)", "L(ours)"],
    )
    instance = planted_out_star(arms=3, n=300, out=21600)

    def run():
        rows = []
        for p in P_SWEEP:
            baseline = run_query(instance, ExecutionConfig(p=p, algorithm="yannakakis"))
            ours = run_query(instance, ExecutionConfig(p=p, algorithm="auto"))
            assert baseline.relation.tuples == ours.relation.tuples
            rows.append((p, baseline.report.max_load, ours.report.max_load))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for row in rows:
        table.add(*row)
    assert rows[0][2] > rows[-1][2]
