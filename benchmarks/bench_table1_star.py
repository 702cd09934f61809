"""E3 — Table 1, row "Star".

Baseline: O(N/p + N·OUT^{1−1/n}/p).  New algorithm (§5):
O((N·OUT/p)^{2/3} + N·OUT^{1/2}/p + (N+OUT)/p), OUT-oblivious.  Swept on the
planted-OUT star family with n = 3 arms.
"""

import pytest

from repro import run_query
from repro.config import ExecutionConfig
from repro.theory import new_algorithm_load, yannakakis_load
from repro.workloads import overlapping_star, planted_out_star, star_instance

from harness import registry

N = 400
P = 16
ARMS = 3
OUT_SWEEP = [3200, 25600, 204800]


def _measure(instance):
    baseline = run_query(instance, ExecutionConfig(p=P, algorithm="yannakakis"))
    ours = run_query(instance, ExecutionConfig(p=P, algorithm="auto"))
    assert baseline.relation.tuples == ours.relation.tuples
    return baseline, ours


@pytest.mark.parametrize("out", OUT_SWEEP)
def test_table1_star_row(benchmark, out):
    table = registry.table(
        "E3",
        f"Table 1 / star queries ({ARMS} arms, N={N} per relation, p={P})",
        ["OUT", "L(yann)", "L(ours)", "speedup", "th.yann", "th.ours"],
    )
    instance = planted_out_star(arms=ARMS, n=N, out=out)
    baseline, ours = benchmark.pedantic(
        _measure, args=(instance,), rounds=1, iterations=1
    )
    realized = baseline.out_size
    table.add(
        realized,
        baseline.report.max_load,
        ours.report.max_load,
        baseline.report.max_load / max(1, ours.report.max_load),
        yannakakis_load("star", ARMS * N, realized, P, arms=ARMS),
        new_algorithm_load("star", ARMS * N, realized, P, arms=ARMS),
    )
    assert ours.report.max_load <= 16 * new_algorithm_load(
        "star", ARMS * N, realized, P, arms=ARMS
    ) + 4 * ARMS * N / P


@pytest.mark.parametrize("centres", [4, 16, 64])
def test_table1_star_overlapping_family(benchmark, centres):
    """The adversarial regime: every centre produces the same output triples,
    so the full join is centres × OUT while §5 aggregates duplicates away."""
    table = registry.table(
        "E3c",
        f"Star queries, overlapping-centre family (full join = centres × OUT, p={P})",
        ["centres", "OUT", "L(yann)", "L(ours)", "speedup"],
    )
    instance = overlapping_star(arms=ARMS, centres=centres, fan=12)
    baseline, ours = benchmark.pedantic(
        _measure, args=(instance,), rounds=1, iterations=1
    )
    table.add(
        centres,
        baseline.out_size,
        baseline.report.max_load,
        ours.report.max_load,
        baseline.report.max_load / max(1, ours.report.max_load),
    )
    if centres >= 16:
        assert ours.report.max_load < baseline.report.max_load


def test_table1_star_beats_baseline_at_scale(benchmark):
    def run():
        instance = overlapping_star(arms=ARMS, centres=64, fan=12)
        return _measure(instance)

    baseline, ours = benchmark.pedantic(run, rounds=1, iterations=1)
    assert ours.report.max_load < baseline.report.max_load


def test_table1_star_random_family(benchmark):
    table = registry.table(
        "E3b",
        f"Star queries, uniform random family (N={N}, p={P})",
        ["centre dom", "OUT", "L(yann)", "L(ours)"],
    )

    def run():
        rows = []
        for centre_domain in (8, 24):
            instance = star_instance(ARMS, N, 60, centre_domain, seed=centre_domain)
            baseline, ours = _measure(instance)
            rows.append(
                (centre_domain, baseline.out_size, baseline.report.max_load,
                 ours.report.max_load)
            )
        return rows

    for row in benchmark.pedantic(run, rounds=1, iterations=1):
        table.add(*row)
