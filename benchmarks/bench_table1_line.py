"""E2 — Table 1, row "Line".

Baseline: O(N/p + N·OUT/p) (the Yannakakis intermediate for a line query is
Θ(N·OUT) in the worst case).  New algorithm (§4):
O(N·OUT^{1/2}/p + (N·OUT/p)^{2/3} + (N+OUT)/p).  We sweep OUT on the
planted-OUT line family (length 3) and on random line instances, recording
measured loads against both closed forms.
"""

import pytest

from repro import run_query
from repro.config import ExecutionConfig
from repro.ram import evaluate
from repro.theory import new_algorithm_load, yannakakis_load
from repro.workloads import bowtie_line, line_instance, planted_out_line

from harness import registry

N = 600
P = 16
LENGTH = 3
OUT_SWEEP = [600, 2400, 9600, 38400]


def _measure(instance):
    baseline = run_query(instance, ExecutionConfig(p=P, algorithm="yannakakis"))
    ours = run_query(instance, ExecutionConfig(p=P, algorithm="auto"))
    assert baseline.relation.tuples == ours.relation.tuples
    return baseline, ours


@pytest.mark.parametrize("out", OUT_SWEEP)
def test_table1_line_row(benchmark, out):
    table = registry.table(
        "E2",
        f"Table 1 / line queries (length {LENGTH}, N={N} per relation, p={P})",
        ["OUT", "L(yann)", "L(ours)", "speedup", "th.yann", "th.ours"],
    )
    instance = planted_out_line(length=LENGTH, n=N, out=out)
    baseline, ours = benchmark.pedantic(
        _measure, args=(instance,), rounds=1, iterations=1
    )
    realized = baseline.out_size
    table.add(
        realized,
        baseline.report.max_load,
        ours.report.max_load,
        baseline.report.max_load / max(1, ours.report.max_load),
        yannakakis_load("line", LENGTH * N, realized, P),
        new_algorithm_load("line", LENGTH * N, realized, P),
    )
    assert ours.report.max_load <= 12 * new_algorithm_load("line", LENGTH * N, realized, P)


def test_table1_line_random_family(benchmark):
    """Sanity on non-planted data: both algorithms agree; ours is within its
    bound (the baseline may win at tiny OUT — that is the paper's story too)."""
    table = registry.table(
        "E2b",
        f"Line queries, uniform random family (N={N}, p={P})",
        ["domain", "OUT", "L(yann)", "L(ours)"],
    )

    def run():
        rows = []
        for domain in (35, 70):
            instance = line_instance(LENGTH, N, domain, seed=domain)
            baseline, ours = _measure(instance)
            rows.append((domain, baseline.out_size, baseline.report.max_load,
                         ours.report.max_load))
        return rows

    for row in benchmark.pedantic(run, rounds=1, iterations=1):
        table.add(*row)


@pytest.mark.parametrize("fan_mid", [8, 32, 128])
def test_table1_line_bowtie_family(benchmark, fan_mid):
    """The adversarial regime: the Yannakakis intermediate is J = OUT·fan_mid,
    which its load tracks while §4 aggregates the fat middle away first."""
    table = registry.table(
        "E2c",
        f"Line queries, bowtie family (J = OUT × fan_mid, p={P})",
        ["fan_mid", "OUT", "J/OUT", "L(yann)", "L(ours)", "speedup"],
    )
    instance = bowtie_line(blocks=24, fan_out=24, fan_mid=fan_mid)
    baseline, ours = benchmark.pedantic(
        _measure, args=(instance,), rounds=1, iterations=1
    )
    table.add(
        fan_mid,
        baseline.out_size,
        fan_mid,
        baseline.report.max_load,
        ours.report.max_load,
        baseline.report.max_load / max(1, ours.report.max_load),
    )
    if fan_mid >= 32:
        assert ours.report.max_load < baseline.report.max_load


def test_table1_line_beats_baseline_at_scale(benchmark):
    def run():
        instance = bowtie_line(blocks=24, fan_out=24, fan_mid=128)
        return _measure(instance)

    baseline, ours = benchmark.pedantic(run, rounds=1, iterations=1)
    assert ours.report.max_load < baseline.report.max_load
