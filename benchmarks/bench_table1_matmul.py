"""E1 — Table 1, row "Matrix multiplication".

Regenerates the paper's comparison for sparse matmul: the distributed
Yannakakis baseline has load Θ(N/p + N·√OUT/p) while Theorem 1 achieves
O(N/p + min(√(N1N2/p), (N1N2·OUT)^{1/3}/p^{2/3})).  We sweep OUT on the
planted-OUT family at fixed N and p and record both measured loads next to
the closed-form targets; the checks assert the paper's *shape*: the new
algorithm wins for every OUT above the crossover and its advantage grows
with OUT, while its load stays within a constant of the min(·,·) envelope.
"""

import pytest

from repro import run_query
from repro.config import ExecutionConfig
from repro.theory import matmul_new_load, matmul_yannakakis_load
from repro.workloads import planted_out_matmul

from harness import registry

N = 1000
P = 16
OUT_SWEEP = [1000, 4000, 16000, 64000, 250000]


def _measure(out: int):
    instance = planted_out_matmul(n=N, out=out)
    baseline = run_query(instance, ExecutionConfig(p=P, algorithm="yannakakis"))
    ours = run_query(instance, ExecutionConfig(p=P, algorithm="auto"))
    assert baseline.relation.tuples == ours.relation.tuples
    return baseline.report, ours.report


@pytest.mark.parametrize("out", OUT_SWEEP)
def test_table1_matmul_row(benchmark, out):
    table = registry.table(
        "E1",
        f"Table 1 / matrix multiplication (N={N}, p={P}; planted-OUT family)",
        ["OUT", "L(yann)", "L(ours)", "speedup", "th.yann", "th.ours"],
    )
    baseline, ours = benchmark.pedantic(_measure, args=(out,), rounds=1, iterations=1)
    speedup = baseline.max_load / max(1, ours.max_load)
    table.add(
        out,
        baseline.max_load,
        ours.max_load,
        speedup,
        matmul_yannakakis_load(2 * N, out, P),
        matmul_new_load(N, N, out, P),
    )
    # Shape assertions (constants are generous; the trend is the claim).
    if out >= 16 * N:
        assert ours.max_load < baseline.max_load
    assert ours.max_load <= 8 * matmul_new_load(N, N, out, P) + 4 * N / P


def test_table1_matmul_speedup_grows(benchmark):
    """The baseline/ours ratio must increase monotonically in OUT."""

    def run():
        ratios = []
        for out in (4000, 64000):
            baseline, ours = _measure(out)
            ratios.append(baseline.max_load / max(1, ours.max_load))
        return ratios

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    assert ratios[-1] > ratios[0]


def test_table1_matmul_rounds_constant(benchmark):
    """O(1) rounds: the round count must not grow with OUT."""

    def run():
        rounds = []
        for out in (1000, 64000):
            _baseline, ours = _measure(out)
            rounds.append(ours.rounds)
        return rounds

    rounds = benchmark.pedantic(run, rounds=1, iterations=1)
    assert rounds[1] <= rounds[0] + 10  # dispatcher may add a few fixed phases


@pytest.mark.parametrize("out", [4000, 64000, 250000])
def test_table1_matmul_row_p64(benchmark, out):
    """The same sweep at p = 64 (DESIGN.md's second cluster size)."""
    table = registry.table(
        "E1b",
        f"Table 1 / matrix multiplication (N={N}, p=64; planted-OUT family)",
        ["OUT", "L(yann)", "L(ours)", "speedup"],
    )

    def run():
        instance = planted_out_matmul(n=N, out=out)
        baseline = run_query(instance, ExecutionConfig(p=64, algorithm="yannakakis"))
        ours = run_query(instance, ExecutionConfig(p=64, algorithm="auto"))
        assert baseline.relation.tuples == ours.relation.tuples
        return baseline.report, ours.report

    baseline, ours = benchmark.pedantic(run, rounds=1, iterations=1)
    table.add(out, baseline.max_load, ours.max_load,
              baseline.max_load / max(1, ours.max_load))
    if out >= 64000:
        assert ours.max_load < baseline.max_load
