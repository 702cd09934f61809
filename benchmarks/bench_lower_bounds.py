"""E5/E6 — the §3.3 lower-bound constructions.

The paper proves matching lower bounds for sparse matmul in the idempotent
semiring MPC model.  We build the exact hard families and check the
sandwich: Ω-bound ≤ measured load of Theorem 1's algorithm ≤ O-bound (all
up to constants), i.e. the algorithm is *tight on its own hard instances*.
"""

import pytest

from repro import run_query
from repro.config import ExecutionConfig
from repro.lowerbounds import theorem2_instance, theorem3_instance
from repro.semiring import BOOLEAN
from repro.theory import matmul_lower_bound, matmul_new_load

from harness import registry

P = 16


@pytest.mark.parametrize("n2", [400, 1600, 6400])
def test_theorem2_family(benchmark, n2):
    table = registry.table(
        "E5",
        f"Theorem 2 hard family (N1=100, OUT=N2, p={P}, boolean semiring)",
        ["N2", "L(ours)", "Ω bound", "ratio"],
    )
    hard = theorem2_instance(100, n2, n2, BOOLEAN)
    result = benchmark.pedantic(
        run_query, args=(hard.instance, ExecutionConfig(p=P)), rounds=1, iterations=1
    )
    lower = matmul_lower_bound(hard.n1, hard.n2, hard.out, P)
    table.add(n2, result.report.max_load, lower, result.report.max_load / lower)
    # Sandwich: measured within constants of the bound on both sides.
    assert result.report.max_load >= lower / 8
    assert result.report.max_load <= 64 * matmul_new_load(hard.n1, hard.n2, hard.out, P)


@pytest.mark.parametrize("out", [256, 4096, 65536])
def test_theorem3_family(benchmark, out):
    table = registry.table(
        "E6",
        f"Theorem 3 hard family (N1=N2=256, p={P}, boolean semiring)",
        ["OUT", "L(ours)", "Ω bound", "O bound", "L/Ω"],
    )
    hard = theorem3_instance(256, 256, out, BOOLEAN)
    result = benchmark.pedantic(
        run_query, args=(hard.instance, ExecutionConfig(p=P)), rounds=1, iterations=1
    )
    lower = matmul_lower_bound(hard.n1, hard.n2, hard.out, P)
    upper = matmul_new_load(hard.n1, hard.n2, hard.out, P)
    table.add(hard.out, result.report.max_load, lower, upper,
              result.report.max_load / lower)
    assert result.report.max_load >= lower / 8
    assert result.report.max_load <= 64 * upper


def test_theorem3_lower_bound_is_tight_across_out(benchmark):
    """The measured-to-Ω ratio must stay bounded as OUT sweeps three orders
    of magnitude: that is what "matching bound" means operationally."""

    def run():
        ratios = []
        for out in (256, 4096, 65536):
            hard = theorem3_instance(256, 256, out, BOOLEAN)
            result = run_query(hard.instance, ExecutionConfig(p=P))
            lower = matmul_lower_bound(hard.n1, hard.n2, hard.out, P)
            ratios.append(result.report.max_load / lower)
        return ratios

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    assert max(ratios) / min(ratios) < 16
