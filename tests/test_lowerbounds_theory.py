"""Lower-bound instances (§3.3) and the Table-1 formula module."""

import math

import pytest

from repro import run_query
from repro.config import ExecutionConfig
from repro.lowerbounds import theorem2_instance, theorem3_instance
from repro.ram import evaluate
from repro.semiring import BOOLEAN, COUNTING
from repro.theory import (
    matmul_lower_bound,
    matmul_new_load,
    matmul_yannakakis_load,
    new_algorithm_load,
    yannakakis_load,
)


def test_theorem2_realizes_parameters():
    hard = theorem2_instance(50, 200, 400, BOOLEAN)
    assert hard.n1 <= 2 * 50 + 5
    assert hard.n2 <= 2 * 200 + 5
    exact_out = len(evaluate(hard.instance))
    assert 400 / 4 <= exact_out <= 400 * 2


def test_theorem2_core_structure():
    hard = theorem2_instance(10, 40, 40, COUNTING)
    r2 = hard.instance.relation("R2")
    # The core columns go through exactly two b values (b_0, b_1).
    core_bs = {v[0] for v in r2.tuples if v[0][0] == "b"}
    assert core_bs == {("b", 0), ("b", 1)}


def test_theorem3_is_complete_bipartite():
    hard = theorem3_instance(64, 64, 256, COUNTING)
    r1 = hard.instance.relation("R1")
    r2 = hard.instance.relation("R2")
    a_dom = r1.active_domain("A")
    b_dom = r1.active_domain("B")
    c_dom = r2.active_domain("C")
    assert len(r1) == len(a_dom) * len(b_dom)
    assert len(r2) == len(b_dom) * len(c_dom)
    assert len(evaluate(hard.instance)) == len(a_dom) * len(c_dom)
    assert hard.out == len(a_dom) * len(c_dom)


def test_theorem3_domain_sizes_follow_formula():
    n1, n2, out = 100, 400, 2000
    hard = theorem3_instance(n1, n2, out, COUNTING)
    r1 = hard.instance.relation("R1")
    a = len(r1.active_domain("A"))
    b = len(r1.active_domain("B"))
    assert a == max(1, round(math.sqrt(n1 * out / n2)))
    assert b == max(1, round(math.sqrt(n1 * n2 / out)))


def test_parameter_validation():
    with pytest.raises(ValueError):
        theorem2_instance(1, 10, 10, COUNTING)
    with pytest.raises(ValueError):
        theorem3_instance(10, 10, 5, COUNTING)  # OUT < max(N1, N2)
    with pytest.raises(ValueError):
        theorem3_instance(10, 10, 1000, COUNTING)  # OUT > N1·N2


def test_measured_load_respects_lower_bound_envelope():
    # Our (optimal) algorithm must sit between the lower bound and a
    # constant multiple of the upper bound on the hard family.
    p = 8
    hard = theorem3_instance(128, 128, 1024, COUNTING)
    result = run_query(hard.instance, ExecutionConfig(p=p))
    lower = matmul_lower_bound(hard.n1, hard.n2, hard.out, p)
    upper = matmul_new_load(hard.n1, hard.n2, hard.out, p)
    assert result.report.max_load >= lower / 4
    assert result.report.max_load <= 32 * upper


# -- formula sanity -------------------------------------------------------------


def test_lower_bound_never_exceeds_upper_bound():
    for n1, n2, out, p in [
        (100, 100, 100, 4),
        (1000, 1000, 10_000, 16),
        (100, 10_000, 10_000, 64),
        (10_000, 100, 10_000, 64),
    ]:
        assert matmul_lower_bound(n1, n2, out, p) <= matmul_new_load(n1, n2, out, p) + 1e-9


def test_new_load_beats_baseline_for_large_out():
    n, p = 10_000, 64
    for out in (10_000, 100_000, 1_000_000):
        assert matmul_new_load(n, n, out, p) < matmul_yannakakis_load(2 * n, out, p)


def test_min_crossover_moves_with_out():
    n, p = 10_000, 64
    small = matmul_new_load(n, n, n, p)
    large = matmul_new_load(n, n, n * n, p)
    # For huge OUT the worst-case branch √(N1N2/p) caps the load.
    assert large == pytest.approx(2 * n / p + math.sqrt(n * n / p))
    assert small < large


def test_table1_rows_consistent():
    n, out, p = 5000, 50_000, 32
    for query_class in ("matmul", "line", "star", "tree", "free-connex"):
        baseline = yannakakis_load(query_class, n, out, p)
        ours = new_algorithm_load(query_class, n, out, p)
        assert ours <= baseline * 1.01, query_class


def test_unknown_class_rejected():
    with pytest.raises(ValueError):
        yannakakis_load("cyclic", 10, 10, 2)
    with pytest.raises(ValueError):
        new_algorithm_load("cyclic", 10, 10, 2)


def test_em_reduction_formulas():
    from repro.theory import (
        em_io_cost_from_mpc,
        em_lower_bound_pagh_stockel,
        minimal_servers_for_memory,
        mpc_lower_bound_via_em,
    )

    # p* finds the smallest power-of-two p with load ≤ M/r.
    p_star = minimal_servers_for_memory(
        lambda p: 10_000 / p, memory=1000, rounds=2, p_max=1 << 12
    )
    assert p_star == 32  # 10000/32 = 312.5 ≤ 500
    with pytest.raises(ValueError):
        minimal_servers_for_memory(lambda p: 1e12, memory=10, rounds=1, p_max=8)

    io = em_io_cost_from_mpc(n=1e6, rounds=3, p_star=p_star, memory=1000, block=100)
    assert io == pytest.approx(1e6 / 100 + 3 * 32 * 10)

    # The EM-derived MPC bound never exceeds the native Theorem-3 bound by
    # more than constants at N1 = N2 (it is the weaker of the two).
    for out in (1e3, 1e5, 1e7):
        via_em = mpc_lower_bound_via_em(n=1e4, out=out, p=64)
        native = matmul_lower_bound(1e4, 1e4, out, 64)
        assert via_em <= 8 * native + 1e4

    assert em_lower_bound_pagh_stockel(1e6, 1e6, memory=1e4, block=100) > 0


def test_differential_fuzz_via_conformance():
    """The 1.x ``testing.fuzz_differential`` forwarder is gone; the
    conformance campaign is the one differential entry point."""
    from repro.conformance import FuzzConfig, fuzz

    summary = fuzz(FuzzConfig(iterations=5, seed=3, p=3,
                              invariants=("differential",)))
    assert summary.ok and summary.checked == 5
