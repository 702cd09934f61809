"""Sparse matrix multiplication: §3.1, §3.2, and the Theorem-1 dispatcher."""

import math
import random

import pytest

from repro.core.matmul import sparse_matmul
from repro.core.matmul_output_sensitive import (
    linear_sparse_mm,
    matmul_output_sensitive,
    output_sensitive_load_target,
)
from repro.core.matmul_worst_case import (
    matmul_unbalanced,
    matmul_worst_case,
    worst_case_load_target,
)
from repro.data import DistRelation, Instance, Relation
from repro.mpc import MPCCluster
from repro.primitives import remove_dangling
from repro.ram import evaluate
from repro.semiring import COUNTING, TROPICAL_MIN_PLUS
from repro.workloads import planted_out_matmul, random_sparse_matmul, zipf_matmul
from tests.conftest import MATMUL_QUERY, SEMIRING_SAMPLERS, random_instance

_BACKEND = "pytuple"


@pytest.fixture(autouse=True)
def _sweep_backends(backend):
    """Run every test in this module under both kernel backends."""
    global _BACKEND
    _BACKEND = backend
    yield
    _BACKEND = "pytuple"


def _loaded(instance, p, reduce=True):
    cluster = MPCCluster(p, backend=_BACKEND)
    view = cluster.view()
    rels = {
        name: DistRelation.load(view, instance.relation(name), instance.semiring)
        for name, _ in instance.query.relations
    }
    if reduce:
        rels = remove_dangling(instance.query, rels)
    return cluster, rels["R1"], rels["R2"]


def _check(instance, result, cluster=None):
    got = dict(result.data.collect())
    want = dict(evaluate(instance).tuples)
    assert got == want


@pytest.mark.parametrize(
    "semiring,sampler", SEMIRING_SAMPLERS, ids=lambda x: getattr(x, "name", "")
)
@pytest.mark.parametrize("algorithm", ["worst", "sensitive", "linear", "auto"])
def test_matmul_algorithms_match_oracle(semiring, sampler, algorithm):
    rng = random.Random(hash((algorithm, getattr(semiring, "name", ""))) & 0xFFFF)
    instance = random_instance(MATMUL_QUERY, 100, 12, rng, semiring, sampler)
    cluster, r1, r2 = _loaded(instance, 8)
    if algorithm == "worst":
        result = matmul_worst_case(r1, r2, semiring)
    elif algorithm == "sensitive":
        result = matmul_output_sensitive(r1, r2, semiring)
    elif algorithm == "linear":
        result = linear_sparse_mm(r1, r2, semiring)
    else:
        result = sparse_matmul(r1, r2, semiring, reduce_dangling=False)
    assert result.schema == ("A", "C")
    _check(instance, result)


@pytest.mark.parametrize("p", [1, 2, 7, 16, 32])
def test_matmul_any_cluster_size(p):
    instance = random_sparse_matmul(120, 130, 30, 9, 30, seed=p)
    cluster, r1, r2 = _loaded(instance, p)
    result = sparse_matmul(r1, r2, COUNTING, reduce_dangling=False)
    _check(instance, result)


def test_matmul_skewed_inner_attribute():
    instance = zipf_matmul(150, 150, 20, alpha=1.4, seed=3)
    cluster, r1, r2 = _loaded(instance, 8)
    result = matmul_worst_case(r1, r2, COUNTING)
    _check(instance, result)


def test_matmul_unbalanced_path():
    # N1 ≪ N2/p triggers the sort-and-broadcast case.
    r1 = Relation("R1", ("A", "B"), [((0, 0), 2), ((1, 1), 3)])
    r2 = Relation("R2", ("B", "C"))
    for j in range(200):
        r2.add((j % 2, j), 1)
    instance = Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, COUNTING)
    cluster, d1, d2 = _loaded(instance, 8)
    result = sparse_matmul(d1, d2, COUNTING, reduce_dangling=False)
    _check(instance, result)


def test_matmul_single_tuple_side_is_broadcast_cheap():
    # N1 = 1: the paper's trivial case, load O(1) beyond the sort.
    r1 = Relation("R1", ("A", "B"), [((0, 0), 2)])
    r2 = Relation("R2", ("B", "C"), [((0, j), 1) for j in range(160)])
    instance = Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, COUNTING)
    cluster, d1, d2 = _loaded(instance, 8)
    result = matmul_unbalanced(d1, d2, COUNTING)
    _check(instance, result)
    assert cluster.report().max_load <= 2 * 160 // 8 + 16


def test_matmul_empty_inputs():
    r1 = Relation("R1", ("A", "B"))
    r2 = Relation("R2", ("B", "C"), [((0, 0), 1)])
    instance = Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, COUNTING)
    cluster, d1, d2 = _loaded(instance, 4, reduce=False)
    result = sparse_matmul(d1, d2, COUNTING)
    assert result.data.total_size == 0


def test_matmul_disjoint_inner_values_empty_result():
    r1 = Relation("R1", ("A", "B"), [((0, 0), 1)])
    r2 = Relation("R2", ("B", "C"), [((1, 0), 1)])
    instance = Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, COUNTING)
    cluster, d1, d2 = _loaded(instance, 4)
    result = sparse_matmul(d1, d2, COUNTING, reduce_dangling=False)
    assert result.data.total_size == 0


def test_worst_case_load_bound_on_dense_b():
    # |dom(B)| = 1: the Ω(√(N1N2/p)) worst case; measured load must be
    # within a constant of the target.
    n, p = 160, 16
    r1 = Relation("R1", ("A", "B"), [((i, 0), 1) for i in range(n)])
    r2 = Relation("R2", ("B", "C"), [((0, j), 1) for j in range(n)])
    instance = Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, COUNTING)
    cluster, d1, d2 = _loaded(instance, p)
    result = matmul_worst_case(d1, d2, COUNTING)
    _check(instance, result)
    target = worst_case_load_target(n, n, p)
    assert cluster.report().max_load <= 10 * target + 2 * n / p
    # All N² elementary products must be computed (semiring model).
    assert cluster.report().elementary_products == n * n


def test_strategies_track_their_load_targets():
    n, p = 400, 16
    for out in (n, 40 * n):
        instance = planted_out_matmul(n=n, out=out)
        want = evaluate(instance)
        loads = {}
        for strategy in ("worst-case", "output-sensitive"):
            cluster, r1, r2 = _loaded(instance, p)
            result = sparse_matmul(r1, r2, COUNTING, strategy=strategy,
                                   reduce_dangling=False)
            assert dict(result.data.collect()) == dict(want.tuples)
            loads[strategy] = cluster.report().max_load
        # Each algorithm stays within a constant of its own target.
        assert loads["worst-case"] <= 10 * worst_case_load_target(n, n, p)
        assert loads["output-sensitive"] <= 10 * output_sensitive_load_target(
            n, n, out, p
        )


def test_worst_case_beats_output_sensitive_on_huge_out():
    # At OUT = N² the output-sensitive target exceeds √(N1N2/p): the §3.1
    # algorithm must win, and Theorem 1's dispatcher must pick it.
    n, p = 200, 16
    instance = planted_out_matmul(n=n, out=n * n)
    want = evaluate(instance)
    loads = {}
    for strategy in ("worst-case", "output-sensitive", "auto"):
        cluster, r1, r2 = _loaded(instance, p)
        result = sparse_matmul(r1, r2, COUNTING, strategy=strategy,
                               reduce_dangling=False)
        assert dict(result.data.collect()) == dict(want.tuples)
        loads[strategy] = cluster.report().max_load
    assert loads["worst-case"] < loads["output-sensitive"]
    assert loads["auto"] <= loads["output-sensitive"]


def test_load_targets_formula_sanity():
    assert worst_case_load_target(100, 100, 4) == math.ceil(math.sqrt(2500))
    small = output_sensitive_load_target(100, 100, 10, 4)
    large = output_sensitive_load_target(100, 100, 10_000, 4)
    assert small < large


def test_products_counted_for_planted_family():
    instance = planted_out_matmul(n=200, out=800)
    cluster, r1, r2 = _loaded(instance, 8)
    result = sparse_matmul(r1, r2, COUNTING, reduce_dangling=False)
    _check(instance, result)
    # The planted family has exactly OUT elementary products (each (a,c)
    # pair joins through exactly one b).
    assert cluster.report().elementary_products == 800


@pytest.mark.parametrize("wrap", [lambda a: (a,), lambda a: (f"a{a}",), lambda a: a],
                         ids=["1-tuple-int", "1-tuple-str", "bare"])
def test_output_sensitive_accepts_one_tuple_row_values(wrap):
    """Row values that are themselves 1-tuples — what ``binarize`` makes of a
    one-arm side — reach the §3.2 row labelling as they are.  (Through 3.0.0
    the OUT_a table's keys were unwrapped first, so the labelling sorted
    ``(a,)`` beside ``a`` and raised ``TypeError``.)"""
    n = 300
    r1 = Relation("R1", ("A", "B"), [((wrap(a), a), 1) for a in range(n)])
    r2 = Relation(
        "R2", ("B", "C"),
        [((a, -1), 2) for a in range(n)] + [((a, a + 1), 3) for a in range(0, n, 3)],
    )
    instance = Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, COUNTING)
    cluster, d1, d2 = _loaded(instance, 8, reduce=False)
    _check(instance, matmul_output_sensitive(d1, d2, COUNTING))
    assert cluster.report().elementary_products == 400
