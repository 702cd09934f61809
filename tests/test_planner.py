"""The load predictor (src/repro/planner/).

Two layers:

* unit behaviour — statistics collection (offline and in-model agree on
  the §2.2 estimate), plan determinism and introspection, and the
  contract that ``chosen`` is what ``algorithm="auto"`` runs;
* the Theorem 1 crossover — the worst-case ↔ output-sensitive predicted
  ranking flips at the Table-1-predicted threshold ``OUT* = √(N1·N2·p)``.
"""

import math
import random

import pytest

from repro.config import ExecutionConfig
from repro.conformance.generators import GeneratorConfig, materialize, random_case
from repro.core.executor import AUTO_CHOICE, applicable_algorithms, run_query
from repro.data import Instance, Relation, TreeQuery
from repro.mpc import MPCCluster
from repro.planner import (
    QueryStatistics,
    RelationStats,
    collect_statistics,
    collect_statistics_in_model,
    plan_query,
    predict_load,
    raw_load,
)
from repro.semiring import COUNTING
from repro.workloads import line_instance, planted_out_matmul

MATMUL_QUERY = TreeQuery(
    (("R1", ("A", "B")), ("R2", ("B", "C"))), frozenset({"A", "C"})
)


def _diagonal_matmul(n: int) -> Instance:
    """OUT = n: every join value matches exactly one tuple per side."""
    r1 = Relation("R1", ("A", "B"), [((i, i), 1) for i in range(n)])
    r2 = Relation("R2", ("B", "C"), [((i, i), 1) for i in range(n)])
    return Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, COUNTING)


def _bipartite_matmul(n: int) -> Instance:
    """OUT = n²: one join value carries every tuple (a planted blow-up)."""
    r1 = Relation("R1", ("A", "B"), [((i, 0), 1) for i in range(n)])
    r2 = Relation("R2", ("B", "C"), [((0, j), 1) for j in range(n)])
    return Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, COUNTING)


def _matmul_stats(n1: int, n2: int, out: float) -> QueryStatistics:
    """Synthetic statistics pinning OUT exactly (threshold tests)."""
    def rel(name, attrs, size):
        return RelationStats(
            name=name,
            size=size,
            distinct=tuple((a, size) for a in attrs),
            max_degree=tuple((a, 1) for a in attrs),
            heavy_hitters=tuple((a, 0) for a in attrs),
        )

    return QueryStatistics(
        query_class="matmul",
        total_size=n1 + n2,
        relations=(rel("R1", ("A", "B"), n1), rel("R2", ("B", "C"), n2)),
        out_estimate=float(out),
        out_provenance="oracle",
        mode="offline",
    )


# ------------------------------------------------------- Theorem 1 crossover


def test_theorem1_min_flips_exactly_at_the_table1_threshold():
    """Table 1 predicts the output-sensitive term beats the worst-case term
    iff OUT < OUT* = √(N1·N2·p); the matmul auto model's min() must switch
    branches right there."""
    n1 = n2 = 10_000
    p = 16
    out_star = math.sqrt(n1 * n2 * p)

    below = _matmul_stats(n1, n2, 0.99 * out_star)
    above = _matmul_stats(n1, n2, 1.01 * out_star)

    # Below: the min takes the output-sensitive branch, so the auto model
    # coincides with the explicit output-sensitive model...
    assert raw_load("matmul", below, p) == pytest.approx(
        raw_load("matmul-output-sensitive", below, p)
    )
    assert raw_load("matmul", below, p) < raw_load("matmul-worst-case", below, p) + (
        below.total_size / p  # the estimation pass the auto model always pays
    )
    # ...above: it switches to the worst-case branch (= that model plus the
    # estimation pass) and strictly undercuts the output-sensitive model.
    assert raw_load("matmul", above, p) == pytest.approx(
        raw_load("matmul-worst-case", above, p) + above.total_size / p
    )
    assert raw_load("matmul", above, p) < raw_load("matmul-output-sensitive", above, p)


def test_crossover_flips_the_variant_preference_end_to_end():
    """On real instances either side of OUT*, the planner's predicted
    ranking of the two explicit Theorem 1 variants flips, and both still
    execute and agree on the answer."""
    p = 64
    n = 200
    out_star = math.sqrt(n * n * p)

    low = _diagonal_matmul(n)      # OUT = n  « OUT*
    high = _bipartite_matmul(n)    # OUT = n² » OUT*

    low_stats = collect_statistics(low)
    high_stats = collect_statistics(high)
    assert low_stats.out_estimate < out_star < high_stats.out_estimate

    low_plan = plan_query(low, p=p, statistics=low_stats)
    high_plan = plan_query(high, p=p, statistics=high_stats)

    def variant(plan, name):
        return plan.candidate(name).predicted_load

    assert variant(low_plan, "matmul-output-sensitive") < variant(
        low_plan, "matmul-worst-case"
    )
    assert variant(high_plan, "matmul-worst-case") < variant(
        high_plan, "matmul-output-sensitive"
    )

    # Both explicit strategies stay runnable and oracle-consistent on both
    # sides of the threshold, and the blow-up side really is cheaper under
    # the worst-case strategy for real.
    for instance in (low, high):
        results = {
            name: run_query(instance, config=ExecutionConfig(p=p, algorithm=name))
            for name in ("matmul-worst-case", "matmul-output-sensitive")
        }
        first, second = results.values()
        assert dict(first.relation.tuples) == dict(second.relation.tuples)
    loads = {
        name: run_query(high, config=ExecutionConfig(p=p, algorithm=name)).report.max_load
        for name in ("matmul-worst-case", "matmul-output-sensitive")
    }
    assert loads["matmul-worst-case"] < loads["matmul-output-sensitive"]


# ------------------------------------------------------------- plan mechanics


def test_plan_is_deterministic_and_introspectable():
    instance = _diagonal_matmul(24)
    first = plan_query(instance, p=8)
    second = plan_query(instance, p=8)
    assert first.to_dict() == second.to_dict()

    assert first.candidate(first.algorithm) is first.chosen
    with pytest.raises(KeyError):
        first.candidate("not-an-algorithm")

    rendering = first.render()
    assert f"chosen: {first.algorithm}" in rendering
    for candidate in first.candidates:
        assert candidate.algorithm in rendering

    # The planner predicts, it does not choose: over the generator grid
    # ``chosen`` is ``AUTO_CHOICE[class]`` (first in ``candidates``), every
    # other applicable algorithm follows cheapest-first, and an ``auto``
    # run executes exactly the chosen algorithm.
    rng = random.Random(2020)
    config = GeneratorConfig(max_tuples=30, domain=6, profiles=("counting",))
    for index in range(12):
        instance = materialize(random_case(rng, config, index))
        plan = plan_query(instance, p=4)
        assert plan.algorithm == AUTO_CHOICE[instance.query.classify()]
        assert plan.candidates[0] is plan.chosen
        rest = [(c.predicted_load, c.algorithm) for c in plan.candidates[1:]]
        assert rest == sorted(rest)
        assert {c.algorithm for c in plan.candidates} == set(
            applicable_algorithms(instance.query)
        )
        assert run_query(instance, p=4).algorithm == plan.algorithm


def test_in_model_statistics_are_metered():
    instance = _diagonal_matmul(16)
    offline = plan_query(instance, p=4, stats_mode="offline")
    assert offline.statistics.mode == "offline"
    assert offline.statistics.metered_load == 0
    with pytest.raises(ValueError):
        plan_query(instance, p=4, stats_mode="in-model")  # needs a view
    with pytest.raises(ValueError):
        plan_query(instance, p=4, stats_mode="telepathy")

    # Both modes estimate line-shaped OUT with the one §2.2 estimator, so
    # they agree up to float summation order at any p on either backend —
    # including instances large enough that the sketches are not exact.
    for instance in (
        instance,
        planted_out_matmul(n=300, out=1200),
        line_instance(2, 1200, 100, seed=3),  # reaches > k: inexact sketches
        line_instance(3, 900, 100, seed=4),
    ):
        for backend in ("pytuple", "columnar"):
            offline = collect_statistics(instance, backend=backend)
            assert offline.out_provenance == "kmv-sketch"
            for p in (1, 4, 16):
                view = MPCCluster(p, backend=backend).view()
                in_model = collect_statistics_in_model(instance, view)
                assert in_model.out_provenance == "kmv-sketch"
                assert in_model.metered_load > 0
                assert in_model.out_estimate == pytest.approx(
                    offline.out_estimate, rel=1e-12
                )


def test_predictions_scale_with_calibration_constants():
    stats = _matmul_stats(1000, 1000, 500.0)
    for algorithm in ("matmul-worst-case", "matmul-output-sensitive"):
        raw = raw_load(algorithm, stats, 16)
        predicted = predict_load(algorithm, stats, 16)
        assert raw > 0 and predicted > 0
