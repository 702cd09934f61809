"""The backend-differential battery: columnar ≡ pytuple, bit for bit.

The columnar backend's contract is not "same answer, roughly" — it is
*bit-identical observables*: the answer relation (tuples and annotations),
the serialized :class:`~repro.mpc.stats.CostReport`, and the full trace
event stream must match the reference backend exactly, because the meters
are the reproduction's scientific output.  This module enforces that
contract over the whole conformance grid — every query family × every
semiring profile × every skew — by running the ``columnar-identity``
invariant (which itself runs every applicable algorithm per case), and
separately pins the Table-1 load meters at benchmark scale.
"""

from __future__ import annotations

import random

import pytest

from repro.conformance.generators import (
    PROFILES,
    QUERY_FAMILIES,
    SKEW_PROFILES,
    GeneratorConfig,
    random_case,
)
from repro.conformance.invariants import check_columnar_identity


class _GridConfig:
    """Config shim with the fields invariant checkers read."""

    p = 5
    p_large = 8
    backend = None


def _case_for(family: str, profile: str, skew: str, seed: int):
    """A deterministic fuzz case pinned to one grid cell."""
    generator = GeneratorConfig(
        max_tuples=12,
        domain=5,
        families=(family,),
        profiles=(profile,),
        skews=(skew,),
    )
    return random_case(random.Random(seed), generator, 0)


GRID = [
    (family, profile, skew)
    for family in QUERY_FAMILIES
    for profile in sorted(PROFILES)
    for skew in SKEW_PROFILES
]


@pytest.mark.parametrize(
    "family,profile,skew", GRID, ids=["-".join(cell) for cell in GRID]
)
def test_columnar_identical_across_grid(family, profile, skew):
    """5 families × 5 semirings × 3 skews, every applicable algorithm:
    answers, cost reports, and traces agree between the backends."""
    case = _case_for(family, profile, skew, seed=0xD1FF ^ hash((family, profile, skew)) % 4096)
    check_columnar_identity(case, _GridConfig())


def test_columnar_identical_under_seed_sweep():
    """A second, rng-driven sweep: fresh skeletons (not the grid's pinned
    seeds) keep the battery from overfitting to one corpus of instances."""
    rng = random.Random(0xBA77E4)
    generator = GeneratorConfig(max_tuples=10, domain=4)
    for index in range(10):
        case = random_case(rng, generator, index)
        check_columnar_identity(case, _GridConfig())


def test_table1_loads_identical_at_benchmark_scale():
    """Satellite meter check: the Table-1 experiment at scale=300 reports
    the same loads/rounds/communication on both backends, derived on the
    columnar path from array lengths rather than item-list lengths."""
    from repro.api import table1
    from repro.config import ExecutionConfig

    def rows(backend: str):
        return [
            row.to_dict()
            for row in table1(
                scale=300,
                config=ExecutionConfig(p=16, backend=backend),
                families=("matmul",),
            )
        ]

    reference = rows("pytuple")
    columnar = rows("columnar")
    assert reference == columnar


def _heavy_aggregation_run(backend: str, **config):
    """One run of the heavy-aggregation matmul: every B joins 80 > k = 64
    C values, so each server folds dozens of *full* sketches per key — the
    shape the whole-view sketch and multi-search paths exist for, which the
    grid above (≤ 12 tuples) and the Table-1 sweeps (sparse output) never
    reach."""
    from repro.api import run_query
    from repro.config import ExecutionConfig
    from repro.obs import RingBufferSink, Tracer, event_to_dict
    from repro.workloads import random_sparse_matmul

    instance = random_sparse_matmul(
        n1=6400, n2=6400, rows=80, inner=80, cols=80, seed=7
    )
    sink = RingBufferSink()
    result = run_query(
        instance,
        ExecutionConfig(p=16, backend=backend, tracer=Tracer((sink,)), **config),
    )
    return (
        result.relation.tuples,
        result.report.to_dict(),
        [event_to_dict(event) for event in sink.events],
    )


def test_heavy_aggregation_cell_identical_across_backends():
    """Answers, serialized cost reports (control messages included) and
    trace streams agree where the sketch fold dominates the run."""
    reference = _heavy_aggregation_run("pytuple")
    assert reference[1]["control_messages"] > 0
    assert _heavy_aggregation_run("columnar") == reference


def test_heavy_aggregation_cell_under_faults_runs_the_array_path():
    """A fault schedule does not choose the path: a faulted columnar run
    executes its kernels, and still equals the faulted pytuple run."""
    from repro.mpc import Fault, FaultSchedule
    from repro.obs import Profiler

    # Round 1 is the first semijoin's multi-search exchange, round 6 the
    # propagated sketch partials' — one crash lands in each.
    schedule = FaultSchedule([Fault("crash", 1, 3), Fault("crash", 6, 9)])
    profiler = Profiler()
    faulted = _heavy_aggregation_run(
        "columnar", fault_schedule=schedule, profiler=profiler
    )
    assert faulted[1]["recovery_rounds"] > 0
    assert [node.label for node, _ in profiler.root.walk() if node.kind == "kernel"]
    assert faulted == _heavy_aggregation_run("pytuple", fault_schedule=schedule)


# -- values the codec would conflate ----------------------------------------------

def _lookalike_run(backend: str, b_of_r1, b_of_r2, inner: int):
    """The full 40 × inner × 40 matmul with the join attribute spelled
    ``b_of_r1(b)`` in R1 and ``b_of_r2(b)`` in R2."""
    from repro.api import run_query
    from repro.config import ExecutionConfig
    from repro.data import Instance, Relation
    from repro.obs import RingBufferSink, Tracer, event_to_dict
    from repro.semiring import COUNTING
    from repro.workloads import MATMUL_QUERY

    r1 = Relation("R1", ("A", "B"),
                  [((a, b_of_r1(b)), 1) for a in range(40) for b in range(inner)])
    r2 = Relation("R2", ("B", "C"),
                  [((b_of_r2(b), c), 1) for b in range(inner) for c in range(40)])
    sink = RingBufferSink()
    result = run_query(
        Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, COUNTING),
        ExecutionConfig(p=8, backend=backend, tracer=Tracer((sink,))),
    )
    return (
        result.relation.tuples,
        result.report.to_dict(),
        [event_to_dict(event) for event in sink.events],
    )


@pytest.mark.parametrize("b_of_r1,b_of_r2,inner,communication", [
    (int, float, 10, 5571),                       # 3 in R1 joins 3.0 in R2
    (float, float, 10, 5573),                     # 3.0 beside the 3 of A and C
    (bool, bool, 2, 1238),                        # True beside the 1 of A and C
    (lambda b: b + 0.5, lambda b: b + 0.5, 10, 5571),  # floats equal to no int
], ids=["int-vs-float", "float-beside-int", "bool-beside-int", "float-disjoint"])
def test_lookalike_values_route_by_their_own_hash(b_of_r1, b_of_r2, inner, communication):
    """``1``, ``1.0`` and ``True`` are one dict key, so a codec would give
    them one code and one hash where ``pytuple`` routes each by its own:
    instances holding a float or bool attribute value run the item kernels
    (before this rule the first three cells metered 5575 / 5575 / 1240 on
    ``columnar``)."""
    reference = _lookalike_run("pytuple", b_of_r1, b_of_r2, inner)
    assert reference[1]["total_communication"] == communication
    assert len(reference[0]) == 1600
    assert _lookalike_run("columnar", b_of_r1, b_of_r2, inner) == reference
