"""The chaos tier: conformance under injected faults (docs/conformance.md).

``check_chaos`` extends the differential oracle into the fault model of
:mod:`repro.mpc.faults`: for every applicable algorithm it first runs
fault-free, learns where data actually moved (the tracker's delivery
cells), then derives several *recoverable* fault schedules — seeded by the
case, so a corpus replay sees the exact same crashes, drops, duplicates
and stragglers — and asserts that under each one

* the answer still equals the sequential oracle (annotations included);
* the base meters are untouched — ``max_load`` and ``total_communication``
  equal the fault-free run's, and the round count grows by at most the
  metered ``recovery_rounds``;
* the recovery overhead is self-consistent (``recovery`` tag ≥ 0, zero
  when nothing fired).

Finally it plants one deliberately *unrecoverable* schedule (a crash with
no spare server) and asserts the run fails loudly with an
:class:`~repro.errors.UnrecoverableFaultError` naming the failing
round.

The invariant registers itself in the catalog under ``"chaos"`` but is
**not** part of :data:`~repro.conformance.invariants.DEFAULT_INVARIANTS`:
plain ``repro fuzz`` summaries stay byte-identical to a chaos-free build,
and the tier is opted into with ``repro fuzz --chaos`` (``--invariants
differential`` alongside runs it on its own).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from ..backends.dispatch import resolve_backend
from ..config import ExecutionConfig
from ..core.executor import applicable_algorithms, run_query
from ..mpc import (
    Fault,
    FaultInjector,
    FaultSchedule,
    MPCCluster,
    UnrecoverableFaultError,
)
from ..ram.evaluate import evaluate
from .generators import FuzzCase, materialize
from .invariants import INVARIANTS, InvariantViolation

__all__ = [
    "CHAOS_SCHEDULES",
    "CHAOS_FAULTS",
    "check_chaos",
    "delivery_cells",
    "recoverable_schedules",
]

#: Recoverable schedules tried per (case, algorithm) by default; FuzzConfig
#: overrides via ``chaos_schedules``.
CHAOS_SCHEDULES = 2
#: Faults per generated schedule; FuzzConfig overrides via ``chaos_faults``.
CHAOS_FAULTS = 3

#: Seed salt separating chaos schedule derivation from the case generator.
_CHAOS_SALT = 0xC4A05


def delivery_cells(cluster: MPCCluster) -> List[Tuple[int, int]]:
    """Sorted ``(round, server)`` cells where a run actually delivered data.

    Faults are only worth scheduling where messages move — a crash of an
    idle server at an idle round can never fire.
    """
    return sorted(
        (round_index, server)
        for round_index, row in cluster.tracker.load_cells().items()
        for server, count in row.items()
        if count > 0
    )


def recoverable_schedules(
    case_seed: int,
    algorithm_index: int,
    cells: List[Tuple[int, int]],
    schedules: int,
    faults: int,
) -> List[FaultSchedule]:
    """Deterministic recoverable schedules for one (case, algorithm) pair."""
    base = random.Random((case_seed ^ _CHAOS_SALT) + 7919 * algorithm_index)
    return [
        FaultSchedule.random(
            seed=base.randrange(2**32), cells=cells, count=faults
        )
        for _ in range(schedules)
    ]


def _answers(relation: Any) -> Dict[Tuple[Any, ...], Any]:
    return dict(relation.tuples)


def check_chaos(case: FuzzCase, config) -> None:
    """Answers and base meters must survive every recoverable schedule."""
    instance = materialize(case, profile="counting")
    expected = _answers(evaluate(instance))
    backend = resolve_backend(config.backend, instance.total_size)

    planted_cell: Tuple[int, int] = (-1, -1)
    planted_algorithm = ""
    for algorithm_index, algorithm in enumerate(applicable_algorithms(case.query)):
        clean_cluster = MPCCluster(config.p, backend=backend)
        run_config = ExecutionConfig(algorithm=algorithm)
        clean = run_query(instance, run_config, cluster=clean_cluster)
        if _answers(clean.relation) != expected:
            raise InvariantViolation(
                "chaos", algorithm, "fault-free run already disagrees with the oracle"
            )
        cells = delivery_cells(clean_cluster)
        if not cells:
            continue  # nothing ever moved: no fault can fire
        if planted_cell == (-1, -1):
            planted_cell = cells[0]
            planted_algorithm = algorithm

        for schedule in recoverable_schedules(
            case.seed, algorithm_index, cells,
            config.chaos_schedules, config.chaos_faults,
        ):
            injector = FaultInjector(schedule, spares=len(schedule))
            cluster = MPCCluster(config.p, faults=injector, backend=backend)
            try:
                result = run_query(instance, run_config, cluster=cluster)
            except UnrecoverableFaultError as error:
                raise InvariantViolation(
                    "chaos",
                    algorithm,
                    f"recoverable schedule judged unrecoverable: {error}",
                ) from error
            report = result.report
            if _answers(result.relation) != expected:
                raise InvariantViolation(
                    "chaos",
                    algorithm,
                    f"answer diverged from the oracle under faults "
                    f"{[f.to_dict() for f in injector.fired]}: "
                    f"{len(result.relation)} vs {len(expected)} tuples",
                )
            if report.max_load != clean.report.max_load:
                raise InvariantViolation(
                    "chaos",
                    algorithm,
                    f"base load changed under faults: {report.max_load} vs "
                    f"fault-free {clean.report.max_load}",
                )
            if report.total_communication != clean.report.total_communication:
                raise InvariantViolation(
                    "chaos",
                    algorithm,
                    f"base communication changed under faults: "
                    f"{report.total_communication} vs "
                    f"{clean.report.total_communication}",
                )
            if not (
                clean.report.rounds
                <= report.rounds
                <= clean.report.rounds + report.recovery_rounds
            ):
                raise InvariantViolation(
                    "chaos",
                    algorithm,
                    f"rounds {report.rounds} outside "
                    f"[{clean.report.rounds}, {clean.report.rounds} + "
                    f"{report.recovery_rounds}] recovery window",
                )
            if report.recovery_load > report.recovery_communication:
                raise InvariantViolation(
                    "chaos", algorithm, "recovery max exceeds recovery total"
                )
            if not injector.fired and (
                report.recovery_communication or report.recovery_rounds
            ):
                raise InvariantViolation(
                    "chaos", algorithm, "recovery charged without any fired fault"
                )

    if planted_cell == (-1, -1):
        return  # fully empty case: nothing to crash

    # One planted unrecoverable schedule: a crash with no spare server must
    # fail loudly, naming the failing round.
    round_index, server = planted_cell
    injector = FaultInjector(
        FaultSchedule([Fault("crash", round_index, server)]), spares=0
    )
    try:
        run_query(
            instance,
            ExecutionConfig(algorithm=planted_algorithm),
            cluster=MPCCluster(config.p, faults=injector, backend=backend),
        )
    except UnrecoverableFaultError as error:
        if error.round != round_index or f"round {round_index}" not in str(error):
            raise InvariantViolation(
                "chaos",
                planted_algorithm,
                f"unrecoverable crash at round {round_index} misreported: {error}",
            ) from error
    else:
        raise InvariantViolation(
            "chaos",
            planted_algorithm,
            f"planted unrecoverable crash at round {round_index} did not raise",
        )


# Register in the shared catalog (corpus replay resolves invariants by name)
# without joining DEFAULT_INVARIANTS — the chaos tier is opt-in.
INVARIANTS["chaos"] = check_chaos
