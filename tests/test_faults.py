"""Fault injection & recovery (src/repro/mpc/faults.py).

Unit-level checks of the fault model: schedule serialization and seeding,
per-kind recovery semantics and their exact charges under the ``recovery``
tag — through the item and the batch exchange alike, with identical
reports and traces — unrecoverable schedules failing loudly naming the
round, and the zero-overhead guarantee: a cluster without faults takes the
``None`` fast path and its reports serialize without any recovery fields.
"""

import json

import numpy as np
import pytest

from repro.backends.batch import ColumnarBatch
from repro.config import ExecutionConfig
from repro.core.executor import run_query
from repro.errors import ConfigError
from repro.mpc import (
    FAULT_KINDS,
    Fault,
    FaultError,
    FaultInjector,
    FaultSchedule,
    MPCCluster,
    UnrecoverableFaultError,
)
from repro.mpc.faults import as_injector
from repro.mpc.stats import CostReport
from repro.obs import FAULT_OPS, LOAD_OPS, RingBufferSink, Tracer
from repro.workloads import planted_out_matmul


# ------------------------------------------------------------ schedule data


def test_fault_validation():
    with pytest.raises(ConfigError):
        Fault("meteor", 0, 0)
    with pytest.raises(ConfigError):
        Fault("crash", -1, 0)
    with pytest.raises(ValueError):  # ConfigError keeps its ValueError base
        Fault("straggler", 0, 0)  # needs delay >= 1
    Fault("straggler", 0, 0, delay=2)


def test_fault_dict_round_trip():
    for fault in (Fault("crash", 3, 1), Fault("straggler", 0, 2, delay=2)):
        assert Fault.from_dict(fault.to_dict()) == fault
    assert "delay" not in Fault("drop", 1, 0).to_dict()


def test_schedule_dict_round_trip():
    schedule = FaultSchedule(
        [Fault("drop", 1, 0), Fault("duplicate", 2, 3)]
    )
    rebuilt = FaultSchedule.from_dict(
        json.loads(json.dumps(schedule.to_dict()))
    )
    assert rebuilt.faults == schedule.faults
    assert len(rebuilt) == 2


def test_random_schedule_is_seed_deterministic():
    cells = [(r, s) for r in range(4) for s in range(4)]
    first = FaultSchedule.random(seed=7, cells=cells, count=3)
    second = FaultSchedule.random(seed=7, cells=cells, count=3)
    assert first.faults == second.faults
    assert len(first) == 3
    assert all(f.kind in FAULT_KINDS for f in first)
    # Sampling is without replacement, over the given cells.
    coords = [(f.round, f.server) for f in first]
    assert len(set(coords)) == 3 and set(coords) <= set(cells)
    assert FaultSchedule.random(seed=8, cells=cells, count=3).faults != first.faults


def test_random_schedule_degenerate_inputs():
    assert len(FaultSchedule.random(seed=0, cells=[], count=3)) == 0
    assert len(FaultSchedule.random(seed=0, cells=[(0, 0)], count=0)) == 0


def test_as_injector_coercion():
    schedule = FaultSchedule([Fault("drop", 0, 0)])
    injector = FaultInjector(schedule, spares=5)
    assert as_injector(injector) is injector
    assert as_injector(schedule).schedule is schedule
    with pytest.raises(TypeError):
        as_injector([Fault("drop", 0, 0)])


# -------------------------------------------------------- per-kind recovery


PATHS = ("exchange", "exchange_batches")


def _deliveries(fault, path, spares=2, p=3, rounds=((2, 1, 0),)):
    """Exchanges from server 0 under ``fault``, the ``i``-th delivering
    ``rounds[i][d]`` items to server ``d``, through ``path``.

    Returns the cluster, its injector, the last round's inbox sizes and
    the trace."""
    ring = RingBufferSink()
    injector = FaultInjector(FaultSchedule([fault]), spares=spares)
    backend = "columnar" if path == "exchange_batches" else "pytuple"
    cluster = MPCCluster(p, tracer=Tracer([ring]), faults=injector, backend=backend)
    view = cluster.view()
    for counts in rounds:
        dests = [dest for dest, n in enumerate(counts) for _ in range(n)]
        if path == "exchange":
            outbox = [(dest, f"m{dest}{k}") for k, dest in enumerate(dests)]
            sizes = [len(box) for box in view.exchange([outbox] + [[]] * (p - 1))]
        else:
            batch = ColumnarBatch((np.arange(len(dests), dtype=np.int64),), None,
                                  len(dests))
            _, cuts = view.exchange_batches(np.array(dests, dtype=np.int64), batch)
            sizes = [high - low for low, high in zip(cuts, cuts[1:])]
    return cluster, injector, sizes, ring.events


def _faulted_exchange(fault, **kwargs):
    """:func:`_deliveries` through both paths, which must agree on every
    report, cursor, firing log, inbox size and trace event."""
    item, batch = (_deliveries(fault, path, **kwargs) for path in PATHS)
    assert item[0].report() == batch[0].report()
    assert item[0].view().round == batch[0].view().round
    assert item[1].fired == batch[1].fired
    assert item[2:] == batch[2:]
    return item


def test_drop_retransmits_next_round():
    cluster, injector, sizes, _ = _faulted_exchange(Fault("drop", 0, 0))
    assert sizes == [2, 1, 0]  # delivery restored
    assert cluster.view().round == 2  # base round + 1 retransmission round
    report = cluster.report()
    assert report.recovery_communication == 2  # the retransmitted items
    assert report.recovery_rounds == 1
    assert injector.fired == [Fault("drop", 0, 0)]


def test_duplicate_charges_items_but_no_round():
    cluster, injector, _, _ = _faulted_exchange(Fault("duplicate", 0, 1))
    assert cluster.view().round == 1
    report = cluster.report()
    assert report.recovery_communication == 1  # the discarded copy
    assert report.recovery_rounds == 0


def test_straggler_stalls_by_its_delay():
    cluster, injector, _, _ = _faulted_exchange(
        Fault("straggler", 0, 2, delay=3)
    )
    assert cluster.view().round == 4  # 1 base + 3 stalled
    report = cluster.report()
    assert report.recovery_rounds == 3
    assert report.recovery_communication == 0


def test_crash_restores_checkpoint_and_replays():
    # Round 0 builds state (2 items at server 0); the crash fires in round 1.
    cluster, injector, _, _ = _faulted_exchange(
        Fault("crash", 1, 0), spares=1, p=2, rounds=((2, 1), (1, 0))
    )
    report = cluster.report()
    # Restore = 2 checkpointed items, replay = 1 in-transit item.
    assert report.recovery_communication == 3
    assert report.recovery_rounds == 1
    assert injector.spares_left == 0
    assert cluster.view().round == 3


def test_moot_faults_never_fire():
    # Drop/duplicate against a server receiving nothing, and any fault at
    # coordinates where no delivery happens, are silent no-ops.
    cluster, injector, _, _ = _faulted_exchange(Fault("drop", 0, 2))
    assert injector.fired == []
    assert cluster.view().round == 1
    assert cluster.report().recovery_communication == 0

    _, injector, _, _ = _faulted_exchange(Fault("crash", 9, 0), p=2, rounds=((1, 0),))
    assert injector.fired == []


def test_faults_fire_on_broadcast_and_each_fires_once():
    reports = []
    for backend in ("pytuple", "columnar"):
        injector = FaultInjector(FaultSchedule([Fault("duplicate", 0, 1)]))
        cluster = MPCCluster(3, faults=injector, backend=backend)
        view = cluster.view()
        for size in (2, 1):  # same coordinates never re-fire
            if backend == "pytuple":
                view.broadcast([["x"] * size, [], []])
            else:
                view.broadcast_batches(
                    [ColumnarBatch((np.arange(size, dtype=np.int64),), None, size)]
                )
        assert injector.fired == [Fault("duplicate", 0, 1)]
        assert cluster.report().recovery_communication == 2
        reports.append(cluster.report())
    assert reports[0] == reports[1]


# ------------------------------------------------------ unrecoverable cases


def test_crash_without_spares_names_the_round():
    for path in PATHS:
        with pytest.raises(UnrecoverableFaultError) as info:
            _deliveries(Fault("crash", 0, 0), path, spares=0)
        error = info.value
        assert error.kind == "crash" and error.round == 0 and error.server == 0
        assert "round 0" in str(error)
        assert isinstance(error, FaultError)


# -------------------------------------------------- observability of faults


def test_fault_events_are_emitted_and_tagged():
    *_, events = _faulted_exchange(Fault("drop", 0, 0), p=2, rounds=((1, 0),))
    ops = [event.op for event in events]
    assert ops == ["exchange", "fault", "recovery", "checkpoint"]
    fault_event = events[1]
    assert fault_event.detail == {
        "kind": "drop", "server": 0, "in_transit": 1, "delay": 0,
    }
    recovery_event = events[2]
    assert recovery_event.detail["items"] == 1
    assert recovery_event.detail["extra_rounds"] == 1
    assert events[3].detail == {"state_items": 1}
    # Fault-model ops are disjoint from the load-bearing ops and carry no
    # received counts, so trace aggregation never double-counts them.
    assert FAULT_OPS == {"fault", "recovery", "checkpoint"}
    assert not (FAULT_OPS & LOAD_OPS)
    assert all(events[i].received == () for i in (1, 2, 3))


# -------------------------------------------- zero-overhead / base metering


def test_faultless_cluster_has_no_injector():
    cluster = MPCCluster(4)
    assert cluster.faults is None
    report = cluster.report()
    assert report.recovery_load == 0 and report.recovery_rounds == 0


def test_report_json_identical_without_faults():
    # The recovery fields only appear in serialized reports when nonzero,
    # so fault-free JSON artifacts are bit-identical to a pre-fault build.
    clean = CostReport(max_load=5, total_communication=9, rounds=2,
                       control_messages=0, elementary_products=0)
    assert not any(key.startswith("recovery") for key in clean.to_dict())
    dirty = CostReport(max_load=5, total_communication=9, rounds=2,
                       control_messages=0, elementary_products=0,
                       recovery_load=1, recovery_communication=2,
                       recovery_rounds=1)
    assert dirty.to_dict()["recovery_communication"] == 2
    assert CostReport.from_dict(dirty.to_dict()) == dirty
    assert CostReport.from_dict(clean.to_dict()) == clean


def test_base_meters_unchanged_under_recoverable_faults():
    instance = planted_out_matmul(n=60, out=240)
    clean_cluster = MPCCluster(4)
    clean = run_query(
        instance, ExecutionConfig(algorithm="matmul"), cluster=clean_cluster
    )

    cells = sorted(
        (r, s)
        for r, row in clean_cluster.tracker.load_cells().items()
        for s, count in row.items() if count > 0
    )
    schedule = FaultSchedule.random(seed=3, cells=cells, count=4)
    assert len(schedule) == 4
    injector = FaultInjector(schedule, spares=4)
    faulted = run_query(
        instance,
        ExecutionConfig(algorithm="matmul"),
        cluster=MPCCluster(4, faults=injector),
    )

    assert faulted.relation.tuples == clean.relation.tuples
    assert faulted.report.max_load == clean.report.max_load
    assert faulted.report.total_communication == clean.report.total_communication
    assert faulted.report.recovery_load >= 0
    assert (clean.report.rounds
            <= faulted.report.rounds
            <= clean.report.rounds + faulted.report.recovery_rounds)


def test_recovery_meters_reject_negative_charges():
    cluster = MPCCluster(2)
    with pytest.raises(ValueError):
        cluster.tracker.record_recovery_receive(0, 0, -1)


def test_reused_config_gives_every_run_a_fresh_injector():
    # A config is reusable: each cluster it builds wraps the schedule in a
    # fresh injector, so firing state and spares never leak between runs.
    schedule = FaultSchedule([Fault("crash", 1, 0), Fault("drop", 2, 1)])
    config = ExecutionConfig(p=4, fault_schedule=schedule)
    instance = planted_out_matmul(n=40, out=80)
    reports = [run_query(instance, config).report for _ in range(3)]
    assert reports[0].recovery_rounds == 1
    assert reports[1:] == reports[:-1]
    # An injector is per-run state: the config refuses one.
    with pytest.raises(ConfigError):
        ExecutionConfig(fault_schedule=FaultInjector(schedule))
    with pytest.raises(ConfigError):
        ExecutionConfig(fault_schedule=[Fault("drop", 0, 0)])
