"""Fault injection & recovery (src/repro/mpc/faults.py, recovery.py).

Unit-level checks of the fault model: schedule serialization and seeding,
per-kind recovery semantics and their exact charges under the ``recovery``
tag, unrecoverable schedules failing loudly naming the round, and the
zero-overhead guarantee — a cluster without faults takes the ``None`` fast
path and its reports serialize without any recovery fields.
"""

import json

import pytest

from repro.config import ExecutionConfig
from repro.core.executor import run_query
from repro.mpc import (
    FAULT_KINDS,
    CheckpointStore,
    Fault,
    FaultError,
    FaultInjector,
    FaultSchedule,
    MPCCluster,
    RecoveryManager,
    RecoveryPolicy,
    UnrecoverableFaultError,
)
from repro.mpc.faults import as_injector
from repro.mpc.stats import CostReport
from repro.obs import FAULT_OPS, LOAD_OPS, RingBufferSink, Tracer
from repro.workloads import planted_out_matmul


# ------------------------------------------------------------ schedule data


def test_fault_validation():
    with pytest.raises(ValueError):
        Fault("meteor", 0, 0)
    with pytest.raises(ValueError):
        Fault("crash", -1, 0)
    with pytest.raises(ValueError):
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
    injector = FaultInjector(schedule, RecoveryPolicy(spares=5))
    assert as_injector(injector) is injector
    assert as_injector(schedule).schedule is schedule
    with pytest.raises(TypeError):
        as_injector([Fault("drop", 0, 0)])


# -------------------------------------------------------- per-kind recovery


def _faulted_exchange(fault, policy=None, p=3, items=(2, 1, 0)):
    """One exchange delivering ``items[i]`` to server i under ``fault``."""
    injector = FaultInjector(FaultSchedule([fault]), policy)
    cluster = MPCCluster(p, faults=injector)
    view = cluster.view()
    outbox = [(dest, f"m{dest}{k}") for dest, n in enumerate(items)
              for k in range(n)]
    inboxes = view.exchange([outbox] + [[] for _ in range(p - 1)])
    return cluster, view, injector, inboxes


def test_drop_retransmits_next_round():
    cluster, view, injector, inboxes = _faulted_exchange(Fault("drop", 0, 0))
    assert [len(box) for box in inboxes] == [2, 1, 0]  # delivery restored
    assert view.round == 2  # base round + 1 retransmission round
    report = cluster.report()
    assert report.recovery_communication == 2  # the retransmitted items
    assert report.recovery_rounds == 1
    assert injector.fired == [Fault("drop", 0, 0)]


def test_duplicate_charges_items_but_no_round():
    cluster, view, injector, _ = _faulted_exchange(Fault("duplicate", 0, 1))
    assert view.round == 1
    report = cluster.report()
    assert report.recovery_communication == 1  # the discarded copy
    assert report.recovery_rounds == 0


def test_straggler_stalls_by_its_delay():
    cluster, view, injector, _ = _faulted_exchange(
        Fault("straggler", 0, 2, delay=3)
    )
    assert view.round == 4  # 1 base + 3 stalled
    report = cluster.report()
    assert report.recovery_rounds == 3
    assert report.recovery_communication == 0


def test_crash_restores_checkpoint_and_replays():
    injector = FaultInjector(
        FaultSchedule([Fault("crash", 1, 0)]), RecoveryPolicy(spares=1)
    )
    cluster = MPCCluster(2, faults=injector)
    view = cluster.view()
    view.exchange([[(0, "a"), (0, "b"), (1, "c")], []])  # round 0: state builds
    view.exchange([[(0, "d")], []])  # round 1: crash fires here
    report = cluster.report()
    # Restore = 2 checkpointed items, replay = 1 in-transit item.
    assert report.recovery_communication == 3
    assert report.recovery_rounds == 1
    assert injector.recovery.spares_left == 0
    assert view.round == 3


def test_moot_faults_never_fire():
    # Drop/duplicate against a server receiving nothing, and any fault at
    # coordinates where no delivery happens, are silent no-ops.
    cluster, view, injector, _ = _faulted_exchange(Fault("drop", 0, 2))
    assert injector.fired == []
    assert view.round == 1
    assert cluster.report().recovery_communication == 0

    injector = FaultInjector(FaultSchedule([Fault("crash", 9, 0)]))
    cluster = MPCCluster(2, faults=injector)
    cluster.view().exchange([[(0, "x")], []])
    assert injector.fired == []


def test_faults_fire_on_broadcast_and_each_fires_once():
    injector = FaultInjector(FaultSchedule([Fault("duplicate", 0, 1)]))
    cluster = MPCCluster(3, faults=injector)
    view = cluster.view()
    view.broadcast([["x", "y"], [], []])
    view.broadcast([["z"], [], []])  # same coordinates never re-fire
    assert injector.fired == [Fault("duplicate", 0, 1)]
    assert cluster.report().recovery_communication == 2


# ------------------------------------------------------ unrecoverable cases


def test_crash_without_spares_names_the_round():
    with pytest.raises(UnrecoverableFaultError) as info:
        _faulted_exchange(Fault("crash", 0, 0), RecoveryPolicy(spares=0))
    error = info.value
    assert error.kind == "crash" and error.round == 0 and error.server == 0
    assert "round 0" in str(error)
    assert isinstance(error, FaultError)


def test_crash_without_checkpointing_is_unrecoverable():
    with pytest.raises(UnrecoverableFaultError) as info:
        _faulted_exchange(
            Fault("crash", 0, 0), RecoveryPolicy(checkpoint=False)
        )
    assert "checkpoint" in str(info.value)


def test_drop_without_retries_is_unrecoverable():
    with pytest.raises(UnrecoverableFaultError) as info:
        _faulted_exchange(Fault("drop", 0, 0), RecoveryPolicy(max_retries=0))
    assert info.value.round == 0 and "round 0" in str(info.value)


def test_unknown_kind_rejected_by_recovery():
    manager = RecoveryManager(RecoveryPolicy())

    class Bogus:
        kind = "meteor"
        delay = 0

    cluster = MPCCluster(1)
    with pytest.raises(ValueError):
        manager.recover(Bogus(), cluster.view(), 0, 0, 1)


# --------------------------------------------------------------- checkpoints


def test_checkpoint_store_accumulates_state():
    store = CheckpointStore()
    assert store.last_round == -1 and store.state_size(0) == 0
    store.extend(0, 3)
    store.extend(0, 2)
    store.extend(1, 0)  # zero deliveries do not allocate
    store.mark_round(4)
    assert store.state_size(0) == 5 and store.state_size(1) == 0
    assert store.last_round == 4 and store.total_items == 5


# -------------------------------------------------- observability of faults


def test_fault_events_are_emitted_and_tagged():
    ring = RingBufferSink()
    injector = FaultInjector(FaultSchedule([Fault("drop", 0, 0)]))
    cluster = MPCCluster(2, tracer=Tracer([ring]), faults=injector)
    cluster.view().exchange([[(0, "a")], []])
    ops = [event.op for event in ring.events]
    assert ops == ["exchange", "fault", "recovery", "checkpoint"]
    fault_event = ring.events[1]
    assert fault_event.detail == {
        "kind": "drop", "server": 0, "in_transit": 1, "delay": 0,
    }
    recovery_event = ring.events[2]
    assert recovery_event.detail["items"] == 1
    assert recovery_event.detail["extra_rounds"] == 1
    assert ring.events[3].detail == {"state_items": 1}
    # Fault-model ops are disjoint from the load-bearing ops and carry no
    # received counts, so trace aggregation never double-counts them.
    assert FAULT_OPS == {"fault", "recovery", "checkpoint"}
    assert not (FAULT_OPS & LOAD_OPS)
    assert all(ring.events[i].received == () for i in (1, 2, 3))


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
    injector = FaultInjector(schedule, RecoveryPolicy(spares=4))
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
