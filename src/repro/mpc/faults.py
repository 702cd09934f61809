"""Deterministic fault injection for the simulated MPC cluster.

The paper's §1.3 model assumes a perfectly synchronous, failure-free
cluster.  This module drops that assumption *deterministically*: a seeded
:class:`FaultSchedule` plants faults at ``(round, server)`` coordinates —

* ``crash`` — the server dies during the round's delivery and a spare
  restores its checkpoint and replays the round;
* ``drop`` — every message addressed to the server in that round is lost
  in transit and retransmitted;
* ``duplicate`` — every message addressed to the server arrives twice and
  the copy is discarded by sequence-number dedup;
* ``straggler`` — the server's round runs ``delay`` rounds slow, stalling
  the whole synchronous round.

Injection rides on hooks inside :meth:`ClusterView.exchange` and
``broadcast``: a cluster built without faults (the default) pays a single
``None`` check per operation, so every metered number is bit-identical to a
fault-free build.  With faults enabled, the *effective* deliveries after
recovery equal the intended ones — algorithms still compute exact answers —
while the repair cost (retries, replays, checkpoint restores, stalls) is
metered separately under the ``recovery`` tag (see
:mod:`repro.mpc.recovery` and :class:`~repro.mpc.stats.CostReport`).
Unrecoverable schedules raise :class:`~repro.errors.UnrecoverableFaultError`
naming the round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .recovery import RecoveryManager, RecoveryPolicy

__all__ = ["FAULT_KINDS", "Fault", "FaultSchedule", "FaultInjector", "as_injector"]

#: The fault taxonomy, in schedule-generation order.
FAULT_KINDS: Tuple[str, ...] = ("crash", "drop", "duplicate", "straggler")


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: ``kind`` hits ``server`` at ``round``.

    ``delay`` is only meaningful for stragglers (rounds of slowdown).
    ``round`` indexes the round cursor at which the delivering operation
    runs; a fault whose coordinates never coincide with a delivery simply
    never fires (a scheduled crash of an idle server is harmless).
    """

    kind: str
    round: int
    server: int
    delay: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.round < 0:
            raise ValueError("fault round must be non-negative")
        if self.kind == "straggler" and self.delay < 1:
            raise ValueError("straggler faults need delay >= 1")

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "kind": self.kind, "round": self.round, "server": self.server,
        }
        if self.delay:
            record["delay"] = self.delay
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Fault":
        return cls(
            kind=str(record["kind"]),
            round=int(record["round"]),
            server=int(record["server"]),
            delay=int(record.get("delay", 0)),
        )


class FaultSchedule:
    """An immutable, replayable set of scheduled faults.

    Schedules are plain data: build one from explicit :class:`Fault`
    entries, from :meth:`random` (seeded — same seed, same schedule), or
    from a JSON document (:meth:`from_dict`).  The same schedule object can
    be injected into any number of fresh clusters; per-run firing state
    lives in the :class:`FaultInjector`.
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self.faults: Tuple[Fault, ...] = tuple(faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FaultSchedule({list(self.faults)!r})"

    @classmethod
    def random(
        cls,
        seed: int,
        cells: Sequence[Tuple[int, int]],
        kinds: Sequence[str] = FAULT_KINDS,
        count: int = 2,
        max_delay: int = 2,
    ) -> "FaultSchedule":
        """A seeded schedule over delivery ``cells`` (``(round, server)``).

        Sampling from observed delivery cells (e.g. a fault-free run's
        :meth:`LoadTracker.load_cells`) guarantees the faults actually hit
        data movement; ``count`` faults are drawn without replacement.
        """
        if not cells or count < 1:
            return cls()
        rng = random.Random(seed)
        chosen = rng.sample(sorted(cells), min(count, len(cells)))
        faults = []
        for round_index, server in chosen:
            kind = kinds[rng.randrange(len(kinds))]
            delay = rng.randint(1, max(1, max_delay)) if kind == "straggler" else 0
            faults.append(Fault(kind, round_index, server, delay))
        return cls(faults)

    def to_dict(self) -> Dict[str, Any]:
        return {"faults": [fault.to_dict() for fault in self.faults]}

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "FaultSchedule":
        return cls(Fault.from_dict(entry) for entry in record.get("faults", ()))


class FaultInjector:
    """Per-run fault-injection state: schedule + recovery + firing log.

    Attach via ``MPCCluster(p, faults=schedule)`` (the cluster wraps the
    schedule in a fresh injector) or construct one explicitly to control
    the :class:`~repro.mpc.recovery.RecoveryPolicy`.  Injectors are
    single-use: one injector meters one cluster run.
    """

    def __init__(self, schedule: FaultSchedule,
                 policy: Optional[RecoveryPolicy] = None) -> None:
        self.schedule = schedule
        self.recovery = RecoveryManager(policy or RecoveryPolicy())
        self._pending: Dict[Tuple[int, int], List[int]] = {}
        for index, fault in enumerate(schedule.faults):
            self._pending.setdefault((fault.round, fault.server), []).append(index)
        self._fired: set = set()
        #: Faults that actually hit a delivery, in firing order.
        self.fired: List[Fault] = []

    @property
    def policy(self) -> RecoveryPolicy:
        return self.recovery.policy

    def deliver(self, view: Any, round_index: int, counts: Tuple[int, ...],
                op: str, payloads: Optional[Sequence[List[Any]]] = None) -> int:
        """The faulted delivery path for one cluster operation.

        Performs exactly the base charging/tracing the fault-free path
        would (so base meters match bit for bit), then fires any scheduled
        faults whose ``(round, server)`` coordinates match, checkpoints the
        round, and returns the next cursor position (base + recovery
        stalls).

        ``payloads`` are the per-server inboxes about to be handed to the
        algorithm (``None`` for broadcasts, whose list is shared).  A
        healthy injector never touches them — recovery restores every
        delivery — but the hook is where mutation tests plant delivery-
        corrupting bugs that the chaos tier must catch.
        """
        view.tracker.charge_round(op, round_index, view.servers, counts)
        extra = 0
        for server, count in enumerate(counts):
            indices = self._pending.get((round_index, server))
            if not indices:
                continue
            for index in indices:
                if index in self._fired:
                    continue
                self._fired.add(index)
                fault = self.schedule.faults[index]
                if count == 0 and fault.kind in ("drop", "duplicate"):
                    continue  # nothing was in transit: the fault is moot
                self.fired.append(fault)
                self._emit_fault(view, round_index, fault, count)
                extra += self.recovery.recover(
                    fault, view, round_index, server, count
                )
        self.recovery.checkpoint_round(view, round_index, counts)
        return round_index + 1 + extra

    def _emit_fault(self, view: Any, round_index: int, fault: Fault,
                    count: int) -> None:
        tracer = view.tracker.tracer
        if tracer is None or not tracer.active:
            return
        tracer.emit(
            "fault",
            round_index,
            view.servers,
            (),
            view.tracker.phase_path(),
            detail={
                "kind": fault.kind,
                "server": fault.server,
                "in_transit": count,
                "delay": fault.delay,
            },
        )


def as_injector(faults: Any) -> "FaultInjector":
    """Coerce a schedule or injector into a fresh-enough injector.

    ``MPCCluster`` accepts either; passing a :class:`FaultSchedule` gets a
    fresh injector with the default policy (the common case), while a
    pre-built :class:`FaultInjector` carries a custom policy.
    """
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultSchedule):
        return FaultInjector(faults)
    raise TypeError(
        f"faults must be a FaultSchedule or FaultInjector, got {type(faults).__name__}"
    )
