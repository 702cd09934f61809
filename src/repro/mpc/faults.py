"""Deterministic fault injection and recovery for the simulated cluster.

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

The model, like §1.3's, sees only how many items each server receives per
round: every delivering :class:`~repro.mpc.cluster.ClusterView` operation
— item lists or columnar batches alike — makes its base charge and then
hands the per-server counts to :meth:`FaultInjector.deliver`, which never
touches a payload.  A cluster built without faults (the default) pays a
single ``None`` check per operation, so every metered number is
bit-identical to a fault-free build.  With faults, the effective
deliveries after recovery equal the intended ones — algorithms still
compute exact answers — while the repair cost (retries, replays,
checkpoint restores, stalls) is metered separately under the
``recovery`` tag of :class:`~repro.mpc.stats.CostReport`.  A crash with no
spare server left raises :class:`~repro.errors.UnrecoverableFaultError`
naming the round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from ..errors import ConfigError, UnrecoverableFaultError

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
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        if self.round < 0:
            raise ConfigError("fault round must be non-negative")
        if self.kind == "straggler" and self.delay < 1:
            raise ConfigError("straggler faults need delay >= 1")

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
    """Per-run fault-injection state: schedule, spares, checkpoints, log.

    ``MPCCluster(p, faults=schedule)`` wraps the schedule in a fresh
    injector with the default two spares; build one explicitly to set
    ``spares``, the number of replacement servers crash recovery may use.
    Injectors are single-use: one injector meters one cluster run.

    The checkpoint of a server is the number of items it has received so
    far (round-0 placement is free, as in §1.3): the simulator needs no
    state contents to recover, only the restore cost, which is exactly
    that size.
    """

    def __init__(self, schedule: FaultSchedule, spares: int = 2) -> None:
        self.schedule = schedule
        self.spares_left = spares
        self._pending: Dict[Tuple[int, int], List[Fault]] = {}
        for fault in schedule.faults:
            self._pending.setdefault((fault.round, fault.server), []).append(fault)
        self._state_items: Dict[int, int] = {}
        #: Faults that actually hit a delivery, in firing order.
        self.fired: List[Fault] = []

    def deliver(self, view: Any, round_index: int, counts: Tuple[int, ...]) -> int:
        """Fire the faults scheduled at ``round_index`` of a delivery whose
        base charge ``counts`` the view has already made, checkpoint the
        round, and return the extra rounds recovery consumed.

        The cursor only moves forward, so every ``(round, server)`` cell
        is delivered at most once and every fault fires at most once.
        """
        extra = 0
        for server, count in enumerate(counts):
            for fault in self._pending.pop((round_index, server), ()):
                if count == 0 and fault.kind in ("drop", "duplicate"):
                    continue  # nothing was in transit: the fault is moot
                self.fired.append(fault)
                _emit(view, "fault", round_index, kind=fault.kind,
                      server=server, in_transit=count, delay=fault.delay)
                extra += self._recover(view, round_index, fault, count)
        for server, count in enumerate(counts):
            if count:
                self._state_items[server] = self._state_items.get(server, 0) + count
        _emit(view, "checkpoint", round_index,
              state_items=sum(self._state_items.values()))
        return extra

    def _recover(self, view: Any, round_index: int, fault: Fault, count: int) -> int:
        """Repair one fired fault (``count`` items were due at its server);
        returns the extra rounds it consumed.

        A straggler stalls the synchronous round by its delay.  A duplicate
        copy is discarded by sequence-number dedup: extra received items,
        no extra round.  Dropped messages are retransmitted from the
        senders' kept outboxes in the next round.  A crashed server is
        replaced by a spare that restores the last checkpoint while the
        senders replay the round: one extra round, restore + replay items.
        """
        server = fault.server
        if fault.kind == "straggler":
            items, extra = 0, fault.delay
        else:
            items, extra = count, int(fault.kind != "duplicate")
        if fault.kind == "crash":
            if self.spares_left < 1:
                raise UnrecoverableFaultError(
                    f"server {server} crashed at round {round_index} with no "
                    f"spare server left",
                    kind=fault.kind, round_index=round_index, server=server,
                )
            self.spares_left -= 1
            items += self._state_items.get(server, 0)
        view.tracker.record_recovery_receive(round_index + extra, server, items)
        view.tracker.add_recovery_rounds(extra)
        _emit(view, "recovery", round_index, kind=fault.kind, server=server,
              items=items, extra_rounds=extra)
        return extra


def _emit(view: Any, op: str, round_index: int, **detail: Any) -> None:
    """One fault-model trace event (no received counts) when a tracer listens."""
    tracer = view.tracker.tracer
    if tracer is not None and tracer.active:
        tracer.emit(op, round_index, view.servers, (), view.tracker.phase_path(),
                    detail=detail)


def as_injector(faults: Any) -> FaultInjector:
    """A schedule wrapped in a fresh default injector, or a pre-built
    injector (which carries its own ``spares``) as is."""
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultSchedule):
        return FaultInjector(faults)
    raise TypeError(
        f"faults must be a FaultSchedule or FaultInjector, got {type(faults).__name__}"
    )
