"""Trace events and sinks for the simulated cluster.

Every data-moving operation on the cluster — ``exchange``, ``broadcast``
and ``gather`` — can emit one :class:`TraceEvent` describing *who received
how much, when, and under which phase*.  Events flow through a
:class:`Tracer` into pluggable sinks:

* :class:`RingBufferSink` — last ``capacity`` events in memory;
* :class:`JsonlSink` — one JSON object per line, streamed to a file;
* :class:`CallbackSink` — hand each event to a function (dashboards, tests).

Tracing is opt-in: a cluster built without a tracer (the default) pays only
a single attribute check per operation, so the metered load ``L`` and all
benchmark numbers are untouched.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, IO, Iterable, List, Optional, Tuple, Union

__all__ = [
    "TraceEvent",
    "Tracer",
    "TraceSink",
    "RingBufferSink",
    "JsonlSink",
    "CallbackSink",
    "event_to_dict",
    "event_from_dict",
    "LOAD_OPS",
    "FAULT_OPS",
    "PLAN_OP",
    "MAINTENANCE_OP",
]

#: Operations whose ``received`` counts are charged against the load meter.
LOAD_OPS = frozenset({"exchange", "broadcast", "gather"})

#: Fault-injection lifecycle events (:mod:`repro.mpc.faults`): ``fault``
#: marks an injected failure firing, ``recovery`` its repair (retry /
#: replay / stall — the charged overhead rides in ``detail``), and
#: ``checkpoint`` the per-round state snapshot.  None of them carry
#: load-bearing ``received`` counts, so trace aggregation of the base ``L``
#: is unaffected by chaos runs.
FAULT_OPS = frozenset({"fault", "recovery", "checkpoint"})

#: Planner header event (:mod:`repro.planner`): the executor emits one
#: ``plan`` event (round ``-1``, no servers, the plan summary in
#: ``detail``) at the start of an ``algorithm="cost"`` run, recording *why*
#: the traced algorithm was chosen.  Like :data:`FAULT_OPS` it is outside
#: :data:`LOAD_OPS`, so trace-rebuilt aggregates ignore it.
PLAN_OP = "plan"

#: Incremental-view-maintenance summary event (:mod:`repro.ivm`): a
#: :class:`~repro.ivm.MaterializedView` with a traced config emits one
#: ``maintenance`` event per applied delta batch (round ``-1``, no
#: servers, the :class:`~repro.ivm.DeltaResult` summary in ``detail``)
#: after the batch's propagation runs — which themselves stream ordinary
#: cluster events through the same tracer.  Outside :data:`LOAD_OPS`,
#: like :data:`PLAN_OP`, so trace-rebuilt aggregates ignore it.
MAINTENANCE_OP = "maintenance"


@dataclass(frozen=True)
class TraceEvent:
    """One structured observation of the simulated cluster.

    ``servers`` are the cluster's server ids; ``received[i]`` is the number
    of items ``servers[i]`` received in this operation (empty for
    non-delivering ops such as ``fault`` or ``checkpoint``).  ``phase`` is
    the open phase-label path, outermost first.  ``algorithm`` is the label
    set by the executor (which algorithm ran); ``scope`` names the
    workload/instance when several runs share one trace file.
    """

    op: str
    round: int
    servers: Tuple[int, ...]
    received: Tuple[int, ...] = ()
    phase: Tuple[str, ...] = ()
    algorithm: str = ""
    scope: str = ""
    detail: Optional[Dict[str, Any]] = None

    @property
    def total(self) -> int:
        """Items delivered by this event."""
        return sum(self.received)

    @property
    def max_received(self) -> int:
        """Largest single-server delivery of this event."""
        return max(self.received) if self.received else 0


def event_to_dict(event: TraceEvent) -> Dict[str, Any]:
    """JSON-serializable dict form of ``event`` (the JSONL schema)."""
    record: Dict[str, Any] = {
        "op": event.op,
        "round": event.round,
        "servers": list(event.servers),
        "received": list(event.received),
    }
    if event.phase:
        record["phase"] = list(event.phase)
    if event.algorithm:
        record["algorithm"] = event.algorithm
    if event.scope:
        record["scope"] = event.scope
    if event.detail is not None:
        record["detail"] = event.detail
    return record


def event_from_dict(record: Dict[str, Any]) -> TraceEvent:
    """Inverse of :func:`event_to_dict`."""
    return TraceEvent(
        op=record["op"],
        round=int(record["round"]),
        servers=tuple(record["servers"]),
        received=tuple(record.get("received", ())),
        phase=tuple(record.get("phase", ())),
        algorithm=record.get("algorithm", ""),
        scope=record.get("scope", ""),
        detail=record.get("detail"),
    )


class TraceSink:
    """Sink interface: receives every emitted event; ``close`` is optional."""

    def write(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; safe to call more than once."""


class RingBufferSink(TraceSink):
    """Keep the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._buffer: "deque[TraceEvent]" = deque(maxlen=capacity)

    def write(self, event: TraceEvent) -> None:
        self._buffer.append(event)

    @property
    def events(self) -> List[TraceEvent]:
        """Snapshot of the buffered events, oldest first."""
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()


class JsonlSink(TraceSink):
    """Stream events to a file as JSON Lines (one event object per line).

    The stream is flushed every ``flush_every`` events and again on
    ``close``/``__exit__``, so a crashed run loses at most the last
    ``flush_every - 1`` events rather than everything buffered.
    """

    def __init__(self, target: Union[str, IO[str]], flush_every: int = 64) -> None:
        if flush_every < 1:
            raise ValueError("JsonlSink needs flush_every >= 1")
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self._flush_every = flush_every
        self._since_flush = 0
        self._closed = False

    def write(self, event: TraceEvent) -> None:
        self._handle.write(json.dumps(event_to_dict(event)) + "\n")
        self._since_flush += 1
        if self._since_flush >= self._flush_every:
            self._handle.flush()
            self._since_flush = 0

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_handle:
            self._handle.close()
        else:
            self._handle.flush()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class CallbackSink(TraceSink):
    """Invoke ``callback(event)`` for every event (live dashboards, tests)."""

    def __init__(self, callback: Callable[[TraceEvent], None]) -> None:
        self._callback = callback

    def write(self, event: TraceEvent) -> None:
        self._callback(event)


class Tracer:
    """Fans emitted events out to sinks; attach via ``MPCCluster(tracer=...)``.

    ``label`` is stamped on every event as ``TraceEvent.algorithm`` (the
    executor sets it to the algorithm it dispatched); ``scope`` names the
    workload when several runs share a sink.  A tracer with no sinks is
    inactive — the cluster skips event construction entirely.
    """

    def __init__(self, sinks: Iterable[TraceSink] = (), label: str = "",
                 scope: str = "") -> None:
        self.sinks = list(sinks)
        self.label = label
        self.scope = scope
        self._closed = False

    @property
    def active(self) -> bool:
        return bool(self.sinks)

    def emit(
        self,
        op: str,
        round_index: int,
        servers: Tuple[int, ...],
        received: Tuple[int, ...] = (),
        phase: Tuple[str, ...] = (),
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Build one event and hand it to every sink."""
        if not self.sinks:
            return
        event = TraceEvent(
            op=op,
            round=round_index,
            servers=servers,
            received=received,
            phase=phase,
            algorithm=self.label,
            scope=self.scope,
            detail=detail,
        )
        for sink in self.sinks:
            sink.write(event)

    def close(self) -> None:
        """Close every sink (flushes file-backed ones); idempotent."""
        if self._closed:
            return
        self._closed = True
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
