"""Load accounting for the simulated MPC cluster.

The paper's cost measure is the *load* ``L``: the maximum number of items
received by any server in any round (§1.3).  The tracker meters exactly
that, by recording every message delivery at a ``(round, server)`` cell.

A secondary *control channel* meters the O(p)-scalar coordination traffic
(splitter samples, group counts, prefix offsets) that MPC papers treat as
free under ``N ≥ p^{1+ε}``; it is reported separately and never mixed into
``L``.

Phases are *round intervals*.  A cluster has one view, whose round cursor
only moves forward, so every delivery made while a phase is open lands at
or after the round the phase opened at, and none made before it does.  A
phase's load is therefore the largest per-round peak from its opening round
on, read from the same running per-round peak list as ``max_load``.

An optional :class:`~repro.obs.events.Tracer` can be attached to stream
structured events; with none attached (the default), recording cost is
unchanged.

Fault recovery (:mod:`repro.mpc.faults`) charges its retries, replays and
checkpoint restores through :meth:`LoadTracker.record_recovery_receive` /
:meth:`LoadTracker.add_recovery_rounds` into *separate* cells — the
``recovery`` tag of :class:`CostReport` — so the base ``L`` under an
injected-fault run equals the fault-free ``L`` by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["LoadTracker", "CostReport", "TAGGED_FIELDS"]

#: The overhead tags of :class:`CostReport`: ``tag → fields``.  A tag's
#: fields are metered apart from the base meters and absent from
#: :meth:`CostReport.to_dict` until one of them is nonzero, so exports of
#: runs that never charged the tag stay byte-identical to releases that
#: did not have it.
TAGGED_FIELDS: Dict[str, Tuple[str, ...]] = {
    "recovery": ("recovery_load", "recovery_communication", "recovery_rounds"),
    "maintenance": ("maintenance_load", "maintenance_communication",
                    "maintenance_rounds", "maintenance_products"),
}


@dataclass
class CostReport:
    """Summary of one algorithm execution on the simulated cluster."""

    #: The paper's L: max items received by any server in any round.
    max_load: int
    #: Total number of items shipped over the interconnect.
    total_communication: int
    #: Number of communication rounds used.
    rounds: int
    #: O(p)-scalar coordination traffic (not part of ``max_load``).
    control_messages: int
    #: Semiring ⊗-operations performed ("elementary products", §3).
    elementary_products: int
    #: Per-phase (label, max_load) breakdown in execution order.
    phases: Tuple[Tuple[str, int], ...] = ()
    #: Recovery overhead (fault injection, :mod:`repro.mpc.faults`): metered
    #: in separate cells under the ``recovery`` tag, never mixed into the
    #: base ``max_load``/``total_communication``/``rounds`` above.
    recovery_load: int = 0
    recovery_communication: int = 0
    recovery_rounds: int = 0
    #: Incremental-view-maintenance overhead (:mod:`repro.ivm`): the cost of
    #: delta propagation runs, accumulated by :class:`~repro.ivm.MaterializedView`
    #: under the distinct ``maintenance`` tag — ``maintenance_load`` is the max
    #: load over delta runs, the other three are totals.  Same contract as the
    #: ``recovery`` tag: never mixed into the base meters, absent from
    #: :meth:`to_dict` until a delta actually charged them.
    maintenance_load: int = 0
    maintenance_communication: int = 0
    maintenance_rounds: int = 0
    maintenance_products: int = 0
    #: Resolved algorithm after ``auto`` dispatch — stamped by the
    #: executor ("" for reports built outside it, e.g. from traces).
    algorithm: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CostReport(load={self.max_load}, comm={self.total_communication}, "
            f"rounds={self.rounds}, products={self.elementary_products})"
        )

    # -- machine-readable export -----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dict (inverse of :meth:`from_dict`).

        Recovery fields appear only when a fault actually charged them, so
        fault-free exports stay byte-identical to pre-fault-injection runs;
        maintenance fields appear only when a view applied a delta, so
        IVM-free exports are untouched; likewise ``algorithm`` appears only
        when the executor stamped it.
        """
        record = {
            "max_load": self.max_load,
            "total_communication": self.total_communication,
            "rounds": self.rounds,
            "control_messages": self.control_messages,
            "elementary_products": self.elementary_products,
            "phases": [[label, load] for label, load in self.phases],
        }
        for fields in TAGGED_FIELDS.values():
            values = [getattr(self, name) for name in fields]
            if any(values):
                record.update(zip(fields, values))
        if self.algorithm:
            record["algorithm"] = self.algorithm
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "CostReport":
        """Rebuild a report from :meth:`to_dict` output (e.g. parsed JSON)."""
        return cls(
            max_load=int(record["max_load"]),
            total_communication=int(record["total_communication"]),
            rounds=int(record["rounds"]),
            control_messages=int(record.get("control_messages", 0)),
            elementary_products=int(record.get("elementary_products", 0)),
            phases=tuple(
                (str(label), int(load)) for label, load in record.get("phases", ())
            ),
            algorithm=str(record.get("algorithm", "")),
            **{
                name: int(record.get(name, 0))
                for fields in TAGGED_FIELDS.values()
                for name in fields
            },
        )


class _PhaseFrame:
    """One open phase: its label, the round it opened at, and its open
    wall-clock span."""

    __slots__ = ("label", "start", "span")

    def __init__(self, label: str, start: int, span: Any) -> None:
        self.label = label
        self.start = start
        self.span = span


class _NoSpan:
    """What :meth:`LoadTracker.span` hands out with no profiler attached."""

    __slots__ = ()

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def add_items(self, count: int) -> None:
        pass


_NO_SPAN = _NoSpan()


class LoadTracker:
    """Accumulates per-(round, server) incoming message counts."""

    def __init__(self, tracer: Optional[Any] = None,
                 profiler: Optional[Any] = None) -> None:
        self._loads: Dict[int, Dict[int, int]] = {}
        #: Max per-server load of every round so far, in round order.
        self._peaks: List[int] = []
        self._control = 0
        self._products = 0
        self._phase_stack: List[_PhaseFrame] = []
        self._phases: List[Tuple[str, int]] = []
        # Recovery ("chaos") overhead lives in its own cells so injected
        # faults can never perturb the base load meters.
        self._recovery_loads: Dict[int, Dict[int, int]] = {}
        self._recovery_rounds = 0
        #: Optional :class:`repro.obs.events.Tracer`; the cluster emits
        #: structured events through it when present (duck-typed so the mpc
        #: layer has no import dependency on :mod:`repro.obs`).
        self.tracer = tracer
        #: Optional :class:`repro.obs.profile.Profiler` (same duck-typing
        #: as ``tracer``); everything records into it through :meth:`span`.
        self.profiler = profiler

    # -- wall-clock ---------------------------------------------------------

    def span(self, label: str, kind: str, backend: str = "") -> Any:
        """The one wall-clock hook: a context manager timing its block as a
        ``kind`` span of the attached profiler.

        ``with tracker.span(...) as span`` binds an object whose
        ``add_items(count)`` credits items moved to the span.  With no
        profiler attached (the default) it is one shared inert object, so
        an instrumented function has one body either way.
        """
        profiler = self.profiler
        if profiler is None:
            return _NO_SPAN
        return profiler.span(label, kind, backend)

    # -- recording -----------------------------------------------------------

    def record_receive(self, round_index: int, server: int, count: int) -> None:
        """Charge ``count`` incoming items to ``server`` in ``round_index``."""
        if count < 0:
            raise ValueError("negative message count")
        if count == 0:
            return
        row = self._loads.setdefault(round_index, {})
        cell = row[server] = row.get(server, 0) + count
        self.note_round(round_index)
        if cell > self._peaks[round_index]:
            self._peaks[round_index] = cell

    def note_round(self, round_index: int) -> None:
        """Record that a round happened even if some servers received nothing."""
        missing = round_index + 1 - len(self._peaks)
        if missing > 0:
            self._peaks.extend([0] * missing)

    def charge_round(self, op: str, round_index: int, servers: Sequence[int],
                     sizes: Sequence[int]) -> None:
        """The base charge of one delivering operation: ``sizes[i]`` items
        received by ``servers[i]`` in ``round_index``, the round noted, and
        the ``op`` trace event emitted when a tracer listens."""
        for server, size in zip(servers, sizes):
            self.record_receive(round_index, server, size)
        self.note_round(round_index)
        tracer = self.tracer
        if tracer is not None and tracer.active:
            tracer.emit(op, round_index, servers, sizes, self.phase_path())

    def record_recovery_receive(self, round_index: int, server: int, count: int) -> None:
        """Charge ``count`` recovery items (retries, replays, checkpoint
        restores) to ``server`` around ``round_index``.

        Recovery charges land in a separate cell map: the base ``max_load``
        (the paper's ``L``) is provably untouched by injected faults, and the
        overhead is reported under the distinct ``recovery`` tag of
        :class:`CostReport`.
        """
        if count < 0:
            raise ValueError("negative recovery count")
        if count == 0:
            return
        row = self._recovery_loads.setdefault(round_index, {})
        row[server] = row.get(server, 0) + count

    def add_recovery_rounds(self, count: int) -> None:
        """Count ``count`` extra rounds spent on fault recovery/stalls."""
        if count < 0:
            raise ValueError("negative recovery round count")
        self._recovery_rounds += count

    def record_control(self, count: int) -> None:
        self._control += count

    def record_products(self, count: int) -> None:
        """Count semiring multiplications (the semiring-model work measure)."""
        self._products += count

    # -- phases ----------------------------------------------------------------

    def phase(self, label: str):
        """Context manager recording the max per-server load of a code span:

        >>> with tracker.phase("heavy-heavy"):
        ...     ...  # exchanges here are attributed to the phase
        """
        return _Phase(self, label)

    def push_phase(self, label: str) -> None:
        frame = _PhaseFrame(label, len(self._peaks), self.span(label, "phase"))
        self._phase_stack.append(frame)
        frame.span.__enter__()

    def pop_phase(self, failed: bool = False) -> None:
        """Close the innermost phase; a ``failed`` one (an exception is
        unwinding through it) records no load, only leaves the stacks
        consistent."""
        frame = self._phase_stack.pop()
        if not failed:
            load = max(self._peaks[frame.start:], default=0)
            self._phases.append((frame.label, load))
        frame.span.__exit__(None, None, None)

    def phase_path(self) -> Tuple[str, ...]:
        """Labels of the currently-open phases, outermost first."""
        return tuple(frame.label for frame in self._phase_stack)

    # -- reporting -------------------------------------------------------------

    @property
    def max_load(self) -> int:
        return max(self._peaks, default=0)

    @property
    def total_communication(self) -> int:
        return sum(sum(row.values()) for row in self._loads.values())

    @property
    def rounds(self) -> int:
        return len(self._peaks)

    @property
    def control_messages(self) -> int:
        return self._control

    @property
    def elementary_products(self) -> int:
        return self._products

    @property
    def recovery_load(self) -> int:
        """Max per-(round, server) recovery charge (the ``recovery`` tag)."""
        best = 0
        for row in self._recovery_loads.values():
            if row:
                best = max(best, max(row.values()))
        return best

    @property
    def recovery_communication(self) -> int:
        return sum(sum(row.values()) for row in self._recovery_loads.values())

    @property
    def recovery_rounds(self) -> int:
        return self._recovery_rounds

    def per_round_loads(self) -> List[int]:
        """Max per-server load of each round, in round order."""
        return list(self._peaks)

    def load_cells(self) -> Dict[int, Dict[int, int]]:
        """Copy of the raw round → {server → received count} cells."""
        return {round_index: dict(row) for round_index, row in self._loads.items()}

    def report(self) -> CostReport:
        return CostReport(
            max_load=self.max_load,
            total_communication=self.total_communication,
            rounds=self.rounds,
            control_messages=self._control,
            elementary_products=self._products,
            phases=tuple(self._phases),
            recovery_load=self.recovery_load,
            recovery_communication=self.recovery_communication,
            recovery_rounds=self._recovery_rounds,
        )


class _Phase:
    """Context manager produced by :meth:`LoadTracker.phase`."""

    def __init__(self, tracker: LoadTracker, label: str) -> None:
        self._tracker = tracker
        self._label = label

    def __enter__(self) -> None:
        self._tracker.push_phase(self._label)

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        self._tracker.pop_phase(failed=exc_type is not None)
        return False
