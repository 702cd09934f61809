"""Hierarchical wall-clock span profiler for the simulated cluster.

The paper's cost model is one scalar per run — the load ``L`` — and the
tracer already attributes *that* to phases and operations.  This module
answers the other question, where the **wall-clock** of a run goes: between
tuple materialization, exchange bookkeeping, metering, and the kernels
themselves (the end-to-end ledger, ``benchmarks/e2e/``, is the benchmark
that says *how much* wall-clock there is; see docs/performance.md).  The
:class:`Profiler` records that attribution as a tree of *spans* aligned
with the structures the repo already has:

* ``phase`` spans — one per :meth:`LoadTracker.phase` label, nested the way
  the algorithm opened them;
* ``op`` spans — one per cluster operation (``exchange`` / ``broadcast`` /
  ``gather``), carrying the number of items the operation delivered and the
  cluster's backend label;
* ``kernel`` spans — one per vectorized kernel call in
  :mod:`repro.backends.kernels`;
* ``step`` spans — the executor's coarse stages (``plan`` / ``load`` /
  ``execute`` / ``finalize`` / ``collect``), which is where tuple
  materialization shows;
* a ``run`` root span per executed query, labelled with the dispatched
  algorithm.

Everything that holds a tracker records through one hook,
:meth:`repro.mpc.stats.LoadTracker.span`, which hands back
:meth:`Profiler.span` or — with no profiler attached, the default — one
shared inert object.  Kernels receive bare arrays and reach the run's
profiler through :func:`active_profiler` instead.  Either way profiling is
strictly opt-in: answers, :class:`CostReport`\\ s, traces, and every
committed JSON artifact are bit-identical to a profiler-free run — the same
invariant the tracer and the fault injector already honour.

The clock is injectable (any zero-argument callable returning seconds) so
tests drive the profiler deterministically; the default is
:func:`time.perf_counter`.

Exports:

* :meth:`Profiler.hotspots` — aggregated self/cumulative seconds per
  phase-path × op × backend (:meth:`Profiler.render_hotspots` for a text
  table);
* :meth:`Profiler.to_speedscope` — `speedscope <https://speedscope.app>`_
  evented-profile JSON (drop the file on the site for a flamegraph);
* :meth:`Profiler.to_chrome_trace` — Chrome ``about://tracing`` /
  Perfetto JSON;
* :func:`replay_speedscope` — recompute per-frame totals from a
  speedscope document (the exporters' round-trip oracle in the tests).
"""

from __future__ import annotations

import contextvars
import json
import time
from typing import Any, Callable, Dict, IO, List, Optional, Tuple, Union

__all__ = [
    "Profiler",
    "SpanNode",
    "HotspotRow",
    "active_profiler",
    "activate",
    "replay_speedscope",
    "write_json",
]

#: Schema URL stamped on every exported speedscope document.
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


class SpanNode:
    """One node of the aggregated span tree.

    Children are keyed by ``(kind, label, backend)``; repeated entries to
    the same child accumulate ``calls`` / ``wall`` / ``items`` instead of
    growing the tree, so the tree stays bounded by the code's span
    structure, not the run length.
    """

    __slots__ = ("label", "kind", "backend", "calls", "wall", "items", "children")

    def __init__(self, label: str, kind: str, backend: str = "") -> None:
        self.label = label
        self.kind = kind
        self.backend = backend
        self.calls = 0
        self.wall = 0.0
        self.items = 0
        self.children: Dict[Tuple[str, str, str], "SpanNode"] = {}

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.kind, self.label, self.backend)

    @property
    def self_wall(self) -> float:
        """Wall seconds spent in this span outside any child span."""
        return max(0.0, self.wall - sum(c.wall for c in self.children.values()))

    def walk(self, depth: int = 0):
        """Yield ``(node, depth)`` pairs, pre-order, insertion order."""
        yield self, depth
        for child in self.children.values():
            yield from child.walk(depth + 1)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly subtree (used by ``repro profile --json``)."""
        record: Dict[str, Any] = {
            "label": self.label,
            "kind": self.kind,
            "calls": self.calls,
            "wall_s": self.wall,
            "self_s": self.self_wall,
        }
        if self.backend:
            record["backend"] = self.backend
        if self.items:
            record["items"] = self.items
        if self.children:
            record["children"] = [c.to_dict() for c in self.children.values()]
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpanNode({self.kind}:{self.label}, calls={self.calls}, "
                f"wall={self.wall:.6f})")


class HotspotRow:
    """One aggregated hotspot: a (phase path, op, backend) cell."""

    __slots__ = ("phase", "label", "kind", "backend", "calls", "items",
                 "self_s", "cum_s")

    def __init__(self, phase: str, label: str, kind: str, backend: str) -> None:
        self.phase = phase
        self.label = label
        self.kind = kind
        self.backend = backend
        self.calls = 0
        self.items = 0
        self.self_s = 0.0
        self.cum_s = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "phase": self.phase,
            "op": self.label,
            "kind": self.kind,
            "backend": self.backend,
            "calls": self.calls,
            "items": self.items,
            "self_s": self.self_s,
            "cum_s": self.cum_s,
        }


class Profiler:
    """Hierarchical wall-clock profiler with an injectable monotonic clock.

    ``clock`` is any zero-argument callable returning monotonically
    non-decreasing seconds (default :func:`time.perf_counter`); tests pass
    a fake counter for deterministic output.  Spans nest strictly —
    :meth:`start`/:meth:`stop` must pair up like a stack, which the
    :meth:`span` context manager guarantees.

    Attach a profiler to a run via
    ``ExecutionConfig(profiler=...)`` (or ``MPCCluster(profiler=...)``
    directly); the executor, tracker phases, cluster operations and array
    kernels all record into it.  One profiler may observe several runs —
    each ``run_query`` adds its own ``run:<algorithm>`` root child.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock: Callable[[], float] = clock or time.perf_counter
        self.root = SpanNode("profile", "root")
        self._stack: List[SpanNode] = [self.root]
        self._starts: List[float] = []
        self._pending_items: List[int] = []
        # Flat begin/close event log for the flamegraph exporters:
        # ("O"|"C", frame_index, timestamp).
        self._events: List[Tuple[str, int, float]] = []
        self._frames: List[Tuple[str, str, str]] = []
        self._frame_index: Dict[Tuple[str, str, str], int] = {}
        self._origin: Optional[float] = None
        self._last: float = 0.0

    # -- recording -------------------------------------------------------------

    def start(self, label: str, kind: str = "span", backend: str = "") -> None:
        """Open a span as a child of the innermost open span."""
        now = self.clock()
        if self._origin is None:
            self._origin = now
        self._last = now
        parent = self._stack[-1]
        key = (kind, label, backend)
        node = parent.children.get(key)
        if node is None:
            node = SpanNode(label, kind, backend)
            parent.children[key] = node
        self._stack.append(node)
        self._starts.append(now)
        self._pending_items.append(0)
        self._events.append(("O", self._frame(key), now))

    def stop(self, items: int = 0) -> None:
        """Close the innermost open span, crediting ``items`` moved to it."""
        if len(self._stack) <= 1:
            raise RuntimeError("Profiler.stop() without a matching start()")
        now = self.clock()
        self._last = now
        node = self._stack.pop()
        node.calls += 1
        node.wall += now - self._starts.pop()
        node.items += items + self._pending_items.pop()
        self._events.append(("C", self._frame(node.key), now))

    def add_items(self, count: int) -> None:
        """Credit ``count`` items to the innermost open span (at stop time)."""
        if self._pending_items:
            self._pending_items[-1] += count

    def span(self, label: str, kind: str = "span", backend: str = ""):
        """Context manager form of :meth:`start`/:meth:`stop`."""
        return _Span(self, label, kind, backend)

    def _frame(self, key: Tuple[str, str, str]) -> int:
        index = self._frame_index.get(key)
        if index is None:
            index = len(self._frames)
            self._frames.append(key)
            self._frame_index[key] = index
        return index

    @property
    def open_depth(self) -> int:
        """Number of currently-open spans (0 when balanced)."""
        return len(self._stack) - 1

    @property
    def total_wall(self) -> float:
        """Wall seconds covered by the root's direct children."""
        return sum(child.wall for child in self.root.children.values())

    # -- aggregation -----------------------------------------------------------

    def hotspots(self, top: Optional[int] = None) -> List[HotspotRow]:
        """Self/cumulative seconds aggregated per phase-path × op × backend.

        The *phase path* of a node is the slash-joined labels of its
        ``run``/``phase``/``step`` ancestors; a phase's own bookkeeping
        appears with ``op="·"``.  Rows are sorted by self time, descending;
        ``top`` truncates.
        """
        cells: Dict[Tuple[str, str, str, str], HotspotRow] = {}

        def visit(node: SpanNode, path: Tuple[str, ...]) -> None:
            structural = node.kind in ("run", "phase", "step")
            phase = "/".join(path) if path else "(top)"
            label = "·" if structural else node.label
            key = (phase, label, node.kind, node.backend)
            row = cells.get(key)
            if row is None:
                row = HotspotRow(phase, label, node.kind, node.backend)
                cells[key] = row
            row.calls += node.calls
            row.items += node.items
            row.self_s += node.self_wall
            row.cum_s += node.wall
            child_path = path + (node.label,) if structural else path
            for child in node.children.values():
                visit(child, child_path)

        for child in self.root.children.values():
            visit(child, ())
        rows = sorted(cells.values(), key=lambda r: (-r.self_s, r.phase, r.label))
        return rows[:top] if top is not None else rows

    def render_hotspots(self, top: int = 15) -> str:
        """The hotspot table as aligned text (``repro profile`` output)."""
        rows = self.hotspots(top)
        header = ("self_s", "cum_s", "calls", "items", "backend", "op", "phase")
        cells = [header] + [
            (f"{r.self_s:.6f}", f"{r.cum_s:.6f}", str(r.calls), str(r.items),
             r.backend or "-", r.label, r.phase)
            for r in rows
        ]
        widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
        lines = []
        for index, row in enumerate(cells):
            lines.append("  ".join(
                cell.ljust(width) if i >= 4 else cell.rjust(width)
                for i, (cell, width) in enumerate(zip(row, widths))
            ).rstrip())
            if index == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)

    def tree(self) -> str:
        """The whole span tree as indented text (cum seconds, calls, items)."""
        lines = []
        for node, depth in self.root.walk():
            if node is self.root:
                continue
            backend = f" [{node.backend}]" if node.backend else ""
            items = f" items={node.items}" if node.items else ""
            lines.append(
                f"{'  ' * (depth - 1)}{node.kind}:{node.label}{backend} "
                f"{node.wall:.6f}s self={node.self_wall:.6f}s "
                f"calls={node.calls}{items}"
            )
        return "\n".join(lines)

    # -- exporters -------------------------------------------------------------

    def _closed_events(self) -> List[Tuple[str, int, float]]:
        """The event log, with still-open spans virtually closed at the end.

        Exporting mid-run must not mutate profiler state, so the closing
        events are appended to a copy only.
        """
        events = list(self._events)
        for node in reversed(self._stack[1:]):
            events.append(("C", self._frame(node.key), self._last))
        return events

    @staticmethod
    def _frame_name(key: Tuple[str, str, str]) -> str:
        kind, label, backend = key
        name = f"{kind}:{label}"
        if backend:
            name += f" [{backend}]"
        return name

    def to_speedscope(self, name: str = "repro profile") -> Dict[str, Any]:
        """An evented speedscope document of the recorded spans.

        Timestamps are rebased so the first event sits at 0.0 seconds,
        which keeps documents from a fake clock byte-stable.
        """
        origin = self._origin or 0.0
        events = [
            {"type": kind, "frame": frame, "at": at - origin}
            for kind, frame, at in self._closed_events()
        ]
        return {
            "$schema": SPEEDSCOPE_SCHEMA,
            "name": name,
            "activeProfileIndex": 0,
            "exporter": "repro.obs.profile",
            "shared": {
                "frames": [{"name": self._frame_name(k)} for k in self._frames]
            },
            "profiles": [{
                "type": "evented",
                "name": name,
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": (self._last - origin) if self._events else 0.0,
                "events": events,
            }],
        }

    def to_chrome_trace(self) -> Dict[str, Any]:
        """A Chrome ``about://tracing`` / Perfetto trace of the spans.

        Duration events (``ph`` = ``B``/``E``) on one pid/tid, microsecond
        timestamps rebased to 0.
        """
        origin = self._origin or 0.0
        trace_events = []
        for kind, frame, at in self._closed_events():
            key = self._frames[frame]
            event: Dict[str, Any] = {
                "name": self._frame_name(key),
                "cat": key[0],
                "ph": "B" if kind == "O" else "E",
                "ts": (at - origin) * 1e6,
                "pid": 1,
                "tid": 1,
            }
            trace_events.append(event)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


class _Span:
    """Context manager produced by :meth:`Profiler.span`."""

    __slots__ = ("_profiler", "_label", "_kind", "_backend")

    def __init__(self, profiler: Profiler, label: str, kind: str,
                 backend: str) -> None:
        self._profiler = profiler
        self._label = label
        self._kind = kind
        self._backend = backend

    def __enter__(self) -> Profiler:
        self._profiler.start(self._label, self._kind, self._backend)
        return self._profiler

    def __exit__(self, *_exc) -> bool:
        self._profiler.stop()
        return False


# -- the kernel hook ----------------------------------------------------------
#
# Vectorized kernels (repro.backends.kernels) receive bare arrays, not a
# view, so they cannot reach a cluster's profiler through their arguments.
# The executor instead *activates* the run's profiler for the duration of
# the run.  The slot is a context variable, not a module global: a thread
# starts with an empty context, so a profiled run in one thread of the
# service never records another thread's kernels.

_ACTIVE: "contextvars.ContextVar[Optional[Profiler]]" = contextvars.ContextVar(
    "repro_active_profiler", default=None
)


def active_profiler() -> Optional[Profiler]:
    """The profiler kernel calls record into, or None (profiling off)."""
    return _ACTIVE.get()


def activate(profiler: Optional[Profiler]) -> Optional[Profiler]:
    """Install ``profiler`` as the kernel-visible profiler of this context.

    Returns the previously active one so callers can restore it in a
    ``finally`` block (runs may nest, e.g. validate-mode oracles).
    """
    previous = _ACTIVE.get()
    _ACTIVE.set(profiler)
    return previous


# -- speedscope round-trip -----------------------------------------------------

def replay_speedscope(document: Dict[str, Any]) -> Dict[str, float]:
    """Recompute cumulative seconds per frame from a speedscope document.

    Replays the evented profile with a stack, summing each frame's open →
    close intervals *excluding* nested re-entries of the same frame (i.e.
    the same cumulative-seconds definition as :class:`SpanNode.wall` for
    non-recursive span structures).  Used as the exporter's round-trip
    oracle: totals must match the profiler's own aggregates exactly.
    """
    profile = document["profiles"][0]
    if profile["type"] != "evented":
        raise ValueError(f"cannot replay profile type {profile['type']!r}")
    frames = [frame["name"] for frame in document["shared"]["frames"]]
    totals = {name: 0.0 for name in frames}
    stack: List[Tuple[int, float]] = []
    for event in profile["events"]:
        if event["type"] == "O":
            stack.append((event["frame"], event["at"]))
        elif event["type"] == "C":
            frame, opened = stack.pop()
            if frame != event["frame"]:
                raise ValueError("unbalanced speedscope events")
            totals[frames[frame]] += event["at"] - opened
        else:  # pragma: no cover - schema guard
            raise ValueError(f"unknown event type {event['type']!r}")
    if stack:
        raise ValueError("speedscope document left spans open")
    return totals


def write_json(document: Dict[str, Any], target: Union[str, IO[str]]) -> None:
    """Write an exported document to a path or handle (newline-terminated)."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    else:
        json.dump(document, target, indent=1)
        target.write("\n")
