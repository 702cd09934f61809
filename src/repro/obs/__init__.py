"""Observability for the simulated MPC cluster.

The paper's evaluation is one number — the load ``L`` — but diagnosing an
algorithm needs the whole picture: which round, which server, which phase.
This package provides it without perturbing the metered costs:

* :mod:`repro.obs.events` — :class:`TraceEvent` stream from every cluster
  operation, through a :class:`Tracer` into ring-buffer / JSONL / callback
  sinks (no-op when no tracer is attached);
* :mod:`repro.obs.metrics` — per-round load vectors and skew statistics
  (max/mean imbalance, p95, Gini);
* :mod:`repro.obs.heatmap` — ASCII round × server load heatmaps;
* :mod:`repro.obs.trace_io` — JSONL round-trip and cost reconstruction;
* :mod:`repro.obs.profile` — hierarchical wall-clock span
  :class:`Profiler` (injectable clock, hotspot tables, speedscope /
  Chrome-trace flamegraph exports; no-op when no profiler is attached);
* :mod:`repro.obs.registry` — metrics registry (counters, gauges,
  histograms) with Prometheus text exposition, fed from the trace stream
  and the profiler.

See docs/observability.md for the event schema and a reading guide.
"""

from .events import (
    CallbackSink,
    FAULT_OPS,
    JsonlSink,
    LOAD_OPS,
    MAINTENANCE_OP,
    PLAN_OP,
    RingBufferSink,
    TraceEvent,
    TraceSink,
    Tracer,
    event_from_dict,
    event_to_dict,
)
from .heatmap import render_heatmap
from .metrics import (
    SkewStats,
    gini,
    load_matrix_from_events,
    load_matrix_from_tracker,
    per_round_stats,
    per_server_totals,
    percentile,
    round_maxima,
    skew_stats,
)
from .profile import (
    HotspotRow,
    Profiler,
    SpanNode,
    active_profiler,
    replay_speedscope,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSink,
    observe_profile,
    observe_report,
)
from .trace_io import (
    iter_trace,
    phase_loads_from_events,
    read_trace,
    report_from_trace,
    trace_aggregates,
)

__all__ = [
    "Profiler",
    "SpanNode",
    "HotspotRow",
    "active_profiler",
    "replay_speedscope",
    "MetricsRegistry",
    "MetricsSink",
    "Counter",
    "Gauge",
    "Histogram",
    "observe_profile",
    "observe_report",
    "TraceEvent",
    "Tracer",
    "TraceSink",
    "RingBufferSink",
    "JsonlSink",
    "CallbackSink",
    "LOAD_OPS",
    "FAULT_OPS",
    "PLAN_OP",
    "MAINTENANCE_OP",
    "event_to_dict",
    "event_from_dict",
    "SkewStats",
    "skew_stats",
    "per_round_stats",
    "per_server_totals",
    "round_maxima",
    "percentile",
    "gini",
    "load_matrix_from_tracker",
    "load_matrix_from_events",
    "render_heatmap",
    "read_trace",
    "iter_trace",
    "trace_aggregates",
    "phase_loads_from_events",
    "report_from_trace",
]
