"""Execution backends (array-native columnar vs. pure-Python tuples).

The simulator has two interchangeable execution paths:

* ``pytuple`` — the original tuple-at-a-time Python kernels; always
  available, always the reference semantics.
* ``columnar`` — array kernels (:mod:`repro.backends.columnar`,
  :mod:`repro.backends.kernels`) that batch the hot per-server loops
  (pre/final aggregation, local joins, splitter selection) into array
  operations and run KMV sketch propagation and multi-search once per call
  for every server together, with relations loaded as code columns
  and exchanges shipping :class:`~repro.backends.batch.ColumnarBatch`
  arrays (:meth:`~repro.mpc.cluster.ClusterView.exchange_batches`).

The backends differ **only in wall-clock time**.  Every communication
round delivers the same rows in the same order to the same destinations,
so the metered load ``L``, the :class:`~repro.mpc.stats.CostReport`, and
the JSONL trace are bit-identical across backends — the columnar kernels
are constructed to reproduce the tuple kernels' *first-occurrence* output
order exactly (see docs/performance.md).  Semiring profiles without a
numeric dtype (provenance, opaque, ad-hoc semirings) and fault-injection
runs fall back to ``pytuple`` automatically.
"""

from .dispatch import BACKENDS, columnar_enabled, resolve_backend

__all__ = ["BACKENDS", "columnar_enabled", "resolve_backend"]
