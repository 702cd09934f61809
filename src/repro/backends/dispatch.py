"""Backend resolution: which execution path a run uses.

``backend`` is a three-valued knob threaded from the public entry points
(:mod:`repro.api`, :func:`repro.core.executor.run_query`, the CLI) down to
the cluster:

* ``"pytuple"`` — the reference tuple-at-a-time kernels;
* ``"columnar"`` — array kernels plus array-shipping exchanges;
* ``"auto"`` — ``columnar`` when the instance is big enough for
  vectorization to pay (``AUTO_MIN_TUPLES``), else ``pytuple``.

The resolved name lives on :class:`~repro.mpc.cluster.MPCCluster` as
``cluster.backend``; primitives consult :func:`columnar_enabled` per view.
Fault injection does not choose a path: the injector reads only the
per-server counts every delivery charges, so a faulted run executes its
resolved backend like a clean one.  An instance with a float, bool or
subclass attribute value does force the tuple kernels: the codec interns
by dict equality, under which ``1``, ``1.0`` and ``True`` are one value, so
:func:`admit_instance` — called by the executor, by in-model ``explain``
and by :mod:`repro.linalg` — resolves such a run to ``pytuple`` before
loading anything (:func:`~repro.backends.columnar.interns_exactly`).
Annotations never choose the path: whatever the semiring, they load as
one column, typed or of objects.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigError

__all__ = [
    "AUTO_MIN_TUPLES",
    "BACKENDS",
    "np",
    "admit_instance",
    "columnar_enabled",
    "resolve_backend",
]

#: The legal ``backend=`` values at every public entry point.
BACKENDS = ("pytuple", "columnar", "auto")

#: ``auto`` only picks columnar above this total input size: below it the
#: per-call array setup costs more than the loops it replaces.
AUTO_MIN_TUPLES = 256


def resolve_backend(backend: Optional[str], total_size: Optional[int] = None) -> str:
    """Map a requested backend (``None`` ⇒ ``pytuple``) to a concrete one."""
    if backend is None:
        return "pytuple"
    if backend not in BACKENDS:
        hint = (
            '; the "numpy" backend was removed, use "columnar"'
            if backend == "numpy"
            else ""
        )
        raise ConfigError(
            f"unknown backend {backend!r}; choose from {', '.join(BACKENDS)}{hint}"
        )
    if backend == "auto":
        if total_size is not None and total_size < AUTO_MIN_TUPLES:
            return "pytuple"
        return "columnar"
    return backend


def columnar_enabled(view) -> bool:
    """True when primitives on ``view`` take their array paths.

    Requires a cluster resolved to the columnar backend.  The array paths
    run vectorized local kernels and ship
    :class:`~repro.backends.batch.ColumnarBatch` payloads through
    :meth:`~repro.mpc.cluster.ClusterView.exchange_batches`; datasets only
    decode at boundaries that still need tuples.  Routing decisions,
    delivery order, and per-server counts are identical to the item path,
    so meters and traces are bit-identical by construction.
    """
    return view.cluster.backend == "columnar"


def admit_instance(cluster, relations):
    """``cluster``, put on the tuple kernels when it is columnar and one of
    ``relations`` (logical :class:`~repro.data.relation.Relation` objects)
    holds a value the codec would conflate with another
    (:func:`~repro.backends.columnar.interns_exactly`); called once per
    run, in-model plan or linear-algebra call, before anything is loaded."""
    if cluster.backend == "columnar":
        from .columnar import interns_exactly

        if not all(interns_exactly(list(r.tuples)) for r in relations):
            cluster.backend = "pytuple"
    return cluster
