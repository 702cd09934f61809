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
Fault injection always forces the tuple kernels (the injector mutates
per-server item lists in place), which keeps chaos runs on the reference
path without any per-primitive special-casing.  So does an instance with a
float, bool or subclass attribute value: the codec interns by dict
equality, under which ``1``, ``1.0`` and ``True`` are one value, so
:func:`admit_instance` — called by the executor and by in-model
``explain`` — resolves such a run to ``pytuple`` before loading anything
(:func:`~repro.backends.columnar.interns_exactly`).
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

    Requires a cluster resolved to the columnar backend and no fault
    injector (the injector rewrites inboxes item-at-a-time).  The
    array paths run vectorized local kernels and ship
    :class:`~repro.backends.batch.ColumnarBatch` payloads through
    :meth:`~repro.mpc.cluster.ClusterView.exchange_batches`; datasets only
    decode at boundaries that still need tuples.  Routing decisions,
    delivery order, and per-server counts are identical to the item path,
    so meters and traces are bit-identical by construction.
    """
    cluster = view.cluster
    return (
        getattr(cluster, "backend", "pytuple") == "columnar"
        and cluster.faults is None
    )


def admit_instance(cluster, instance):
    """``cluster``, put on the tuple kernels when it is columnar and
    ``instance`` holds a value the codec would conflate with another
    (:func:`~repro.backends.columnar.interns_exactly`); called once per
    run or in-model plan, before anything is loaded."""
    if cluster.backend == "columnar":
        from .columnar import interns_exactly

        if not all(interns_exactly(list(r.tuples)) for r in instance.relations.values()):
            cluster.backend = "pytuple"
    return cluster
