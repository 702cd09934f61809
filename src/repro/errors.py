"""The library's typed error hierarchy, re-exported from one place.

Every exception the library raises on purpose derives from
:class:`ReproError`, so callers can catch one root — and the query
service (:mod:`repro.service`) can map *exception class → HTTP status*
deterministically instead of pattern-matching messages.  The leaves keep
their historical built-in bases (``ValueError``, ``RuntimeError``) so
pre-hierarchy ``except ValueError`` call sites continue to work.

The hierarchy::

    ReproError
    ├── ConfigError(ValueError)          — invalid ExecutionConfig/knobs
    ├── ApplicabilityError(ValueError)   — algorithm ∕ query shape mismatch
    ├── UnsupportedDeltaError(ValueError)— delta needs inverses the semiring lacks
    └── MPCError(RuntimeError)           — simulated-cluster failures
        ├── RoutingError                 — message to a server outside the view
        └── FaultError                   — injected-fault failures
            └── UnrecoverableFaultError  — fault the recovery policy cannot repair
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "ApplicabilityError",
    "UnsupportedDeltaError",
    "MPCError",
    "RoutingError",
    "FaultError",
    "UnrecoverableFaultError",
]


class ReproError(Exception):
    """Root of every exception the library raises deliberately."""


class ConfigError(ReproError, ValueError):
    """An invalid configuration value or combination of values.

    Raised eagerly — :class:`~repro.config.ExecutionConfig` rejects
    unknown backends and ``p < 1`` at *construction* time, so a bad config
    never reaches the executor.
    """


class ApplicabilityError(ReproError, ValueError):
    """An algorithm was requested on a query without the required shape.

    Also covers asking the planner for a plan when no registered
    candidate has a cost model.  Subclasses ``ValueError`` because the
    executor historically raised that.
    """


class UnsupportedDeltaError(ReproError, ValueError):
    """A delta batch needs algebraic structure the semiring does not have.

    Insert-only maintenance works over *any* commutative semiring (the
    query result is multilinear in its relations), but deletions require
    additive inverses — a ring, or at least bag-difference semantics.
    Semirings that declare a :attr:`~repro.semiring.Semiring.negate`
    callable (counting, real) accept deletions; all others raise this.
    """


class MPCError(ReproError, RuntimeError):
    """Base class for simulated-cluster failures."""


class RoutingError(MPCError):
    """A message was addressed to a server outside the executing view, or a
    dataset of another cluster was handed to this one."""


class FaultError(MPCError):
    """Base class for injected-fault failures (see :mod:`repro.mpc.faults`).

    Carries the identifying coordinates of the fault so harnesses can
    assert *which* failure fired: ``kind`` (``crash``/``drop``/
    ``duplicate``/``straggler``), ``round`` and ``server`` id.
    """

    def __init__(self, message: str, *, kind: str = "", round_index: int = -1,
                 server: int = -1) -> None:
        super().__init__(message)
        self.kind = kind
        self.round = round_index
        self.server = server


class UnrecoverableFaultError(FaultError):
    """An injected fault the recovery policy cannot repair.

    Raised from inside the faulted cluster operation, naming the failing
    round — the run is torn down loudly instead of silently producing a
    wrong answer.
    """
