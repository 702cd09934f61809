"""Execution configuration for the distributed executor.

:class:`ExecutionConfig` gathers the knobs that were historically loose
keyword arguments scattered over ``run_query``/CLI call sites — server
count, algorithm choice, kernel backend, tracing, fault injection — into
one declarative object that both the :mod:`repro.api` facade and the CLI
pass around.  It is a plain frozen dataclass: construct it once, reuse it
across queries; ``make_cluster`` builds a fresh
:class:`~repro.mpc.cluster.MPCCluster` per run so meters never leak
between executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .backends.dispatch import resolve_backend
from .errors import ConfigError
from .mpc.cluster import MPCCluster
from .mpc.faults import FaultSchedule

__all__ = ["ExecutionConfig"]


@dataclass(frozen=True)
class ExecutionConfig:
    """Everything an execution needs besides the instance itself.

    ``backend`` is one of ``"pytuple"`` (portable reference kernels,
    default), ``"columnar"`` (end-to-end array execution: vectorized
    kernels, relations load as code columns and exchanges ship batches —
    identical results and meters), or ``"auto"`` (columnar when the
    instance is large enough to amortize encoding).
    ``fault_schedule`` (a :class:`~repro.mpc.faults.FaultSchedule`, the
    only accepted type) injects its faults into every run, on either
    backend; each cluster the config builds gets a fresh injector, so no
    firing state leaks from one run into the next.
    """

    p: int = 8
    algorithm: str = "auto"
    backend: Optional[str] = None
    tracer: Optional[Any] = None
    fault_schedule: Optional[FaultSchedule] = None
    validate: bool = False
    #: Optional :class:`~repro.obs.profile.Profiler` recording wall-clock
    #: spans (phases, cluster ops, kernels, executor steps) of every run
    #: made under this config; answers, CostReports, and traces are
    #: bit-identical with and without one.
    profiler: Optional[Any] = None
    #: Residue of the deleted process execution mode: accepts only ``1``
    #: and nothing reads it.  It stays because ``benchmarks/e2e/`` (frozen
    #: by BENCHMARK.json) builds ``ExecutionConfig(**workload.config)``
    #: with ``"workers": 1``; once a benchmark PR drops that key, delete
    #: this field and its check.
    workers: int = 1

    def __post_init__(self) -> None:
        """Eager validation: a bad config never reaches the executor.

        Every rejected value raises :class:`~repro.errors.ConfigError`
        (a ``ValueError`` subclass) at *construction* time.  The types of
        ``p`` and ``validate`` are checked too: service request configs
        arrive as JSON, where ``"4"``, ``4.0`` and ``true`` are values.
        """
        if type(self.p) is not int or self.p < 1:
            raise ConfigError(f"ExecutionConfig needs an int p >= 1, not {self.p!r}")
        if type(self.validate) is not bool:
            raise ConfigError(f"validate must be a bool, not {self.validate!r}")
        if self.workers != 1:
            raise ConfigError(
                "the process execution mode was removed; "
                "ExecutionConfig accepts only workers=1"
            )
        resolve_backend(self.backend)  # rejects unknown backends
        if self.fault_schedule is not None and not isinstance(
            self.fault_schedule, FaultSchedule
        ):
            raise ConfigError(
                "fault_schedule must be a FaultSchedule, not "
                f"{type(self.fault_schedule).__name__}"
            )

    def make_cluster(self, total_size: Optional[int] = None) -> MPCCluster:
        """A fresh cluster honouring every knob (meters start at zero).

        ``total_size`` feeds the ``"auto"`` backend decision; pass the
        instance's total tuple count when known.
        """
        return MPCCluster(
            self.p,
            tracer=self.tracer,
            faults=self.fault_schedule,
            backend=resolve_backend(self.backend, total_size),
            profiler=self.profiler,
        )
