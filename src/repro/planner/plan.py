"""Load prediction for every runnable algorithm (docs/planner.md).

``plan_query`` scores every algorithm in
:func:`~repro.core.executor.applicable_algorithms` with the calibrated
Table 1 cost models (:mod:`repro.planner.cost`) and returns an
introspectable :class:`Plan`: the candidate ``algorithm="auto"`` runs (the
executor's ``AUTO_CHOICE``, Table 1's per-class algorithm) first, every
other candidate cheapest-first, and the statistics snapshot (with
provenance) the predictions read.  The planner predicts; it does not pick
what runs — admission control and ``explain`` read its predictions.

Backend note: the simulated load ``L`` is backend-invariant by
construction, so the backend dimension collapses to a recommendation
(``resolve_backend``) recorded on the plan rather than scored per
candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..backends.dispatch import resolve_backend
from ..data.query import Instance
from .cost import COST_MODELS, calibration_constant, predict_load, raw_load
from .stats import QueryStatistics, collect_statistics

__all__ = ["CandidateScore", "Plan", "plan_query"]


@dataclass(frozen=True)
class CandidateScore:
    """One scored algorithm."""

    algorithm: str
    #: Calibrated prediction (constant × Table 1 shape), in tuples.
    predicted_load: float
    #: The uncalibrated Table 1 shape value.
    raw_load: float
    #: The calibration constant that was applied.
    constant: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "predicted_load": round(self.predicted_load, 3),
            "raw_load": round(self.raw_load, 3),
            "constant": round(self.constant, 4),
        }


@dataclass(frozen=True)
class Plan:
    """Every runnable algorithm's predicted load, fully introspectable."""

    query_class: str
    p: int
    #: The candidate ``algorithm="auto"`` runs (``AUTO_CHOICE``).
    chosen: CandidateScore
    #: Every candidate: the chosen one first, the rest cheapest-first.
    candidates: Tuple[CandidateScore, ...]
    statistics: QueryStatistics
    #: Recommended kernel backend for this instance size.
    backend: str

    @property
    def algorithm(self) -> str:
        return self.chosen.algorithm

    @property
    def predicted_load(self) -> float:
        return self.chosen.predicted_load

    def candidate(self, algorithm: str) -> CandidateScore:
        for score in self.candidates:
            if score.algorithm == algorithm:
                return score
        raise KeyError(algorithm)

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON document (the ``repro explain --json`` payload)."""
        return {
            "query_class": self.query_class,
            "p": self.p,
            "backend": self.backend,
            "chosen": self.chosen.to_dict(),
            "candidates": [score.to_dict() for score in self.candidates],
            "statistics": self.statistics.to_dict(),
        }

    def render(self) -> str:
        """ASCII candidate table for the ``repro explain`` command."""
        stats = self.statistics
        lines = [
            f"query class: {self.query_class}   N={stats.total_size}   "
            f"OUT≈{stats.out_estimate:.0f} ({stats.out_provenance})   "
            f"p={self.p}   backend={self.backend}",
            f"{'algorithm':<26} {'predicted':>12} {'raw shape':>12} "
            f"{'constant':>9}",
        ]
        for score in self.candidates:
            marker = "*" if score is self.chosen else " "
            lines.append(
                f"{marker}{score.algorithm:<25} {score.predicted_load:>12.1f} "
                f"{score.raw_load:>12.1f} {score.constant:>9.3f}"
            )
        lines.append(f"chosen: {self.chosen.algorithm} (what algorithm='auto' "
                     f"runs; predicted load {self.chosen.predicted_load:.1f})")
        return "\n".join(lines)


# -- the enumerator ------------------------------------------------------------


def plan_query(
    instance: Instance,
    p: int = 8,
    statistics: Optional[QueryStatistics] = None,
    backend: Optional[str] = None,
) -> Plan:
    """Predict the load of every runnable algorithm on ``instance``.

    ``statistics`` short-circuits collection (the service passes the
    snapshot memoized on its registered instance); otherwise the unmetered
    snapshot is collected, its §2.2 estimator running on ``backend``.
    Deterministic: the same instance and calibration produce an identical
    plan, byte for byte through :meth:`Plan.to_dict`.
    """
    from ..core.executor import AUTO_CHOICE, applicable_algorithms

    if statistics is None:
        statistics = collect_statistics(instance, backend=backend)

    query_class = statistics.query_class
    scores = sorted(
        (
            CandidateScore(
                algorithm=algorithm,
                predicted_load=predict_load(algorithm, statistics, p),
                raw_load=raw_load(algorithm, statistics, p),
                constant=calibration_constant(algorithm, query_class),
            )
            for algorithm in applicable_algorithms(instance.query)
            if algorithm in COST_MODELS
        ),
        key=lambda score: (score.predicted_load, score.algorithm),
    )
    chosen = next(
        score for score in scores if score.algorithm == AUTO_CHOICE[query_class]
    )
    scores.remove(chosen)
    return Plan(
        query_class=query_class,
        p=p,
        chosen=chosen,
        candidates=(chosen, *scores),
        statistics=statistics,
        backend=resolve_backend(backend, instance.total_size),
    )
