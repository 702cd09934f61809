"""Closed-form cost models for every registered algorithm (Table 1).

Each model maps a :class:`~repro.planner.stats.QueryStatistics` snapshot
and a server count ``p`` to a predicted load *in tuples* — the same unit
the cluster meter reports — by instantiating the paper's closed forms
(:mod:`repro.theory.bounds`) with the instance's measured ``N``/``N_e``/
``OUT`` statistics:

* ``yannakakis`` — the first column of Table 1 (baseline loads);
* ``matmul`` / ``line`` on a matmul query — Theorem 1's dispatch:
  a metered OUT-estimation pass plus the min of the worst-case and
  output-sensitive terms;
* ``matmul-worst-case`` — §3.1 alone: ``(N1+N2)/p + √(N1N2/p)``;
* ``matmul-output-sensitive`` — §3.2 alone, which still pays its own
  estimation pass: ``(N1+N2)/p + (N1·N2·OUT)^{1/3}/p^{2/3}``;
* ``line`` / ``star`` / ``star-like`` / ``tree`` — the second column of
  Table 1 for their class.

The paper's ``O(·)`` hides constants; the planner recovers them from a
committed micro-benchmark fit (``calibration.json``, regenerated by
``benchmarks/bench_planner.py --calibrate``).  A calibrated prediction is
``constant × shape`` where the constant is looked up per
``algorithm/query_class`` (falling back to per-algorithm, then 1.0), in
the meter's unit, so admission control can hold a prediction against a
load budget.
"""

from __future__ import annotations

import json
import math
import os
from typing import Callable, Dict, Tuple

from ..theory.bounds import new_algorithm_load, yannakakis_load
from .stats import QueryStatistics

__all__ = [
    "COST_MODELS",
    "predict_load",
    "raw_load",
    "calibration_constant",
    "load_calibration",
    "invalidate_calibration_cache",
    "CALIBRATION_PATH",
]

#: The committed micro-benchmark fit (algorithm[/class] → constant).
CALIBRATION_PATH = os.path.join(os.path.dirname(__file__), "calibration.json")

_calibration_cache: Dict[str, float] = {}
_calibration_loaded = False


def load_calibration(path: str = CALIBRATION_PATH) -> Dict[str, float]:
    """The fitted constants (cached after the first read; {} when absent)."""
    global _calibration_loaded
    if not _calibration_loaded or path != CALIBRATION_PATH:
        constants: Dict[str, float] = {}
        if os.path.exists(path):
            with open(path) as handle:
                document = json.load(handle)
            constants = {
                str(key): float(value)
                for key, value in document.get("constants", {}).items()
            }
        if path == CALIBRATION_PATH:
            _calibration_cache.clear()
            _calibration_cache.update(constants)
            _calibration_loaded = True
        else:
            return constants
    return dict(_calibration_cache)


def invalidate_calibration_cache() -> None:
    """Drop the cached constants (after rewriting ``calibration.json``)."""
    global _calibration_loaded
    _calibration_loaded = False
    _calibration_cache.clear()


def calibration_constant(algorithm: str, query_class: str) -> float:
    """Fitted constant for ``algorithm`` on ``query_class`` instances.

    Lookup order: ``"algorithm/class"``, then ``"algorithm"``, then 1.0 —
    an uncalibrated prediction is the raw shape.
    """
    constants = load_calibration()
    return constants.get(
        f"{algorithm}/{query_class}", constants.get(algorithm, 1.0)
    )


# -- shape functions -----------------------------------------------------------


def _matmul_sizes(stats: QueryStatistics) -> Tuple[float, float]:
    sizes = stats.sizes()
    if len(sizes) == 2:
        return float(sizes[0]), float(sizes[1])
    half = stats.total_size / 2.0
    return half, half


def _estimation_pass(stats: QueryStatistics, p: int) -> float:
    """Load of one §2.2 sketch pass: every tuple repartitioned once."""
    return stats.total_size / p


def _worst_case_term(stats: QueryStatistics, p: int) -> float:
    n1, n2 = _matmul_sizes(stats)
    return math.sqrt(max(n1 * n2, 1.0) / p)


def _output_sensitive_term(stats: QueryStatistics, p: int) -> float:
    n1, n2 = _matmul_sizes(stats)
    out = max(stats.out_estimate, 1.0)
    return (max(n1 * n2, 1.0) * out) ** (1.0 / 3.0) / p ** (2.0 / 3.0)


def _linear_term(stats: QueryStatistics, p: int) -> float:
    return (stats.total_size + max(stats.out_estimate, 1.0)) / p


def _cost_yannakakis(stats: QueryStatistics, p: int) -> float:
    return yannakakis_load(
        stats.query_class,
        float(stats.total_size),
        stats.out_estimate,
        p,
        arms=max(2, len(stats.relations)),
    )


def _cost_matmul_auto(stats: QueryStatistics, p: int) -> float:
    """Theorem 1: estimation pass + min(worst-case, output-sensitive)."""
    return (
        _linear_term(stats, p)
        + _estimation_pass(stats, p)
        + min(_worst_case_term(stats, p), _output_sensitive_term(stats, p))
    )


def _cost_matmul_worst_case(stats: QueryStatistics, p: int) -> float:
    return _linear_term(stats, p) + _worst_case_term(stats, p)


def _cost_matmul_output_sensitive(stats: QueryStatistics, p: int) -> float:
    return (
        _linear_term(stats, p)
        + _estimation_pass(stats, p)
        + _output_sensitive_term(stats, p)
    )


def _cost_line(stats: QueryStatistics, p: int) -> float:
    if stats.query_class == "matmul":
        return _cost_matmul_auto(stats, p)
    return _estimation_pass(stats, p) + new_algorithm_load(
        "line", float(stats.total_size), stats.out_estimate, p
    )


def _cost_star(stats: QueryStatistics, p: int) -> float:
    return new_algorithm_load(
        "star",
        float(stats.total_size),
        stats.out_estimate,
        p,
        arms=max(2, len(stats.relations)),
    )


def _cost_star_like(stats: QueryStatistics, p: int) -> float:
    return new_algorithm_load(
        "star-like", float(stats.total_size), stats.out_estimate, p
    )


def _cost_tree(stats: QueryStatistics, p: int) -> float:
    query_class = stats.query_class
    if query_class not in ("tree", "twig"):
        query_class = "twig"
    return new_algorithm_load(
        query_class, float(stats.total_size), stats.out_estimate, p
    )


#: Algorithm name → shape function.  Keys mirror the executor registry
#: (:data:`repro.core.executor.ALGORITHMS`); the registry owns
#: applicability, this table owns the Table 1 closed forms.
COST_MODELS: Dict[str, Callable[[QueryStatistics, int], float]] = {
    "yannakakis": _cost_yannakakis,
    "matmul": _cost_matmul_auto,
    "matmul-worst-case": _cost_matmul_worst_case,
    "matmul-output-sensitive": _cost_matmul_output_sensitive,
    "line": _cost_line,
    "star": _cost_star,
    "star-like": _cost_star_like,
    "tree": _cost_tree,
}


def raw_load(algorithm: str, stats: QueryStatistics, p: int) -> float:
    """Uncalibrated Table 1 shape value for ``algorithm`` on ``stats``."""
    model = COST_MODELS.get(algorithm)
    if model is None:
        raise KeyError(f"no cost model for algorithm {algorithm!r}")
    return model(stats, p)


def predict_load(algorithm: str, stats: QueryStatistics, p: int) -> float:
    """Calibrated prediction: fitted constant × Table 1 shape."""
    return calibration_constant(algorithm, stats.query_class) * raw_load(
        algorithm, stats, p
    )
