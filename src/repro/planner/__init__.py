"""Load predictor (docs/planner.md).

Statistics catalog → calibrated Table 1 cost models → one predicted load
per runnable algorithm.  ``plan_query`` is the entry point; service
admission control and ``repro explain`` read its :class:`Plan`.
"""

from .cost import (
    CALIBRATION_PATH,
    COST_MODELS,
    calibration_constant,
    invalidate_calibration_cache,
    load_calibration,
    predict_load,
    raw_load,
)
from .plan import CandidateScore, Plan, plan_query
from .stats import (
    QueryStatistics,
    RelationStats,
    collect_statistics,
    estimate_out,
)

__all__ = [
    "CALIBRATION_PATH",
    "COST_MODELS",
    "CandidateScore",
    "Plan",
    "QueryStatistics",
    "RelationStats",
    "calibration_constant",
    "collect_statistics",
    "estimate_out",
    "invalidate_calibration_cache",
    "load_calibration",
    "plan_query",
    "predict_load",
    "raw_load",
]
