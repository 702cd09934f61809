"""Planner calibration and prediction-accuracy sweep: predicted vs measured
load, per candidate.

Sweeps the conformance generators' five query families × three skew
profiles (moderate sizes — big enough that Table 1's terms separate, small
enough for CI), and for every point:

* asks the planner for its :class:`~repro.planner.Plan` (offline
  statistics) — one calibrated prediction per applicable algorithm;
* runs **every** scored candidate for real and records its measured load,
  next to the prediction and the uncalibrated Table 1 shape, plus which
  algorithm ``algorithm="auto"`` runs and which one measured lowest.

``--calibrate`` refits the cost-model constants first: for every
``algorithm/query_class`` cell it takes the geometric mean of
measured/raw-shape over the sweep and writes
``src/repro/planner/calibration.json`` (the committed fit), then re-plans
under the new constants so the emitted rows reflect them.

Results land in ``BENCH_planner.json`` (repo root by default; no
timestamps, so re-runs are byte-stable).  Run directly::

    PYTHONPATH=src python benchmarks/bench_planner.py [--tiny] [--calibrate]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from typing import Any, Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import ExecutionConfig
from repro.conformance.generators import (
    QUERY_FAMILIES,
    SKEW_PROFILES,
    GeneratorConfig,
    materialize,
    random_case,
)
from repro.core.executor import run_query
from repro.planner import (
    CALIBRATION_PATH,
    collect_statistics,
    invalidate_calibration_cache,
    plan_query,
)

SWEEP_SEED = 2020  # PODS 2020 — fixed so the committed JSON is reproducible


def sweep_cases(max_tuples: int, domain: int):
    """One deterministic case per family × skew, counting semiring."""
    config = GeneratorConfig(
        max_tuples=max_tuples, domain=domain, profiles=("counting",),
    )
    rng = random.Random(SWEEP_SEED)
    # random_case cycles families by index and draws skew from the rng; we
    # want the full grid, so drive both axes explicitly and let the rng
    # supply only the per-case seed.
    cases = []
    for family in QUERY_FAMILIES:
        for skew in SKEW_PROFILES:
            grid = GeneratorConfig(
                max_tuples=max_tuples, domain=domain,
                families=(family,), profiles=("counting",), skews=(skew,),
            )
            cases.append(random_case(rng, grid, 0))
    del config
    return cases


def measure_point(case, p: int) -> Dict[str, Any]:
    """Predict, then run every candidate (and ``auto``) for real."""
    instance = materialize(case)
    stats = collect_statistics(instance)
    plan = plan_query(instance, p=p, statistics=stats)

    measured: Dict[str, int] = {}
    predicted: Dict[str, float] = {}
    raw: Dict[str, float] = {}
    for candidate in plan.candidates:
        result = run_query(instance, config=ExecutionConfig(p=p, algorithm=candidate.algorithm))
        measured[candidate.algorithm] = result.report.max_load
        predicted[candidate.algorithm] = round(candidate.predicted_load, 3)
        raw[candidate.algorithm] = round(candidate.raw_load, 3)
    auto = run_query(instance, config=ExecutionConfig(p=p))
    return {
        "family": case.family,
        "skew": case.skew,
        "query_class": case.query_class,
        "case_seed": case.seed,
        "input_size": instance.total_size,
        "p": p,
        "out_estimate": round(stats.out_estimate, 3),
        "out_provenance": stats.out_provenance,
        "auto": auto.algorithm,
        "predicted": predicted,
        "raw_shape": raw,
        "measured": measured,
        "measured_auto": auto.report.max_load,
        "best": min(measured, key=lambda name: (measured[name], name)),
    }


def fit_calibration(rows: List[Dict[str, Any]]) -> Dict[str, float]:
    """Geometric-mean fit of measured/raw-shape per algorithm/query_class."""
    logs: Dict[str, List[float]] = {}
    for row in rows:
        for algorithm, load in row["measured"].items():
            shape = row["raw_shape"][algorithm]
            if load <= 0 or shape <= 0:
                continue
            key = f"{algorithm}/{row['query_class']}"
            logs.setdefault(key, []).append(math.log(load / shape))
    return {
        key: round(math.exp(sum(values) / len(values)), 4)
        for key, values in sorted(logs.items())
    }


def write_calibration(constants: Dict[str, float]) -> None:
    document = {
        "note": (
            "Fitted multipliers measured_load / table1_shape, geometric mean "
            "over the bench_planner.py sweep; keys are algorithm/query_class. "
            "Regenerate with: PYTHONPATH=src python benchmarks/bench_planner.py "
            "--calibrate"
        ),
        "sweep_seed": SWEEP_SEED,
        "constants": constants,
    }
    with open(CALIBRATION_PATH, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    invalidate_calibration_cache()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="quick local-iteration scale (the committed "
                        "calibration is fitted at full scale)")
    parser.add_argument("--calibrate", action="store_true",
                        help="refit and rewrite src/repro/planner/calibration.json "
                        "before the reported sweep")
    parser.add_argument("--p", type=int, default=8, help="number of servers")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "..", "BENCH_planner.json"),
        metavar="PATH", help="result JSON destination (default: repo root)")
    args = parser.parse_args(argv)

    max_tuples, domain = (40, 8) if args.tiny else (160, 14)
    cases = sweep_cases(max_tuples, domain)

    if args.calibrate:
        rows = [measure_point(case, args.p) for case in cases]
        constants = fit_calibration(rows)
        write_calibration(constants)
        print(f"calibration written: {os.path.normpath(CALIBRATION_PATH)} "
              f"({len(constants)} constants)")

    rows = [measure_point(case, args.p) for case in cases]
    document = {
        "scale": "tiny" if args.tiny else "full",
        "p": args.p,
        "max_tuples": max_tuples,
        "domain": domain,
        "sweep_seed": SWEEP_SEED,
        "rows": rows,
    }
    path = os.path.normpath(args.out)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"{'family':<10} {'skew':<14} {'class':<12} {'auto':<10} "
          f"{'predicted':>9} {'measured':>8} {'ratio':>6}  best (measured)")
    for row in rows:
        auto = row["auto"]
        predicted, measured = row["predicted"][auto], row["measured"][auto]
        print(f"{row['family']:<10} {row['skew']:<14} {row['query_class']:<12} "
              f"{auto:<10} {predicted:>9.1f} {measured:>8} "
              f"{predicted / max(1, measured):>6.2f}  "
              f"{row['best']} ({row['measured'][row['best']]})")
    print(f"written: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
