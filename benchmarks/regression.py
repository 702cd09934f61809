"""Perf-regression observatory over the committed benchmark baselines.

The repo commits three machine-readable benchmark documents at the root —
``BENCH_kernels.json`` (pytuple vs columnar wall-clock, written by
``bench_backends.py``), ``BENCH_planner.json`` (cost-based planner
regret sweep, written by ``bench_planner.py``), and ``BENCH_ivm.json``
(materialized-view maintenance vs recompute loads, written by
``bench_ivm.py``; at full scale its small-delta rows must beat recompute
by ≥ 5× and every row's incremental answer must equal the recompute
answer).  This script turns them from write-only artifacts into a
regression gate:

1. **normalize** — each document is flattened into named metrics with a
   kind (``wall`` seconds, ``load`` items, ``ratio``) and a direction
   (lower- or higher-is-better), so the comparison logic never touches the
   two schemas directly;
2. **compare** — a fresh run (``--run``, or pre-made documents via
   ``--fresh-kernels``/``--fresh-planner``) is compared metric-by-metric
   against the committed baseline with noise-tolerant thresholds: wall
   metrics *fail* only past :data:`WALL_FAIL` (1.3×), *warn* past
   :data:`WALL_WARN` (1.1×), and sub-:data:`MIN_WALL_S` timings are never
   flagged (pure jitter).  Deterministic metrics (measured loads, regret
   ratios) are held tighter: any increase warns, > :data:`DETERMINISTIC_FAIL`
   fails — the simulator is seeded, so these should not move at all;
3. **trend** — the comparison lands as a table in ``benchmarks/results.md``
   (via the harness's latest + dated-history format) next to the
   load-metered experiment tables.

With no fresh input the script validates the committed baselines alone:
schema normalization, plus the documents' own internal gates (backend
reports identical, columnar ≥ 2× on dense matmul, planner ``vs_auto``
within 1.1×).  CI runs ``--run --tiny --report-only``: a tiny-scale fresh
run is *reported* against the full-scale baseline but can't gate (scales
are incomparable; the status column says so).

Exit codes: 0 green (or ``--report-only``), 1 regression, 2 usage/error.

Run::

    PYTHONPATH=src python benchmarks/regression.py                # validate
    PYTHONPATH=src python benchmarks/regression.py --run --tiny --report-only
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Metric",
    "Finding",
    "normalize_ivm",
    "normalize_kernels",
    "normalize_planner",
    "compare_metrics",
    "validate_baseline",
    "main",
]

#: Wall-clock regression factor that fails the gate.
WALL_FAIL = 1.3
#: Wall-clock regression factor that is reported but does not gate.
WALL_WARN = 1.1
#: Wall timings below this are jitter; never flagged in either direction.
MIN_WALL_S = 0.005
#: Deterministic (load/ratio) metrics fail past this factor; any other
#: increase warns — seeded simulations should not move at all.
DETERMINISTIC_FAIL = 1.1

_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
KERNELS_BASELINE = os.path.join(_ROOT, "BENCH_kernels.json")
PLANNER_BASELINE = os.path.join(_ROOT, "BENCH_planner.json")
IVM_BASELINE = os.path.join(_ROOT, "BENCH_ivm.json")


@dataclass(frozen=True)
class Metric:
    """One normalized benchmark number.

    ``kind`` is ``"wall"`` (noisy seconds), ``"load"`` (deterministic item
    count), or ``"ratio"`` (deterministic dimensionless figure);
    ``direction`` is ``"lower"`` or ``"higher"`` (is better).
    """

    name: str
    value: float
    kind: str
    direction: str = "lower"


@dataclass(frozen=True)
class Finding:
    """Baseline-vs-fresh outcome for one metric name."""

    name: str
    kind: str
    baseline: Optional[float]
    fresh: Optional[float]
    #: Regression factor, normalized so > 1 is always *worse* (direction
    #: folded in); None when either side is absent or not comparable.
    factor: Optional[float]
    #: ok / improved / warn / fail / new / missing / incomparable
    status: str


# -- schema normalization ------------------------------------------------------

def normalize_kernels(document: Dict[str, Any]) -> List[Metric]:
    """Flatten a ``BENCH_kernels.json`` document into metrics."""
    metrics: List[Metric] = []
    for row in document.get("kernels", ()):
        base = f"kernels/{row['kernel']}"
        metrics.append(Metric(f"{base}/pytuple_s", row["pytuple_s"], "wall"))
        metrics.append(Metric(f"{base}/numpy_s", row["numpy_s"], "wall"))
        metrics.append(
            Metric(f"{base}/speedup", row["speedup"], "ratio", "higher")
        )
    for row in document.get("end_to_end", ()):
        base = (f"end_to_end/{row['family']}"
                f"-n{row['n']}-out{row['out']}-p{row['p']}")
        metrics.append(Metric(f"{base}/pytuple_s", row["pytuple_s"], "wall"))
        metrics.append(Metric(f"{base}/columnar_s", row["columnar_s"], "wall"))
        metrics.append(
            Metric(f"{base}/columnar_speedup",
                   row["columnar_speedup"], "ratio", "higher")
        )
        metrics.append(Metric(f"{base}/max_load", row["max_load"], "load"))
    return metrics


def normalize_planner(document: Dict[str, Any]) -> List[Metric]:
    """Flatten a ``BENCH_planner.json`` document into metrics."""
    metrics = [
        Metric("planner/worst_regret", document["worst_regret"], "ratio"),
        Metric("planner/worst_vs_auto", document["worst_vs_auto"], "ratio"),
    ]
    for row in document.get("rows", ()):
        base = f"planner/{row['family']}-{row['skew']}"
        metrics.append(Metric(f"{base}/load_auto", row["measured_auto"], "load"))
        metrics.append(Metric(f"{base}/regret", row["regret"], "ratio"))
    return metrics


def normalize_ivm(document: Dict[str, Any]) -> List[Metric]:
    """Flatten a ``BENCH_ivm.json`` document into metrics."""
    metrics = [
        Metric("ivm/min_small_delta_advantage",
               document["min_small_delta_advantage"], "ratio", "higher"),
    ]
    for row in document.get("rows", ()):
        base = f"ivm/{row['sweep']}-n{row['n']}-d{row['changes']}"
        metrics.append(
            Metric(f"{base}/maintenance_load", row["maintenance_load"], "load")
        )
        metrics.append(
            Metric(f"{base}/recompute_load", row["recompute_load"], "load")
        )
        metrics.append(
            Metric(f"{base}/advantage", row["advantage"], "ratio", "higher")
        )
    return metrics


def validate_baseline(suite: str, document: Dict[str, Any]) -> List[str]:
    """The document's own internal gates; a list of violation messages."""
    problems: List[str] = []
    if suite == "kernels":
        full_scale = document.get("scale") == "full"
        for row in document.get("end_to_end", ()):
            label = f"{row.get('family', 'matmul')} n={row['n']} out={row['out']}"
            if not row.get("reports_identical", False):
                problems.append(f"{label}: backends' cost reports differ")
            # The columnar end-to-end gate: in the heavy-aggregation
            # regime (products ≫ OUT) the committed full-scale document
            # must show the columnar backend at ≥ 2x over pytuple —
            # anything less means the array-native execution path has
            # stopped engaging end-to-end.
            columnar = row["columnar_speedup"]
            if full_scale and row.get("family") == "matmul-dense":
                if columnar < 2.0:
                    problems.append(
                        f"{label}: columnar end-to-end speedup "
                        f"{columnar:.2f}x below the 2.0x gate"
                    )
            elif columnar < 0.8:
                problems.append(
                    f"{label}: columnar badly slower than pytuple "
                    f"(speedup {columnar:.2f}x)"
                )
    elif suite == "planner":
        if document["worst_vs_auto"] > 1.1:
            problems.append(
                f"cost-based dispatch lost to auto by "
                f"{document['worst_vs_auto']:.2f}x (> 1.1x)"
            )
    elif suite == "ivm":
        full_scale = document.get("scale") == "full"
        gate = float(document.get("gate_advantage", 5.0))
        for row in document.get("rows", ()):
            label = f"{row['sweep']} n={row['n']} delta={row['changes']}"
            if not row.get("identical", False):
                problems.append(
                    f"{label}: incremental answer differs from recompute"
                )
            # The headline IVM gate: at full scale the committed document
            # must show small-delta maintenance beating recompute by the
            # advantage gate — otherwise delta propagation has stopped
            # being |delta|-proportional.
            if full_scale and row["sweep"] == "n" and row["advantage"] < gate:
                problems.append(
                    f"{label}: maintenance advantage {row['advantage']:.1f}x "
                    f"below the {gate:.0f}x gate"
                )
    return problems


# -- comparison ----------------------------------------------------------------

def _factor(metric_kind: str, direction: str,
            baseline: float, fresh: float) -> Optional[float]:
    """Regression factor with > 1 = worse, or None when not measurable."""
    worse, better = (fresh, baseline) if direction == "lower" else (baseline, fresh)
    if better <= 0:
        return None
    if metric_kind == "wall" and baseline < MIN_WALL_S and fresh < MIN_WALL_S:
        return None  # both in the jitter floor
    return worse / better


def _status(kind: str, factor: Optional[float]) -> str:
    if factor is None:
        return "ok"
    if kind == "wall":
        if factor > WALL_FAIL:
            return "fail"
        if factor > WALL_WARN:
            return "warn"
        return "improved" if factor < 1.0 / WALL_WARN else "ok"
    # Deterministic load / ratio metrics.
    if factor > DETERMINISTIC_FAIL:
        return "fail"
    if factor > 1.0:
        return "warn"
    return "improved" if factor < 1.0 else "ok"


def compare_metrics(baseline: List[Metric], fresh: List[Metric],
                    comparable: bool = True) -> List[Finding]:
    """Compare two normalized metric sets, baseline order first.

    ``comparable=False`` (e.g. tiny fresh run vs full-scale baseline)
    still lists both sides but every overlapping metric is
    ``incomparable`` — no thresholds apply across scales.
    """
    fresh_by_name = {metric.name: metric for metric in fresh}
    findings: List[Finding] = []
    for metric in baseline:
        other = fresh_by_name.pop(metric.name, None)
        if other is None:
            findings.append(Finding(metric.name, metric.kind, metric.value,
                                    None, None, "missing"))
            continue
        if not comparable:
            findings.append(Finding(metric.name, metric.kind, metric.value,
                                    other.value, None, "incomparable"))
            continue
        factor = _factor(metric.kind, metric.direction, metric.value,
                         other.value)
        findings.append(Finding(metric.name, metric.kind, metric.value,
                                other.value, factor,
                                _status(metric.kind, factor)))
    for metric in fresh:
        if metric.name in fresh_by_name:
            findings.append(Finding(metric.name, metric.kind, None,
                                    metric.value, None, "new"))
    return findings


# -- fresh runs ----------------------------------------------------------------

def _run_bench(script: str, out_path: str, tiny: bool,
               extra: Tuple[str, ...] = ()) -> Dict[str, Any]:
    """Run one benchmark script as a subprocess; load its JSON document."""
    command = [sys.executable, os.path.join(os.path.dirname(__file__), script),
               "--out", out_path, *extra]
    if tiny:
        command.append("--tiny")
    env = dict(os.environ)
    src = os.path.join(_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(command, env=env, capture_output=True, text=True)
    if completed.returncode not in (0, 1):
        # 1 is the scripts' own gate (e.g. columnar slower) — still produces a
        # document we can diff; anything else is a crash.
        raise RuntimeError(
            f"{script} failed ({completed.returncode}):\n{completed.stderr}"
        )
    with open(out_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_json(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_harness():
    """Load benchmarks/harness.py with a private registry (no global state)."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "harness.py")
    spec = importlib.util.spec_from_file_location("_regression_harness", path)
    module = importlib.util.module_from_spec(spec)
    # Registration is required: the module's dataclasses resolve their
    # string annotations through sys.modules at class-creation time.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# -- reporting -----------------------------------------------------------------

def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4f}"


def render_findings(findings: List[Finding], top: Optional[int] = None) -> str:
    """Aligned text table of findings (worst first)."""
    order = {"fail": 0, "warn": 1, "missing": 2, "new": 3, "incomparable": 4,
             "improved": 5, "ok": 6}
    rows = sorted(findings, key=lambda f: (order.get(f.status, 9),
                                           -(f.factor or 0.0), f.name))
    if top is not None:
        rows = rows[:top]
    header = ("status", "factor", "baseline", "fresh", "kind", "metric")
    cells = [header] + [
        (f.status, f"{f.factor:.3f}x" if f.factor is not None else "-",
         _fmt(f.baseline), _fmt(f.fresh), f.kind, f.name)
        for f in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(
            cell.ljust(width) for cell, width in zip(row, widths)
        ).rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _record_trend(harness, findings: List[Finding], caption: str) -> None:
    table = harness.registry.table(
        "bench-regression", caption,
        ("metric", "kind", "baseline", "fresh", "factor", "status"),
    )
    for finding in findings:
        table.add(finding.name, finding.kind, _fmt(finding.baseline),
                  _fmt(finding.fresh),
                  f"{finding.factor:.3f}x" if finding.factor is not None else "-",
                  finding.status)


# -- entry point ---------------------------------------------------------------

_SUITES = {
    "ivm": ("bench_ivm.py", IVM_BASELINE, normalize_ivm),
    "kernels": ("bench_backends.py", KERNELS_BASELINE, normalize_kernels),
    "planner": ("bench_planner.py", PLANNER_BASELINE, normalize_planner),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suites", nargs="+", choices=sorted(_SUITES),
                        default=sorted(_SUITES),
                        help="baseline documents to check (default: all)")
    parser.add_argument("--run", action="store_true",
                        help="re-run the benchmark scripts and compare the "
                        "fresh documents against the committed baselines")
    parser.add_argument("--tiny", action="store_true",
                        help="run fresh benchmarks at CI smoke scale "
                        "(incomparable with full-scale baselines: "
                        "report-only by construction)")
    parser.add_argument("--fresh-kernels", default=None, metavar="PATH",
                        help="pre-made fresh BENCH_kernels.json to compare")
    parser.add_argument("--fresh-planner", default=None, metavar="PATH",
                        help="pre-made fresh BENCH_planner.json to compare")
    parser.add_argument("--fresh-ivm", default=None, metavar="PATH",
                        help="pre-made fresh BENCH_ivm.json to compare")
    parser.add_argument("--baseline-kernels", default=KERNELS_BASELINE,
                        metavar="PATH", help=argparse.SUPPRESS)
    parser.add_argument("--baseline-planner", default=PLANNER_BASELINE,
                        metavar="PATH", help=argparse.SUPPRESS)
    parser.add_argument("--baseline-ivm", default=IVM_BASELINE,
                        metavar="PATH", help=argparse.SUPPRESS)
    parser.add_argument("--report-only", action="store_true",
                        help="never gate: report regressions but exit 0")
    parser.add_argument("--results", default=os.path.join(
        os.path.dirname(__file__), "results.md"), metavar="PATH",
        help="trend-table destination (default: %(default)s)")
    parser.add_argument("--no-results", action="store_true",
                        help="skip writing the trend table")
    parser.add_argument("--json", action="store_true",
                        help="print the findings as JSON")
    args = parser.parse_args(argv)

    fresh_paths = {"kernels": args.fresh_kernels,
                   "planner": args.fresh_planner,
                   "ivm": args.fresh_ivm}
    baseline_paths = {"kernels": args.baseline_kernels,
                      "planner": args.baseline_planner,
                      "ivm": args.baseline_ivm}
    all_findings: List[Finding] = []
    problems: List[str] = []
    failed = False

    for suite in args.suites:
        script, _default_baseline, normalize = _SUITES[suite]
        baseline_path = baseline_paths[suite]
        if not os.path.exists(baseline_path):
            print(f"ERROR: missing baseline {baseline_path}", file=sys.stderr)
            return 2
        baseline_doc = _load_json(baseline_path)
        try:
            baseline = normalize(baseline_doc)
        except (KeyError, TypeError) as error:
            print(f"ERROR: {os.path.basename(baseline_path)} does not match "
                  f"the {suite} schema: {error!r}", file=sys.stderr)
            return 2
        suite_problems = validate_baseline(suite, baseline_doc)
        problems.extend(f"{suite}: {message}" for message in suite_problems)

        fresh_doc: Optional[Dict[str, Any]] = None
        if fresh_paths[suite]:
            fresh_doc = _load_json(fresh_paths[suite])
        elif args.run:
            out_path = os.path.join(
                os.path.dirname(os.path.abspath(__file__)),
                f"fresh_{suite}.json",
            )
            try:
                fresh_doc = _run_bench(script, out_path, args.tiny)
            except RuntimeError as error:
                print(f"ERROR: {error}", file=sys.stderr)
                return 2

        if fresh_doc is None:
            # Baseline-only validation: list the metrics, no comparison.
            all_findings.extend(
                Finding(m.name, m.kind, m.value, None, None, "baseline")
                for m in baseline
            )
            continue
        comparable = fresh_doc.get("scale") == baseline_doc.get("scale")
        findings = compare_metrics(baseline, normalize(fresh_doc),
                                   comparable=comparable)
        if not comparable:
            print(f"note: {suite} fresh scale "
                  f"{fresh_doc.get('scale')!r} != baseline scale "
                  f"{baseline_doc.get('scale')!r}; thresholds not applied")
        all_findings.extend(findings)

    failed = any(f.status == "fail" for f in all_findings) or bool(problems)
    warned = sum(1 for f in all_findings if f.status == "warn")

    if args.json:
        print(json.dumps({
            "suites": args.suites,
            "report_only": args.report_only,
            "problems": problems,
            "findings": [f.__dict__ for f in all_findings],
            "ok": not failed,
        }, indent=2))
    else:
        print(render_findings(all_findings))
        for message in problems:
            print(f"BASELINE PROBLEM: {message}", file=sys.stderr)
        counts: Dict[str, int] = {}
        for finding in all_findings:
            counts[finding.status] = counts.get(finding.status, 0) + 1
        summary = "  ".join(f"{status}={count}"
                            for status, count in sorted(counts.items()))
        print(f"\n{len(all_findings)} metrics: {summary}")

    if not args.no_results:
        harness = _load_harness()
        caption = ("perf-regression observatory (fresh vs committed baseline)"
                   if (args.run or any(fresh_paths.values()))
                   else "perf-regression observatory (committed baselines)")
        _record_trend(harness, all_findings, caption)
        harness.write_results(args.results)

    if failed and not args.report_only:
        print("FAIL: benchmark regression past threshold", file=sys.stderr)
        return 1
    if failed:
        print("regressions found, but --report-only: exiting 0",
              file=sys.stderr)
    elif warned:
        print(f"{warned} warning(s) within tolerance", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
