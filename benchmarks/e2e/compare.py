"""Compare two sets of ledger runs: ``compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first set of runs) and ``B``
the candidate; both are files written by ``run.py --out``, ideally with
``--repeat 10``.  One row per (workload, metric): both medians, each
side's own spread (distance between its quartiles as a share of its
median), the ratio B/A, and a verdict from the metric's bound and
direction in ``workloads.py``:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``REGRESSION`` — it is, and both spreads are within the bound;
* ``unresolved`` — a side's own spread exceeds the bound, so the medians
  cannot settle it (unless every run of B reads better than every run of
  A, which is ``ok``).

Per-layer metrics have no bound and get no verdict.  Exit code 1 when
any row is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional, Tuple

from workloads import END_TO_END, PER_LAYER

Values = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Values:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    values: Values = {}
    for run in document["runs"]:
        for metric, reading in run["metrics"].items():
            if reading["value"] is not None:
                values.setdefault((run["workload"], metric), []).append(reading["value"])
    return values


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(statistics.median(values))


def verdict(a: List[float], b: List[float], better: str, bound: Optional[float]) -> str:
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    base, candidate = statistics.median(a), statistics.median(b)
    worse = base != 0 and sign * (candidate - base) / abs(base) > bound
    if max(spread(a), spread(b)) > bound:
        all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return "ok" if all_better else "unresolved"
    return "REGRESSION" if worse else "ok"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    print(f"base A = {argv[0]}\ncandidate B = {argv[1]}\n")
    print(f"{'workload':<18} {'metric':<32} {'unit':<7} {'median A':>12} {'median B':>12} "
          f"{'spread A':>9} {'spread B':>9} {'B/A':>8} {'bound':>7}  verdict")
    regressions = 0
    for metric in END_TO_END + PER_LAYER:
        for workload, name in sorted(key for key in a if key[1] == metric.name):
            if (workload, name) not in b:
                continue
            va, vb = a[workload, name], b[workload, name]
            base, candidate = statistics.median(va), statistics.median(vb)
            outcome = verdict(va, vb, metric.better, metric.bound)
            regressions += outcome == "REGRESSION"
            ratio = f"{candidate / base:.3f}x" if base else "n/a"
            bound = "-" if metric.bound is None else f"{metric.bound:.0%}"
            print(f"{workload:<18} {name:<32} {metric.unit:<7} {base:>12.6g} "
                  f"{candidate:>12.6g} {spread(va):>9.1%} {spread(vb):>9.1%} "
                  f"{ratio:>8} {bound:>7}  {outcome}"
                  f"{'' if metric.better == 'lower' else '  (higher is better)'}")
    print(f"\nevery ratio is B/A (base: A); {regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
