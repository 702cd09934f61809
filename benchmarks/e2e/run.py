"""The end-to-end ledger: one command, every metric by name with its unit.

Two ways in:

* ``run.py --workload NAME --seed S --seconds N --trace 0|1`` runs that one
  workload in this process (the caller supplies the fresh process) and
  prints, as its last line, the JSON object the root ``BENCHMARK.json``
  contract describes: every end-to-end metric with ``--trace 0``, every
  per-layer metric with ``--trace 1``.
* ``run.py [--workload NAME ...] [--seed S] [--repeat K] [--traced]
  [--tiny] [--out PATH]`` runs the named workloads (default: all, in the
  order given) each in a fresh subprocess of the first form, prints a
  summary and writes every run to ``PATH`` for ``compare.py``.

Exit code 1 when any output check failed.  ``--write-manifest`` rewrites
the root ``BENCHMARK.json`` from ``workloads.py`` and does nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")


def _worker(name: str, tiny: bool, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ERROR: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # A terminated run still unwinds, so a `repro serve` child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from inputs import CALIBRATION_REF_S, Calibrator
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    workload = WORKLOADS[name]
    if workload.kind == "batch":
        from run_batch import run
    elif workload.kind == "ivm":
        from run_ivm import run
    else:
        from run_service import run

    os.makedirs(OUT_DIR, exist_ok=True)
    calibrator = Calibrator()
    attempted, failed, values, notes = run(
        workload, tiny, seed, seconds, trace, OUT_DIR, calibrator)
    setup_speed, timed_speed = calibrator.speed(setup=True), calibrator.speed(setup=False)
    values["bench.calibration_ms"] = 1000 * CALIBRATION_REF_S / timed_speed
    notes.append(f"machine speed x{timed_speed:.3f} of reference in the timed section "
                 f"(x{setup_speed:.3f} in set-up); every time below is at reference speed")

    print(f"== {name}  seed={seed}  seconds={seconds:g}  "
          f"{'traced' if trace else 'untraced'}{'  TINY: not comparable' if tiny else ''}")
    print(f"   why: {workload.why}")
    print(f"   primary operation:   {workload.primary}")
    print(f"   secondary operation: {workload.secondary}")
    for note in notes:
        print(f"   {note}")
    metrics: Dict[str, Dict[str, Any]] = {}
    for metric in (PER_LAYER if trace else END_TO_END):
        # A per-layer metric the workload does not exercise reads 0; one
        # whose traced callable is gone reads null (a warning was printed).
        value = values.get(metric.name, 0.0)
        if value is not None and metric.name != "bench.calibration_ms":
            scale = setup_speed if metric.name == "setup_s" else timed_speed
            if metric.unit in ("s", "ms", "us"):
                value *= scale
            elif metric.unit == "1/s":
                value /= scale
        metrics[metric.name] = {"value": value, "unit": metric.unit}
        shown = "null" if value is None else f"{value:.6g}"
        print(f"   {metric.name:<32} {shown:>14} {metric.unit}")
    print(f"   attempted={attempted} failed={failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _orchestrate(args: argparse.Namespace) -> int:
    sys.path.insert(0, SRC)
    from workloads import RUN_SECONDS, WORKLOADS

    names = args.workload or list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else (
        0.3 if args.tiny else RUN_SECONDS)
    runs: List[Dict[str, Any]] = []
    status = 0
    for repeat in range(args.repeat):
        for name in names:
            for trace in ((0, 1) if args.traced else (0,)):
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed + repeat),
                    "--seconds", str(seconds), "--trace", str(trace),
                ] + (["--tiny"] if args.tiny else [])
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                lines = done.stdout.rstrip("\n").split("\n")
                try:
                    result = json.loads(lines[-1])
                except json.JSONDecodeError:
                    print(done.stdout)
                    print(f"ERROR: {name} exited with {done.returncode} and no result line")
                    return 2
                print("\n".join(lines[:-1]), flush=True)
                status |= done.returncode
                runs.append({"workload": name, "seed": args.seed + repeat,
                             "trace": trace, **result})

    print("\n== summary (median over runs)" + ("  TINY: not comparable" if args.tiny else ""))
    for name in names:
        for trace in ((0, 1) if args.traced else (0,)):
            mine = [r for r in runs if r["workload"] == name and r["trace"] == trace]
            print(f"{name} [{'per layer' if trace else 'end to end'}; {len(mine)} run(s); "
                  f"failed {sum(r['failed'] for r in mine)} of "
                  f"{sum(r['attempted'] for r in mine)}]")
            for metric, first in mine[0]["metrics"].items():
                seen = [r["metrics"][metric]["value"] for r in mine]
                seen = [v for v in seen if v is not None]
                shown = f"{statistics.median(seen):.6g}" if seen else "null"
                print(f"   {metric:<32} {shown:>14} {first['unit']}")
    out = args.out or os.path.join(OUT_DIR, "latest.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"tiny": args.tiny, "seconds": seconds, "runs": runs}, handle, indent=1)
        handle.write("\n")
    print(f"\nruns written to {out}")
    if status:
        print("FAILED: at least one output check failed")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run; repeat to fix an order (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of one timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one workload here and end with the result line")
    parser.add_argument("--traced", action="store_true",
                        help="also make the traced pass of each workload")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke sizes: same code path, checks on, numbers not comparable")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="K runs per workload, seeds S..S+K-1")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="where the runs go (default: benchmarks/e2e/out/latest.json)")
    parser.add_argument("--write-manifest", action="store_true",
                        help="rewrite the root BENCHMARK.json from workloads.py")
    args = parser.parse_args(argv)

    if args.write_manifest:
        from workloads import manifest

        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
            json.dump(manifest(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        from workloads import RUN_SECONDS

        seconds = args.seconds if args.seconds is not None else RUN_SECONDS
        return _worker(args.workload[0], args.tiny, args.seed, seconds,
                       bool(args.trace))
    return _orchestrate(args)


if __name__ == "__main__":
    raise SystemExit(main())
