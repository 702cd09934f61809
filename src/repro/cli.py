"""Command-line interface: ``python -m repro <command>``.

Commands aimed at kicking the tires without writing code:

* ``compare`` — generate an instance from one of the built-in workload
  families, run the distributed Yannakakis baseline and the paper's
  algorithm (or any ``--algorithm``), and print both cost reports side by
  side;
* ``sweep`` — the same across a sweep of the family's size knob (OUT for
  ``matmul``, ``--tuples`` for every other family), printing a
  Table-1-style series;
* ``table1`` — the paper's Table 1 with measured loads;
* ``explain`` — the planner's candidate table for one instance
  (docs/planner.md), **without executing anything**: predicted load per
  applicable algorithm, the one ``auto`` runs, and the statistics behind
  the predictions;
* ``trace`` — run one instance with the observability layer on: dump a
  JSONL trace (see docs/observability.md for the schema) and print an
  ASCII per-round × per-server load heatmap plus skew statistics
  (``--phase``/``--op`` narrow the analysis, ``--top N`` adds a per-phase
  load table);
* ``profile`` — run one instance under the wall-clock profiler
  (docs/observability.md): print a hotspot table (self/cumulative seconds
  per phase × op × backend) and write a speedscope flamegraph JSON;
  ``--chrome-out`` adds a Chrome/Perfetto trace, ``--metrics-out`` a
  Prometheus text-format metrics snapshot;
* ``fuzz`` — run a conformance fuzzing campaign (differential oracle +
  metamorphic invariants, docs/conformance.md): deterministic per seed,
  shrinks failures to minimal repros and optionally serializes them to a
  replayable corpus directory; ``--chaos`` adds the fault-injection tier,
  which re-checks every case under seeded recoverable fault schedules
  (crash/drop/duplicate/straggler with checkpoint-replay recovery,
  docs/model.md; ``--schedules``/``--faults`` size it) plus one planted
  unrecoverable schedule that must fail loudly (``--chaos --invariants
  differential`` runs the chaos tier on its own);
* ``ivm`` — materialize a view over an instance JSON file and apply one
  or more delta JSON files (the ``repro-delta/v1`` format,
  docs/ivm.md): prints the maintained answer size and the
  ``maintenance``-tagged cost report; ``--check`` recomputes from
  scratch on the mutated instance and fails unless the incremental
  answer is bit-identical, ``--export`` writes the maintained answer as
  TSV;
* ``serve`` — run the long-running HTTP/JSON query service
  (docs/service.md): named registered instances, a result cache with an
  LRU byte budget, planner-driven admission control, and Prometheus
  metrics at ``/metrics``; ``--preload NAME=PATH`` registers instance
  JSON files (the ``repro.io`` format) at startup.

``compare``/``sweep``/``table1`` accept ``--json`` (machine-readable
output on stdout) and ``--trace-out PATH`` (JSONL trace of the paper
algorithm's runs).  Every command takes ``--backend`` to select the kernel
implementation (``pytuple``/``columnar``/``auto``) — outputs are identical
across backends, only wall-clock differs.

The commands are thin argparse shells: all the work happens in
:mod:`repro.api`, so anything printed here is available as structured data
from the library.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

from . import api
from .backends.dispatch import BACKENDS
from .config import ExecutionConfig
from .conformance import (
    DEFAULT_INVARIANTS,
    INVARIANTS,
    PROFILES,
    QUERY_FAMILIES,
    FuzzConfig,
)
from .data.query import Instance
from .errors import ConfigError, ReproError
from .obs import (
    JsonlSink,
    MetricsRegistry,
    Profiler,
    RingBufferSink,
    Tracer,
    load_matrix_from_events,
    observe_profile,
    observe_report,
    per_round_stats,
    phase_loads_from_events,
    render_heatmap,
    skew_stats,
)
from .obs.profile import write_json
from .workloads import (
    bowtie_line,
    line_instance,
    overlapping_star,
    planted_out_matmul,
    star_instance,
    starlike_instance,
    twig_instance,
    zipf_matmul,
)

__all__ = ["main"]


def _families() -> Dict[str, Callable[[argparse.Namespace], Instance]]:
    return {
        "matmul": lambda a: planted_out_matmul(n=a.tuples, out=a.out or 4 * a.tuples),
        "matmul-zipf": lambda a: zipf_matmul(a.tuples, a.tuples, max(4, a.domain),
                                             seed=a.seed),
        "line": lambda a: line_instance(3, a.tuples, a.domain, seed=a.seed),
        "line-bowtie": lambda a: bowtie_line(
            blocks=max(1, a.tuples // 25), fan_out=25, fan_mid=a.domain
        ),
        "star": lambda a: star_instance(3, a.tuples, max(a.domain, a.tuples),
                                        max(2, a.domain // 3), seed=a.seed),
        "star-overlap": lambda a: overlapping_star(
            arms=3, centres=a.domain, fan=max(2, a.tuples // a.domain)
        ),
        "starlike": lambda a: starlike_instance([1, 2, 2], a.tuples, a.domain,
                                                seed=a.seed),
        "twig": lambda a: twig_instance(a.tuples, a.domain, seed=a.seed),
    }


#: Help texts more than one command shares.
_BACKEND_HELP = ("kernel backend (results and meters are identical; columnar "
                 "is faster on large instances)")
_EXPORT_JSON_HELP = "print a machine-readable JSON document instead of tables"
_EXPORT_TRACE = (None, "write a JSONL trace of the paper algorithm's run(s)")
_VERSUS_BASELINE_HELP = ("what to run against the baseline: 'auto' (the "
                         "paper's per-class choice) or an explicit algorithm "
                         "name")


def _add_shared(
    command: argparse.ArgumentParser,
    p: int = 16,
    p_help: Optional[str] = "number of servers",
    backend_help: str = _BACKEND_HELP,
    json_help: Optional[str] = None,
    trace_out: Optional[Tuple[Optional[str], str]] = None,
    algorithm_help: Optional[str] = None,
) -> None:
    """The one declaration of each flag several commands share: ``--p`` and
    ``--backend`` always; ``--json``, ``--trace-out`` (``(default, help)``)
    and ``--algorithm`` where the command passes their help text."""
    command.add_argument("--p", type=int, default=p, help=p_help)
    command.add_argument("--backend", choices=BACKENDS, default="pytuple",
                         help=backend_help)
    if json_help is not None:
        command.add_argument("--json", action="store_true", help=json_help)
    if trace_out is not None:
        command.add_argument("--trace-out", default=trace_out[0], metavar="PATH",
                             help=trace_out[1])
    if algorithm_help is not None:
        command.add_argument("--algorithm", default="auto", help=algorithm_help)


def _add_instance(command: argparse.ArgumentParser) -> None:
    """The workload-family knobs of the commands that build one instance."""
    command.add_argument("--family", choices=sorted(_families()), default="matmul")
    command.add_argument("--tuples", type=int, default=400,
                         help="tuples per relation (size knob)")
    command.add_argument("--domain", type=int, default=20,
                         help="domain width / family-specific knob")
    command.add_argument("--out", type=int, default=None,
                         help="target OUT (planted families)")
    command.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MPC join-aggregate algorithms (Hu & Yi, PODS 2020) — demo CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="baseline vs paper algorithm, one instance")
    _add_instance(compare)
    _add_shared(compare, json_help=_EXPORT_JSON_HELP, trace_out=_EXPORT_TRACE,
                algorithm_help=_VERSUS_BASELINE_HELP)

    sweep = sub.add_parser(
        "sweep",
        help="sweep the family's size knob (OUT for matmul, --tuples otherwise)",
    )
    _add_instance(sweep)
    _add_shared(sweep, json_help=_EXPORT_JSON_HELP, trace_out=_EXPORT_TRACE,
                algorithm_help=_VERSUS_BASELINE_HELP)
    sweep.add_argument("--points", type=int, default=4)

    explain = sub.add_parser(
        "explain",
        help="print the planner's predicted loads (no execution)",
    )
    _add_instance(explain)
    _add_shared(explain, json_help="print the full plan as JSON (byte-stable "
                "for a fixed instance and calibration)")

    table1 = sub.add_parser(
        "table1", help="reproduce the paper's Table 1 (one row per query class)"
    )
    _add_shared(table1, p_help=None, json_help=_EXPORT_JSON_HELP,
                trace_out=_EXPORT_TRACE)
    table1.add_argument("--scale", type=int, default=300,
                        help="instance size knob (tuples per relation)")
    table1.add_argument("--families", nargs="*", default=None, metavar="FAMILY",
                        help="subset of Table-1 rows to measure (default: all)")

    trace = sub.add_parser(
        "trace",
        help="run one instance with tracing on: JSONL trace + ASCII load heatmap",
    )
    _add_instance(trace)
    _add_shared(
        trace,
        json_help="print the run summary as JSON instead of the heatmap",
        trace_out=("repro-trace.jsonl",
                   "JSONL trace destination (default: %(default)s)"),
        algorithm_help="algorithm to trace (default: the paper's choice)",
    )
    trace.add_argument("--phase", default=None, metavar="SUBSTR",
                       help="analyse only events whose phase path contains "
                       "SUBSTR (the JSONL file still holds every event)")
    trace.add_argument("--op", default=None, metavar="OP",
                       help="analyse only events of this operation "
                       "(exchange/broadcast/gather/...)")
    trace.add_argument("--top", type=int, default=0, metavar="N",
                       help="also print the N highest-load phase paths")

    profile = sub.add_parser(
        "profile",
        help="run one instance under the wall-clock profiler: hotspot table "
        "+ speedscope flamegraph JSON",
    )
    _add_instance(profile)
    _add_shared(profile, json_help="print the profile summary as JSON",
                algorithm_help="algorithm to profile: 'auto' (the paper's "
                "per-class choice) or an explicit algorithm name")
    profile.add_argument("--profile-out", default="repro-profile.speedscope.json",
                         metavar="PATH",
                         help="speedscope JSON destination (default: %(default)s)")
    profile.add_argument("--chrome-out", default=None, metavar="PATH",
                         help="also write a Chrome about://tracing / Perfetto "
                         "trace JSON")
    profile.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="also write a Prometheus text-format metrics "
                         "snapshot of the profile")
    profile.add_argument("--top", type=int, default=15,
                         help="hotspot rows to print (default: %(default)s)")
    profile.add_argument("--tree", action="store_true",
                         help="print the full span tree instead of the "
                         "hotspot table")

    fuzz = sub.add_parser(
        "fuzz",
        help="conformance fuzzing: differential + metamorphic invariants",
    )
    _add_shared(fuzz, p=4, json_help="print the campaign summary as JSON")
    fuzz.add_argument("--iterations", type=int, default=25,
                      help="cases to check (ignored when --seconds is given)")
    fuzz.add_argument("--seconds", type=float, default=None,
                      help="wall-clock budget instead of an iteration count")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed; same seed → byte-identical --json output")
    fuzz.add_argument("--p-large", type=int, default=8,
                      help="larger server count for the scaling invariant")
    fuzz.add_argument("--tuples", type=int, default=12,
                      help="max tuples per generated relation")
    fuzz.add_argument("--domain", type=int, default=5,
                      help="attribute domain width of generated instances")
    fuzz.add_argument("--families", nargs="+", default=None,
                      metavar="FAMILY", help="restrict query families "
                      f"(default: all of {', '.join(QUERY_FAMILIES)})")
    fuzz.add_argument("--profiles", nargs="+", default=None,
                      metavar="SEMIRING", help="restrict semiring profiles "
                      f"(default: all of {', '.join(PROFILES)})")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="serialize shrunk failures into this directory")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip delta-debugging of failures")
    fuzz.add_argument("--fail-fast", action="store_true",
                      help="stop at the first invariant violation")
    fuzz.add_argument("--invariants", nargs="+", default=None,
                      metavar="NAME", help="restrict the invariant catalog "
                      f"(default: {', '.join(DEFAULT_INVARIANTS)})")
    fuzz.add_argument("--chaos", action="store_true",
                      help="also cycle the fault-injection chaos invariant")
    fuzz.add_argument("--schedules", type=int, default=2,
                      help="chaos tier: recoverable fault schedules per "
                      "case × algorithm")
    fuzz.add_argument("--faults", type=int, default=3,
                      help="chaos tier: faults per generated schedule")

    ivm = sub.add_parser(
        "ivm",
        help="materialize a view and apply delta batches (docs/ivm.md)",
    )
    _add_shared(ivm, p=8, json_help="print a machine-readable JSON document")
    ivm.add_argument("--instance", required=True, metavar="PATH",
                     help="instance JSON file (the repro.io format)")
    ivm.add_argument("--delta", action="append", default=[], metavar="PATH",
                     help="delta JSON file (repro-delta/v1); repeatable, "
                     "applied in order")
    ivm.add_argument("--check", action="store_true",
                     help="also recompute from scratch on the mutated "
                     "instance and exit 1 unless the incremental answer "
                     "is bit-identical")
    ivm.add_argument("--export", default=None, metavar="PATH",
                     help="write the maintained answer as TSV")

    serve = sub.add_parser(
        "serve",
        help="run the HTTP/JSON query service (docs/service.md)",
    )
    _add_shared(serve, p=8,
                p_help="default server count for requests that omit "
                "config.p (default: %(default)s)",
                backend_help="default kernel backend for requests that omit "
                "config.backend")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=8750,
                       help="TCP port, 0 = ephemeral (default: %(default)s)")
    serve.add_argument("--cache-bytes", type=int, default=64 * 1024 * 1024,
                       metavar="N",
                       help="result-cache byte budget; 0 disables caching "
                       "(default: 64 MiB)")
    serve.add_argument("--max-concurrent", type=int, default=4, metavar="N",
                       help="executions allowed to run simultaneously "
                       "(default: %(default)s)")
    serve.add_argument("--queue-depth", type=int, default=8, metavar="N",
                       help="requests allowed to wait for a slot before 429 "
                       "(default: %(default)s)")
    serve.add_argument("--load-budget", type=float, default=None, metavar="L",
                       help="reject requests whose planner-predicted load "
                       "exceeds L (default: unlimited)")
    serve.add_argument("--preload", nargs="*", default=(), metavar="NAME=PATH",
                       help="register instance JSON files (repro.io format) "
                       "at startup")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logging")

    return parser


def _print_report(label: str, result) -> None:
    report = result.report
    print(f"{label:<34} load={report.max_load:<8} comm={report.total_communication:<9} "
          f"rounds={report.rounds:<4} products={report.elementary_products}")


def _config(args: argparse.Namespace, **observers: Any) -> ExecutionConfig:
    """The one place a command's :class:`ExecutionConfig` is built: ``--p``,
    ``--backend`` and, on the commands that have it, ``--algorithm``, plus
    the command's observers (``tracer=``, ``profiler=``)."""
    return ExecutionConfig(p=args.p, backend=args.backend,
                           algorithm=getattr(args, "algorithm", "auto"),
                           **observers)


def _tracer(
    args: argparse.Namespace, *sinks: Any, scope: str = ""
) -> ContextManager[Optional[Tracer]]:
    """A tracer over ``sinks`` plus a JSONL sink when ``--trace-out`` was
    given, to hold for one ``with`` block (which closes it); a null context
    yielding None when that leaves no sink."""
    if args.trace_out:
        sinks += (JsonlSink(args.trace_out),)
    return Tracer(sinks, scope=scope) if sinks else nullcontext()


def _command_compare(args: argparse.Namespace) -> int:
    instance = _families()[args.family](args)
    if not args.json:
        print(f"family={args.family}  N={instance.total_size}  p={args.p}  "
              f"class={instance.query.classify()}")
    with _tracer(args) as tracer:
        try:
            result = api.compare(instance, _config(args, tracer=tracer),
                                 scope=args.family)
        except AssertionError:
            print("ERROR: algorithms disagree!", file=sys.stderr)
            return 1
        except ValueError as error:
            print(f"ERROR: {error}", file=sys.stderr)
            return 2
    baseline, ours = result.baseline, result.ours
    speedup = result.speedup
    if args.json:
        document = {
            "family": args.family,
            "p": args.p,
            "input_size": instance.total_size,
            "query_class": ours.query_class,
            "algorithm": ours.algorithm,
            "out_size": ours.out_size,
            "baseline": baseline.report.to_dict(),
            "ours": ours.report.to_dict(),
            "speedup": speedup,
            "trace_out": args.trace_out,
        }
        print(json.dumps(document, indent=2))
        return 0
    print(f"OUT={ours.out_size}")
    _print_report("distributed Yannakakis (baseline)", baseline)
    _print_report(f"paper algorithm ({ours.algorithm})", ours)
    print(f"load speedup: {speedup:.2f}×")
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    """Sweep OUT for ``matmul``; sweep ``--tuples`` (doubling) otherwise."""
    matmul = args.family == "matmul"
    knob_name = "OUT" if matmul else "tuples"
    points: List[Dict[str, Any]] = []

    def instances():
        n = args.tuples
        out = n
        tuples = args.tuples
        for _ in range(args.points):
            if matmul:
                knob = min(out, n * n)
                instance = planted_out_matmul(n=n, out=knob)
            else:
                knob = tuples
                args.tuples = tuples
                try:
                    instance = _families()[args.family](args)
                except ValueError as error:
                    # e.g. doubling --tuples past the family's domain capacity.
                    print(f"sweep stopped at {knob_name.lower()}={knob}: {error} "
                          f"(try a larger --domain)", file=sys.stderr)
                    return
            yield f"{args.family}/{knob_name}={knob}", knob, instance
            out *= 8
            tuples *= 2

    with _tracer(args) as tracer:
        config = _config(args, tracer=tracer)
        for scope, knob, instance in instances():
            try:
                result = api.compare(instance, config, scope=scope)
            except ValueError as error:
                print(f"ERROR: {error}", file=sys.stderr)
                return 2
            points.append({
                knob_name.lower(): knob,
                "input_size": instance.total_size,
                "out_size": result.ours.out_size,
                "baseline_load": result.baseline.report.max_load,
                "new_load": result.ours.report.max_load,
                "speedup": result.speedup,
            })
    if not points:
        return 1

    if args.json:
        document = {
            "family": args.family,
            "p": args.p,
            "knob": knob_name.lower(),
            "points": points,
            "trace_out": args.trace_out,
        }
        print(json.dumps(document, indent=2))
        return 0
    print(f"{knob_name:>10} {'L(yann)':>10} {'L(ours)':>10} {'speedup':>8}")
    for point in points:
        print(f"{point[knob_name.lower()]:>10} {point['baseline_load']:>10} "
              f"{point['new_load']:>10} {point['speedup']:>8.2f}")
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    return 0


def _command_table1(args: argparse.Namespace) -> int:
    """One adversarial instance per Table-1 row, baseline vs new algorithm."""
    with _tracer(args) as tracer:
        try:
            rows = api.table1(scale=args.scale, config=_config(args, tracer=tracer),
                              families=args.families)
        except (AssertionError, ValueError) as error:
            print(f"ERROR: {error}", file=sys.stderr)
            return 1
    if args.json:
        document = {
            "p": args.p,
            "scale": args.scale,
            "rows": [row.to_dict() for row in rows],
            "trace_out": args.trace_out,
        }
        print(json.dumps(document, indent=2))
        return 0
    print(f"Table 1 reproduction (p={args.p}, scale={args.scale}); "
          f"loads are measured\n")
    print(f"{'query':>8} {'N':>7} {'OUT':>9} {'L(yann)':>9} {'L(ours)':>9} {'speedup':>8}")
    for row in rows:
        print(
            f"{row.label:>8} {row.input_size:>7} {row.out_size:>9} "
            f"{row.baseline_load:>9} {row.new_load:>9} {row.speedup:>8.2f}"
        )
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    """Print the planner's candidate table for one instance, no execution."""
    instance = _families()[args.family](args)
    plan = api.explain(instance, _config(args))
    if args.json:
        print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"family={args.family}")
    print(plan.render())
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    instance = _families()[args.family](args)
    ring = RingBufferSink()
    with _tracer(args, ring, scope=args.family) as tracer:
        try:
            result = api.run_query(instance, _config(args, tracer=tracer))
        except (KeyError, ValueError) as error:
            print(f"ERROR: cannot run {args.algorithm!r} on family "
                  f"{args.family!r}: {error}", file=sys.stderr)
            return 2

    report = result.report
    events = ring.events
    filtered = args.phase is not None or args.op is not None
    if filtered:
        events = [
            event for event in events
            if (args.op is None or event.op == args.op)
            and (args.phase is None or args.phase in "/".join(event.phase))
        ]
    phase_loads = sorted(
        phase_loads_from_events(events).items(), key=lambda kv: (-kv[1], kv[0])
    )[: args.top] if args.top > 0 else []
    matrix, servers = load_matrix_from_events(events)
    rounds = per_round_stats(matrix)
    overall = skew_stats([value for row in matrix for value in row])
    peak_round = max(range(len(rounds)), key=lambda r: rounds[r].max, default=0)

    if args.json:
        document = {
            "family": args.family,
            "p": args.p,
            "algorithm": result.algorithm,
            "query_class": result.query_class,
            "input_size": instance.total_size,
            "out_size": result.out_size,
            "report": report.to_dict(),
            "events": len(events),
            "trace_out": args.trace_out or None,
            "per_round": [stats.to_dict() for stats in rounds],
            "overall_skew": overall.to_dict(),
            "peak_round": peak_round,
        }
        if filtered:
            document["filters"] = {"phase": args.phase, "op": args.op}
        if args.top > 0:
            document["phase_loads"] = [
                {"phase": path, "max_load": load} for path, load in phase_loads
            ]
        print(json.dumps(document, indent=2))
        return 0

    print(f"family={args.family}  N={instance.total_size}  p={args.p}  "
          f"algorithm={result.algorithm}  OUT={result.out_size}")
    print(f"load L={report.max_load}  comm={report.total_communication}  "
          f"rounds={report.rounds}  products={report.elementary_products}")
    if filtered:
        shown = []
        if args.phase is not None:
            shown.append(f"phase~{args.phase!r}")
        if args.op is not None:
            shown.append(f"op={args.op}")
        print(f"filters: {' '.join(shown)}  ({len(events)} matching events)")
    if args.trace_out:
        print(f"trace: {len(ring.events)} events -> {args.trace_out}")
    print()
    print(render_heatmap(matrix, servers))
    print()
    if rounds:
        peak = rounds[peak_round]
        print(f"peak round {peak_round}: max={peak.max} mean={peak.mean:.1f} "
              f"p95={peak.p95} imbalance={peak.imbalance:.2f} gini={peak.gini:.2f}")
    if report.phases:
        print("phase loads: " + "  ".join(
            f"{label}={load}" for label, load in report.phases
        ))
    if args.top > 0:
        print()
        print(f"top {len(phase_loads)} phase paths by max per-server load:")
        width = max((len(path) for path, _ in phase_loads), default=5)
        for path, load in phase_loads:
            print(f"  {path:<{width}}  {load}")
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    """Run one instance under the profiler; hotspots + flamegraph exports."""
    instance = _families()[args.family](args)
    profiler = Profiler()
    try:
        result = api.run_query(instance, _config(args, profiler=profiler))
    except (KeyError, ValueError) as error:
        print(f"ERROR: cannot run {args.algorithm!r} on family "
              f"{args.family!r}: {error}", file=sys.stderr)
        return 2

    name = f"{args.family} p={args.p} backend={args.backend}"
    write_json(profiler.to_speedscope(name=name), args.profile_out)
    if args.chrome_out:
        write_json(profiler.to_chrome_trace(), args.chrome_out)
    if args.metrics_out:
        registry = MetricsRegistry()
        observe_profile(registry, profiler)
        observe_report(registry, result.report, scope=args.family)
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(registry.render())

    if args.json:
        print(json.dumps({
            "family": args.family,
            "p": args.p,
            "backend": args.backend,
            "algorithm": result.algorithm,
            "query_class": result.query_class,
            "input_size": instance.total_size,
            "out_size": result.out_size,
            "report": result.report.to_dict(),
            "total_wall_s": profiler.total_wall,
            "hotspots": [row.to_dict() for row in profiler.hotspots(args.top)],
            "tree": [child.to_dict()
                     for child in profiler.root.children.values()],
            "profile_out": args.profile_out,
            "chrome_out": args.chrome_out,
            "metrics_out": args.metrics_out,
        }, indent=2))
        return 0

    print(f"family={args.family}  N={instance.total_size}  p={args.p}  "
          f"backend={args.backend}  algorithm={result.algorithm}  "
          f"OUT={result.out_size}")
    print(f"load L={result.report.max_load}  wall={profiler.total_wall:.3f}s")
    print()
    print(profiler.tree() if args.tree else profiler.render_hotspots(args.top))
    print()
    print(f"speedscope profile written to {args.profile_out} "
          f"(open at https://speedscope.app)")
    if args.chrome_out:
        print(f"chrome trace written to {args.chrome_out}")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    return 0


def _check_campaign_names(args: argparse.Namespace) -> bool:
    checks = [
        ("--families", args.families, QUERY_FAMILIES),
        ("--profiles", args.profiles, tuple(PROFILES)),
        ("--invariants", args.invariants, tuple(INVARIANTS)),
    ]
    for flag, chosen, allowed in checks:
        for name in chosen or ():
            if name not in allowed:
                print(f"ERROR: unknown {flag} value {name!r} "
                      f"(choose from {', '.join(allowed)})", file=sys.stderr)
                return False
    return True


def _command_fuzz(args: argparse.Namespace) -> int:
    if not _check_campaign_names(args):
        return 2
    invariants = (
        tuple(args.invariants) if args.invariants else DEFAULT_INVARIANTS
    )
    if args.chaos and "chaos" not in invariants:
        invariants = invariants + ("chaos",)
    config = FuzzConfig(
        iterations=args.iterations,
        seconds=args.seconds,
        seed=args.seed,
        p=args.p,
        p_large=args.p_large,
        max_tuples=args.tuples,
        domain=args.domain,
        families=tuple(args.families) if args.families else QUERY_FAMILIES,
        profiles=tuple(args.profiles) if args.profiles else tuple(PROFILES),
        invariants=invariants,
        corpus=args.corpus,
        shrink=not args.no_shrink,
        fail_fast=args.fail_fast,
        backend=args.backend,
        chaos_schedules=args.schedules,
        chaos_faults=args.faults,
    )
    summary = api.fuzz(config)
    if args.json:
        print(summary.to_json())
        return 0 if summary.ok else 1

    print(f"fuzz: seed={summary.seed} checked={summary.checked} "
          f"p={summary.p}->{summary.p_large} "
          f"max_tuples={summary.max_tuples} domain={summary.domain}")
    for dimension in sorted(summary.coverage):
        bucket = summary.coverage[dimension]
        cells = "  ".join(f"{key}={count}" for key, count in sorted(bucket.items()))
        print(f"  {dimension:<12} {cells}")
    if summary.ok:
        print("OK: no invariant violations")
        return 0
    print(f"FAILURES: {len(summary.failures)}", file=sys.stderr)
    for failure in summary.failures:
        print(f"  [{failure.invariant}] iteration={failure.iteration} "
              f"family={failure.family} class={failure.query_class} "
              f"semiring={failure.profile} skew={failure.skew} "
              f"seed={failure.case_seed}", file=sys.stderr)
        print(f"    {failure.message}", file=sys.stderr)
        print(f"    shrunk {failure.original_tuples} -> "
              f"{failure.shrunk_tuples} tuples"
              + (f", saved to {failure.corpus_file}" if failure.corpus_file else ""),
              file=sys.stderr)
    return 1


def _answer_map(relation) -> Dict[Any, Any]:
    """Tuples keyed by sorted-attribute order, so answers from relations
    with different column orders compare directly."""
    order = sorted(range(len(relation.schema)), key=lambda i: relation.schema[i])
    return {tuple(values[i] for i in order): annotation
            for values, annotation in relation}


def _command_ivm(args: argparse.Namespace) -> int:
    """Materialize a view, stream deltas through it, optionally verify."""
    from .io import read_delta_json, read_instance_json, write_relation_tsv
    from .ivm import mutate_instance

    try:
        instance = read_instance_json(args.instance)
        batches = [read_delta_json(path) for path in args.delta]
    except (OSError, ReproError, ValueError, KeyError) as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 2
    config = _config(args)
    try:
        view = api.materialize(instance, config)
        results = [view.apply(batch) for batch in batches]
    except ReproError as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 2
    report = view.report()
    answer = view.answer()

    check: Optional[Dict[str, Any]] = None
    if args.check:
        mutated = instance
        for batch in batches:
            mutated = mutate_instance(mutated, batch)
        recompute = api.run_query(mutated, config)
        check = {
            "identical": _answer_map(answer) == _answer_map(recompute.relation),
            "recompute_load": recompute.report.max_load,
            "maintenance_load": report.maintenance_load,
        }
    if args.export:
        write_relation_tsv(answer, args.export)

    if args.json:
        document = {
            "instance": args.instance,
            "input_size": instance.total_size,
            "deltas": [result.to_dict() for result in results],
            "out_size": view.out_size,
            "report": report.to_dict(),
            "export": args.export,
        }
        if check is not None:
            document["check"] = check
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0 if check is None or check["identical"] else 1

    print(f"instance={args.instance}  N={instance.total_size}  p={args.p}  "
          f"semiring={instance.semiring.name}")
    for path, result in zip(args.delta, results):
        print(f"delta {path}: {result.changes} changes  "
              f"runs={result.runs}  load={result.load}  "
              f"out_size={result.out_size}")
    print(f"OUT={view.out_size}  maintenance: "
          f"load={report.maintenance_load} "
          f"comm={report.maintenance_communication} "
          f"rounds={report.maintenance_rounds} "
          f"products={report.maintenance_products}")
    if args.export:
        print(f"answer written to {args.export}")
    if check is not None:
        if check["identical"]:
            print(f"check: incremental answer identical to recompute "
                  f"(maintenance load {check['maintenance_load']} vs "
                  f"recompute load {check['recompute_load']})")
        else:
            print("check: MISMATCH between incremental answer and recompute",
                  file=sys.stderr)
            return 1
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """Start the HTTP/JSON query service (blocks until interrupted)."""
    from .io import instance_from_json
    from .service import ServiceState, serve

    try:
        state = ServiceState(
            cache_bytes=args.cache_bytes,
            max_concurrent=args.max_concurrent,
            queue_depth=args.queue_depth,
            load_budget=args.load_budget,
            default_config=_config(args),
        )
    except ConfigError as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 2

    for spec in args.preload:
        name, separator, path = spec.partition("=")
        if not separator or not name or not path:
            print(f"ERROR: --preload wants NAME=PATH, got {spec!r}",
                  file=sys.stderr)
            return 2
        try:
            with open(path, "r", encoding="utf-8") as handle:
                instance = instance_from_json(handle.read())
            entry, _dropped = state.register(name, instance)
        except (OSError, ReproError, ValueError, KeyError) as error:
            print(f"ERROR: cannot preload {name!r} from {path}: {error}",
                  file=sys.stderr)
            return 2
        print(f"preloaded {name!r} digest={entry.digest} "
              f"({entry.instance.total_size} tuples)")

    serve(state, host=args.host, port=args.port, verbose=not args.quiet)
    return 0


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "compare": _command_compare,
    "sweep": _command_sweep,
    "table1": _command_table1,
    "explain": _command_explain,
    "trace": _command_trace,
    "profile": _command_profile,
    "fuzz": _command_fuzz,
    "ivm": _command_ivm,
    "serve": _command_serve,
}


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
