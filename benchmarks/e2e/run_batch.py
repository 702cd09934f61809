"""``families_planted`` and ``matmul_dense``: rounds of ``api.run_query``.

One round is one pass over the workload's instance set.  Every call is
timed on its own and checked right after (outside the timing) against the
warm-up round's result; after the timed section the warm-up results are
checked against a ``backend="pytuple"`` run of the same instances, so
every timed answer and serialized CostReport is transitively held to the
reference backend.
"""

from __future__ import annotations

import gc
import time
from dataclasses import replace
from typing import Any, List

from repro import api
from repro.config import ExecutionConfig
from repro.planner import plan_query

from inputs import (Calibrator, Outcome, build_instances, median, peak_rss_mb,
                    percentile, repeat_until, settle)
from spans import Recorder, executor_layers, instrument
from workloads import Workload


def _same(result: Any, reference: Any) -> bool:
    return (result.relation.tuples == reference.relation.tuples
            and result.report.to_dict() == reference.report.to_dict())


class _Rounds:
    """Timed rounds over the instance set, checked against ``reference``."""

    def __init__(self, instances, config, reference, calibrator) -> None:
        self.calibrator = calibrator
        self.instances = instances
        self.config = config
        self.reference = reference
        self.rounds: List[float] = []
        self.calls: List[float] = []
        self.failed = 0

    def one(self) -> None:
        elapsed = 0.0
        for label, instance in self.instances.items():
            gc.collect()  # the previous call's garbage is not this call's cost
            self.calibrator.tick()
            started = time.perf_counter()
            result = api.run_query(instance, self.config)
            wall = time.perf_counter() - started
            elapsed += wall
            self.calls.append(wall)
            if not _same(result, self.reference[label]):
                self.failed += 1
        self.rounds.append(elapsed)


def run(workload: Workload, tiny: bool, seed: int, seconds: float,
        trace: bool, out_dir: str, calibrator: Calibrator) -> Outcome:
    sizes = workload.sizes(tiny)
    notes: List[str] = []

    started = time.perf_counter()
    instances = build_instances(sizes["instances"], seed)
    config = ExecutionConfig(**workload.config)
    reference = {
        label: api.run_query(instance, config)
        for label, instance in instances.items()
    }
    settle()
    setup_s = time.perf_counter() - started
    calibrator.end_setup()

    n_in = sum(instance.total_size for instance in instances.values())
    n_out = sum(result.out_size for result in reference.values())
    notes.append(f"{len(instances)} instances, N={n_in} tuples in, OUT={n_out} rows out, "
                 f"config={workload.config}")

    timed = _Rounds(instances, config, reference, calibrator)
    recorder = Recorder()
    traced_from = 0
    def traced_round() -> None:
        with recorder.operation("round"):
            timed.one()

    if not trace:
        repeat_until(timed.one, timed.rounds, seconds, sizes["min_rounds"])
    else:
        repeat_until(timed.one, timed.rounds, seconds / 2, sizes["min_rounds"] // 2)
        traced_from = len(timed.rounds)
        with instrument(recorder):
            repeat_until(traced_round, timed.rounds, seconds / 2, 1)
            for instance in instances.values():
                with recorder.span("planner.plan"):
                    plan_query(instance, p=config.p, backend=config.backend)
    rss = peak_rss_mb()

    # The reference backend: identity oracle and the baseline beside new.
    pytuple = replace(config, backend="pytuple")
    ref_started = time.perf_counter()
    oracle = {label: api.run_query(instance, pytuple)
              for label, instance in instances.items()}
    ref_round_s = time.perf_counter() - ref_started
    attempted = len(timed.calls)
    failed = timed.failed
    for label in instances:
        if not _same(reference[label], oracle[label]):
            notes.append(f"FAILED: {label} differs from the pytuple reference run")
            failed += attempted // len(instances)

    load_sum = sum(result.report.max_load for result in reference.values())
    attempted += 1
    if load_sum != sizes["load_sum"]:
        notes.append(f"FAILED: load_sum {load_sum} differs from the pinned "
                     f"{sizes['load_sum']}")
        failed += 1

    untraced = timed.rounds[:traced_from] if trace else timed.rounds
    if not trace:
        good = len(timed.calls) - timed.failed
        return attempted, failed, {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "load_sum": load_sum,
            "capacity_rps": good / sum(timed.rounds),
            "primary_ms_p50": 1000 * median(timed.rounds),
            "primary_ms_tail": 1000 * percentile(timed.rounds, workload.tail_percentile),
            "secondary_ms_p50": 1000 * median(timed.calls),
        }, notes + [f"{len(timed.rounds)} timed rounds, {len(timed.calls)} queries"]

    traced = timed.rounds[traced_from:]
    values = executor_layers(recorder, None, len(traced))
    plan = recorder.by_name().get("planner.plan", {"total": 0.0})
    values.update({
        "planner.plan_s": plan["total"],
        "mpc.communication": sum(r.report.total_communication for r in reference.values()),
        "mpc.rounds": sum(r.report.rounds for r in reference.values()),
        "ref.pytuple_round_s": ref_round_s,
        "ref.columnar_speedup": ref_round_s / median(untraced),
        "trace.overhead_share": median(traced) / median(untraced) - 1.0,
    })
    steps = sum(values[name] or 0.0 for name in (
        "mpc.cluster_init_s", "data.load_s", "core.run_s", "core.finalize_s",
        "data.collect_s"))
    notes.append(f"{len(untraced)} untraced + {len(traced)} traced rounds; step spans sum to "
                 f"{steps:.3f} s per round against an untraced median of "
                 f"{median(untraced):.3f} s ({steps / median(untraced) - 1:+.1%})")
    recorder.write(f"{out_dir}/{workload.name}.spans.jsonl")
    return attempted, failed, values, notes
