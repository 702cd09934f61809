"""``ivm_stream``: one materialized view under a stream of tiny deltas.

The stream runs in blocks: ``small`` applies of the small delta size,
``large`` applies of the large one, then one sampled generation where the
from-scratch path (``mutate_instance`` + ``api.run_query``) is timed on the
next batch and the maintained answer is checked against it.
"""

from __future__ import annotations

import random
import time
from typing import List

from repro import api
from repro.config import ExecutionConfig
from repro.ivm import mutate_instance
from repro.planner import plan_query

from inputs import (Calibrator, DeltaStream, Outcome, answer_map, build_instances,
                    median, peak_rss_mb, percentile, repeat_until, settle,
                    structure_rng)
from spans import Recorder, executor_layers, instrument
from workloads import Workload


class _Stream:
    def __init__(self, view, stream: DeltaStream, config, sizes, recorder,
                 calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.view = view
        self.stream = stream
        self.config = config
        self.sizes = sizes
        self.recorder = recorder
        self.small: List[float] = []
        self.large: List[float] = []
        self.recompute: List[float] = []
        self.mutate: List[float] = []
        self.blocks: List[float] = []
        self.results: List[List] = []  # DeltaResults, one list per block
        self.checks = 0
        self.failed = 0

    def _apply(self, size: int, sink: List[float], tag: str) -> None:
        batch = self.stream.batch(size)
        with self.recorder.operation("ivm.apply", tag):
            started = time.perf_counter()
            result = self.view.apply(batch)
            sink.append(time.perf_counter() - started)
        self.results[-1].append(result)

    def block(self) -> None:
        started = time.perf_counter()
        self.results.append([])
        self.calibrator.tick()
        for _ in range(self.sizes["block"]["small"]):
            self._apply(self.sizes["small_delta"], self.small, "small")
        self.calibrator.tick()
        for _ in range(self.sizes["block"]["large"]):
            self._apply(self.sizes["large_delta"], self.large, "large")
        self.calibrator.tick()
        # Sampled generation: the same batch through both paths.
        before = self.stream.instance()
        batch = self.stream.batch(self.sizes["small_delta"])
        with self.recorder.operation("ivm.recompute"):
            t0 = time.perf_counter()
            mutated = mutate_instance(before, batch)
            t1 = time.perf_counter()
            fresh = api.run_query(mutated, self.config)
            t2 = time.perf_counter()
        self.mutate.append(t1 - t0)
        self.recompute.append(t2 - t0)
        with self.recorder.operation("ivm.apply", "small"):
            t0 = time.perf_counter()
            result = self.view.apply(batch)
            self.small.append(time.perf_counter() - t0)
        self.results[-1].append(result)
        self.checks += 1
        if answer_map(self.view.answer()) != answer_map(fresh.relation):
            self.failed += 1
        self.blocks.append(time.perf_counter() - started)


def run(workload: Workload, tiny: bool, seed: int, seconds: float,
        trace: bool, out_dir: str, calibrator: Calibrator) -> Outcome:
    sizes = workload.sizes(tiny)
    notes: List[str] = []

    started = time.perf_counter()
    instance = build_instances(sizes["instances"], seed)["mm"]
    config = ExecutionConfig(**workload.config)
    t0 = time.perf_counter()
    view = api.materialize(instance, config)
    materialize_s = time.perf_counter() - t0
    stream = DeltaStream(instance, structure_rng(), random.Random(seed + 1))
    for size in (sizes["small_delta"], sizes["large_delta"]):  # warm-up
        view.apply(stream.batch(size))
    settle()
    setup_s = time.perf_counter() - started
    calibrator.end_setup()
    notes.append(f"N={instance.total_size} tuples in, OUT={view.out_size} rows maintained, "
                 f"block={sizes['block']}, |delta|={sizes['small_delta']}/"
                 f"{sizes['large_delta']}, config={workload.config}")

    recorder = Recorder()
    timed = _Stream(view, stream, config, sizes, recorder, calibrator)
    half = 0
    if not trace:
        repeat_until(timed.block, timed.blocks, seconds, sizes["min_blocks"])
    else:
        repeat_until(timed.block, timed.blocks, seconds / 2, sizes["load_blocks"])
        half = len(timed.small)
        with instrument(recorder):
            repeat_until(timed.block, timed.blocks, seconds / 2, 1)
            with recorder.span("planner.plan"):
                plan_query(instance, p=config.p, backend=config.backend)
    rss = peak_rss_mb()

    prefix = [r for block in timed.results[:sizes["load_blocks"]] for r in block]
    load_sum = sum(result.load for result in prefix)
    applies = len(timed.small) + len(timed.large)
    attempted = applies + timed.checks + 1
    failed = timed.failed
    if load_sum != sizes["load_sum"]:
        notes.append(f"FAILED: load_sum {load_sum} differs from the pinned "
                     f"{sizes['load_sum']}")
        failed += 1
    notes.append(f"{len(timed.blocks)} blocks: {len(timed.small)} small applies, "
                 f"{len(timed.large)} large, {timed.checks} sampled generations "
                 f"checked against recompute")

    if not trace:
        return attempted, failed, {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "load_sum": load_sum,
            "capacity_rps": applies / (sum(timed.small) + sum(timed.large)),
            "primary_ms_p50": 1000 * median(timed.small),
            "primary_ms_tail": 1000 * percentile(timed.small, workload.tail_percentile),
            "secondary_ms_p50": 1000 * median(timed.large),
        }, notes

    small_ops = recorder.select("ivm.apply", "small")
    op_ids = {s[0] for s in small_ops}
    values = executor_layers(recorder, op_ids, len(small_ops))
    apply_wall = sum(s[4] - s[3] for s in small_ops)
    executor = recorder.by_name(op_ids).get("ivm.executor", {"total": 0.0})["total"]
    untraced_p50 = median(timed.small[:half])
    values.update({
        "planner.plan_s": recorder.by_name().get("planner.plan", {"total": 0.0})["total"],
        "mpc.communication": sum(r.communication for r in prefix),
        "mpc.rounds": sum(r.rounds for r in prefix),
        "ivm.materialize_s": materialize_s,
        "ivm.apply_ms_p50.d64": 1000 * median(timed.large),
        "ivm.executor_share": (None if "ivm.executor" in recorder.missing
                               else executor / apply_wall),
        "ivm.mutate_instance_ms_p50": 1000 * median(timed.mutate),
        "ivm.recompute_ms_p50": 1000 * median(timed.recompute),
        "ivm.wall_advantage": median(timed.recompute) / untraced_p50,
        "ivm.maintenance_communication": sum(r.communication for r in prefix),
        "trace.overhead_share": median(timed.small[half:]) / untraced_p50 - 1.0,
    })
    recorder.write(f"{out_dir}/{workload.name}.spans.jsonl")
    return attempted, failed, values, notes
