"""Input generation and the small helpers every workload shares.

Only this module turns a seed into inputs; the program receives the
generated instances, request bodies and delta batches, never the seed.
"""

from __future__ import annotations

import gc
import random
import statistics
import threading
import time
from contextlib import contextmanager
from statistics import median
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.workloads as generators
from repro.data.query import Instance
from repro.data.relation import Relation
from repro.ivm import DeltaBatch, delete, insert
from repro.semiring import COUNTING
from repro.workloads import MATMUL_QUERY

from workloads import STRUCTURE_SEED

__all__ = [
    "Outcome", "build_instances", "near_diagonal_matmul", "DeltaStream",
    "structure_rng", "repeat_until", "percentile", "median", "answer_map",
    "peak_rss_mb", "settle", "Calibrator", "CALIBRATION_REF_S",
]

#: What a workload's ``run`` returns: attempted, failed, metric values
#: (None = could not be measured), lines for the human reader.
Outcome = Tuple[int, int, Dict[str, Optional[float]], List[str]]


def near_diagonal_matmul(n: int, weight_fn: Callable[[], int]) -> Instance:
    """Counting matmul R1(i, i) ⋈ R2(i, i+1): every join value has O(1)
    neighbours, so a delta's neighbourhood never grows with N (the
    BENCH_ivm family)."""
    r1 = Relation("R1", ("A", "B"))
    r2 = Relation("R2", ("B", "C"))
    for i in range(n):
        r1.add((i, i), weight_fn())
        r2.add((i, (i + 1) % n), weight_fn())
    return Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, COUNTING)


def build_instances(specs: Sequence[Tuple[str, str, Dict[str, Any]]],
                    seed: int) -> Dict[str, Instance]:
    """Instantiate a workload's ``instances`` table; the seed draws the
    annotation weights, the table fixes everything else."""
    rng = random.Random(seed)

    def weight() -> int:
        return rng.randrange(1, 10)

    built: Dict[str, Instance] = {}
    for label, generator, kwargs in specs:
        make = (near_diagonal_matmul if generator == "near_diagonal_matmul"
                else getattr(generators, generator))
        built[label] = make(weight_fn=weight, **kwargs)
    return built


class DeltaStream:
    """Valid delta batches against one evolving instance.

    Touches only the two relations that carry an output attribute (the
    first and last of the query): an insert copies a live tuple and swaps
    its output-side value for a fresh one, a delete removes a live tuple.
    Inserts and deletes alternate, so the instance keeps its size.  The
    stream keeps its own shadow of the live tuples (``relations``), which
    is also the oracle's input for recompute checks.
    """

    def __init__(self, instance: Instance, positions: random.Random,
                 weights: random.Random) -> None:
        self.query = instance.query
        self.semiring = instance.semiring
        self.relations: Dict[str, Dict[Tuple[Any, ...], Any]] = {
            name: dict(rel.tuples) for name, rel in instance.relations.items()
        }
        output = self.query.output
        #: (relation name, index of its output attribute)
        self._ends = [
            (name, 0 if attrs[0] in output else 1)
            for name, attrs in self.query.relations
            if attrs[0] in output or attrs[1] in output
        ]
        self._live = {name: list(self.relations[name]) for name, _ in self._ends}
        self._positions = positions
        self._weights = weights
        self._fresh = 0

    def batch(self, size: int) -> DeltaBatch:
        changes = []
        touched = set()
        for i in range(size):
            name, out_index = self._ends[i % len(self._ends)]
            live = self._live[name]
            while True:
                slot = self._positions.randrange(len(live))
                key = live[slot]
                if (name, key) not in touched:
                    break
            if (i // len(self._ends)) % 2 == 0:
                self._fresh += 1
                values = list(key)
                # Same type as the value it replaces: columns stay sortable.
                values[out_index] = (
                    10 ** 9 + self._fresh if isinstance(key[out_index], int)
                    else f"f{self._fresh}")
                new_key = tuple(values)
                weight = self._weights.randrange(1, 10)
                changes.append(insert(name, new_key, weight))
                self.relations[name][new_key] = weight
                live.append(new_key)
                touched.add((name, new_key))
            else:
                changes.append(delete(name, key))
                del self.relations[name][key]
                live[slot] = live[-1]
                live.pop()
            touched.add((name, key))
        return DeltaBatch(tuple(changes))

    def instance(self) -> Instance:
        """The shadow state as a fresh instance (recompute input)."""
        return Instance(
            self.query,
            {
                name: Relation(name, attrs, list(self.relations[name].items()))
                for name, attrs in self.query.relations
            },
            self.semiring,
        )


#: CPU seconds one calibration tick takes at reference machine speed.
CALIBRATION_REF_S = 0.020


class Calibrator:
    """Tracks how fast the machine is while a run lasts.

    This sandbox's speed drifts by up to 40 % over tens of seconds with no
    steal time reported, which no amount of repetition inside a 12 s run
    averages out.  A tick is a fixed pure-Python loop timed in thread CPU
    seconds (so waiting for a core or the GIL does not count); workloads
    tick in the gaps between timed operations, and ``run.py`` reports
    every time multiplied by ``speed`` = reference tick / median tick,
    i.e. at reference machine speed.  Set-up and the timed section are
    scaled by their own ticks.
    """

    def __init__(self) -> None:
        self.ticks: List[float] = []
        self.split = 0
        self.tick()  # the first one pays for cold caches: not kept
        self.ticks.clear()
        self.tick()

    def tick(self) -> None:
        started = time.thread_time()
        total = 0
        table: Dict[int, Tuple[int, int]] = {}
        for i in range(150000):
            total += i * i
            table[i & 4095] = (total, i)
        self.ticks.append(time.thread_time() - started)

    def end_setup(self) -> None:
        self.tick()
        self.split = len(self.ticks)

    def speed(self, setup: bool) -> float:
        ticks = self.ticks[:self.split] if setup else self.ticks[self.split:]
        return CALIBRATION_REF_S / statistics.median(ticks)

    @contextmanager
    def background(self, interval: float) -> Iterator[None]:
        """Tick every ``interval`` seconds on a thread of its own, for
        sections where this process only waits on sockets."""
        stop = threading.Event()

        def work() -> None:
            while not stop.wait(interval):
                self.tick()

        thread = threading.Thread(target=work)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()


def settle() -> None:
    """End of set-up: collect, then move everything still alive (inputs,
    references, imported modules) out of the collector's way, so a full
    collection in the timed section walks the program's new objects and
    not the benchmark's own.  Without this, where a full collection
    happened to land moved a 3 s round by up to a second."""
    gc.collect()
    gc.freeze()


def structure_rng(salt: int = 0) -> random.Random:
    return random.Random(STRUCTURE_SEED * 1000 + salt)


def repeat_until(step: Callable[[], None], walls: List[float], seconds: float,
                 minimum: int) -> None:
    """Call ``step`` (which appends its wall time to ``walls``) at least
    ``minimum`` times and until ``seconds`` are used up; a step that would
    mostly overshoot is not started."""
    first = len(walls)
    while True:
        done = walls[first:]
        if len(done) >= minimum and sum(done) + 0.5 * median(done) >= seconds:
            return
        step()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` = 100 is the maximum)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def answer_map(relation: Relation) -> Dict[Tuple[Any, ...], Any]:
    """Answer keyed by values in sorted-schema order (what the service's
    rows and the executor's relation agree on)."""
    order = sorted(range(len(relation.schema)), key=lambda i: relation.schema[i])
    return {
        tuple(values[i] for i in order): annotation
        for values, annotation in relation
    }


def peak_rss_mb(pid: str = "self") -> float:
    """``VmHWM`` of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
