"""Concurrent histories against the service: every read equals a serial replay.

Threads mix single-change deltas, ``GET /views/<v>`` and ``POST /query``
over two registered instances, and a delta stream races a ``DELETE``.  The
recorded history is checked against a serial replay of the committed
deltas in ``generation`` order:

* every response is 200 (404 only for an operation after the drop);
* each instance's final ``R1`` holds exactly the committed changes;
* each view read equals a from-scratch ``run_query`` on the state at the
  generation it reports, and each query read one on the state whose digest
  it reports;
* the dropped name stays dropped.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro import api
from repro.config import ExecutionConfig
from repro.io import delta_to_json, instance_to_json
from repro.ivm import DeltaBatch, DeltaChange, delete, insert, mutate_instance
from repro.service import ServiceState
from repro.workloads import zipf_matmul

THREADS = 4
DELTAS_PER_THREAD = 12
CONFIG = ExecutionConfig(p=4)


class Record(NamedTuple):
    kind: str  # delta | view | query
    name: str
    status: int
    document: Dict[str, Any]
    change: Optional[DeltaChange]


def _call(state: ServiceState, method: str, path: str,
          document: Any = None) -> Tuple[int, Dict[str, Any]]:
    body = None if document is None else json.dumps(document).encode("utf-8")
    status, _, payload, _ = state.handle(method, path, body)
    return status, json.loads(payload)


def _post_delta(state: ServiceState, name: str, change: DeltaChange):
    delta = json.loads(delta_to_json(DeltaBatch((change,))))
    return _call(state, "POST", f"/instances/{name}/deltas", {"delta": delta})


def _register(state: ServiceState, name: str, instance) -> str:
    """Register ``name`` with a view ``v_<name>``; returns its digest."""
    status, document = _call(state, "POST", "/instances", {
        "name": name, "instance": json.loads(instance_to_json(instance))})
    assert status == 200 and document["registered"]["generation"] == 1
    digest = document["registered"]["digest"]
    status, document = _call(state, "POST", "/views",
                             {"name": f"v_{name}", "instance": name})
    assert status == 200, document
    return digest


def _rows(rows: List[List[Any]]) -> Dict[Tuple[Any, ...], Any]:
    return {tuple(row[:-1]): row[-1] for row in rows}


@contextmanager
def _interleaving() -> Iterator[None]:
    """Switch threads often, so races show within a few dozen requests."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _run(workers) -> None:
    threads = [threading.Thread(target=worker, daemon=True) for worker in workers]
    with _interleaving():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "a worker hung"


def _plans(bases, rng: random.Random) -> List[List[Tuple[str, DeltaChange]]]:
    """Each thread's single-change deltas: inserts of fresh tuples and
    deletes of original ones, disjoint across threads."""
    deletable = {name: list(instance.relation("R1")) for name, instance in bases.items()}
    for rows in deletable.values():
        rng.shuffle(rows)
    plans = []
    for thread in range(THREADS):
        plan = []
        for step in range(DELTAS_PER_THREAD):
            name = "ab"[(thread + step) % 2]
            if step % 3 == 2:
                plan.append((name, delete("R1", deletable[name].pop()[0])))
            else:
                fresh = (10_000 + 100 * thread + step, rng.randrange(10))
                plan.append((name, insert("R1", fresh, 1 + step % 3)))
        plans.append(plan)
    return plans


def test_concurrent_deltas_views_and_queries_replay_serially():
    rng = random.Random(3)
    state = ServiceState(max_concurrent=THREADS, default_config=CONFIG)
    bases = {name: zipf_matmul(60, 60, 10, seed=seed) for seed, name in enumerate("ab")}
    registered = {name: _register(state, name, instance) for name, instance in bases.items()}
    plans = _plans(bases, rng)
    history: List[Record] = []
    barrier = threading.Barrier(THREADS)

    def worker(plan) -> None:
        barrier.wait(timeout=60)
        for step, (name, change) in enumerate(plan):
            history.append(Record("delta", name, *_post_delta(state, name, change), change))
            history.append(Record("view", name, *_call(state, "GET", f"/views/v_{name}"), None))
            if step % 4 == 1:
                history.append(Record("query", name, *_call(
                    state, "POST", "/query", {"instance": name}), None))

    _run([lambda plan=plan: worker(plan) for plan in plans])

    failed = [(r.kind, r.name, r.status, r.document.get("message"))
              for r in history if r.status != 200]
    assert not failed, failed

    listed = {entry["name"]: entry
              for entry in _call(state, "GET", "/instances")[1]["instances"]}
    for name, base in bases.items():
        mine = [record for record in history if record.name == name]
        committed = sorted(((r.document["generation"], r.document["digest"], r.change)
                            for r in mine if r.kind == "delta"), key=lambda c: c[0])
        assert [g for g, _, _ in committed] == list(range(2, 2 + len(committed)))

        # Serial replay in generation order: the state behind every generation.
        states = {1: base}
        digests = {registered[name]: 1}
        for generation, digest, change in committed:
            states[generation] = mutate_instance(states[generation - 1],
                                                 DeltaBatch((change,)))
            digests[digest] = generation
        inserted = sum(1 for _, _, change in committed if change.op == "insert")
        final_size = len(base.relation("R1")) + inserted - (len(committed) - inserted)
        assert listed[name]["relations"]["R1"] == final_size
        assert len(states[len(states)].relation("R1")) == final_size
        assert listed[name]["digest"] == committed[-1][1]

        answers: Dict[int, Dict[Tuple[Any, ...], Any]] = {}

        def answer_at(generation: int) -> Dict[Tuple[Any, ...], Any]:
            if generation not in answers:
                result = api.run_query(states[generation], CONFIG)
                answers[generation] = dict(result.relation.tuples)
            return answers[generation]

        for record in mine:
            if record.kind == "view":
                view = record.document["view"]
                # The view was materialized at generation 1 and has seen
                # every delta since: its own count names the state.
                assert _rows(view["answer"]) == answer_at(1 + view["generation"])
            elif record.kind == "query":
                generation = digests[record.document["digest"]]
                assert _rows(record.document["answer"]) == answer_at(generation)
        _, final = _call(state, "GET", f"/views/v_{name}")
        assert _rows(final["view"]["answer"]) == answer_at(len(states))


def test_no_cache_entry_outlives_its_digest():
    """A query that ran on an entry a concurrent delta retired puts its body
    after the delta invalidated that digest; the put re-reads the name and
    drops the body, so every cached body belongs to a registered digest."""
    state = ServiceState(max_concurrent=THREADS, default_config=CONFIG)
    bases = {name: zipf_matmul(60, 60, 10, seed=seed) for seed, name in enumerate("ab")}
    for name, instance in bases.items():
        _register(state, name, instance)
    statuses: List[int] = []
    barrier = threading.Barrier(THREADS)

    def worker(plan) -> None:
        barrier.wait(timeout=60)
        for name, change in plan:
            statuses.append(_post_delta(state, name, change)[0])
            statuses.append(_call(state, "POST", "/query", {"instance": name})[0])

    _run([lambda plan=plan: worker(plan) for plan in _plans(bases, random.Random(5))])
    assert set(statuses) == {200}
    live = {(entry.name, entry.digest) for entry in state.registry.entries()}
    cached = {tag for tag, _body in state.cache._entries.values()}
    assert cached <= live, f"{len(cached - live)} of {len(cached)} cached digests retired"


def test_a_delta_racing_a_drop_never_resurrects_the_name():
    """Writers delete disjoint rows until their first 404 while one thread
    drops the name: each writer sees 200s then one 404, and nothing
    re-registers the name."""
    instance = zipf_matmul(60, 60, 10, seed=7)
    rows = [values for values, _weight in instance.relation("R1")]
    for _round in range(20):
        state = ServiceState(max_concurrent=2, default_config=CONFIG)
        _register(state, "c", instance)
        statuses: List[List[int]] = [[] for _ in range(3)]
        dropped: List[int] = []
        started = threading.Event()

        def writer(mine: List[int], share: List[Tuple[Any, ...]]) -> None:
            for values in share:
                started.set()
                mine.append(_post_delta(state, "c", delete("R1", values))[0])
                if mine[-1] != 200:
                    break

        def dropper() -> None:
            started.wait(timeout=60)
            dropped.append(_call(state, "DELETE", "/instances/c")[0])

        _run([lambda t=t: writer(statuses[t], rows[t::3]) for t in range(3)] + [dropper])
        assert dropped == [200]
        for mine in statuses:
            assert mine[-1] == 404 and set(mine[:-1]) <= {200}, mine
        assert _call(state, "GET", "/instances")[1]["instances"] == []
        assert _call(state, "GET", "/views/v_c")[0] == 404
        assert _post_delta(state, "c", delete("R1", rows[-1]))[0] == 404
        assert not state.registry._writers  # no lock outlives its name
