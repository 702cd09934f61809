"""``service_read`` and ``service_write_mix``: traffic against ``repro serve``.

End-to-end numbers come only from the socket: a ``python -m repro serve``
child process, ``http.client`` connections with keep-alive, at most
``nproc`` of them.  Per-layer numbers come from replaying the same traffic
in this process through ``ServiceState.handle`` (no socket) under the span
recorder, plus ``GET /metrics`` of the child scraped before and after.

A *traffic* object draws operations from its seeded generator and checks
every response; the socket loops and the in-process replay share it.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro import api
from repro.config import ExecutionConfig
from repro.io import delta_to_json, instance_to_json
from repro.service import ServiceState

from inputs import (Calibrator, DeltaStream, Outcome, answer_map, build_instances,
                    median, peak_rss_mb, percentile, settle, structure_rng)
from spans import Recorder, executor_layers, instrument
from workloads import Workload

SRC = os.path.dirname(os.path.dirname(os.path.abspath(api.__file__)))


class Op(NamedTuple):
    kind: str  # query | explain | view | delta | register | materialize
    method: str
    path: str
    body: Optional[bytes]
    ref: Any  # what the traffic needs to check the response


class Reply(NamedTuple):
    status: int
    payload: bytes
    cache: Optional[str]


def _body(document: Dict[str, Any]) -> bytes:
    return json.dumps(document).encode("utf-8")


def _rows_map(rows: List[List[Any]]) -> Dict[Tuple[Any, ...], Any]:
    """The service's answer rows as ``{values: annotation}``."""
    def plain(value: Any) -> Any:
        if isinstance(value, dict) and "__tuple__" in value:
            return tuple(plain(v) for v in value["__tuple__"])
        return value

    return {tuple(plain(v) for v in row[:-1]): row[-1] for row in rows}


# -- the program under test ---------------------------------------------------


class Server:
    """A ``python -m repro serve`` child on an ephemeral port."""

    def __init__(self, config: Dict[str, Any], cache_bytes: Optional[int]) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet",
                   "--p", str(config["p"]), "--backend", config["backend"]]
        if cache_bytes is not None:
            command += ["--cache-bytes", str(cache_bytes)]
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        self.child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True)
        line = self.child.stdout.readline()
        match = re.search(r":(\d+)\s*$", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not announce a port: {line!r}")
        self.port = int(match.group(1))

    def rss_mb(self) -> float:
        return peak_rss_mb(str(self.child.pid))

    def stop(self) -> None:
        self.child.terminate()
        try:
            self.child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.child.kill()
            self.child.wait()
        self.child.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


class Client:
    """One keep-alive connection; a transport error reads as status 0."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def send(self, op: Op) -> Reply:
        headers = {"Content-Type": "application/json"} if op.body else {}
        try:
            self.conn.request(op.method, op.path, body=op.body, headers=headers)
            response = self.conn.getresponse()
            return Reply(response.status, response.read(),
                         response.getheader("X-Repro-Cache"))
        except (OSError, http.client.HTTPException):
            self.conn.close()
            return Reply(0, b"", None)

    def close(self) -> None:
        self.conn.close()


def _in_process(state: ServiceState) -> Callable[[Op], Reply]:
    def send(op: Op) -> Reply:
        status, _ctype, payload, headers = state.handle(op.method, op.path, op.body)
        return Reply(status, payload, headers.get("X-Repro-Cache"))

    return send


def _scrape(send: Callable[[Op], Reply]) -> Dict[str, float]:
    """``GET /metrics`` folded to ``name → sum over label sets``, plus
    ``name{status="429"}`` style keys for the one label the ledger reads."""
    reply = send(Op("metrics", "GET", "/metrics", None, None))
    totals: Dict[str, float] = {}
    for line in reply.payload.decode("utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name = series.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
        if 'status="429"' in series:
            totals[name + ":429"] = totals.get(name + ":429", 0.0) + float(value)
    return totals


# -- traffic ------------------------------------------------------------------


def _stratified(rng: random.Random, items: List[Any], weights: List[float],
                size: int) -> Iterator[Any]:
    """Endless draws from ``items``, in shuffled blocks of ``size`` where
    every item appears in proportion to its weight (largest remainders),
    so any two stretches of traffic were dealt the same work."""
    total = sum(weights)
    shares = [size * weight / total for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(items)), key=lambda i: shares[i] - counts[i],
                          reverse=True)
    for index in by_remainder[:size - sum(counts)]:
        counts[index] += 1
    block = [item for item, count in zip(items, counts) for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


class ReadTraffic:
    """Zipf-ranked draws over (instance, config) keys, a share of them as
    ``/explain``.  Connections share one object: requests leave in one
    global order, so the cache sees the same sequence on every run."""

    BLOCK = 200

    def __init__(self, keys: List[Dict[str, Any]], sizes: Dict[str, Any],
                 rng: random.Random) -> None:
        weights = [1.0 / (rank + 1) ** sizes["zipf"] for rank in range(len(keys))]
        self._keys = _stratified(rng, keys, weights, self.BLOCK)
        self._kinds = _stratified(
            rng, ["explain", "query"],
            [sizes["explain_share"], 1 - sizes["explain_share"]], self.BLOCK)
        self._lock = threading.Lock()
        self.misses = 0

    def next(self) -> Op:
        with self._lock:
            key, kind = next(self._keys), next(self._kinds)
        return Op(kind, "POST", f"/{kind}", key["body"], key)

    def check(self, op: Op, reply: Reply) -> bool:
        if reply.cache == "miss":
            with self._lock:
                self.misses += 1
        return reply.status == 200 and reply.payload == op.ref[op.kind]


class WriteTraffic:
    """Deltas, view reads and queries over the instances one connection
    owns.  Responses are held to the client's own count of generations;
    a ``/query`` answer (a from-scratch run on the mutated instance) must
    equal the view answer read at the same generation."""

    BLOCK = 20

    def __init__(self, names: List[str], streams: Dict[str, DeltaStream],
                 sizes: Dict[str, Any], rng: random.Random) -> None:
        self.names = names
        self.streams = streams
        self.delta_size = sizes["delta_size"]
        self._kinds = _stratified(rng, list(sizes["mix"]),
                                  list(sizes["mix"].values()), self.BLOCK)
        self._names = _stratified(rng, names, [1.0] * len(names), len(names))
        self.generation = {name: 0 for name in names}
        self.seen_view: Dict[str, Tuple[int, Any]] = {}
        self.writes = 0

    def next(self) -> Op:
        kind, name = next(self._kinds), next(self._names)
        if kind == "delta":
            batch = self.streams[name].batch(self.delta_size)
            body = _body({"delta": json.loads(delta_to_json(batch))})
            return Op("delta", "POST", f"/instances/{name}/deltas", body, name)
        if kind == "view":
            return Op("view", "GET", f"/views/v_{name}", None, name)
        return Op("query", "POST", "/query", _body({"instance": name}), name)

    def check(self, op: Op, reply: Reply) -> bool:
        if reply.status != 200:
            return False
        document = json.loads(reply.payload)
        name = op.ref
        if op.kind == "delta":
            self.generation[name] += 1
            self.writes += 1
            return (document["changes"] == self.delta_size
                    and len(document["views_refreshed"]) == 1)
        if op.kind == "view":
            view = document["view"]
            self.seen_view[name] = (self.generation[name], view["answer"])
            return view["generation"] == self.generation[name]
        seen = self.seen_view.get(name)
        return (seen is None or seen[0] != self.generation[name]
                or seen[1] == document["answer"])


# -- load generators ----------------------------------------------------------


class Samples:
    """What one connection saw: ``(kind, latency s, ok, cache header)``."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, float, bool, Optional[str]]] = []
        self.lags: List[float] = []

    def latencies(self, reads: bool, limit_s: Optional[float] = None) -> List[float]:
        """Latencies of the read (or write) operations; with a limit, a
        failed or refused one counts as ten times the limit."""
        return [
            latency if ok or limit_s is None else max(latency, 10 * limit_s)
            for kind, latency, ok, _cache in self.rows
            if (kind != "delta") == reads
        ]


def _closed_loop(port: int, traffics: List[Any], seconds: float,
                 enough: Callable[[], bool] = lambda: True) -> Tuple[Samples, float]:
    """One connection per traffic object, each sending its next request as
    soon as the previous one is answered, for ``seconds`` (and until
    ``enough()``)."""
    merged = Samples()
    lock = threading.Lock()
    started = time.perf_counter()

    def work(traffic: Any) -> None:
        client = Client(port)
        mine = Samples()
        while time.perf_counter() - started < seconds or not enough():
            op = traffic.next()
            sent = time.perf_counter()
            reply = client.send(op)
            latency = time.perf_counter() - sent
            mine.rows.append((op.kind, latency, traffic.check(op, reply), reply.cache))
        client.close()
        with lock:
            merged.rows.extend(mine.rows)

    threads = [threading.Thread(target=work, args=(t,)) for t in traffics]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return merged, time.perf_counter() - started


def _open_loop(port: int, traffic: Any, rate: float, seconds: float,
               connections: int) -> Samples:
    """Requests due at a fixed interval, whatever the replies do: request
    ``i`` is due at ``i / rate`` and timed from then, so a stall delays —
    and is charged to — every request due behind it."""
    ops = [traffic.next() for _ in range(max(1, int(rate * seconds)))]
    merged = Samples()
    lock = threading.Lock()
    cursor = iter(range(len(ops)))
    started = time.perf_counter() + 0.05

    def work() -> None:
        client = Client(port)
        mine = Samples()
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                break
            due = started + index / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            reply = client.send(ops[index])
            done = time.perf_counter()
            # check() is stateless for read traffic, so threads may share it.
            mine.rows.append((ops[index].kind, done - due,
                              traffic.check(ops[index], reply), reply.cache))
            mine.lags.append(sent - due)
        client.close()
        with lock:
            merged.rows.extend(mine.rows)
            merged.lags.extend(mine.lags)

    threads = [threading.Thread(target=work) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return merged


def _replay(send: Callable[[Op], Reply], traffic: Any, recorder: Recorder,
            calibrator: Calibrator, count: Optional[int],
            seconds: float) -> List[Tuple[Op, float, Reply]]:
    """``count`` operations (or as many as fit in ``seconds``) through
    ``send`` on this thread, each one a recorded operation."""
    rows = []
    started = time.perf_counter()
    while (len(rows) < count if count is not None
           else time.perf_counter() - started < seconds):
        if len(rows) % 8 == 0:
            calibrator.tick()
        op = traffic.next()
        with recorder.operation("service.handle", op.kind):
            t0 = time.perf_counter()
            reply = send(op)
            wall = time.perf_counter() - t0
        traffic.check(op, reply)
        rows.append((op, wall, reply))
    return rows


# -- the two workloads ---------------------------------------------------------


def _register_ops(instances: Dict[str, Any]) -> List[Op]:
    return [
        Op("register", "POST", "/instances",
           _body({"name": name, "instance": json.loads(instance_to_json(instance))}),
           name)
        for name, instance in instances.items()
    ]


def _must(reply: Reply, what: str) -> Reply:
    if reply.status != 200:
        raise RuntimeError(f"{what} failed with status {reply.status}: "
                           f"{reply.payload[:200]!r}")
    return reply


def _setup_state(workload: Workload, cache_bytes: Optional[int], registers: List[Op],
                 extra: List[Op], recorder: Recorder) -> Callable[[Op], Reply]:
    """A fresh in-process service with the workload's instances (and
    views) in place; set-up requests are recorded like any other."""
    kwargs = {} if cache_bytes is None else {"cache_bytes": cache_bytes}
    config = ExecutionConfig(p=workload.config["p"], backend=workload.config["backend"])
    send = _in_process(ServiceState(default_config=config, **kwargs))
    for op in registers + extra:
        with recorder.operation("service.handle", op.kind):
            _must(send(op), op.path)
    return send


def run(workload: Workload, tiny: bool, seed: int, seconds: float,
        trace: bool, out_dir: str, calibrator: Calibrator) -> Outcome:
    sizes = workload.sizes(tiny)
    notes: List[str] = []
    read_only = workload.kind == "service_read"
    connections = min(sizes["connections"], os.cpu_count() or 1)
    recorder = Recorder()
    p = workload.config["p"]

    started = time.perf_counter()
    instances = build_instances(sizes["instances"], seed)
    registers = _register_ops(instances)
    views = [] if read_only else [
        Op("materialize", "POST", "/views",
           _body({"name": f"v_{name}", "instance": name}), name)
        for name in instances]

    # The query set: expected bodies, load_sum and, for the read workload,
    # the working set its cache is sized against.  Read keys are answered
    # once in this process and held to the library answer; write keys come
    # from the socket at generation 0 and are held to the view answer.
    keys: List[Dict[str, Any]] = []
    failed = 0
    cache_bytes = None
    if read_only:
        state = _setup_state(workload, None, registers, [], recorder)
        for name, instance in instances.items():
            expected = answer_map(api.run_query(instance, ExecutionConfig(p=p)).relation)
            for config in sizes["configs"]:
                body = _body({"instance": name, "config": config})
                key = {"name": name, "body": body}
                for kind in ("query", "explain"):
                    key[kind] = _must(state(Op(kind, "POST", f"/{kind}", body, None)),
                                      kind).payload
                document = json.loads(key["query"])
                key["report"] = document["report"]
                if _rows_map(document["answer"]) != expected:
                    notes.append(f"FAILED: {name} {config} differs from the library answer")
                    failed += 1
                keys.append(key)
        structure_rng(1).shuffle(keys)  # which key is popular is structural
        cache_bytes = int(sizes["cache_share"] * sum(len(key["query"]) for key in keys))

    def read_traffic(salt: int) -> ReadTraffic:
        return ReadTraffic(keys, sizes, structure_rng(salt))

    def write_traffics(salt: int, parts: int) -> List[WriteTraffic]:
        """``parts`` traffics, each owning every ``parts``-th instance, over
        fresh delta streams (same salt, same sequence)."""
        streams = {
            name: DeltaStream(instance, structure_rng(salt + i),
                              random.Random(seed * 1000 + i))
            for i, (name, instance) in enumerate(instances.items())
        }
        names = list(instances)
        return [
            WriteTraffic(names[c::parts], streams, sizes, structure_rng(salt + 900 + c))
            for c in range(parts)
        ]

    opened: Optional[Samples] = None
    cold, warm = Samples(), Samples()
    final_checks: List[bool] = []
    with Server(workload.config, cache_bytes) as server:
        client = Client(server.port)
        for op in registers + views:
            _must(client.send(op), op.path)
        if not read_only:
            for name in instances:  # one of each read, generation 0
                seen = _must(client.send(Op("view", "GET", f"/views/v_{name}", None, name)), name)
                body = _body({"instance": name})
                key = {"name": name, "body": body, "query": _must(
                    client.send(Op("query", "POST", "/query", body, name)), name).payload}
                document = json.loads(key["query"])
                key["report"] = document["report"]
                if document["answer"] != json.loads(seen.payload)["view"]["answer"]:
                    notes.append(f"FAILED: {name}: view and /query disagree at generation 0")
                    failed += 1
                keys.append(key)
        settle()
        setup_s = time.perf_counter() - started
        calibrator.end_setup()
        reports = [key["report"] for key in keys]
        load_sum = sum(report["max_load"] for report in reports)
        notes.append(
            f"{len(instances)} instances, {len(keys)} query keys, working set "
            f"{sum(len(key['query']) for key in keys) / 1e6:.2f} MB, cache "
            f"{'default' if cache_bytes is None else f'{cache_bytes / 1e6:.2f} MB'}, "
            f"{connections} connections, server config={workload.config}")

        # Traced runs give the socket a quarter of the time per phase and
        # the in-process replay the rest.
        socket_seconds = seconds / 4 if trace else seconds
        with calibrator.background(0.25):
            if read_only:
                # Cold reads: every key once on the empty cache, least
                # popular first, so the loop starts with the popular ones in.
                for key in reversed(keys):
                    sent = time.perf_counter()
                    reply = client.send(Op("query", "POST", "/query", key["body"], key))
                    cold.rows.append(("query", time.perf_counter() - sent,
                                      reply.payload == key["query"], reply.cache))
                before = _scrape(client.send)
                mix = read_traffic(10)
                closed, elapsed = _closed_loop(
                    server.port, [mix] * connections, socket_seconds,
                    lambda: mix.misses >= sizes["min_misses"])
                if trace:
                    # Warm hits: the most popular key again and again, alone.
                    hot = Op("query", "POST", "/query", keys[0]["body"], keys[0])
                    for _ in range(sizes["warm_hits"]):
                        sent = time.perf_counter()
                        reply = client.send(hot)
                        warm.rows.append(("query", time.perf_counter() - sent,
                                          reply.payload == keys[0]["query"], reply.cache))
                    opened = _open_loop(server.port, read_traffic(20), sizes["open_rate"],
                                        socket_seconds, connections)
            else:
                before = _scrape(client.send)
                traffics = write_traffics(10, connections)
                closed, elapsed = _closed_loop(
                    server.port, traffics, socket_seconds,
                    lambda: trace or sum(t.writes for t in traffics) >= sizes["min_writes"])
                # Final generation: every view against a from-scratch library
                # run on the client's own shadow of the instance.
                for traffic in traffics:
                    for name in traffic.names:
                        reply = _must(client.send(
                            Op("view", "GET", f"/views/v_{name}", None, name)), name)
                        fresh = api.run_query(traffic.streams[name].instance(),
                                              ExecutionConfig(p=p))
                        final_checks.append(
                            _rows_map(json.loads(reply.payload)["view"]["answer"])
                            == answer_map(fresh.relation))
        after = _scrape(client.send)
        rss = server.rss_mb()
        client.close()

    rows = cold.rows + closed.rows + warm.rows + (opened.rows if opened else [])
    attempted = len(rows) + len(final_checks) + 1
    failed += sum(1 for row in rows if not row[2]) + final_checks.count(False)
    if load_sum != sizes["load_sum"]:
        notes.append(f"FAILED: load_sum {load_sum} differs from the pinned "
                     f"{sizes['load_sum']}")
        failed += 1
    moved = {name: after.get(name, 0.0) - before.get(name, 0.0) for name in after}
    refused = moved.get("repro_service_requests_total:429", 0.0)
    limit_s = sizes.get("latency_limit_ms", 0.0) / 1000 or None
    reads = closed.latencies(True, limit_s)
    writes = closed.latencies(False)
    notes.append(f"closed loop, {connections} connections: {len(closed.rows)} responses in "
                 f"{elapsed:.2f} s ({len(writes)} writes), {refused:g} refused (429); "
                 f"read ms {_percentiles(reads)}")
    if read_only:
        # The bounded read latencies are the misses under load and the cold
        # reads.  Hits are not: with two connections the median read waits for
        # the GIL behind a miss and lands on one or two 5 ms switch intervals,
        # and alone a hit is a 0.3 or 0.5 ms round trip depending on where the
        # scheduler put the two ends; both moved by half between runs of one
        # code.  The hit path is read per layer (service.http_ms_p50,
        # service.handle_hit_us_p50) and shows in capacity_rps.
        primary = [latency for _k, latency, _ok, cache in closed.rows if cache == "miss"]
        secondary = cold.latencies(True)
        notes.append(f"{len(primary)} misses in the closed loop; ms {_percentiles(primary)}")
        notes.append(f"{len(secondary)} cold reads, 1 connection; ms {_percentiles(secondary)}")
    else:
        primary, secondary = reads, writes

    if not trace:
        good = sum(1 for row in closed.rows if row[2])
        return attempted, failed, {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "load_sum": load_sum,
            "capacity_rps": good / elapsed,
            "primary_ms_p50": 1000 * median(primary),
            "primary_ms_tail": 1000 * percentile(primary, workload.tail_percentile),
            "secondary_ms_p50": 1000 * median(secondary),
        }, notes

    # -- per layer: the same traffic through ServiceState.handle -------------
    def traffic_for_replay() -> Any:
        return read_traffic(30) if read_only else write_traffics(30, 1)[0]

    plain = _setup_state(workload, cache_bytes, registers, views, recorder)
    untraced = _replay(plain, traffic_for_replay(), recorder, calibrator, None, seconds / 4)
    with instrument(recorder):
        traced_send = _setup_state(workload, cache_bytes, registers, views, recorder)
        traced = _replay(traced_send, traffic_for_replay(), recorder, calibrator,
                         len(untraced), 0.0)
    recorder.write(f"{out_dir}/{workload.name}.spans.jsonl")

    setup_kinds = ("register", "materialize")
    replayed = [s for s in recorder.select("service.handle") if s[2] not in setup_kinds]
    setup_spans = [s for s in recorder.select("service.handle") if s[2] in setup_kinds]

    def ops_of(kind: str, cache: Optional[str] = None) -> List[List[Any]]:
        """The traced operation spans of one kind (and cache outcome)."""
        return [span for span, (op, _wall, reply) in zip(replayed, traced)
                if op.kind == kind and (cache is None or reply.cache == cache)]

    def p50(spans: List[List[Any]], scale: float) -> float:
        return scale * median(s[4] - s[3] for s in spans) if spans else 0.0

    def inner(name: str, within: List[List[Any]], scale: float) -> Optional[float]:
        """Median duration of the ``name`` spans inside the given operations."""
        if name in recorder.missing:
            return None
        ids = {s[0] for s in within}
        return p50([s for s in recorder.select(name) if s[6] in ids], scale)

    misses = ops_of("query", "miss") if read_only else ops_of("query")
    hits = ops_of("query", "hit")
    deltas = ops_of("delta")
    replay_ids = {s[0] for s in replayed}
    values = executor_layers(recorder, replay_ids, len(replayed))
    miss_ms = p50(misses, 1000)
    execute_ms = inner("api.run_query", misses, 1000)
    plan_us = inner("planner.plan", misses, 1e6)
    # The cheap read: a warm /query hit, or a view read on the write mix.
    def cheap(kind: str, cache: Optional[str]) -> bool:
        return kind == "query" and cache == "hit" if read_only else kind == "view"

    socket_cheap = [latency for kind, latency, _ok, cache in (warm if read_only else closed).rows
                    if cheap(kind, cache)]
    direct_cheap = [wall for op, wall, reply in untraced if cheap(op.kind, reply.cache)]
    hit_total = moved.get("repro_service_cache_hits_total", 0.0)
    lookups = hit_total + moved.get("repro_service_cache_misses_total", 0.0)
    applied = moved.get("repro_service_delta_applied_total", 0.0)
    plan_total = recorder.by_name(replay_ids).get("planner.plan", {"total": 0.0})["total"]
    values.update({
        "planner.plan_s": (None if "planner.plan" in recorder.missing
                           else plan_total / len(replayed)),
        "mpc.communication": sum(report["total_communication"] for report in reports),
        "mpc.rounds": sum(report["rounds"] for report in reports),
        "service.http_ms_p50": (1000 * (median(socket_cheap) - median(direct_cheap))
                                if socket_cheap and direct_cheap else 0.0),
        "service.handle_hit_us_p50": p50(hits, 1e6),
        "service.handle_miss_ms_p50": miss_ms,
        "service.execute_ms_p50": execute_ms,
        "service.admission_plan_us_p50": plan_us if read_only else 0.0,
        "service.serialize_ms_p50": (None if execute_ms is None or plan_us is None
                                     else miss_ms - execute_ms - plan_us / 1000),
        "service.cache_hit_share": hit_total / lookups if lookups else 0.0,
        "service.cache_evictions": moved.get("repro_service_cache_evictions_total", 0.0),
        "service.executions": moved.get("repro_service_executions_total", 0.0),
        "service.rejected_share": refused / max(1, len(rows)),
        "service.explain_ms_p50": p50(ops_of("explain"), 1000),
        "service.register_ms_p50": p50([s for s in setup_spans if s[2] == "register"], 1000),
        "service.view_get_ms_p50": p50(ops_of("view"), 1000),
        "io.instance_from_json_ms_p50": inner("io.instance_from_json", setup_spans, 1000),
        "io.delta_from_json_us_p50": inner("io.delta_from_json", deltas, 1e6),
        "service.instance_digest_ms_p50": inner("service.instance_digest", deltas, 1000),
        "ivm.mutate_instance_ms_p50": inner("ivm.mutate_instance", deltas, 1000),
        "service.view_refresh_s": (moved.get("repro_service_view_refresh_seconds", 0.0)
                                   / applied if applied else 0.0),
        "ivm.materialize_s": p50([s for s in setup_spans if s[2] == "materialize"], 1.0),
        "trace.overhead_share": (sum(wall for _o, wall, _r in traced)
                                 / sum(wall for _o, wall, _r in untraced) - 1.0),
    })
    notes.append(f"in-process replay: {len(untraced)} requests untraced, the same "
                 f"{len(traced)} traced ({len(hits)} hits, {len(misses)} executed queries, "
                 f"{len(deltas)} deltas)")
    if opened is not None:
        timed = opened.latencies(True, limit_s)
        lag_p50 = median(opened.lags)
        notes.append(f"open loop: {len(timed)} requests at {sizes['open_rate']:g}/s, timed "
                     f"from the due time; ms {_percentiles(timed)}; lag p50 "
                     f"{1000 * lag_p50:.3f} ms")
        # A generator that is itself late on the median request (by more
        # than a tenth of the read, and a millisecond) measured its own
        # queue, not the service: refuse those latencies.
        valid = lag_p50 <= max(0.1 * median(timed), 0.001)
        if not valid:
            notes.append("WARNING: the generator ran late on the median request; "
                         "open-loop latencies withheld")
        values.update({
            "service.open_read_ms_p50": 1000 * median(timed) if valid else None,
            "service.open_read_ms_tail": (
                1000 * percentile(timed, workload.tail_percentile) if valid else None),
            "service.generator_lag_ms_p99": 1000 * percentile(opened.lags, 99),
        })
    return attempted, failed, values, notes


def _percentiles(latencies: List[float]) -> str:
    return " ".join(f"p{q}={1000 * percentile(latencies, q):.2f}"
                    for q in (25, 50, 75, 90, 99))
