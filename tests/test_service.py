"""End-to-end battery for the query service (ISSUE 9 acceptance).

Proves, against both the HTTP-free :class:`~repro.service.ServiceState`
and a live :class:`~repro.service.ReproServer` socket:

* concurrent requests execute under the admission cap (the controller's
  ``peak_active`` high-water mark never exceeds ``max_concurrent``);
* a warm cache hit returns *bit-identical* JSON to the cold run;
* re-registering an instance with different data invalidates its cached
  responses and forces a recompute;
* over-budget requests get 429 *without executing anything*;
* ``GET /metrics`` exposes the request/cache-hit/rejection counters in
  Prometheus 0.0.4 text format;
* the typed error hierarchy maps to HTTP statuses end to end
  (404/400/422/429).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.config import ExecutionConfig
from repro.io import instance_to_json
from repro.service import (
    AdmissionController,
    AdmissionRejected,
    ReproServer,
    ServiceState,
)
from repro.workloads import line_instance, planted_out_matmul, star_instance


def _body(document) -> bytes:
    return json.dumps(document).encode("utf-8")


def _register(state: ServiceState, name: str, instance) -> dict:
    status, _, payload, _ = state.handle(
        "POST", "/instances",
        _body({"name": name, "instance": json.loads(instance_to_json(instance))}),
    )
    assert status == 200, payload
    return json.loads(payload)["registered"]


def _query(state: ServiceState, document) -> "tuple[int, dict, bytes, dict]":
    status, _, payload, headers = state.handle("POST", "/query", _body(document))
    return status, json.loads(payload), payload, headers


# -- warm hits, invalidation, recompute --------------------------------------


def test_warm_hit_is_bit_identical_and_skips_execution():
    state = ServiceState()
    _register(state, "mm", planted_out_matmul(n=40, out=80))

    request = {"instance": "mm", "config": {"p": 4}}
    status1, doc1, cold_bytes, headers1 = _query(state, request)
    status2, doc2, warm_bytes, headers2 = _query(state, request)

    assert status1 == status2 == 200
    assert headers1["X-Repro-Cache"] == "miss"
    assert headers2["X-Repro-Cache"] == "hit"
    assert warm_bytes == cold_bytes  # byte-for-byte, not just equal JSON
    assert doc1["out_size"] == 80
    assert doc1["answer"] and doc1["report"] and doc1["trace"]["events"] > 0
    # exactly one execution happened
    assert state.admission.admitted == 1
    assert state.cache.stats()["hits"] == 1


def test_reregistering_same_data_keeps_the_cache_warm():
    state = ServiceState()
    instance = planted_out_matmul(n=30, out=60)
    first = _register(state, "mm", instance)
    _query(state, {"instance": "mm"})

    second = _register(state, "mm", instance)  # identical content
    assert second["digest"] == first["digest"]
    assert second["generation"] == 2
    _, _, _, headers = _query(state, {"instance": "mm"})
    assert headers["X-Repro-Cache"] == "hit"
    assert state.admission.admitted == 1


def test_mutating_an_instance_invalidates_and_forces_recompute():
    state = ServiceState()
    _register(state, "data", planted_out_matmul(n=30, out=60))
    _, doc_a, bytes_a, _ = _query(state, {"instance": "data"})

    # same name, different content: digest changes, cache entries die
    _register(state, "data", planted_out_matmul(n=30, out=120))
    status, doc_b, bytes_b, headers = _query(state, {"instance": "data"})
    assert status == 200
    assert headers["X-Repro-Cache"] == "miss"
    assert doc_b["digest"] != doc_a["digest"]
    assert doc_b["out_size"] > doc_a["out_size"]
    assert bytes_b != bytes_a
    assert state.admission.admitted == 2
    assert state.cache.stats()["invalidations"] >= 1


def test_drop_invalidates_cached_responses():
    state = ServiceState()
    instance = planted_out_matmul(n=30, out=60)
    _register(state, "mm", instance)
    _query(state, {"instance": "mm"})

    status, _, payload, _ = state.handle("DELETE", "/instances/mm", None)
    assert status == 200
    status, _, payload, _ = state.handle("POST", "/query",
                                         _body({"instance": "mm"}))
    assert status == 404

    # re-registering the *same* data does not resurrect the cache
    _register(state, "mm", instance)
    _, _, _, headers = _query(state, {"instance": "mm"})
    assert headers["X-Repro-Cache"] == "miss"


def test_compare_and_explain_endpoints():
    state = ServiceState()
    _register(state, "star", star_instance(3, 40, 40, 5, seed=1))

    status, _, payload, headers = state.handle(
        "POST", "/compare", _body({"instance": "star", "config": {"p": 4}})
    )
    document = json.loads(payload)
    assert status == 200
    assert document["baseline"] and document["ours"]
    assert document["speedup"] > 0
    # compare results cache independently of /query results
    status, _, payload2, headers2 = state.handle(
        "POST", "/compare", _body({"instance": "star", "config": {"p": 4}})
    )
    assert headers2["X-Repro-Cache"] == "hit"
    assert payload2 == payload

    status, _, payload, _ = state.handle(
        "POST", "/explain", _body({"instance": "star", "config": {"p": 4}})
    )
    plan = json.loads(payload)["plan"]
    assert status == 200
    assert plan["chosen"] if "chosen" in plan else plan  # plan renders
    # explain never executes and never touches the admission controller
    assert state.admission.admitted == 1


# -- admission control --------------------------------------------------------


def test_concurrent_queries_respect_the_admission_cap():
    state = ServiceState(max_concurrent=2, queue_depth=16)
    _register(state, "mm", planted_out_matmul(n=60, out=120))

    results = []
    lock = threading.Lock()

    def run(seed: int) -> None:
        # distinct server counts → distinct cache keys → every request executes
        status, _, payload, _ = state.handle(
            "POST", "/query",
            _body({"instance": "mm", "config": {"p": 2 + seed}}),
        )
        with lock:
            results.append((seed, status))

    threads = [threading.Thread(target=run, args=(seed,)) for seed in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)

    assert sorted(status for _, status in results) == [200] * 6
    stats = state.admission.stats()
    assert stats["admitted"] == 6
    assert 1 <= stats["peak_active"] <= 2
    assert stats["active"] == 0


def test_queue_full_rejects_instead_of_piling_up():
    controller = AdmissionController(max_concurrent=1, queue_depth=1)
    release = threading.Event()
    holding = threading.Event()

    def hold() -> None:
        with controller.slot():
            holding.set()
            release.wait(10)

    def wait_for_slot() -> None:
        with controller.slot(timeout=10):
            pass

    holder = threading.Thread(target=hold)
    holder.start()
    assert holding.wait(10)
    waiter = threading.Thread(target=wait_for_slot)
    waiter.start()
    deadline = time.time() + 10
    while controller.queued < 1 and time.time() < deadline:
        time.sleep(0.001)
    assert controller.queued == 1

    # cap reached, queue full: the third caller is rejected immediately
    with pytest.raises(AdmissionRejected) as caught:
        with controller.slot():
            pass  # pragma: no cover
    assert caught.value.reason == "queue-full"

    release.set()
    holder.join(10)
    waiter.join(10)
    assert controller.peak_active == 1
    assert controller.admitted == 2
    assert controller.rejections["queue-full"] == 1


def test_over_budget_request_gets_429_without_executing():
    state = ServiceState(load_budget=1)  # any real query predicts more
    _register(state, "mm", planted_out_matmul(n=40, out=80))

    status, _, payload, headers = state.handle(
        "POST", "/query", _body({"instance": "mm", "config": {"p": 4}})
    )
    document = json.loads(payload)
    assert status == 429
    assert document["error"] == "AdmissionRejected"
    assert headers["Retry-After"] == "1"
    # nothing ran: no slot was ever taken, nothing was cached
    assert state.admission.admitted == 0
    assert state.admission.rejections["load-budget"] == 1
    assert len(state.cache) == 0


def test_admission_predicts_the_algorithm_that_runs():
    """An ``auto`` request is judged on the prediction for the algorithm
    ``auto`` runs: here ``line`` predicts 51.4, over the budget of 40, while
    the cheapest candidate (``yannakakis``, 34.1) would have fit."""
    instance = line_instance(3, 30, 9, seed=10)
    state = ServiceState(load_budget=40, default_config=ExecutionConfig(p=4))
    _register(state, "line", instance)
    plan = state.handle("POST", "/explain", _body({"instance": "line"}))[2]
    candidates = {c["algorithm"]: c["predicted_load"]
                  for c in json.loads(plan)["plan"]["candidates"]}
    assert candidates["line"] > 40 > min(candidates.values())

    status, document, _, _ = _query(state, {"instance": "line"})
    assert status == 429 and document["error"] == "AdmissionRejected"
    assert state.admission.admitted == 0
    # naming the cheaper algorithm is admitted on its own prediction
    status, document, _, _ = _query(
        state, {"instance": "line", "config": {"algorithm": "yannakakis"}}
    )
    assert status == 200


def test_request_level_budget_tightens_the_server_budget():
    state = ServiceState()  # unlimited server budget
    _register(state, "mm", planted_out_matmul(n=40, out=80))

    status, _, payload, _ = state.handle(
        "POST", "/query", _body({"instance": "mm", "load_budget": 1})
    )
    assert status == 429
    assert state.admission.admitted == 0

    # without the request budget the same query runs fine
    status, _, _, _ = state.handle(
        "POST", "/query", _body({"instance": "mm"})
    )
    assert status == 200

    status, _, payload, _ = state.handle(
        "POST", "/query", _body({"instance": "mm", "load_budget": "cheap"})
    )
    assert status == 400  # budget must be a number


def test_no_budget_means_no_plan_and_no_statistics(monkeypatch):
    """Without a budget nobody judges the prediction, so a miss must not
    pay the planner's O(N) ANALYZE for it."""
    from repro.service import handlers

    def no_planning(*args, **kwargs):
        raise AssertionError("plan_query called with no budget in force")

    monkeypatch.setattr(handlers, "plan_query", no_planning)
    state = ServiceState()
    _register(state, "mm", planted_out_matmul(n=40, out=80))
    status, _, _, headers = _query(state, {"instance": "mm", "config": {"p": 4}})
    assert status == 200 and headers["X-Repro-Cache"] == "miss"
    assert state.statistics.entries == {}


# -- error mapping end to end -------------------------------------------------


def test_http_status_mapping_end_to_end():
    state = ServiceState()
    _register(state, "star", star_instance(3, 30, 30, 4, seed=0))

    def post(path, document):
        status, _, payload, _ = state.handle("POST", path, _body(document))
        return status, json.loads(payload)

    # 404: unregistered instance name
    status, document = post("/query", {"instance": "ghost"})
    assert (status, document["error"]) == (404, "UnknownInstanceError")

    # 400: unknown config key (observers are server-side concerns,
    # ``workers`` is not a service knob, and ``seed`` is no knob at all)
    for key, value in (("tracer", "yes"), ("workers", 1), ("seed", 0)):
        status, document = post("/query", {"instance": "star",
                                           "config": {key: value}})
        assert (status, document["error"]) == (400, "ConfigError")
        assert "unsupported config key" in document["message"]

    # 400: bad knob value, rejected eagerly at ExecutionConfig construction
    status, document = post("/query", {"instance": "star",
                                       "config": {"backend": "fortran"}})
    assert (status, document["error"]) == (400, "ConfigError")

    # 422: algorithm inapplicable to the query shape (matmul needs two
    # relations in matrix form; a 3-arm star has three)
    status, document = post("/query", {"instance": "star",
                                       "config": {"algorithm": "matmul"}})
    assert (status, document["error"]) == (422, "ApplicabilityError")

    # 404: unrouted path; 400: non-JSON body
    status, _, payload, _ = state.handle("GET", "/nope", None)
    assert status == 404
    status, _, payload, _ = state.handle("POST", "/query", b"{not json")
    assert status == 400

    # only the 422 request ever reached a slot (the shape check fires
    # inside the executor); nothing produced or cached a result
    assert state.admission.admitted == 1
    assert len(state.cache) == 0


@pytest.mark.parametrize("endpoint, config", [
    ("/query", {"p": "x"}),
    ("/query", {"p": 2.5}),
    ("/query", {"p": None}),
    ("/query", {"p": [4]}),
    ("/views", {"p": "x"}),
    ("/query", {"p": True}),
    ("/query", {"validate": "yes"}),
])
def test_malformed_config_values_are_400(endpoint, config):
    """A mistyped ``p`` or ``validate`` is the client's error: 400 before
    anything runs, never a 500 or a result cached under its own key."""
    state = ServiceState()
    _register(state, "mm", planted_out_matmul(n=20, out=40))
    status, _, payload, _ = state.handle("POST", endpoint, _body(
        {"name": "v", "instance": "mm", "config": config}))
    assert (status, json.loads(payload)["error"]) == (400, "ConfigError")
    assert state.admission.admitted == 0
    assert len(state.cache) == 0


# -- metrics -------------------------------------------------------------------


def test_metrics_exposes_prometheus_counters():
    state = ServiceState()
    _register(state, "mm", planted_out_matmul(n=30, out=60))
    state.handle("POST", "/query", _body({"instance": "mm"}))  # miss
    state.handle("POST", "/query", _body({"instance": "mm"}))  # hit
    state.handle("POST", "/query", _body({"instance": "ghost"}))  # 404
    # a fresh cache key (new p) so the budget check actually runs: 429
    state.handle("POST", "/query", _body({
        "instance": "mm", "config": {"p": 9}, "load_budget": 1,
    }))

    status, content_type, payload, _ = state.handle("GET", "/metrics", None)
    text = payload.decode("utf-8")
    assert status == 200
    assert content_type.startswith("text/plain; version=0.0.4")
    assert "# TYPE repro_service_requests_total counter" in text
    assert 'repro_service_requests_total{endpoint="query",status="200"} 2' in text
    assert 'repro_service_requests_total{endpoint="query",status="404"} 1' in text
    assert 'repro_service_cache_hits_total{endpoint="query"} 1' in text
    assert 'repro_service_cache_misses_total{endpoint="query"} 2' in text
    assert 'repro_service_executions_total{endpoint="query"} 1' in text
    assert 'repro_service_rejections_total{reason="load-budget"} 1' in text
    assert 'repro_service_errors_total{error="UnknownInstanceError"} 1' in text
    assert "repro_service_cache_entries 1" in text
    assert "repro_service_instances 1" in text
    # the IVM metric family renders even before any view/delta exists
    assert "repro_service_views 0" in text
    assert "# TYPE repro_service_delta_applied_total counter" in text
    assert "# TYPE repro_service_view_refresh_seconds counter" in text
    # execution meters from the shared registry ride along
    assert "repro_last_max_load" in text


# -- materialized views and deltas ---------------------------------------------


def _delta_document(batch) -> dict:
    from repro.io import delta_to_json
    return json.loads(delta_to_json(batch))


def _make_delta():
    from repro.ivm import DeltaBatch, insert
    return DeltaBatch((
        insert("R1", (901, 902), 2),
        insert("R2", (902, 903), 5),
    ))


def test_delta_endpoint_refreshes_views_and_invalidates_precisely():
    from repro.workloads import zipf_matmul

    state = ServiceState()
    _register(state, "m", zipf_matmul(60, 60, 10, seed=3))
    _register(state, "other", zipf_matmul(30, 30, 8, seed=5))
    _query(state, {"instance": "m"})
    _query(state, {"instance": "other"})

    status, _, payload, _ = state.handle(
        "POST", "/views", _body({"name": "v", "instance": "m"}))
    assert status == 200
    created = json.loads(payload)["view"]
    assert created["deltas_applied"] == 0

    status, _, payload, _ = state.handle(
        "POST", "/instances/m/deltas",
        _body({"delta": _delta_document(_make_delta())}))
    assert status == 200
    document = json.loads(payload)
    assert document["changes"] == 2
    assert document["cache_invalidated"] is True
    assert document["generation"] == 2
    [refresh] = document["views_refreshed"]
    assert refresh["view"] == "v"
    assert refresh["runs"] >= 1

    # only the mutated instance's cache entries died
    _, _, _, headers = _query(state, {"instance": "m"})
    assert headers["X-Repro-Cache"] == "miss"
    _, _, _, headers = _query(state, {"instance": "other"})
    assert headers["X-Repro-Cache"] == "hit"

    # the refreshed view's answer is bit-identical to the fresh recompute
    status, _, payload, _ = state.handle("GET", "/views/v", None)
    view_doc = json.loads(payload)["view"]
    _, query_doc, _, _ = _query(state, {"instance": "m"})
    assert view_doc["answer"] == query_doc["answer"]
    assert view_doc["deltas_applied"] == 1
    assert view_doc["report"]["maintenance_load"] >= 1

    # metrics counted the delta and the refresh wall-clock
    _, _, payload, _ = state.handle("GET", "/metrics", None)
    text = payload.decode("utf-8")
    assert 'repro_service_delta_applied_total{instance="m"} 1' in text
    assert "repro_service_views 1" in text
    assert "repro_service_view_refresh_seconds" in text


def test_delta_digest_is_the_digest_of_the_content():
    """The delta path moves the digest in O(|Δ|); it must land where a
    from-scratch registration of the same content lands."""
    from repro.data.query import Instance
    from repro.data.relation import Relation
    from repro.ivm import DeltaBatch, delete, insert
    from repro.workloads import zipf_matmul

    def post_delta(*changes) -> dict:
        status, _, payload, _ = state.handle(
            "POST", "/instances/m/deltas",
            _body({"delta": _delta_document(DeltaBatch(changes))}))
        assert status == 200, payload
        return json.loads(payload)

    state = ServiceState()
    original = zipf_matmul(40, 40, 6, seed=2)
    registered = _register(state, "m", original)
    (gone, weight), (kept, kept_weight) = list(original.relation("R1"))[:2]

    moved = post_delta(delete("R1", gone), insert("R1", (801, 802), 3),
                       insert("R1", kept, 2))
    assert moved["cache_invalidated"] is True
    assert moved["digest"] != registered["digest"]
    assert _query(state, {"instance": "m"})[3]["X-Repro-Cache"] == "miss"

    # equal content, rows in another order, registered from scratch
    mutated = state.registry.get("m").instance
    reordered = Instance(mutated.query, {
        name: Relation(name, relation.schema, reversed(list(relation)))
        for name, relation in mutated.relations.items()
    }, mutated.semiring)
    assert _register(state, "m", reordered)["digest"] == moved["digest"]
    assert _query(state, {"instance": "m"})[3]["X-Repro-Cache"] == "hit"

    # a batch that leaves every row as it was invalidates nothing
    same = post_delta(delete("R1", (801, 802)), insert("R1", (801, 802), 3))
    assert same["cache_invalidated"] is False
    assert same["digest"] == moved["digest"]
    assert _query(state, {"instance": "m"})[3]["X-Repro-Cache"] == "hit"

    # and the way back ends on the digest it started from
    back = post_delta(delete("R1", (801, 802)), insert("R1", gone, weight),
                      delete("R1", kept), insert("R1", kept, kept_weight))
    assert back["digest"] == registered["digest"]


def test_unsupported_delta_maps_to_422():
    from repro.ivm import DeltaBatch, delete
    from repro.workloads import line_instance
    from repro.semiring import TROPICAL_MIN_PLUS
    from repro.data.query import Instance

    state = ServiceState()
    base = line_instance(3, 30, 8, seed=2)
    tropical = Instance(
        base.query,
        {name: rel for name, rel in base.relations.items()},
        TROPICAL_MIN_PLUS,
    )
    _register(state, "trop", tropical)
    key = next(iter(tropical.relation("R1").tuples))
    status, _, payload, _ = state.handle(
        "POST", "/instances/trop/deltas",
        _body({"delta": _delta_document(DeltaBatch((delete("R1", key),)))}))
    assert status == 422
    assert json.loads(payload)["error"] == "UnsupportedDeltaError"


def test_delta_endpoint_rejects_malformed_documents():
    state = ServiceState()
    _register(state, "m", planted_out_matmul(n=20, out=40))
    status, _, payload, _ = state.handle(
        "POST", "/instances/m/deltas", _body({"delta": {"format": "nope"}}))
    assert status == 400
    status, _, payload, _ = state.handle(
        "POST", "/instances/m/deltas", _body({}))
    assert status == 400
    status, _, _, _ = state.handle(
        "POST", "/instances/ghost/deltas",
        _body({"delta": _delta_document(_make_delta())}))
    assert status == 404


def test_dropping_or_replacing_an_instance_drops_its_views():
    from repro.workloads import zipf_matmul

    state = ServiceState()
    _register(state, "m", zipf_matmul(40, 40, 9, seed=7))
    state.handle("POST", "/views", _body({"name": "v", "instance": "m"}))

    # wholesale replacement with different data leaves no stale view
    _register(state, "m", zipf_matmul(40, 40, 9, seed=8))
    status, _, payload, _ = state.handle("GET", "/views", None)
    assert json.loads(payload)["views"] == []

    state.handle("POST", "/views", _body({"name": "v2", "instance": "m"}))
    status, _, payload, _ = state.handle("DELETE", "/instances/m", None)
    assert "v2" in json.loads(payload)["views_dropped"]
    status, _, _, _ = state.handle("GET", "/views/v2", None)
    assert status == 404


# -- the live HTTP server ------------------------------------------------------


def _http(method: str, url: str, document=None):
    data = _body(document) if document is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def test_live_server_round_trip():
    """Sockets, threads, real HTTP: register → query ×2 → metrics → drop."""
    state = ServiceState(max_concurrent=2)
    with ReproServer(state) as server:
        status, _, payload = _http("GET", f"{server.url}/healthz")
        assert status == 200
        assert json.loads(payload)["status"] == "ok"

        instance = line_instance(3, 40, 12, seed=2)
        status, _, payload = _http("POST", f"{server.url}/instances", {
            "name": "line",
            "instance": json.loads(instance_to_json(instance)),
        })
        assert status == 200
        digest = json.loads(payload)["registered"]["digest"]

        request = {"instance": "line", "config": {"p": 4}}
        status1, headers1, cold = _http("POST", f"{server.url}/query", request)
        status2, headers2, warm = _http("POST", f"{server.url}/query", request)
        assert status1 == status2 == 200
        assert headers1["X-Repro-Cache"] == "miss"
        assert headers2["X-Repro-Cache"] == "hit"
        assert warm == cold
        assert json.loads(cold)["digest"] == digest

        status, headers, payload = _http("GET", f"{server.url}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert 'repro_service_cache_hits_total{endpoint="query"} 1' \
            in payload.decode("utf-8")

        status, _, payload = _http("GET", f"{server.url}/instances")
        assert [e["name"] for e in json.loads(payload)["instances"]] == ["line"]

        status, _, _ = _http("DELETE", f"{server.url}/instances/line")
        assert status == 200
        status, _, _ = _http("POST", f"{server.url}/query", request)
        assert status == 404


def test_live_server_concurrent_clients_under_cap():
    state = ServiceState(max_concurrent=2, queue_depth=16)
    with ReproServer(state) as server:
        instance = planted_out_matmul(n=50, out=100)
        _http("POST", f"{server.url}/instances", {
            "name": "mm", "instance": json.loads(instance_to_json(instance)),
        })

        statuses = []
        lock = threading.Lock()

        def client(seed: int) -> None:
            status, _, _ = _http("POST", f"{server.url}/query", {
                "instance": "mm", "config": {"p": 2 + seed},
            })
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=client, args=(seed,))
                   for seed in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        assert statuses == [200] * 5
        stats = state.admission.stats()
        assert stats["admitted"] == 5
        assert stats["peak_active"] <= 2


def test_response_leaves_in_one_write_on_a_nodelay_socket():
    """Headers and body in separate writes on a Nagle socket cost a 40 ms
    delayed-ACK stall per small response."""
    import socket
    import statistics

    from repro.service.server import _Handler

    writes, nodelay = [], []

    class Recording(_Handler):
        def setup(self):
            super().setup()
            nodelay.append(self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))
            write = self.wfile.raw.write  # what a flush of the buffer calls

            def recording(data):
                writes.append(len(data))
                return write(data)

            self.wfile.raw.write = recording

    with ReproServer(ServiceState()) as server:
        server._server.RequestHandlerClass = Recording
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        latencies = []
        for _ in range(20):
            started = time.perf_counter()
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200 and response.read()
            latencies.append(time.perf_counter() - started)
        connection.close()
    assert nodelay == [1]
    assert len(writes) == 20  # one per response
    assert statistics.median(latencies) < 0.020  # the stall is 0.040


def _raw_request(port: int, head: str) -> "tuple[int, dict, dict, bytes]":
    """Send a request head verbatim (no body) and read until the server
    closes: ``(status, headers, JSON body, whatever came after it)``."""
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head.encode("ascii"))
        received = b""
        while chunk := sock.recv(65536):  # b"" = closed by the server
            received += chunk
    top, _, rest = received.partition(b"\r\n\r\n")
    status_line, *header_lines = top.decode("ascii").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    body = rest[:int(headers["Content-Length"])]
    return (int(status_line.split()[1]), headers, json.loads(body),
            rest[len(body):])


@pytest.mark.parametrize("announced, status, error", [
    ("-1", 400, "ConfigError"),        # was: rfile.read(-1) blocks the thread
    ("twelve", 400, "ConfigError"),    # was: ValueError drops the connection
    ("1_0", 400, "ConfigError"),       # int() would take it
    ("9" * 5000, 400, "ConfigError"),  # int() would raise on it
    (str(64 * 1024 * 1024 + 1), 413, "PayloadTooLarge"),
])
def test_bad_content_length_is_refused_without_reading(announced, status, error):
    state = ServiceState()
    with ReproServer(state) as server:
        got, headers, document, trailing = _raw_request(
            server.port,
            f"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {announced}\r\n\r\n")
    assert got == status == document["status"]
    assert document["error"] == error
    # the body was never read, so the connection cannot carry another request
    assert headers["Connection"] == "close" and trailing == b""
    assert f'repro_service_requests_total{{endpoint="query",status="{status}"}} 1' \
        in state.metrics.render()
