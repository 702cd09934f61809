"""Endpoint logic, HTTP-free: a :class:`ServiceState` plus pure handlers.

The HTTP layer (:mod:`repro.service.server`) is a dumb shell: it parses
the request line and body, calls :meth:`ServiceState.handle`, and writes
back whatever ``(status, content_type, body, headers)`` it gets.  All the
actual behaviour lives here, so tests can drive the full service without
opening a socket — and so cached bodies are the *exact* bytes a cold
execution produced.

Endpoints:

====================  =======================================================
``GET /healthz``       liveness probe
``GET /metrics``       Prometheus 0.0.4 text exposition
``GET /instances``     registered-instance summaries
``POST /instances``    register ``{"name": …, "instance": <instance JSON>}``
``DELETE /instances/<name>``  unregister (drops dependent views)
``POST /instances/<name>/deltas``  apply ``{"delta": <repro-delta/v1>}``:
                       mutate the instance, invalidate only stale cache
                       entries, refresh dependent views incrementally
``GET /views``         materialized-view summaries
``POST /views``        materialize ``{"name": …, "instance": …, "config"?}``
``GET /views/<name>``  one view's summary plus its maintained answer
``DELETE /views/<name>``  drop a view
``POST /query``        execute ``{"instance": …, "config": {…}}``
``POST /compare``      baseline vs configured algorithm, both reports
``POST /explain``      the planner's candidate table, no execution
====================  =======================================================

Failures map deterministically from the typed hierarchy in
:mod:`repro.errors` to HTTP statuses via :data:`ERROR_STATUS`.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from itertools import chain
from typing import Any, Dict, List, Optional, Tuple

from .. import api
from ..config import ExecutionConfig
from ..data.query import Instance
from ..errors import (
    ApplicabilityError,
    ConfigError,
    FaultError,
    MPCError,
    ReproError,
    UnsupportedDeltaError,
)
from ..io import delta_from_json, instance_from_json, jsonify
from ..ivm import mutate_instance
from ..obs import RingBufferSink, Tracer, observe_report
from ..obs.registry import MetricsRegistry
from ..planner import plan_query
from .admission import AdmissionController, AdmissionRejected
from .cache import ResultCache, cache_key, moved_sums
from .registry import (
    InstanceRegistry,
    RegisteredInstance,
    RegisteredView,
    UnknownInstanceError,
    UnknownViewError,
    successor,
)

__all__ = [
    "ERROR_STATUS",
    "PayloadTooLarge",
    "UnknownRouteError",
    "status_for",
    "ServiceState",
]


class PayloadTooLarge(ReproError):
    """A request announced a body over the server's cap (HTTP 413)."""


class UnknownRouteError(ReproError):
    """No endpoint serves the request's method and path (HTTP 404)."""


#: Deterministic exception-class → HTTP status mapping, checked in MRO
#: order (first match wins).  Subclasses inherit their nearest ancestor's
#: status unless listed themselves; anything unlisted, a builtin
#: ``KeyError`` or ``ValueError`` from inside a run included, is a 500.
ERROR_STATUS: Tuple[Tuple[type, int], ...] = (
    (AdmissionRejected, 429),
    (PayloadTooLarge, 413),
    (UnknownRouteError, 404),
    (UnknownInstanceError, 404),
    (UnknownViewError, 404),
    (UnsupportedDeltaError, 422),
    (ConfigError, 400),
    (ApplicabilityError, 422),
    (FaultError, 500),
    (MPCError, 500),
    (ReproError, 500),
)


def status_for(error: BaseException) -> int:
    """The HTTP status for ``error``: the first :data:`ERROR_STATUS` entry
    matching its class (500 for anything unlisted)."""
    for cls, status in ERROR_STATUS:
        if isinstance(error, cls):
            return status
    return 500


#: Config keys a request body may set.  Observer objects (tracer,
#: profiler) and fault schedules are server-side concerns and rejected.
ALLOWED_CONFIG_KEYS = ("p", "algorithm", "backend", "validate")

_JSON = "application/json"
_TEXT = "text/plain; version=0.0.4; charset=utf-8"


def _canonical_body(document: Dict[str, Any]) -> bytes:
    """The service's one serialization: sorted keys, no whitespace — the
    bytes cached and diffed by the bit-identity battery."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


#: The sort key of an answer row: its JSON text.  One encoder for every
#: row — ``json.dumps`` with these arguments builds a new one per call.
_row_key = json.JSONEncoder(sort_keys=True, default=repr).encode


def _answer_rows(relation: Any) -> List[List[Any]]:
    """The answer relation as sorted JSON rows (values…, annotation).

    Sorting by the canonical encoding makes the order independent of any
    execution detail, so cold and warm responses agree byte for byte."""
    rows = [
        [jsonify(v) for v in values] + [jsonify(annotation)]
        for values, annotation in relation
    ]
    # Rows of exact ints print the same under ``repr`` as under JSON.
    all_ints = set(map(type, chain.from_iterable(rows))) == {int}
    rows.sort(key=repr if all_ints else _row_key)
    return rows


def _trace_summary(events: List[Any]) -> Dict[str, Any]:
    """A deterministic digest of the run's trace stream."""
    by_op: Dict[str, int] = {}
    items_by_op: Dict[str, int] = {}
    max_round = -1
    for event in events:
        by_op[event.op] = by_op.get(event.op, 0) + 1
        total = event.total
        if total:
            items_by_op[event.op] = items_by_op.get(event.op, 0) + total
        if event.round > max_round:
            max_round = event.round
    return {
        "events": len(events),
        "by_op": dict(sorted(by_op.items())),
        "items_by_op": dict(sorted(items_by_op.items())),
        "rounds_traced": max_round + 1,
    }


class ServiceState:
    """Everything one server process owns, wired together.

    * an :class:`InstanceRegistry`, the one store: per name the data, its
      digest, its views and the planner's statistics (collected once per
      entry and reused by every budgeted ``/query`` admission estimate and
      ``/explain`` request), written by one writer per name;
    * a :class:`ResultCache` (bit-identical warm responses);
    * an :class:`AdmissionController` (429 before work, never after);
    * a :class:`~repro.obs.registry.MetricsRegistry` rendered by
      ``GET /metrics``.

    ``default_config`` seeds request configs: body ``"config"`` keys
    override its fields.
    """

    def __init__(
        self,
        cache_bytes: int = 64 * 1024 * 1024,
        max_concurrent: int = 4,
        queue_depth: int = 8,
        load_budget: Optional[float] = None,
        default_config: Optional[ExecutionConfig] = None,
    ) -> None:
        self.registry = InstanceRegistry()
        self.cache = ResultCache(max_bytes=cache_bytes)
        self.admission = AdmissionController(
            max_concurrent=max_concurrent,
            queue_depth=queue_depth,
            load_budget=load_budget,
        )
        self.metrics = MetricsRegistry()
        self.default_config = default_config or ExecutionConfig()
        self._requests = self.metrics.counter(
            "repro_service_requests_total",
            "HTTP requests served, by endpoint and status.",
            labelnames=("endpoint", "status"),
        )
        self._executions = self.metrics.counter(
            "repro_service_executions_total",
            "Cluster executions actually run, by endpoint.",
            labelnames=("endpoint",),
        )
        self._cache_hits = self.metrics.counter(
            "repro_service_cache_hits_total",
            "Requests answered from the result cache.",
            labelnames=("endpoint",),
        )
        self._cache_misses = self.metrics.counter(
            "repro_service_cache_misses_total",
            "Requests that had to execute.",
            labelnames=("endpoint",),
        )
        self._rejections = self.metrics.counter(
            "repro_service_rejections_total",
            "Requests rejected by admission control, by reason.",
            labelnames=("reason",),
        )
        self._errors = self.metrics.counter(
            "repro_service_errors_total",
            "Requests that failed, by exception class.",
            labelnames=("error",),
        )
        self._deltas_applied = self.metrics.counter(
            "repro_service_delta_applied_total",
            "Delta batches applied to registered instances.",
            labelnames=("instance",),
        )
        self._view_refresh_seconds = self.metrics.counter(
            "repro_service_view_refresh_seconds",
            "Wall-clock seconds spent refreshing materialized views.",
        )

    # -- request-level plumbing ------------------------------------------------

    def handle(
        self, method: str, path: str, body: Optional[bytes],
        refused: Optional[ReproError] = None,
    ) -> Tuple[int, str, bytes, Dict[str, str]]:
        """Route one request; never raises.

        Returns ``(status, content_type, body_bytes, extra_headers)``.
        ``refused`` is an error the HTTP shell found before reading the
        body; it is answered and counted like one a handler raised.
        """
        endpoint, handler, needs_body = self._route(method, path)
        headers: Dict[str, str] = {}
        try:
            if refused is not None:
                raise refused
            if handler is None:
                raise UnknownRouteError(f"no route for {method} {path}")
            document = self._parse_json(body) if needs_body else None
            status, payload, extra = handler(path, document)
            content_type = extra.pop("__content_type__", _JSON)
            headers.update(extra)
            response = (
                payload if isinstance(payload, bytes)
                else _canonical_body(payload)
            )
        except Exception as error:  # deterministic mapping, no bare 500 pages
            status = status_for(error)
            if isinstance(error, AdmissionRejected):
                self._rejections.inc(reason=error.reason)
                headers["Retry-After"] = "1"
            self._errors.inc(error=type(error).__name__)
            response = _canonical_body(
                {
                    "error": type(error).__name__,
                    "message": str(error),
                    "status": status,
                }
            )
            content_type = _JSON
        self._requests.inc(endpoint=endpoint, status=str(status))
        return status, content_type, response, headers

    def _route(self, method: str, path: str):
        clean = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET":
            if clean == "/healthz":
                return "healthz", self._handle_healthz, False
            if clean == "/metrics":
                return "metrics", self._handle_metrics, False
            if clean == "/instances":
                return "instances", self._handle_list, False
            if clean == "/views":
                return "views", self._handle_view_list, False
            if clean.startswith("/views/"):
                return "views", self._handle_view_get, False
        elif method == "POST":
            if clean == "/instances":
                return "instances", self._handle_register, True
            if clean.startswith("/instances/") and clean.endswith("/deltas"):
                return "deltas", self._handle_apply_delta, True
            if clean == "/views":
                return "views", self._handle_view_create, True
            if clean == "/query":
                return "query", self._handle_query, True
            if clean == "/compare":
                return "compare", self._handle_compare, True
            if clean == "/explain":
                return "explain", self._handle_explain, True
        elif method == "DELETE":
            if clean.startswith("/views/"):
                return "views", self._handle_view_drop, False
            if clean.startswith("/instances/"):
                return "instances", self._handle_drop, False
        return clean.strip("/").split("/", 1)[0] or "root", None, False

    @staticmethod
    def _parse_json(body: Optional[bytes]) -> Dict[str, Any]:
        if not body:
            raise ConfigError("request body must be a JSON object")
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ConfigError(f"request body is not valid JSON: {error}")
        if not isinstance(document, dict):
            raise ConfigError("request body must be a JSON object")
        return document

    def _config_from(self, document: Dict[str, Any]) -> ExecutionConfig:
        """Build the request's :class:`ExecutionConfig` — eager validation
        turns bad knobs into a 400 before anything runs."""
        overrides = document.get("config") or {}
        if not isinstance(overrides, dict):
            raise ConfigError('"config" must be a JSON object')
        unknown = sorted(set(overrides) - set(ALLOWED_CONFIG_KEYS))
        if unknown:
            raise ConfigError(
                f"unsupported config key(s) {unknown}; the service accepts "
                f"{', '.join(ALLOWED_CONFIG_KEYS)} (observers and fault "
                "schedules are server-side concerns)"
            )
        return replace(self.default_config, **overrides)

    @staticmethod
    def _instance_name(document: Dict[str, Any]) -> str:
        name = document.get("instance")
        if not isinstance(name, str) or not name:
            raise ConfigError('request needs an "instance": "<name>" field')
        return name

    def _resolve(self, document: Dict[str, Any]) -> RegisteredInstance:
        return self.registry.get(self._instance_name(document))

    def _commit(self, name: str, entry: Optional[RegisteredInstance]) -> None:
        """Swap ``entry`` in under ``name`` (None: drop it); the caller holds
        the name's writer lock.  The one place a digest leaves the cache."""
        previous = self.registry.swap(name, entry)
        if previous is not None and (entry is None or entry.digest != previous.digest):
            self.cache.invalidate((name, previous.digest))

    def _predicted_load(self, entry, config: ExecutionConfig) -> Optional[float]:
        """The planner's load estimate for the algorithm this request runs,
        from the entry's statistics.  ``None`` when the planner cannot score it."""
        try:
            plan = plan_query(
                entry.instance,
                p=config.p,
                statistics=entry.statistics(config.backend),
                backend=config.backend,
            )
        except ReproError:
            return None
        if config.algorithm == "auto":
            return plan.predicted_load
        try:
            return plan.candidate(config.algorithm).predicted_load
        except KeyError:
            return None

    def _observe_execution(self, endpoint: str, entry, result) -> None:
        self._executions.inc(endpoint=endpoint)
        observe_report(self.metrics, result.report, scope=entry.name)

    def _refresh_gauges(self) -> None:
        cache = self.cache.stats()
        admission = self.admission.stats()
        entries = self.registry.entries()
        self.metrics.gauge(
            "repro_service_cache_entries", "Entries in the result cache."
        ).set(cache["entries"])
        self.metrics.gauge(
            "repro_service_cache_bytes", "Bytes held by the result cache."
        ).set(cache["bytes"])
        self.metrics.gauge(
            "repro_service_instances", "Registered instances."
        ).set(len(entries))
        self.metrics.gauge(
            "repro_service_views", "Registered materialized views."
        ).set(sum(len(entry.views) for entry in entries))
        self.metrics.gauge(
            "repro_service_active_executions", "Executions running now."
        ).set(admission["active"])
        self.metrics.gauge(
            "repro_service_peak_active_executions",
            "High-water mark of concurrent executions.",
        ).set(admission["peak_active"])
        self.metrics.counter(
            "repro_service_cache_evictions_total",
            "Cache entries evicted by the LRU byte budget.",
        )  # registered so it renders as 0 before the first eviction
        evictions = self.metrics.get("repro_service_cache_evictions_total")
        delta = cache["evictions"] - evictions.value()
        if delta > 0:
            evictions.inc(delta)

    def register(
        self, name: str, instance: Instance
    ) -> Tuple[RegisteredInstance, List[str]]:
        """Register (or replace) ``name``; returns the new entry and the
        names of the views it dropped.  Different data drops the dependent
        views: a wholesale replacement is not a delta, so their maintained
        state is stale."""
        with self.registry.writer(name):
            previous = self.registry.find(name)
            entry = successor(name, instance, previous)
            self._commit(name, entry)
        dropped = sorted(set(previous.views) - set(entry.views)) if previous else []
        return entry, dropped

    # -- endpoints -------------------------------------------------------------

    def _handle_healthz(self, path, document):
        return 200, {"status": "ok", "api_version": api.__version__}, {}

    def _handle_metrics(self, path, document):
        self._refresh_gauges()
        body = self.metrics.render().encode("utf-8")
        return 200, body, {"__content_type__": _TEXT}

    def _handle_list(self, path, document):
        return 200, {"instances": self.registry.list()}, {}

    def _handle_register(self, path, document):
        name = document.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigError('registration needs a "name": "<string>" field')
        payload = document.get("instance")
        if payload is None:
            raise ConfigError('registration needs an "instance" document')
        try:
            instance = instance_from_json(payload)
        except (ValueError, KeyError, TypeError) as error:
            raise ConfigError(f"malformed instance document: {error}")
        entry, dropped_views = self.register(name, instance)
        document_out = {"registered": entry.describe()}
        if dropped_views:
            document_out["views_dropped"] = dropped_views
        return 200, document_out, {}

    def _handle_drop(self, path, document):
        name = path.rstrip("/").rsplit("/", 1)[-1]
        with self.registry.writer(name):
            entry = self.registry.get(name)
            self._commit(name, None)
        document_out = {"dropped": entry.describe()}
        if entry.views:
            document_out["views_dropped"] = sorted(entry.views)
        return 200, document_out, {}

    def _handle_apply_delta(self, path, document):
        """Mutate a registered instance by one delta batch.

        The instance is replaced by its mutated form (new digest → only
        this name's entries under the *old* digest are invalidated;
        responses for other names, even over the same data, stay warm),
        and every dependent view refreshes by delta propagation — never by
        recomputation — before the name's writer lock is released, so no
        read sees a view behind its data.
        """
        name = path.rstrip("/").rsplit("/", 2)[-2]
        with self.registry.writer(name):
            entry = self.registry.get(name)
            payload = document.get("delta")
            if payload is None:
                raise ConfigError('request needs a "delta" document '
                                  '(the repro-delta/v1 format)')
            try:
                batch = delta_from_json(payload)
            except (ValueError, KeyError, TypeError) as error:
                if isinstance(error, ReproError):
                    raise
                raise ConfigError(f"malformed delta document: {error}")
            mutated = mutate_instance(entry.instance, batch)
            sums = moved_sums(
                entry.sums, entry.instance, mutated,
                ((change.relation, change.values) for change in batch),
            )
            new_entry = successor(name, mutated, entry, sums, keep_views=True)
            self._commit(name, new_entry)
            refreshed: List[Dict[str, Any]] = []
            for view_name in sorted(new_entry.views):
                started = time.perf_counter()
                result = new_entry.views[view_name].view.apply(batch)
                self._view_refresh_seconds.inc(time.perf_counter() - started)
                refreshed.append({"view": view_name, **result.to_dict()})
        self._deltas_applied.inc(instance=name)
        return 200, {
            "instance": name,
            "digest": new_entry.digest,
            "generation": new_entry.generation,
            "changes": len(batch),
            "cache_invalidated": new_entry.digest != entry.digest,
            "views_refreshed": refreshed,
        }, {}

    def _handle_view_list(self, path, document):
        return 200, {"views": self.registry.list_views()}, {}

    def _handle_view_get(self, path, document):
        name = path.rstrip("/").rsplit("/", 1)[-1]
        with self.registry.view(name) as (_entry, view_entry):
            summary = view_entry.describe()
            answer = view_entry.view.answer()
        summary["answer"] = _answer_rows(answer)
        return 200, {"view": summary}, {}

    def _handle_view_create(self, path, document):
        """Materialize a view over a registered instance.

        The materialization is a real execution (one distributed run), so
        it takes an admission slot like ``/query`` — inside the instance's
        writer lock, so no delta commits between the state it reads and
        the entry it joins; subsequent deltas refresh the view under the
        ``maintenance`` meter tag only.
        """
        name = document.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigError('view creation needs a "name": "<string>" field')
        instance_name = self._instance_name(document)
        with self.registry.writer(instance_name):
            entry = self.registry.get(instance_name)
            config = self._config_from(document)
            with self.admission.slot():
                view = api.materialize(entry.instance, config, name=name)
            self._executions.inc(endpoint="views")
            observe_report(self.metrics, view.base_report, scope=entry.name)
            view_entry = RegisteredView(name=name, instance=entry.name, view=view)
            self._commit(instance_name, replace(entry, views={**entry.views, name: view_entry}))
            summary = view_entry.describe()
        return 200, {"view": summary, "digest": entry.digest}, {}

    def _handle_view_drop(self, path, document):
        name = path.rstrip("/").rsplit("/", 1)[-1]
        with self.registry.view(name) as (entry, view_entry):
            views = {key: value for key, value in entry.views.items() if key != name}
            self._commit(entry.name, replace(entry, views=views))
            summary = view_entry.describe()
        return 200, {"dropped": summary}, {}

    def _handle_query(self, path, document):
        return self._execute_cached("query", document, self._run_query)

    def _handle_compare(self, path, document):
        return self._execute_cached("compare", document, self._run_compare)

    def _handle_explain(self, path, document):
        entry = self._resolve(document)
        config = self._config_from(document)
        plan = plan_query(
            entry.instance,
            p=config.p,
            statistics=entry.statistics(config.backend),
            backend=config.backend,
        )
        return 200, {
            "instance": entry.name,
            "digest": entry.digest,
            "plan": plan.to_dict(),
        }, {}

    # -- execution core --------------------------------------------------------

    def _execute_cached(self, endpoint: str, document, runner):
        entry = self._resolve(document)
        config = self._config_from(document)
        budget = document.get("load_budget")
        if budget is not None and not isinstance(budget, (int, float)):
            raise ConfigError('"load_budget" must be a number')
        key = cache_key(endpoint, entry.name, entry.digest, config)
        cached = self.cache.get(key)
        if cached is not None:
            self._cache_hits.inc(endpoint=endpoint)
            return 200, cached, {"X-Repro-Cache": "hit"}
        self._cache_misses.inc(endpoint=endpoint)
        # Admission: budget first, then a slot; both reject with 429 before any
        # cluster work.  Predicting is O(N) after a delta: only if a budget asks.
        if budget is not None or self.admission.load_budget is not None:
            self.admission.check_load(
                self._predicted_load(entry, config),
                request_budget=budget,
            )
        with self.admission.slot():
            body = runner(endpoint, entry, config)
        tag = (entry.name, entry.digest)
        self.cache.put(key, tag, body)
        # A delta that retired this digest meanwhile has already invalidated
        # it (``_commit`` swaps, then invalidates): drop the body put after.
        current = self.registry.find(entry.name)
        if current is None or current.digest != entry.digest:
            self.cache.invalidate(tag)
        return 200, body, {"X-Repro-Cache": "miss"}

    def _run_query(self, endpoint: str, entry, config: ExecutionConfig) -> bytes:
        sink = RingBufferSink()
        traced = replace(config, tracer=Tracer([sink], scope=entry.name))
        result = api.run_query(entry.instance, traced)
        self._observe_execution(endpoint, entry, result)
        return _canonical_body(
            {
                "api_version": api.__version__,
                "instance": entry.name,
                "digest": entry.digest,
                "algorithm": result.algorithm,
                "query_class": result.query_class,
                "out_size": result.out_size,
                "answer": _answer_rows(result.relation),
                "report": result.report.to_dict(),
                "trace": _trace_summary(sink.events),
            }
        )

    def _run_compare(self, endpoint: str, entry, config: ExecutionConfig) -> bytes:
        sink = RingBufferSink()
        traced = replace(config, tracer=Tracer([sink], scope=entry.name))
        outcome = api.compare(entry.instance, traced, scope=entry.name)
        self._observe_execution(endpoint, entry, outcome.ours)
        return _canonical_body(
            {
                "api_version": api.__version__,
                "instance": entry.name,
                "digest": entry.digest,
                "query_class": outcome.ours.query_class,
                "algorithm": outcome.ours.algorithm,
                "out_size": outcome.ours.out_size,
                "answer": _answer_rows(outcome.ours.relation),
                "baseline": outcome.baseline.report.to_dict(),
                "ours": outcome.ours.report.to_dict(),
                "speedup": outcome.speedup,
                "trace": _trace_summary(sink.events),
            }
        )
