"""repro.service — the long-running query service over the ``repro.api``
facade.

A dependency-free HTTP/JSON server (stdlib ``http.server`` with the
threading mix-in) that turns the batch reproduction into something that
can plausibly serve traffic:

* **named registered instances** (:mod:`~repro.service.registry`) —
  upload data once, query it by name; every registration carries a
  content digest;
* **a result cache** (:mod:`~repro.service.cache`) keyed by
  (instance digest, canonical query form, semiring, config fingerprint),
  LRU-evicted under a byte budget and invalidated when an instance is
  mutated — warm hits return *bit-identical* bytes to cold execution;
* **admission control** (:mod:`~repro.service.admission`) — a
  concurrency cap, a bounded wait queue, and a per-request load budget
  checked against the planner's prediction *before* anything runs
  (HTTP 429 on rejection);
* **observability** — ``GET /metrics`` renders the shared
  :class:`~repro.obs.registry.MetricsRegistry` in Prometheus 0.0.4 text
  format; ``GET /healthz`` is the liveness probe;
* **planner reuse** — a server-side
  :class:`~repro.planner.stats.StatisticsCatalog` keyed by instance
  digest feeds both admission estimates and ``POST /explain``;
* **materialized views** (:mod:`~repro.service.views`) — ``POST /views``
  pins a :class:`~repro.ivm.MaterializedView` over a registered
  instance; ``POST /instances/<name>/deltas`` mutates the instance,
  invalidates only the stale digest's cache entries, and refreshes
  dependent views by delta propagation instead of recomputing
  (docs/ivm.md).

See docs/service.md for the endpoint reference and the error → HTTP
status table.

>>> from repro.service import ReproServer, ServiceState
>>> with ReproServer(ServiceState(max_concurrent=2)) as server:
...     ...  # POST instances and queries at server.url
"""

from .admission import AdmissionController, AdmissionRejected
from .cache import (
    ResultCache,
    cache_key,
    canonical_query,
    config_fingerprint,
    instance_digest,
)
from .handlers import ERROR_STATUS, PayloadTooLarge, ServiceState, status_for
from .registry import InstanceRegistry, RegisteredInstance, UnknownInstanceError
from .server import ReproServer, serve
from .views import RegisteredView, UnknownViewError, ViewRegistry

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "ERROR_STATUS",
    "InstanceRegistry",
    "PayloadTooLarge",
    "RegisteredInstance",
    "RegisteredView",
    "ReproServer",
    "ResultCache",
    "ServiceState",
    "UnknownInstanceError",
    "UnknownViewError",
    "ViewRegistry",
    "cache_key",
    "canonical_query",
    "config_fingerprint",
    "instance_digest",
    "serve",
    "status_for",
]
