"""repro.service — the long-running query service over the ``repro.api``
facade.

A dependency-free HTTP/JSON server (stdlib ``http.server`` with the
threading mix-in) that turns the batch reproduction into something that
can plausibly serve traffic:

* **one store** (:mod:`~repro.service.registry`) — upload data once,
  query it by name.  Each name holds one immutable entry: the instance,
  its content digest, its materialized views and the planner's
  statistics.  Every write of a name (register, drop, delta, view create
  or drop) holds that name's lock from read to swap, so concurrent
  deltas lose no update and a view read equals a recompute at the
  generation it reports;
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
* **materialized views** — ``POST /views`` pins a
  :class:`~repro.ivm.MaterializedView` over a registered instance;
  ``POST /instances/<name>/deltas`` mutates the instance, invalidates only
  the stale digest's cache entries, and refreshes dependent views by delta
  propagation instead of recomputing (docs/ivm.md).

See docs/service.md for the endpoint reference, the error → HTTP status
table and the concurrency rules.

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
from .registry import (
    InstanceRegistry,
    RegisteredInstance,
    RegisteredView,
    UnknownInstanceError,
    UnknownViewError,
)
from .server import ReproServer, serve

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
    "cache_key",
    "canonical_query",
    "config_fingerprint",
    "instance_digest",
    "serve",
    "status_for",
]
