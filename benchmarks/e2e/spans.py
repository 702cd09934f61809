"""The benchmark's own span recorder and the wrappers that feed it.

A span is ``(id, name, tag, start, end, parent, op)``: ``parent`` is the
id of the span that was open when this one started, ``op`` the id of the
operation (one round, one request, one delta batch) it belongs to.  Spans
stay in memory until :meth:`Recorder.write` dumps them as JSON lines.

``instrument`` replaces the public callables listed in :data:`TARGETS`
with recording wrappers, in the traced process only, and puts the
originals back on exit.  A target that no longer exists is reported and
skipped, so its metrics read ``None`` instead of the run crashing.

Built on nothing from ``repro.obs.profile`` on purpose: that profiler is
due for a rewrite and the ledger must not move with it.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Container, Dict, Iterator, List, Optional, Tuple

__all__ = ["Recorder", "TARGETS", "instrument"]


class Recorder:
    """In-memory span store for one single-threaded traced section.

    Records only while :func:`instrument` is active, so the untraced part
    of a run can share the code that opens spans and pay nothing for it.
    """

    def __init__(self) -> None:
        self.enabled = False
        #: [id, name, tag, start, end, parent, op]
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._active: set = set()
        self.op: Optional[int] = None
        self.missing: List[str] = []

    def _start(self, name: str, tag: str) -> int:
        self._active.add(name)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [index, name, tag, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def _stop(self, index: int) -> None:
        record = self.spans[index]
        record[4] = time.perf_counter()
        self._stack.pop()
        self._active.discard(record[1])

    @contextmanager
    def span(self, name: str, tag: str = "") -> Iterator[None]:
        # A layer calling itself (gather → exchange) is one visit to that
        # layer: only the outermost span of a name is recorded.
        if not self.enabled or name in self._active:
            yield
            return
        index = self._start(name, tag)
        try:
            yield
        finally:
            self._stop(index)

    @contextmanager
    def operation(self, name: str, tag: str = "") -> Iterator[None]:
        """A root span whose id every span inside it carries as ``op``."""
        if not self.enabled:
            yield
            return
        self.op = len(self.spans)
        try:
            with self.span(name, tag):
                yield
        finally:
            self.op = None

    def wrap(self, fn: Callable, name: str,
             tag_of: Optional[Callable[..., str]] = None) -> Callable:
        """``fn`` recorded as a ``name`` span (same rule as :meth:`span`,
        inlined: wrapped codec methods are called per value)."""
        active = self._active

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if name in active:
                return fn(*args, **kwargs)
            index = self._start(name, tag_of(*args, **kwargs) if tag_of else "")
            try:
                return fn(*args, **kwargs)
            finally:
                self._stop(index)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ----------------------------------------------------------

    def totals(self, ops: Optional[Container[int]] = None
               ) -> Dict[Tuple[str, str], Dict[str, float]]:
        """``(name, tag) → {"total", "self", "calls"}``, over every span or
        over those of the operations ``ops``; self time is duration minus
        direct children."""
        spans = [s for s in self.spans if ops is None or s[6] in ops]
        child_time: Dict[int, float] = {}
        for _index, _n, _t, start, end, parent, _op in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: Dict[Tuple[str, str], Dict[str, float]] = {}
        for index, name, tag, start, end, _parent, _op in spans:
            row = out.setdefault((name, tag), {"total": 0.0, "self": 0.0, "calls": 0})
            duration = end - start
            row["total"] += duration
            row["self"] += duration - child_time.get(index, 0.0)
            row["calls"] += 1
        return out

    def by_name(self, ops: Optional[Container[int]] = None
                ) -> Dict[str, Dict[str, float]]:
        """:meth:`totals` with the tags folded away."""
        out: Dict[str, Dict[str, float]] = {}
        for (name, _tag), row in self.totals(ops).items():
            merged = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            for key, value in row.items():
                merged[key] += value
        return out

    def select(self, name: str, tag: Optional[str] = None) -> List[List[Any]]:
        """The recorded spans called ``name`` (and tagged ``tag``)."""
        return [s for s in self.spans
                if s[1] == name and (tag is None or s[2] == tag)]

    def write(self, path: str) -> None:
        keys = ("id", "name", "tag", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")


def _family(instance: Any, *_rest: Any, **_kw: Any) -> str:
    return instance.query.classify()


#: (span name, module, attribute path or "*" for the module's ``__all__`` /
#: a class's public methods, tag function).  Layer = module name.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[..., str]]], ...] = (
    ("mpc.cluster_init", "repro.config", "ExecutionConfig.make_cluster", None),
    ("data.load", "repro.data.relation", "DistRelation.load", None),
    ("data.collect", "repro.data.relation", "DistRelation.collect", None),
    ("core.run", "repro.core.executor", "ALGORITHMS", _family),
    ("core.finalize", "repro.core.executor", "aggregate_relation", None),
    ("mpc.exchange", "repro.mpc.cluster", "ClusterView.exchange", None),
    ("mpc.exchange", "repro.mpc.cluster", "ClusterView.exchange_batches", None),
    ("mpc.exchange", "repro.mpc.cluster", "ClusterView.broadcast", None),
    ("mpc.exchange", "repro.mpc.cluster", "ClusterView.broadcast_batches", None),
    ("mpc.exchange", "repro.mpc.cluster", "ClusterView.gather", None),
    ("backends.kernel", "repro.backends.kernels", "*", None),
    ("backends.codec", "repro.backends.columnar", "ValueCodec.*", None),
    ("api.run_query", "repro.api", "run_query", _family),
    ("planner.plan", "repro.service.handlers", "plan_query", None),
    ("io.instance_from_json", "repro.service.handlers", "instance_from_json", None),
    ("io.delta_from_json", "repro.service.handlers", "delta_from_json", None),
    ("ivm.mutate_instance", "repro.service.handlers", "mutate_instance", None),
    ("service.instance_digest", "repro.service.registry", "instance_digest", None),
    ("ivm.executor", "repro.ivm.view", "run_query", None),
)


def _expand(module: Any, path: str) -> List[Tuple[Any, str]]:
    """``(owner, attribute)`` pairs a target path names; raises
    AttributeError when the path is gone."""
    if path == "*":
        return [(module, name) for name in module.__all__]
    owner_name, _, attribute = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    if attribute == "*":
        return [
            (owner, name) for name, value in vars(owner).items()
            if not name.startswith("_") and callable(value)
        ]
    getattr(owner, attribute)
    return [(owner, attribute)]


@contextmanager
def instrument(recorder: Recorder) -> Iterator[None]:
    """Swap every target for a recording wrapper; restore on exit."""
    undo: List[Callable[[], None]] = []
    for name, module_name, path, tag_of in TARGETS:
        try:
            module = importlib.import_module(module_name)
            pairs = _expand(module, path)
        except (ImportError, AttributeError) as error:
            print(f"WARNING: cannot trace {module_name}:{path} ({error}); "
                  f"{name} will read null")
            recorder.missing.append(name)
            continue
        for owner, attribute in pairs:
            original = vars(owner)[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
            if isinstance(original, dict):
                # The algorithm registry: wrap every spec's run function.
                saved = dict(original)
                for key, spec in saved.items():
                    original[key] = dataclasses.replace(
                        spec, run=recorder.wrap(spec.run, name, tag_of))
                undo.append(lambda o=original, s=saved: o.update(s))
                continue
            if isinstance(original, classmethod):
                replacement: Any = classmethod(
                    recorder.wrap(original.__func__, name, tag_of))
            elif isinstance(original, staticmethod):
                replacement = staticmethod(
                    recorder.wrap(original.__func__, name, tag_of))
            else:
                replacement = recorder.wrap(original, name, tag_of)
            setattr(owner, attribute, replacement)
            undo.append(lambda o=owner, a=attribute, v=original: setattr(o, a, v))
    recorder.enabled = True
    try:
        yield
    finally:
        recorder.enabled = False
        for restore in reversed(undo):
            restore()


#: Families ``TreeQuery.classify`` can name on the ledger's instances.
FAMILIES = ("matmul", "line", "star", "star-like", "twig")


def executor_layers(recorder: Recorder, ops: Optional[Container[int]],
                    per: float) -> Dict[str, Optional[float]]:
    """The executor-layer metrics every workload shares, from the spans of
    the operations ``ops`` (None: all), divided by ``per`` (their number).  Step
    metrics are span totals; ``mpc.exchange_s``, ``backends.*_s`` and
    ``core.plumbing_s`` are self times, so they add up to ``core.run_s``
    together with the steps nested inside it."""
    names = recorder.by_name(ops)
    tagged = recorder.totals(ops)

    def read(span: str, field: str) -> Optional[float]:
        if span in recorder.missing:
            return None
        return names.get(span, {}).get(field, 0.0) / per

    values = {
        "mpc.cluster_init_s": read("mpc.cluster_init", "total"),
        "data.load_s": read("data.load", "total"),
        "core.run_s": read("core.run", "total"),
        "core.finalize_s": read("core.finalize", "total"),
        "data.collect_s": read("data.collect", "total"),
        "mpc.exchange_s": read("mpc.exchange", "self"),
        "mpc.exchange_calls": read("mpc.exchange", "calls"),
        "backends.kernel_s": read("backends.kernel", "self"),
        "backends.kernel_calls": read("backends.kernel", "calls"),
        "backends.codec_s": read("backends.codec", "self"),
        "core.plumbing_s": read("core.run", "self"),
    }
    for family in FAMILIES:
        values[f"core.run_s.{family}"] = (
            None if "core.run" in recorder.missing
            else tagged.get(("core.run", family), {}).get("total", 0.0) / per)
    return values
