"""Response bodies are bytes clients and the cache compare: pin them.

* ``_answer_rows`` sorts with one hoisted encoder (and ``repr`` for rows
  of exact ints); the 3.0.0 implementation is kept here verbatim as the
  oracle and a property test holds the two to the same list;
* one golden: the ``/query`` and ``GET /views`` bodies (plus two each of
  ``/compare`` and ``/explain``) of a small write-mix-shaped state —
  matmuls and lines, a view each, deltas with inserts and deletes — hash
  to what release 3.0.0 served, once the ``digest`` values, whose
  definition changed, are blanked.
"""

from __future__ import annotations

import hashlib
import json
import re

from hypothesis import given, settings, strategies as st

from repro.config import ExecutionConfig
from repro.io import delta_to_json, instance_to_json
from repro.ivm import DeltaBatch, delete, insert
from repro.service import ServiceState
from repro.service.handlers import _answer_rows, _jsonify
from repro.workloads import line_instance, zipf_matmul


def _answer_rows_3_0_0(relation):
    """``repro.service.handlers._answer_rows`` as released in 3.0.0."""
    rows = [
        [_jsonify(v) for v in values] + [_jsonify(annotation)]
        for values, annotation in relation
    ]
    rows.sort(key=lambda row: json.dumps(row, sort_keys=True, default=repr))
    return rows


_INTS = st.one_of(
    st.sampled_from([0, 1, 10, 100, 101, -1, -10, 2, 20, 2**70]),
    st.integers(),
)
_FLOATS = st.one_of(
    st.sampled_from([1.0, 10.0, 1e16, 1e-7, -0.0, 1.5e300, 2.5]),
    st.floats(allow_nan=False),
)
_TEXT = st.one_of(
    st.sampled_from(["", "a", "a,b", "a]", '"', 'a"b', " a", "a b", "é", "日本", "1", "10"]),
    st.text(max_size=6),
)
_SCALARS = st.one_of(_INTS, _FLOATS, st.booleans(), st.none(), _TEXT)
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6
)


def _relations(values):
    """Lists of distinct ``(key tuple, annotation)`` rows of one arity."""
    return st.integers(1, 3).flatmap(
        lambda arity: st.lists(
            st.tuples(st.tuples(*[values] * arity), values),
            max_size=12,
            unique_by=lambda row: json.dumps(
                _answer_rows_3_0_0([row]), sort_keys=True, default=repr),
        )
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(_relations(_INTS), _relations(_VALUES)))
def test_answer_rows_order_is_the_released_order(relation):
    assert _answer_rows(relation) == _answer_rows_3_0_0(relation)


# -- golden bodies -------------------------------------------------------------


def _post(state: ServiceState, path: str, document) -> bytes:
    status, _, payload, _ = state.handle(
        "POST", path, json.dumps(document).encode("utf-8"))
    assert status == 200, payload
    return payload


def _write_mix_bodies() -> "dict[str, bytes]":
    """Six instances with a view each, two delta batches per instance
    (fresh insert, ⊕-combining insert, delete), then every ``/query`` and
    ``GET /views`` body (and two each of ``/compare`` and ``/explain``)
    with its digest values blanked."""
    instances = {f"mm_{i}": zipf_matmul(50, 50, 8, seed=i) for i in range(4)}
    instances.update(
        {f"line_{i}": line_instance(3, 30, 9, seed=10 + i) for i in range(2)})
    state = ServiceState(default_config=ExecutionConfig(p=4))
    bodies = {}
    for name, instance in instances.items():
        _post(state, "/instances",
              {"name": name, "instance": json.loads(instance_to_json(instance))})
        _post(state, "/views", {"name": f"v_{name}", "instance": name})
        first = instance.query.relations[0][0]
        (old_a, _), (old_b, _) = list(instance.relation(first))[:2]
        for batch in (
            DeltaBatch((insert(first, (7001, 7002), 3), insert(first, old_a, 2))),
            DeltaBatch((delete(first, old_b), delete(first, (7001, 7002)),
                        insert(first, (7003, old_a[1]), 5))),
        ):
            _post(state, f"/instances/{name}/deltas",
                  {"delta": json.loads(delta_to_json(batch))})
        bodies[f"query {name}"] = _post(state, "/query", {"instance": name})
        status, _, payload, _ = state.handle("GET", f"/views/v_{name}", None)
        assert status == 200
        bodies[f"view {name}"] = payload
    for name in ("mm_0", "line_0"):
        for endpoint in ("compare", "explain"):
            bodies[f"{endpoint} {name}"] = _post(
                state, f"/{endpoint}", {"instance": name})
    return {
        key: re.sub(rb'"digest":"[0-9a-f]{32}"', b'"digest":""', body)
        for key, body in bodies.items()
    }


#: BLAKE2b-128 of each blanked body, as served by release 3.0.0
#: (regenerate: print ``_hashes(_write_mix_bodies())`` at that tag).
GOLDEN = {
    "query mm_0": "5428852c4a7d3c87ac15fd186a6434a7",
    "view mm_0": "931fb6512e41bcf1d2d1057b6811bbb0",
    "query mm_1": "2424d71a13545b2dee4249eac93c90f6",
    "view mm_1": "dc670a4f5d2674389f85a48be46b3707",
    "query mm_2": "9a78808a10dfbf1c22bff0f2f71d1fe2",
    "view mm_2": "3021217813a11e39b0e298c7b0b9f7d9",
    "query mm_3": "39c853ee1a32fae2078a2446dcdfa373",
    "view mm_3": "1cbe3045e75d6a1f7b5acc66ecde574c",
    "query line_0": "2bc3842974f5981a2324fc4f8925367c",
    "view line_0": "022e64075377c6cba3c5814632c404bf",
    "query line_1": "0d8cf011917fe3ee39bef13768118338",
    "view line_1": "95fc82baec723451e3255a721a90e494",
    "compare mm_0": "e8181305e68b7715d2805430c27ac934",
    "explain mm_0": "51fdbe2650ca52a14faaa974fa3cf980",
    "compare line_0": "f721142cdec87ab7564eda56451a043a",
    "explain line_0": "b7819f045bc5e861dc2d87c67b11e6c1",
}


def _hashes(bodies: "dict[str, bytes]") -> "dict[str, str]":
    return {key: hashlib.blake2b(body, digest_size=16).hexdigest()
            for key, body in bodies.items()}


def test_write_mix_bodies_match_release_3_0_0():
    bodies = _write_mix_bodies()
    assert len(bodies) == 16
    assert all(b'"digest":""' in body for key, body in bodies.items()
               if not key.startswith("view"))
    assert _hashes(bodies) == GOLDEN
