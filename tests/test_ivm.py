"""Battery for the IVM subsystem (ISSUE 10 acceptance).

Proves the metamorphic contract and the cost shape of
:mod:`repro.ivm`:

* after any delta sequence the incremental answer is *bit-identical* to
  recomputing from scratch on the mutated instance — across query
  families, semiring profiles, and skews (via the opt-in
  ``ivm-identity`` conformance invariant), and in targeted scenarios
  covering deletions, annotation bumps, computed-zero support
  retirement, and multi-relation batches;
* deletions on semirings without additive inverses raise the typed
  :class:`~repro.errors.UnsupportedDeltaError`; malformed deltas raise
  :class:`~repro.errors.ConfigError`;
* maintenance cost is |Δ|-proportional: the load of a fixed delta does
  *not* grow with instance size N while recompute load does
  (sublinearity);
* metering rides the distinct ``maintenance`` tag — base meters are
  untouched by deltas, and serialized reports carry no maintenance keys
  until a delta is applied (so pre-IVM outputs stay byte-identical).
"""

from __future__ import annotations

import random

import pytest

from repro.config import ExecutionConfig
from repro.conformance.generators import GeneratorConfig, random_case
from repro.conformance.invariants import check_ivm_identity
from repro.data import Instance, Relation
from repro.errors import ConfigError, UnsupportedDeltaError
from repro.ivm import (
    DeltaBatch,
    DeltaChange,
    delete,
    insert,
    materialize,
    mutate_instance,
)
from repro.obs import MAINTENANCE_OP, RingBufferSink, Tracer
from repro.ram.evaluate import evaluate
from repro.semiring import BOOLEAN, COUNTING, TROPICAL_MIN_PLUS

from tests.conftest import MATMUL_QUERY, LINE3_QUERY


def _counting_matmul(n: int, semiring=COUNTING) -> Instance:
    """A sparse near-diagonal matmul instance: every B value has O(1)
    neighbours, so a fixed delta's join neighbourhood is size-independent."""
    r1 = Relation("R1", ("A", "B"))
    r2 = Relation("R2", ("B", "C"))
    for i in range(n):
        r1.add((i, i), 2)
        r2.add((i, (i + 1) % n), 3)
    return Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, semiring)


def _answer_map(relation):
    order = sorted(range(len(relation.schema)),
                   key=lambda i: relation.schema[i])
    return {tuple(values[i] for i in order): annotation
            for values, annotation in relation}


def _assert_identical(view, batches):
    """The maintained answer equals the from-scratch oracle, bit for bit."""
    oracle = view.current_instance()
    assert _answer_map(view.answer()) == _answer_map(evaluate(oracle))


# -- the metamorphic identity, broad and targeted -----------------------------


def test_ivm_identity_invariant_across_families_and_profiles():
    """The opt-in conformance invariant over the full family × profile
    grid (deletions included wherever the semiring is invertible)."""
    rng = random.Random(0xC0FFEE)
    generator = GeneratorConfig()
    config = ExecutionConfig(p=4)
    for index in range(25):  # 5 families × 5 profiles
        case = random_case(rng, generator, index)
        check_ivm_identity(case, config)


def test_insert_only_batches_any_semiring():
    for semiring, annotation in ((COUNTING, 4), (BOOLEAN, True),
                                 (TROPICAL_MIN_PLUS, 2.0)):
        r1 = Relation("R1", ("A", "B"))
        r2 = Relation("R2", ("B", "C"))
        for i in range(20):
            r1.add((i, i), annotation)
            r2.add((i, (i + 1) % 20), annotation)
        view = materialize(
            Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, semiring))
        view.apply([insert("R1", (3, 7), annotation),
                    insert("R2", (7, 9), annotation)])
        _assert_identical(view, None)


def test_deletions_and_bumps_on_the_counting_ring():
    view = materialize(_counting_matmul(30))
    before = view.out_size
    view.apply(DeltaBatch((
        delete("R1", (5, 5)),          # removes a contributing tuple
        insert("R1", (6, 6), 10),      # annotation bump of an existing key
        insert("R2", (5, 90), 7),      # brand-new key
    )))
    _assert_identical(view, None)
    assert view.out_size < before + 2  # the delete retired at least one key


def test_computed_zero_support_retirement():
    """Deleting the only tuple joining a key drops the key from the
    answer even when a ⊕-sum could coincidentally be zero."""
    view = materialize(_counting_matmul(10))
    assert (0, 1) in {(a, c) for (a, c), _w in view.answer()}
    view.apply([delete("R2", (0, 1))])
    _assert_identical(view, None)
    assert (0, 1) not in {(a, c) for (a, c), _w in view.answer()}


def test_multi_relation_batches_telescope_exactly():
    view = materialize(_counting_matmul(25))
    rng = random.Random(11)
    for _round in range(4):
        changes = [
            insert("R1", (rng.randrange(40), rng.randrange(40)),
                   rng.randint(1, 5)),
            insert("R2", (rng.randrange(40), rng.randrange(40)),
                   rng.randint(1, 5)),
        ]
        present = sorted(view.current_instance().relation("R1").tuples)
        changes.append(delete("R1", rng.choice(present)))
        view.apply(DeltaBatch(tuple(changes)))
        _assert_identical(view, None)


def test_mutate_instance_matches_view_state():
    instance = _counting_matmul(15)
    batch = DeltaBatch((insert("R1", (99, 3), 2), delete("R2", (3, 4))))
    view = materialize(instance)
    view.apply(batch)
    mutated = mutate_instance(instance, batch)
    for name in ("R1", "R2"):
        assert (view.current_instance().relation(name).tuples
                == mutated.relation(name).tuples)
    # and the original instance is untouched
    assert (3, 4) in instance.relation("R2").tuples


# -- typed failure modes -------------------------------------------------------


def test_deletion_without_inverses_raises_unsupported_delta():
    for semiring, annotation in ((BOOLEAN, True), (TROPICAL_MIN_PLUS, 2.0)):
        r1 = Relation("R1", ("A", "B"))
        r2 = Relation("R2", ("B", "C"))
        for i in range(10):
            r1.add((i, i), annotation)
            r2.add((i, (i + 1) % 10), annotation)
        view = materialize(
            Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, semiring))
        with pytest.raises(UnsupportedDeltaError):
            view.apply([delete("R1", (2, 2))])
        # the rejected batch left no partial state behind
        _assert_identical(view, None)


def test_malformed_deltas_raise_config_error():
    view = materialize(_counting_matmul(10))
    with pytest.raises(ConfigError):
        view.apply([delete("R1", (123, 456))])  # absent tuple
    with pytest.raises(ConfigError):
        view.apply(DeltaBatch((delete("R1", (2, 2)),
                               delete("R1", (2, 2)))))  # double delete
    with pytest.raises(ConfigError):
        view.apply([insert("R9", (1, 2), 1)])  # unknown relation
    with pytest.raises(ValueError):
        DeltaChange("R1", "insert", (1, 2))  # insert needs an annotation
    with pytest.raises(ValueError):
        DeltaChange("R1", "delete", (1, 2), annotation=3)
    _assert_identical(view, None)


def test_rejected_batch_changes_nothing():
    """A batch whose second relation fails the check moves nothing, not
    even the relation checked first: the whole batch is checked before
    any relation is applied."""
    import copy

    from repro.workloads import planted_out_matmul

    view = materialize(planted_out_matmul(n=20, out=40))

    def snapshot():
        return (
            list(view.answer()),
            {name: list(rel) for name, rel in view.current_instance().relations.items()},
            copy.deepcopy(view._indexes),
            view.generation,
            view.deltas_applied,
            view.report(),
        )

    before = snapshot()
    joins = next(iter(view.current_instance().relation("R2").tuples))[0]
    with pytest.raises(ConfigError, match="delete of absent tuple"):
        view.apply([insert("R1", (10**6, joins), 1),  # grows the answer
                    delete("R2", (10**6, 10**6))])
    assert snapshot() == before


# -- cost shape ----------------------------------------------------------------


def test_maintenance_load_is_sublinear_in_instance_size():
    """The acceptance bar: a fixed delta's maintenance load does not grow
    with N, while recompute load does."""
    batch = DeltaBatch((insert("R1", (7, 3), 2), delete("R2", (3, 4))))
    config = ExecutionConfig(p=8)
    loads, recompute_loads = [], []
    for n in (400, 1600, 3200):
        view = materialize(_counting_matmul(n), config)
        result = view.apply(batch)
        loads.append(result.load)
        recompute_loads.append(view.base_report.max_load)
    assert loads[0] == loads[1] == loads[2]
    assert recompute_loads[2] > recompute_loads[0]
    assert loads[2] * 5 <= recompute_loads[2]


def test_empty_and_non_joining_deltas_short_circuit():
    view = materialize(_counting_matmul(50))
    # an insert whose join neighbourhood is empty contributes nothing
    result = view.apply([insert("R1", (777, 888), 1)])
    assert result.runs == 0 and result.load == 0
    _assert_identical(view, None)


# -- metering contract ---------------------------------------------------------


def test_maintenance_tag_gating_and_base_meter_identity():
    view = materialize(_counting_matmul(40))
    base = view.base_report.to_dict()
    assert not any(key.startswith("maintenance") for key in base)
    assert view.report().to_dict() == base  # no deltas yet: identical bytes

    view.apply([insert("R1", (3, 9), 2), insert("R2", (9, 11), 1)])
    tagged = view.report().to_dict()
    for key in ("maintenance_load", "maintenance_communication",
                "maintenance_rounds", "maintenance_products"):
        assert key in tagged and tagged[key] >= 0
    assert tagged["maintenance_load"] >= 1
    # base meters are untouched by maintenance
    assert {k: v for k, v in tagged.items()
            if not k.startswith("maintenance")} == base
    # round-trip keeps the tag
    from repro.mpc.stats import CostReport
    assert CostReport.from_dict(tagged).to_dict() == tagged


def test_line_query_maintenance_with_tracer():
    sink = RingBufferSink()
    rng = random.Random(5)
    r = {name: Relation(name, attrs) for name, attrs in LINE3_QUERY.relations}
    for name in r:
        for _ in range(30):
            r[name].add((rng.randrange(12), rng.randrange(12)),
                        rng.randint(1, 3), COUNTING)
    instance = Instance(LINE3_QUERY, r, COUNTING)
    view = materialize(instance, ExecutionConfig(p=4, tracer=Tracer([sink])))
    view.apply([insert("R2", (2, 3), 2)])
    _assert_identical(view, None)
    maintenance = [e for e in sink.events if e.op == MAINTENANCE_OP]
    assert len(maintenance) == 1
    assert maintenance[0].round == -1
    assert maintenance[0].detail["view"] == "view"
    assert maintenance[0].detail["changes"] == 1
