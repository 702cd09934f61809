"""Annotated relations."""

from collections import namedtuple

import pytest

from repro.data import DistRelation, Relation
from repro.mpc import MPCCluster
from repro.semiring import COUNTING, TROPICAL_MIN_PLUS

Point = namedtuple("Point", "x y")


def test_schema_must_be_unique():
    with pytest.raises(ValueError):
        Relation("R", ("A", "A"))


def test_add_and_lookup():
    relation = Relation("R", ("A", "B"))
    relation.add((1, 2), 10)
    assert (1, 2) in relation
    assert relation.annotation((1, 2)) == 10
    assert len(relation) == 1


def test_arity_mismatch_rejected():
    relation = Relation("R", ("A", "B"))
    with pytest.raises(ValueError):
        relation.add((1, 2, 3), 1)


def test_duplicate_without_semiring_rejected():
    relation = Relation("R", ("A", "B"), [((1, 2), 1)])
    with pytest.raises(ValueError):
        relation.add((1, 2), 5)


def test_duplicate_combines_with_semiring():
    relation = Relation("R", ("A", "B"))
    relation.add((1, 2), 3, COUNTING)
    relation.add((1, 2), 4, COUNTING)
    assert relation.annotation((1, 2)) == 7

    tropical = Relation("T", ("A", "B"))
    tropical.add((1, 2), 3.0, TROPICAL_MIN_PLUS)
    tropical.add((1, 2), 1.0, TROPICAL_MIN_PLUS)
    assert tropical.annotation((1, 2)) == 1.0


def _added_one_by_one(schema, items, semiring=None):
    """The constructor's reference: an empty relation and one ``add`` a row."""
    relation = Relation("R", schema)
    for values, annotation in items:
        relation.add(values, annotation, semiring)
    return relation


@pytest.mark.parametrize("items, bulk", [
    ([((i, i % 3), i) for i in range(50)], True),
    ([], True),
    ([[(1, 2), 5], [(3, 4), 6]], True),                    # pairs spelled as lists
    ([((1, 2), 5), ([3, 4], 6), ((5, 6), 7)], False),       # one list-valued key
    ([((1, 2), 5), ((3, 4), 6), ((1, 2), 7)], False),       # a duplicate key
    ([((1, 2), 5), ((1.0, 2), 7), ((True, 2), 1)], False),  # equal across types
    ([(Point(1, 2), 5), ((3, 4), 6)], False),               # a tuple subclass
], ids=["tuples", "empty", "list-pairs", "list-key", "duplicate", "lookalikes",
        "namedtuple"])
def test_constructor_fills_in_bulk_what_add_would_build(monkeypatch, items, bulk):
    expected = _added_one_by_one(("A", "B"), items, COUNTING)
    calls = []
    original = Relation.add
    monkeypatch.setattr(
        Relation, "add", lambda self, *args: calls.append(args) or original(self, *args)
    )
    for source in (items, iter(items), tuple(items)):
        calls.clear()
        built = Relation("R", ("A", "B"), source, semiring=COUNTING)
        assert list(built.tuples.items()) == list(expected.tuples.items())
        assert all(type(key) is tuple for key in built.tuples)
        assert [type(v) for key in built.tuples for v in key] == [
            type(v) for key in expected.tuples for v in key
        ]
        assert (len(calls) == 0) == bulk or not items
    built.add((99, 99), 1)  # the bulk-built relation is an ordinary one
    assert built.degree("A", 99) == 1 and source is not built.tuples


@pytest.mark.parametrize("items", [
    [((1, 2), 5), ((1, 2), 7)],                 # duplicate, no semiring
    [((1, 2), 5), ((1.0, 2), 7)],               # … equal across types
    [((1, 2), 5), ((1, 2, 3), 6)],              # wrong arity beside right
    [((1,), 5)],                                # wrong arity alone
    [((1, 2), 5), ([1, 2, 3], 6)],              # wrong arity, list-valued
    [((1, 2), 5), ((3, 4), 6, "extra")],        # not a pair
], ids=["duplicate", "lookalike", "arity-mixed", "arity", "arity-list", "triple"])
def test_constructor_raises_what_add_raises(items):
    with pytest.raises(ValueError) as expected:
        _added_one_by_one(("A", "B"), items)
    with pytest.raises(ValueError) as raised:
        Relation("R", ("A", "B"), items)
    assert str(raised.value) == str(expected.value)


def test_column_and_domain_and_degree():
    relation = Relation(
        "R", ("A", "B"), [((1, 10), 1), ((1, 20), 1), ((2, 10), 1)]
    )
    assert sorted(relation.column("A")) == [1, 1, 2]
    assert relation.active_domain("A") == {1, 2}
    assert relation.degree("A", 1) == 2
    assert relation.degree("B", 10) == 2
    assert relation.degree("A", 99) == 0


def test_project_keys():
    relation = Relation(
        "R", ("A", "B"), [((1, 10), 1), ((1, 20), 1), ((2, 10), 1)]
    )
    assert relation.project_keys(("A",)) == {(1,), (2,)}
    assert relation.project_keys(("B", "A")) == {(10, 1), (20, 1), (10, 2)}


def test_attr_index_error():
    relation = Relation("R", ("A", "B"))
    with pytest.raises(KeyError):
        relation.attr_index("Z")


def test_same_contents():
    a = Relation("R", ("A", "B"), [((1, 2), 5)])
    b = Relation("S", ("A", "B"), [((1, 2), 5)])
    c = Relation("S", ("A", "B"), [((1, 2), 6)])
    assert a.same_contents(b)
    assert not a.same_contents(c)


def test_dist_relation_roundtrip():
    relation = Relation("R", ("A", "B"), [((i, i % 3), i) for i in range(20)])
    cluster = MPCCluster(4)
    dist = DistRelation.load(cluster.view(), relation)
    assert dist.total_size == 20
    back = dist.collect("R", COUNTING)
    assert back.same_contents(relation)


def test_dist_relation_key_fn():
    relation = Relation("R", ("A", "B"), [((1, 2), 1)])
    dist = DistRelation.load(MPCCluster(2).view(), relation)
    key_a = dist.key_fn(("A",))
    key_ba = dist.key_fn(("B", "A"))
    item = ((1, 2), 1)
    assert key_a(item) == (1,) and key_a.indices == (0,)
    assert key_ba(item) == (2, 1) and key_ba.indices == (1, 0)
    assert dist.key_fn(())(item) == ()
    with pytest.raises(KeyError):
        dist.attr_index("Z")


def test_reordered_is_identity_on_equal_schema_and_permutes_otherwise():
    relation = Relation("R", ("A", "B", "C"), [((i, i % 3, -i), i) for i in range(12)])
    cluster = MPCCluster(4)
    dist = DistRelation.load(cluster.view(), relation)
    assert dist.reordered(("A", "B", "C")) is dist
    turned = dist.reordered(["C", "A", "B"])
    assert turned.schema == ("C", "A", "B")
    assert turned.data.parts == [
        [((c, a, b), w) for (a, b, c), w in part] for part in dist.data.parts
    ]
    binary = DistRelation.load(cluster.view(), Relation("S", ("X", "Y"), [((1, 2), 5)]))
    assert binary.reordered(("Y", "X")).data.collect() == [((2, 1), 5)]
    assert cluster.report().total_communication == 0


@pytest.mark.parametrize("schema", [("A", "Z"), ("A",), ("A", "B", "B"), ("A", "A")])
def test_reordered_rejects_a_non_permutation(schema):
    """The check three of the six replaced helpers lacked (they raised a
    ``KeyError`` for an unknown attribute and silently dropped or repeated
    columns otherwise)."""
    dist = DistRelation.load(
        MPCCluster(2).view(), Relation("R", ("A", "B"), [((1, 2), 1)])
    )
    with pytest.raises(ValueError):
        dist.reordered(schema)


def test_reordered_handles_widths_below_two():
    view = MPCCluster(2).view()
    unary = DistRelation.load(view, Relation("U", ("A",), [((1,), 1)]))
    assert unary.reordered(("A",)) is unary
    scalar = DistRelation.load(view, Relation("T", (), [((), 4)]))
    assert scalar.reordered(()) is scalar
