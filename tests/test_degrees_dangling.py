"""Degree statistics, key-table attachment, and dangling-tuple removal."""

import random

from repro.data import DistRelation, Instance, Relation
from repro.mpc import Distributed, MPCCluster
import pytest

from repro.primitives import (
    attach_by_key,
    degree_table,
    distinct_labels,
    elimination_order,
    label_tuples,
    lookup_table,
    reduce_by_key,
    remove_dangling,
    select_labelled,
)
from repro.ram import evaluate, semijoin_reduce
from repro.semiring import COUNTING
from tests.conftest import (
    GENERAL_TREE_QUERY,
    LINE3_QUERY,
    MATMUL_QUERY,
    STAR3_QUERY,
    TWIG_QUERY,
    random_instance,
)


def test_degree_table_matches_oracle():
    rng = random.Random(1)
    relation = Relation("R", ("A", "B"))
    for _ in range(100):
        entry = (rng.randint(0, 10), rng.randint(0, 10))
        if entry not in relation:
            relation.add(entry, 1)
    cluster = MPCCluster(5)
    dist = DistRelation.load(cluster.view(), relation)
    table = degree_table(dist.data, dist.key_fn(("A",)))
    expected = {
        (a,): relation.degree("A", a) for a in relation.active_domain("A")
    }
    assert dict(table.collect()) == expected


def test_attach_by_key_defaults():
    cluster = MPCCluster(3)
    view = cluster.view()
    items = Distributed.from_items(view, ["a", "b", "c"])
    table = Distributed.from_items(view, [("a", 1), ("c", 3)])
    tagged = attach_by_key(items, table, lambda x: x, default="missing")
    assert dict(tagged.collect()) == {"a": 1, "b": "missing", "c": 3}


#: label classes of the split test: heavy/light, the default's, an empty one.
_CLASSES = {
    "heavy": lambda degree: degree >= 3,
    "light": lambda degree: 0 < degree < 3,
    "default": lambda degree: degree == 0,
    "empty": lambda degree: degree == 99,
}


def _old_label_split(dist, table):
    """The three-call form ``label_tuples`` + ``select_labelled`` replaced."""
    tagged = attach_by_key(dist.data, table, lambda item: item[0][0], default=0)
    return {
        name: tagged.filter_items(lambda entry: keep(entry[1]))
        .map_items(lambda entry: entry[0]).parts
        for name, keep in _CLASSES.items()
    }


def _new_label_split(dist, table):
    labelled = label_tuples(dist, table, "A", default=0)
    selected = {
        name: select_labelled(dist, labelled, keep) for name, keep in _CLASSES.items()
    }
    assert all(rel.schema == ("A", "B") for rel in selected.values())
    return {name: rel.data.parts for name, rel in selected.items()}


@pytest.mark.parametrize("backend", ["pytuple", "columnar"])
def test_label_split_equals_the_filter_and_strip_pair(backend):
    """Answers, placement and meters, default labels and an empty label
    class included."""
    if backend == "columnar":
        pytest.importorskip("numpy")
    relation = Relation(
        "R", ("A", "B"), [((a, b), 1 + a) for a in range(9) for b in range(a % 4 + 1)]
    )
    degrees = [(a, a % 4 + 1) for a in range(9) if a != 5]  # 5 gets the default

    def run(split):
        cluster = MPCCluster(4, backend=backend)
        view = cluster.view()
        dist = DistRelation.load(view, relation, COUNTING)
        parts = split(dist, Distributed.from_items(view, degrees))
        return parts, cluster.report().to_dict()

    new_parts, new_report = run(_new_label_split)
    assert (new_parts, new_report) == run(_old_label_split)
    assert new_report["total_communication"] > 0
    assert new_parts["empty"] == [[], [], [], []]
    assert [item[0][0] for part in new_parts["default"] for item in part] == [5, 5]
    assert sum(len(part) for parts in new_parts.values() for part in parts) == len(relation)


def test_distinct_labels_charges_what_the_inline_form_charged():
    pairs = [(key, ("perm", key % 3)) for key in range(20)]

    def both(run):
        cluster = MPCCluster(4)
        table = Distributed.from_items(cluster.view(), pairs)
        return run(table), cluster.report().to_dict()

    def inline(table):
        return sorted(lookup_table(reduce_by_key(
            table, lambda pair: pair[1], lambda _p: None, lambda a, _b: a,
            7, profile="distinct",
        )))

    labels, report = both(lambda table: distinct_labels(table, 7))
    assert (labels, report) == both(inline)
    assert labels == [("perm", 0), ("perm", 1), ("perm", 2)]
    assert report["control_messages"] == 3


def test_lookup_table_charges_control():
    cluster = MPCCluster(3)
    table = Distributed.from_items(cluster.view(), [("k", 1), ("l", 2)])
    result = lookup_table(table)
    assert result == {"k": 1, "l": 2}
    assert cluster.report().control_messages >= 2
    assert cluster.report().max_load == 0


def test_elimination_order_touches_every_relation_once():
    for query in (MATMUL_QUERY, LINE3_QUERY, STAR3_QUERY, TWIG_QUERY, GENERAL_TREE_QUERY):
        order = elimination_order(query)
        assert len(order) == query.n - 1
        removed = [leaf for leaf, _host in order]
        assert len(set(removed)) == len(removed)
        # Hosts must still be alive when used.
        alive = {name for name, _ in query.relations}
        for leaf, host in order:
            assert leaf in alive and host in alive
            alive.discard(leaf)


def test_remove_dangling_matches_ram_semijoin_reduce():
    rng = random.Random(2)
    for query in (MATMUL_QUERY, LINE3_QUERY, STAR3_QUERY, GENERAL_TREE_QUERY):
        instance = random_instance(
            query, tuples=50, domain=6, rng=rng, semiring=COUNTING,
            weight_sampler=lambda r: 1,
        )
        expected = semijoin_reduce(instance)
        cluster = MPCCluster(6)
        view = cluster.view()
        loaded = {
            name: DistRelation.load(view, instance.relation(name))
            for name, _ in query.relations
        }
        reduced = remove_dangling(query, loaded)
        for name in loaded:
            got = dict(reduced[name].data.collect())
            assert got == dict(expected[name].tuples), (query, name)


def test_remove_dangling_preserves_query_answer():
    rng = random.Random(3)
    instance = random_instance(
        TWIG_QUERY, tuples=40, domain=5, rng=rng, semiring=COUNTING,
        weight_sampler=lambda r: r.randint(1, 3),
    )
    before = evaluate(instance)
    cluster = MPCCluster(4)
    view = cluster.view()
    loaded = {
        name: DistRelation.load(view, instance.relation(name))
        for name, _ in instance.query.relations
    }
    reduced = remove_dangling(instance.query, loaded)
    new_relations = {
        name: Relation(name, rel.schema, rel.data.collect(), semiring=COUNTING)
        for name, rel in reduced.items()
    }
    after = evaluate(Instance(instance.query, new_relations, COUNTING))
    assert before.tuples == after.tuples


def test_remove_dangling_empty_join_empties_everything():
    r1 = Relation("R1", ("A", "B"), [((1, 1), 1)])
    r2 = Relation("R2", ("B", "C"), [((2, 2), 1)])  # no shared B value
    cluster = MPCCluster(3)
    view = cluster.view()
    reduced = remove_dangling(
        MATMUL_QUERY,
        {"R1": DistRelation.load(view, r1), "R2": DistRelation.load(view, r2)},
    )
    assert reduced["R1"].total_size == 0
    assert reduced["R2"].total_size == 0
