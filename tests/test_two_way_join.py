"""Skew-resilient two-way join + aggregation (the baseline's engine)."""

import random

import pytest

from repro.data import DistRelation, Instance, Relation
from repro.mpc import MPCCluster
from repro.core.two_way_join import (
    JoinLayout,
    aggregate_relation,
    join_aggregate_naive,
    join_aggregate_pair,
    join_tasked,
    local_join_aggregate,
)
from repro.mpc import Distributed
from repro.ram import evaluate
from repro.semiring import COUNTING, TROPICAL_MIN_PLUS
from tests.conftest import MATMUL_QUERY, random_instance


def _load(view, relation):
    return DistRelation.load(view, relation)


def test_join_keep_all_is_full_join():
    r1 = Relation("R1", ("A", "B"), [((i, i % 3), 1) for i in range(9)])
    r2 = Relation("R2", ("B", "C"), [((i % 3, i), 1) for i in range(9)])
    cluster = MPCCluster(4)
    view = cluster.view()
    joined = join_aggregate_pair(
        _load(view, r1), _load(view, r2), ("A", "B", "C"), COUNTING
    )
    expected = {
        (a, b, c)
        for (a, b), _ in r1
        for (b2, c), _ in r2
        if b == b2
    }
    assert {k for k, _w in joined.data.collect()} == expected
    assert all(w == 1 for _k, w in joined.data.collect())


def test_join_aggregates_out_middle():
    rng = random.Random(1)
    instance = random_instance(
        MATMUL_QUERY, 120, 10, rng, COUNTING, lambda r: r.randint(1, 5)
    )
    cluster = MPCCluster(8)
    view = cluster.view()
    joined = join_aggregate_pair(
        _load(view, instance.relation("R1")),
        _load(view, instance.relation("R2")),
        ("A", "C"),
        COUNTING,
    )
    got = dict(joined.data.collect())
    want = dict(evaluate(instance).tuples)
    assert got == want


@pytest.mark.parametrize("p", [1, 3, 8, 16])
def test_join_correct_for_any_p(p):
    rng = random.Random(p)
    instance = random_instance(
        MATMUL_QUERY, 80, 8, rng, TROPICAL_MIN_PLUS,
        lambda r: float(r.randint(0, 9)),
    )
    cluster = MPCCluster(p)
    view = cluster.view()
    joined = join_aggregate_pair(
        _load(view, instance.relation("R1")),
        _load(view, instance.relation("R2")),
        ("A", "C"),
        TROPICAL_MIN_PLUS,
    )
    assert dict(joined.data.collect()) == dict(evaluate(instance).tuples)


def test_join_under_extreme_skew_exact_once():
    # One B value everywhere: the fragment-replicate grid must not double
    # count products across colliding cells (regression test).
    n = 60
    r1 = Relation("R1", ("A", "B"), [((i, 0), 1) for i in range(n)])
    r2 = Relation("R2", ("B", "C"), [((0, j), 1) for j in range(n)])
    cluster = MPCCluster(8)
    view = cluster.view()
    joined = join_aggregate_pair(
        _load(view, r1), _load(view, r2), ("A", "C"), COUNTING
    )
    collected = dict(joined.data.collect())
    assert len(collected) == n * n
    assert all(w == 1 for w in collected.values())
    assert cluster.report().elementary_products == n * n


def test_join_skew_load_beats_single_server():
    n = 200
    r1 = Relation("R1", ("A", "B"), [((i, 0), 1) for i in range(n)])
    r2 = Relation("R2", ("B", "C"), [((0, j), 1) for j in range(n)])
    cluster = MPCCluster(16)
    view = cluster.view()
    join_aggregate_pair(_load(view, r1), _load(view, r2), ("A", "C"), COUNTING)
    # A skew-oblivious hash join would put all 2n tuples on one server and
    # then shuffle n² results; the grid keeps the max load well below that.
    assert cluster.report().max_load < n * n / 4


def test_join_requires_shared_attribute():
    r1 = Relation("R1", ("A", "B"), [((0, 0), 1)])
    r2 = Relation("R2", ("C", "D"), [((0, 0), 1)])
    view = MPCCluster(2).view()
    with pytest.raises(ValueError):
        join_aggregate_pair(_load(view, r1), _load(view, r2), ("A",), COUNTING)


def test_join_rejects_unknown_keep_attr():
    r1 = Relation("R1", ("A", "B"), [((0, 0), 1)])
    r2 = Relation("R2", ("B", "C"), [((0, 0), 1)])
    view = MPCCluster(2).view()
    with pytest.raises(ValueError):
        join_aggregate_pair(_load(view, r1), _load(view, r2), ("A", "Z"), COUNTING)


def test_aggregate_relation_groups():
    relation = Relation(
        "R", ("A", "B", "C"),
        [((0, 0, 0), 1), ((0, 1, 0), 2), ((1, 0, 1), 4)],
    )
    cluster = MPCCluster(3)
    aggregated = aggregate_relation(
        _load(cluster.view(), relation), ("A", "C"), COUNTING
    )
    assert dict(aggregated.data.collect()) == {(0, 0): 3, (1, 1): 4}


def test_aggregate_relation_to_scalar():
    relation = Relation("R", ("A",), [((0,), 2), ((1,), 3)])
    cluster = MPCCluster(2)
    aggregated = aggregate_relation(_load(cluster.view(), relation), (), COUNTING)
    assert dict(aggregated.data.collect()) == {(): 5}


# -- the one join layout and the one tasked join -------------------------------------

BACKENDS = ["pytuple", "columnar"]


def _left(task, a, b, weight):
    return ("L", task, ((a, b), weight))


def _right(task, b, c, weight):
    return ("R", task, ((b, c), weight))


@pytest.mark.parametrize("backend", BACKENDS)
def test_join_tasked_meters_like_the_copies_it_replaced(backend):
    """A hand-built routed set; the literals were produced by the parent
    commit's ``matmul_output_sensitive._join_tasked`` (salt 8) on both
    backends."""
    cluster = MPCCluster(3, backend=backend)
    view = cluster.view()
    routed = Distributed(view, [
        [_left("t1", 1, 10, 2), _left("t2", 1, 10, 3), _right("t1", 10, 7, 5),
         _right("t2", 10, 8, 7), _right("t3", 10, 9, 1), _left("t1", 2, 10, 1)],
        [_right("t2", 11, 8, 2), _left("t2", 3, 11, 4), _left("t2", 1, 11, 1),
         _right("t2", 11, 9, 3)],
        [_left("t4", 5, 12, 1)],
    ])
    layout = JoinLayout(view, COUNTING, ("A", "B"), ("B", "C"), ("A", "C"))
    reduced = join_tasked(routed, layout, COUNTING, 8)
    assert reduced.parts == [
        [((3, 8), 8), ((3, 9), 12)],
        [((1, 7), 10), ((2, 7), 5)],
        [((1, 8), 23), ((1, 9), 3)],
    ]
    assert cluster.report().to_dict() == {
        "max_load": 3, "total_communication": 7, "rounds": 1,
        "control_messages": 0, "elementary_products": 7, "phases": [],
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_join_tasked_never_multiplies_across_tasks_on_a_shared_server(backend):
    """Two tasks wrapped onto the one real server of a p = 1 view: the
    products are the per-task sums, not the cross product."""
    cluster = MPCCluster(1, backend=backend)
    view = cluster.view()
    routed = Distributed(view, [
        [_left("t1", a, 0, 1) for a in range(3)]
        + [_right("t1", 0, c, 1) for c in range(2)]
        + [_left("t2", a, 0, 1) for a in range(10, 14)]
        + [_right("t2", 0, c, 1) for c in range(20, 25)]
    ])
    layout = JoinLayout(view, COUNTING, ("A", "B"), ("B", "C"), ("A", "C"))
    reduced = join_tasked(routed, layout, COUNTING)
    assert cluster.report().elementary_products == 3 * 2 + 4 * 5  # not 7 · 7
    keys = {key for key, _weight in reduced.collect()}
    assert keys == {(a, c) for a in range(3) for c in range(2)} | {
        (a, c) for a in range(10, 14) for c in range(20, 25)
    }


@pytest.mark.parametrize("left_schema,right_schema,keep", [
    (("A", "B"), ("B", "C"), ("A", "C")),            # L-R
    (("A", "B"), ("B", "C"), ("C", "A")),            # R-L
    (("B", "A"), ("C", "B"), ("A", "B", "C")),       # three sources, key not first
    (("A", "B"), ("B", "C"), ("B",)),                # one source
    (("A", "B"), ("B", "C"), ()),                    # full aggregate
], ids=["L-R", "R-L", "three-sources", "one-source", "no-source"])
def test_layout_tuple_kernel_equals_array_kernel(left_schema, right_schema, keep):
    """Answers, product count and partials *order* agree between the
    readers derived from the layout and the array kernel driven by it."""
    rng = random.Random(len(keep))
    left_items = [((rng.randrange(6), rng.randrange(4)), rng.randint(1, 5)) for _ in range(40)]
    right_items = [((rng.randrange(4), rng.randrange(6)), rng.randint(1, 5)) for _ in range(40)]

    def run(backend):
        view = MPCCluster(2, backend=backend).view()
        layout = JoinLayout(view, COUNTING, left_schema, right_schema, keep)
        assert (layout.profile is not None) == (backend == "columnar")
        partials, products = local_join_aggregate(left_items, right_items, layout, COUNTING)
        return list(partials.items()), products

    reference = run("pytuple")
    assert run("columnar") == reference
    b_left, b_right = left_schema.index("B"), right_schema.index("B")
    bound = [
        (dict(zip(left_schema, lv)) | dict(zip(right_schema, rv)), lw * rw)
        for rv, rw in right_items for lv, lw in left_items if lv[b_left] == rv[b_right]
    ]
    expected = {}
    for row, weight in bound:
        key = tuple(row[a] for a in keep)
        expected[key] = expected.get(key, 0) + weight
    assert reference == (list(expected.items()), len(bound))


def test_two_column_key_runs_the_tuple_kernel_under_columnar(monkeypatch):
    import repro.backends.kernels as kernels

    def refuse(*_args, **_kwargs):
        raise AssertionError("the array probe joins one code column")

    monkeypatch.setattr(kernels, "hash_join", refuse)
    view = MPCCluster(2, backend="columnar").view()
    layout = JoinLayout(view, COUNTING, ("A", "B", "C"), ("C", "B", "D"), ("A", "D"))
    assert layout.shared == ("B", "C")
    assert (layout.left_key, layout.right_key) == ((1, 2), (1, 0))
    left_items = [((a, a % 2, a % 3), 1) for a in range(12)]
    right_items = [((d % 3, d % 2, d), 2) for d in range(6)]
    partials, products = local_join_aggregate(left_items, right_items, layout, COUNTING)
    assert products == sum(
        1 for a in range(12) for d in range(6) if (a % 2, a % 3) == (d % 2, d % 3)
    )
    assert partials == {(a, d): 2 for a in range(12) for d in range(6) if a % 6 == d % 6}


def test_layout_rejects_disjoint_schemas_and_unknown_keep():
    view = MPCCluster(2).view()
    with pytest.raises(ValueError):
        JoinLayout(view, COUNTING, ("A", "B"), ("C", "D"), ("A",))
    with pytest.raises(ValueError):
        JoinLayout(view, COUNTING, ("A", "B"), ("B", "C"), ("Z",))


@pytest.mark.parametrize("backend", BACKENDS)
def test_naive_join_is_one_task_over_the_view(backend):
    """The ablation baseline through ``join_tasked``: oracle-exact, one
    shuffle round plus the reduce."""
    rng = random.Random(5)
    instance = random_instance(
        MATMUL_QUERY, 90, 9, rng, COUNTING, lambda r: r.randint(1, 5)
    )
    cluster = MPCCluster(4, backend=backend)
    view = cluster.view()
    joined = join_aggregate_naive(
        DistRelation.load(view, instance.relation("R1"), COUNTING),
        DistRelation.load(view, instance.relation("R2"), COUNTING),
        ("A", "C"), COUNTING,
    )
    assert dict(joined.data.collect()) == dict(evaluate(instance).tuples)
    assert cluster.report().rounds == 2
