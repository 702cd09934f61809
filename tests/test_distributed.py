"""Distributed datasets: placement, local ops, metered movement."""

import pytest

from repro.mpc import Distributed, MPCCluster, RoutingError


def test_from_items_balances_contiguously():
    view = MPCCluster(4).view()
    dist = Distributed.from_items(view, list(range(10)))
    assert dist.part_sizes() == [3, 3, 3, 1]
    assert dist.collect() == list(range(10))
    assert dist.total_size == 10


def test_from_items_empty():
    view = MPCCluster(4).view()
    dist = Distributed.from_items(view, [])
    assert dist.total_size == 0
    assert dist.part_sizes() == [0, 0, 0, 0]


def test_initial_placement_is_free():
    cluster = MPCCluster(4)
    Distributed.from_items(cluster.view(), list(range(100)))
    assert cluster.report().total_communication == 0


def test_local_ops_do_not_communicate():
    cluster = MPCCluster(4)
    dist = Distributed.from_items(cluster.view(), list(range(20)))
    mapped = dist.map_items(lambda x: x * 2)
    filtered = mapped.filter_items(lambda x: x % 4 == 0)
    merged = mapped.concat(filtered)
    assert sorted(mapped.collect()) == [2 * i for i in range(20)]
    assert all(x % 4 == 0 for x in filtered.collect())
    assert merged.total_size == mapped.total_size + filtered.total_size
    assert cluster.report().total_communication == 0


def test_concat_requires_same_view():
    cluster = MPCCluster(4)
    a = Distributed.from_items(cluster.view(), [1])
    other_cluster = MPCCluster(3)
    b = Distributed.from_items(other_cluster.view(), [2])
    with pytest.raises(RoutingError):
        a.concat(b)


def _folded_concat(view, datasets):
    """The fold ``Distributed.union`` replaced: ``empty().concat()`` per input."""
    folded = Distributed.empty(view)
    for dataset in datasets:
        folded = folded.concat(dataset)
    return folded


def test_union_is_the_folded_concat_in_order():
    cluster = MPCCluster(3)
    view = cluster.view()
    datasets = [
        Distributed(view, [[1, 2], [], [3]]),
        Distributed.empty(view),
        Distributed(view, [[4], [5, 6], []]),
    ]
    union = Distributed.union(view, datasets)
    assert union.parts == _folded_concat(view, datasets).parts == [[1, 2, 4], [5, 6], [3]]
    assert Distributed.union(view, []).parts == [[], [], []]
    # Inputs are not aliased: growing the union leaves them alone.
    union.parts[0].append(99)
    assert datasets[0].parts[0] == [1, 2]
    assert cluster.report().total_communication == 0


def test_union_decays_an_array_native_input():
    pytest.importorskip("numpy")
    from repro.data import DistRelation, Relation
    from repro.mpc.columnar import ColumnarData
    from repro.semiring import COUNTING

    view = MPCCluster(4, backend="columnar").view()
    relation = Relation("R", ("A", "B"), [((i, i % 3), 1 + i) for i in range(10)])
    loaded = DistRelation.load(view, relation, COUNTING).data
    assert isinstance(loaded, ColumnarData)
    plain = Distributed(view, [[((-1, -1), 7)], [], [], [((-2, -2), 8)]])
    union = Distributed.union(view, [plain, loaded])
    assert type(union) is Distributed
    assert union.parts == _folded_concat(view, [plain, loaded]).parts
    assert union.parts[0] == [((-1, -1), 7)] + list(relation)[:3]


def test_union_rejects_a_foreign_view():
    view = MPCCluster(4).view()
    foreign = Distributed.from_items(MPCCluster(3).view(), [2])
    with pytest.raises(RoutingError):
        Distributed.union(view, [Distributed.from_items(view, [1]), foreign])


@pytest.mark.parametrize("backend", ["pytuple", "columnar"])
def test_union_refuses_a_dataset_of_another_cluster_of_the_same_size(backend):
    """Two clusters with the same ``p`` have equal server tuples; only
    view identity tells them apart (a columnar dataset's codes mean
    nothing under another cluster's codec)."""
    if backend == "columnar":
        pytest.importorskip("numpy")
    from repro.data import DistRelation, Relation
    from repro.semiring import COUNTING

    def loaded(cluster, values):
        relation = Relation("R", ("A",), [((value,), 1) for value in values])
        return DistRelation.load(cluster.view(), relation, COUNTING).data

    a, b = MPCCluster(2, backend=backend), MPCCluster(2, backend=backend)
    mine, foreign = loaded(a, ["x", "y"]), loaded(b, ["p", "q"])
    for inputs in ([foreign], [mine, foreign]):
        with pytest.raises(RoutingError):
            Distributed.union(a.view(), inputs)
    assert a.report().total_communication == 0


def test_repartition_moves_and_charges():
    cluster = MPCCluster(4)
    view = cluster.view()
    dist = Distributed.from_items(view, list(range(16)))
    routed = dist.repartition(lambda x: x % 4)
    for server, part in enumerate(routed.parts):
        assert all(x % 4 == server for x in part)
    assert cluster.report().total_communication == 16
    assert cluster.report().max_load == 4


def test_repartition_multi_replicates():
    cluster = MPCCluster(3)
    dist = Distributed.from_items(cluster.view(), ["x"])
    replicated = dist.repartition_multi(lambda _x: [0, 1, 2])
    assert replicated.part_sizes() == [1, 1, 1]
    assert cluster.report().total_communication == 3


def test_broadcast_returns_everything():
    cluster = MPCCluster(3)
    dist = Distributed.from_items(cluster.view(), [1, 2, 3, 4])
    everything = dist.broadcast()
    assert sorted(everything) == [1, 2, 3, 4]
