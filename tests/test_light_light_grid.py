"""§3.1's light-light grid: every elementary product is computed exactly
once whatever the grid's shape against p, and the columnar grid is an array
program that decodes no relation row."""

import importlib
from collections import Counter

import pytest

from repro.backends.batch import ColumnarBatch
from repro.config import ExecutionConfig
from repro.core.executor import run_query
from repro.data import Instance, Relation
from repro.mpc import MPCCluster
from repro.mpc.distributed import Distributed
from repro.ram import evaluate
from repro.semiring import COUNTING, TROPICAL_MIN_PLUS
from repro.semiring.provenance import POLYNOMIAL, monomial
from repro.workloads import random_sparse_matmul
from tests.conftest import MATMUL_QUERY

matmul_module = importlib.import_module("repro.core.matmul_worst_case")

ANNOTATIONS = {
    "counting": (COUNTING, lambda i: 1 + i % 4),
    "tropical": (TROPICAL_MIN_PLUS, lambda i: float(i % 7)),
    # Polynomials have no typed column: the grid folds an object column.
    "provenance": (POLYNOMIAL, lambda i: monomial(f"t{i}", "x")),
}


def _band(n, width):
    """Every value of degree ``width``: no value is heavy at any p here."""
    return sorted({(a, (a + d) % n) for a in range(n) for d in range(width)})


def _hub(degree, light):
    """One value of degree ``degree`` (heavy at every p here) beside
    ``light`` values of degree 1."""
    return sorted({(0, b) for b in range(degree)} | {(t + 1, t) for t in range(light)})


# With no heavy value a packed group's degrees sum to at most L - 1, which
# is below √(N1·N2/p), so k·l > p: only heavy values thin the light sides
# enough for a grid smaller than the cluster.
GRIDS = {"wrapping": _band(12, 2), "underfull": _hub(12, 2)}


def _instance(pairs, annotation):
    semiring, annotate = ANNOTATIONS[annotation]
    r1 = Relation("R1", ("A", "B"), [
        (pair, annotate(i)) for i, pair in enumerate(pairs)
    ])
    r2 = Relation("R2", ("B", "C"), [
        ((b, a + 100), annotate(len(pairs) + i)) for i, (a, b) in enumerate(pairs)
    ])
    return Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, semiring)


@pytest.mark.parametrize("annotation", sorted(ANNOTATIONS))
@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("p", [2, 3, 5, 16])
def test_the_grid_computes_every_product_once(monkeypatch, p, grid, annotation):
    pairs = GRIDS[grid]
    instance = _instance(pairs, annotation)
    degrees = Counter(b for _, b in pairs)  # R2 is R1 mirrored: d1(b) = d2(b)
    shapes = []
    packing = matmul_module.parallel_packing

    def recorded(dist, size_fn):
        packed = packing(dist, size_fn)
        shapes.append(packed[1])
        return packed

    monkeypatch.setattr(matmul_module, "parallel_packing", recorded)
    oracle = dict(evaluate(instance).tuples)
    reports = {}
    for backend in ("pytuple", "columnar"):
        result = run_query(instance, ExecutionConfig(
            p=p, algorithm="matmul-worst-case", backend=backend
        ))
        assert dict(result.relation.tuples) == oracle
        assert result.report.elementary_products == sum(d * d for d in degrees.values())
        reports[backend] = result.report.to_dict()
    assert reports["pytuple"] == reports["columnar"]

    k_groups, l_groups = shapes[-2:]
    assert shapes == [k_groups, l_groups] * 2
    heavy = any("heavy" in phase for phase, _ in result.report.phases)
    if grid == "wrapping":
        assert not heavy and k_groups * l_groups > p  # cells share servers
    else:
        assert heavy and k_groups * l_groups < p  # servers own no cell


def test_the_columnar_grid_decodes_no_relation_row(monkeypatch):
    """Inside ``matmul-wc/light-light`` on columnar nothing routes items or
    joins item lists, and only the degree tables that parallel-packing reads
    are decoded: one row per distinct A or C value, never a relation row."""
    instance = random_sparse_matmul(n1=6400, n2=6400, rows=80, inner=80, cols=80)
    reference = run_query(instance, ExecutionConfig(
        p=16, algorithm="matmul-worst-case", backend="pytuple"
    ))
    cluster = MPCCluster(16, backend="columnar")
    tracker = cluster.view().tracker
    decoded = []

    def in_grid():
        return "matmul-wc/light-light" in tracker.phase_path()

    def refused(original):
        def call(*args, **kwargs):
            if in_grid():
                raise AssertionError("an item body ran in the columnar grid")
            return original(*args, **kwargs)
        return call

    to_items = ColumnarBatch.to_items

    def counted(self, codec):
        if in_grid():
            decoded.append(self.size)
        return to_items(self, codec)

    monkeypatch.setattr(ColumnarBatch, "to_items", counted)
    monkeypatch.setattr(Distributed, "repartition_multi",
                        refused(Distributed.repartition_multi))
    monkeypatch.setattr(matmul_module, "local_join_partials",
                        refused(matmul_module.local_join_partials))
    result = run_query(instance, ExecutionConfig(algorithm="matmul-worst-case"),
                       cluster=cluster)

    domains = (len({values[0] for values in instance.relation("R1").tuples})
               + len({values[1] for values in instance.relation("R2").tuples}))
    assert sum(decoded) <= domains < instance.total_size // 50
    assert list(result.relation.tuples.items()) == list(reference.relation.tuples.items())
    assert result.report.to_dict() == reference.report.to_dict()
