"""scipy/numpy interop: the library as a drop-in sparse matmul engine."""

import numpy as np
import pytest
from scipy import sparse

from repro.config import ExecutionConfig
from repro.interop import matrix_from_relation, relation_from_matrix, sparse_matmul_scipy
from repro.data import Relation
from repro.semiring import COUNTING, TROPICAL_MIN_PLUS


def _random_sparse(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    matrix = sparse.random(rows, cols, density=density, random_state=rng,
                           data_rvs=lambda n: rng.integers(1, 5, n).astype(float))
    return matrix.tocsr()


def test_relation_roundtrip_dense():
    array = np.array([[0.0, 2.0], [3.0, 0.0]])
    relation = relation_from_matrix(array)
    assert dict(relation.tuples) == {(0, 1): 2.0, (1, 0): 3.0}
    back = matrix_from_relation(relation, shape=(2, 2)).toarray()
    assert np.array_equal(back, array)


def test_relation_from_scipy():
    matrix = sparse.coo_matrix(([5.0, 7.0], ([0, 2], [1, 0])), shape=(3, 3))
    relation = relation_from_matrix(matrix)
    assert dict(relation.tuples) == {(0, 1): 5.0, (2, 0): 7.0}


def test_relation_from_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        relation_from_matrix(np.zeros(3))
    with pytest.raises(ValueError):
        matrix_from_relation(Relation("R", ("A", "B", "C")))


@pytest.mark.parametrize("p", [4, 16])
def test_matmul_matches_scipy(p):
    a = _random_sparse(40, 25, 0.15, seed=1)
    b = _random_sparse(25, 35, 0.15, seed=2)
    product, report = sparse_matmul_scipy(a, b, config=ExecutionConfig(p=p))
    expected = (a @ b).toarray()
    got = product.toarray()
    # Semiring arithmetic has no cancellation; with positive data the
    # non-zero structures and values must match exactly.
    assert np.allclose(got, expected)
    assert report.max_load > 0


def test_matmul_dense_inputs():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([[0.0, 3.0], [4.0, 0.0]])
    product, _report = sparse_matmul_scipy(a, b, config=ExecutionConfig(p=2))
    assert np.allclose(product.toarray(), a @ b)


def test_matmul_tropical_semiring():
    # (min, +): entry (i, j) is the cheapest i→k→j route.
    a = np.array([[0.0, 2.0, 5.0]])  # weights of edges 0→k (0 = free edge)
    b = np.array([[9.0], [1.0], [1.0]])
    relation_a = relation_from_matrix(a, "R1", ("A", "B"))
    relation_a.add((0, 0), 0.0, TROPICAL_MIN_PLUS)  # matrix drops the 0 entry
    from repro.data import Instance
    from repro.interop import MATMUL_QUERY
    from repro import run_query

    relation_b = relation_from_matrix(b, "R2", ("B", "C"))
    instance = Instance(
        MATMUL_QUERY, {"R1": relation_a, "R2": relation_b}, TROPICAL_MIN_PLUS
    )
    result = run_query(instance, ExecutionConfig(p=2))
    assert result.relation.tuples[(0, 0)] == min(0.0 + 9.0, 2.0 + 1.0, 5.0 + 1.0)


def test_empty_product():
    a = sparse.coo_matrix(([1.0], ([0], [0])), shape=(2, 2))
    b = sparse.coo_matrix(([1.0], ([1], [1])), shape=(2, 2))
    product, _report = sparse_matmul_scipy(a, b, config=ExecutionConfig(p=2))
    assert product.nnz == 0
