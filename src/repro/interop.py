"""Interop with the numeric Python ecosystem.

Sparse matrices are annotated binary relations; this module converts
between :class:`scipy.sparse` / :class:`numpy.ndarray` matrices and
:class:`~repro.data.relation.Relation`, and offers
:func:`sparse_matmul_scipy`, a drop-in ``A @ B`` over the simulated cluster
that returns both the product and the paper's cost report — so numeric
users can adopt the library without touching the query API.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .config import ExecutionConfig
from .core.executor import run_query
from .data.query import Instance, TreeQuery
from .data.relation import Relation
from .mpc.stats import CostReport
from .semiring import REAL, Semiring

__all__ = [
    "relation_from_matrix",
    "matrix_from_relation",
    "sparse_matmul_scipy",
]

MATMUL_QUERY = TreeQuery(
    (("R1", ("A", "B")), ("R2", ("B", "C"))), frozenset({"A", "C"})
)


def relation_from_matrix(
    matrix, name: str = "M", schema: Tuple[str, str] = ("A", "B")
) -> Relation:
    """Build a relation from a 2-D array or any scipy.sparse matrix: one
    tuple ``((i, j), value)`` per structurally non-zero entry."""
    relation = Relation(name, schema)
    if hasattr(matrix, "tocoo"):  # scipy.sparse
        coo = matrix.tocoo()
        for i, j, value in zip(coo.row, coo.col, coo.data):
            relation.add((int(i), int(j)), float(value))
        return relation
    array = np.asarray(matrix)
    if array.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = np.nonzero(array)
    for i, j in zip(rows, cols):
        relation.add((int(i), int(j)), float(array[i, j]))
    return relation


def matrix_from_relation(
    relation: Relation, shape: Optional[Tuple[int, int]] = None
):
    """Materialize a binary float-annotated relation as a scipy.sparse
    COO matrix (row = first attribute, column = second)."""
    from scipy import sparse

    if len(relation.schema) != 2:
        raise ValueError("matrix_from_relation needs a binary relation")
    rows, cols, data = [], [], []
    for (i, j), value in relation:
        rows.append(i)
        cols.append(j)
        data.append(value)
    if shape is None:
        shape = (
            (max(rows) + 1) if rows else 0,
            (max(cols) + 1) if cols else 0,
        )
    return sparse.coo_matrix((data, (rows, cols)), shape=shape)


def sparse_matmul_scipy(
    a,
    b,
    semiring: Semiring = REAL,
    config: Optional[ExecutionConfig] = None,
) -> Tuple["object", CostReport]:
    """``A @ B`` on the simulated MPC cluster.

    ``a`` and ``b`` are scipy.sparse matrices (or dense arrays); returns
    ``(product_as_coo_matrix, cost_report)``.  With the default REAL
    semiring this matches ``(a @ b)`` on the non-zero structure produced by
    actual cancellation-free arithmetic; any other semiring reinterprets
    "+"/"×" accordingly (the whole point of the paper's model).
    ``config`` defaults to ``ExecutionConfig(p=16)``.
    """
    r1 = relation_from_matrix(a, "R1", ("A", "B"))
    r2 = relation_from_matrix(b, "R2", ("B", "C"))
    instance = Instance(MATMUL_QUERY, {"R1": r1, "R2": r2}, semiring)
    result = run_query(instance, config or ExecutionConfig(p=16))
    shape = (
        a.shape[0] if hasattr(a, "shape") else np.asarray(a).shape[0],
        b.shape[1] if hasattr(b, "shape") else np.asarray(b).shape[1],
    )
    return matrix_from_relation(result.relation, shape=shape), result.report
