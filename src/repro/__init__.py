"""repro — MPC algorithms for sparse matrix multiplication and join-aggregate
queries.

A from-scratch reproduction of *Hu & Yi, "Parallel Algorithms for Sparse
Matrix Multiplication and Join-Aggregate Queries", PODS 2020*: a simulated
Massively Parallel Computation cluster with exact load metering, the MPC
primitive toolbox, the distributed Yannakakis baseline, and the paper's
worst-case-optimal / output-sensitive algorithms for matrix multiplication,
line, star, star-like, and general tree queries over arbitrary commutative
semirings.

Quickstart::

    from repro import ExecutionConfig, Relation, Instance, TreeQuery, run_query
    from repro.semiring import COUNTING

    query = TreeQuery((("R1", ("A", "B")), ("R2", ("B", "C"))),
                      output=frozenset({"A", "C"}))
    r1 = Relation("R1", ("A", "B"), [((i, i % 10), 1) for i in range(100)])
    r2 = Relation("R2", ("B", "C"), [((i % 10, i), 1) for i in range(100)])
    result = run_query(Instance(query, {"R1": r1, "R2": r2}, COUNTING),
                       ExecutionConfig(p=16))
    print(result.relation, result.report)
"""

from .config import ExecutionConfig
from .core import (
    QueryResult,
    line_query,
    run_query,
    sparse_matmul,
    star_query,
    starlike_query,
    tree_query,
    yannakakis_mpc,
)
from .data import DistRelation, Instance, Relation, TreeQuery
from .mpc import CostReport, Distributed, MPCCluster
from .semiring import (
    BOOLEAN,
    COUNTING,
    REAL,
    TROPICAL_MIN_PLUS,
    Semiring,
)

__version__ = "3.0.0"

__all__ = [
    "run_query",
    "QueryResult",
    "ExecutionConfig",
    "sparse_matmul",
    "line_query",
    "star_query",
    "starlike_query",
    "tree_query",
    "yannakakis_mpc",
    "Relation",
    "DistRelation",
    "TreeQuery",
    "Instance",
    "MPCCluster",
    "Distributed",
    "CostReport",
    "Semiring",
    "COUNTING",
    "REAL",
    "BOOLEAN",
    "TROPICAL_MIN_PLUS",
    "__version__",
]
