"""The paper's algorithms (§3–§7) and the distributed Yannakakis baseline."""

from .allocation import RangeAllocation
from .executor import QueryResult, run_query
from .line import line_query
from .matmul import sparse_matmul
from .matmul_output_sensitive import (
    linear_sparse_mm,
    matmul_output_sensitive,
    output_sensitive_load_target,
)
from .matmul_worst_case import (
    matmul_unbalanced,
    matmul_worst_case,
    worst_case_load_target,
)
from .star import star_query
from .starlike import starlike_query
from .tree import tree_query, twig_eval
from .two_way_join import aggregate_relation, join_aggregate_pair
from .yannakakis_mpc import yannakakis_mpc, yannakakis_mpc_distributed

__all__ = [
    "run_query",
    "QueryResult",
    "sparse_matmul",
    "matmul_worst_case",
    "matmul_unbalanced",
    "matmul_output_sensitive",
    "linear_sparse_mm",
    "worst_case_load_target",
    "output_sensitive_load_target",
    "line_query",
    "star_query",
    "starlike_query",
    "tree_query",
    "twig_eval",
    "yannakakis_mpc",
    "yannakakis_mpc_distributed",
    "join_aggregate_pair",
    "aggregate_relation",
    "RangeAllocation",
]
