"""Sparse matrix multiplication — Theorem 1 (paper §3).

``sparse_matmul`` is the complete algorithm: remove dangling tuples,
estimate OUT (§2.2), and run whichever of the §3.1 worst-case algorithm and
the §3.2 output-sensitive algorithm has the smaller load target, achieving

    O( (N1+N2)/p + min( √(N1N2)/√p , (N1N2)^{1/3}·OUT^{1/3}/p^{2/3} ) )

w.h.p. — optimal in the semiring MPC model (Theorems 2–3).
"""

from __future__ import annotations

from typing import Literal

from ..data.query import TreeQuery
from ..data.relation import DistRelation
from ..primitives.dangling import remove_dangling
from ..primitives.estimate_out import estimate_path_out
from ..semiring import Semiring
from .matmul_output_sensitive import (
    linear_sparse_mm,
    matmul_output_sensitive,
    output_sensitive_load_target,
)
from .matmul_worst_case import (
    _matmul_attrs,
    matmul_unbalanced,
    matmul_worst_case,
    worst_case_load_target,
)

__all__ = ["sparse_matmul", "MatmulStrategy"]

MatmulStrategy = Literal[
    "auto", "worst-case", "output-sensitive", "linear", "broadcast"
]


def sparse_matmul(
    r1: DistRelation,
    r2: DistRelation,
    semiring: Semiring,
    strategy: MatmulStrategy = "auto",
    reduce_dangling: bool = True,
    salt: int = 0,
) -> DistRelation:
    """Compute ``∑_B R1(A,B) ⋈ R2(B,C)`` on the relations' cluster view.

    The result is a :class:`DistRelation` over ``(A, C)`` with fully
    aggregated annotations.  ``strategy`` forces a specific §3 algorithm;
    ``"auto"`` is Theorem 1's min-load choice.
    """
    view = r1.view
    a_attr, b_attr, c_attr = _matmul_attrs(r1, r2)

    if reduce_dangling:
        query = TreeQuery(
            (("__R1", (a_attr, b_attr)), ("__R2", (b_attr, c_attr))),
            frozenset({a_attr, c_attr}),
        )
        reduced = remove_dangling(
            query,
            {
                "__R1": DistRelation((a_attr, b_attr), r1.data),
                "__R2": DistRelation((b_attr, c_attr), r2.data),
            },
        )
        r1 = DistRelation(r1.schema, reduced["__R1"].data)
        r2 = DistRelation(r2.schema, reduced["__R2"].data)

    n1, n2 = r1.total_size, r2.total_size
    p = view.p

    if strategy == "worst-case":
        return matmul_worst_case(r1, r2, semiring, salt)
    if strategy == "linear":
        return linear_sparse_mm(r1, r2, semiring, salt)
    if strategy == "broadcast":
        return matmul_unbalanced(r1, r2, semiring)
    if strategy == "output-sensitive":
        return matmul_output_sensitive(r1, r2, semiring, salt=salt)

    # Theorem 1 dispatch.
    if n1 == 0 or n2 == 0:
        return matmul_worst_case(r1, r2, semiring, salt)  # returns empty
    if n1 * p < n2 or n2 * p < n1:
        return matmul_unbalanced(r1, r2, semiring)

    out_estimate, out_a_table = estimate_path_out(
        [r1, r2], [a_attr, b_attr, c_attr], base_salt=salt + 900
    )
    worst = worst_case_load_target(n1, n2, p)
    sensitive = output_sensitive_load_target(n1, n2, out_estimate, p)
    if sensitive < worst:
        return matmul_output_sensitive(
            r1, r2, semiring, out_estimate, out_a_table, salt=salt
        )
    return matmul_worst_case(r1, r2, semiring, salt)
