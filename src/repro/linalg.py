"""Semiring linear algebra on the simulated cluster.

The paper's sparse matmul is the kernel; this module builds the classic
iterated operations on top of it, all distributed:

* :func:`matrix_power` — ``R^k`` by repeated squaring (⌈log₂ k⌉ matmuls
  instead of the k−1 a length-k line query performs — the right tool once
  ``k`` is large);
* :func:`transitive_closure` — the Kleene closure ``R ∪ R² ∪ R³ ∪ …`` for
  *idempotent* semirings (reachability over boolean, all-pairs shortest
  paths over (min,+)), iterated to a fixpoint by doubling.

Both operate on square "matrices" given as binary relations whose two
columns share one value domain.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .backends.dispatch import admit_instance
from .core.matmul import sparse_matmul
from .core.two_way_join import vector_profile
from .data.relation import DistRelation, Relation
from .mpc.cluster import ClusterView, MPCCluster
from .mpc.stats import CostReport
from .primitives.reduce_by_key import reduce_by_key
from .semiring import Semiring

__all__ = ["matrix_power", "transitive_closure"]


def _as_dist(view: ClusterView, relation: Relation, schema) -> DistRelation:
    oriented = Relation(relation.name, schema, list(relation))
    return DistRelation.load(view, oriented)


def _multiply(
    left: DistRelation, right: DistRelation, semiring: Semiring, salt: int
) -> DistRelation:
    """One distributed semiring matmul with schema bookkeeping A×B → (A, C)."""
    lhs = DistRelation(("A", "B"), left.data)
    rhs = DistRelation(("B", "C"), right.data)
    product = sparse_matmul(lhs, rhs, semiring, salt=salt)
    return DistRelation(("A", "B"), product.data)  # rename C → B for chaining


def _add(
    left: DistRelation, right: DistRelation, semiring: Semiring, salt: int
) -> DistRelation:
    """Entrywise ⊕ of two matrices (a reduce-by-key union)."""
    union = left.data.concat(right.data)
    summed = reduce_by_key(
        union, lambda item: item[0], lambda item: item[1], semiring.add, salt,
        profile=vector_profile(left.view, semiring),
    )
    return DistRelation(("A", "B"), summed.map_items(lambda kv: (tuple(kv[0]), kv[1])))


def matrix_power(
    matrix: Relation,
    k: int,
    semiring: Semiring,
    p: int = 16,
    cluster: Optional[MPCCluster] = None,
) -> Tuple[Relation, CostReport]:
    """``matrix^k`` under the semiring, by repeated squaring.

    Over COUNTING this counts length-k walks; over (min,+) it is the
    cheapest k-step cost; over BOOLEAN, k-step reachability.
    """
    if k < 1:
        raise ValueError("matrix_power needs k ≥ 1")
    if len(matrix.schema) != 2:
        raise ValueError("matrix_power needs a binary relation")
    if cluster is None:
        cluster = MPCCluster(p)
    view = admit_instance(cluster, [matrix]).view()

    base = _as_dist(view, matrix, ("A", "B"))
    result: Optional[DistRelation] = None
    square = base
    salt = 0
    remaining = k
    while remaining:
        if remaining & 1:
            result = square if result is None else _multiply(
                result, square, semiring, salt
            )
            salt += 101
        remaining >>= 1
        if remaining:
            square = _multiply(square, square, semiring, salt + 53)
            salt += 101
    collected = result.collect(f"{matrix.name}^{k}", semiring)
    return Relation(f"{matrix.name}^{k}", matrix.schema, list(collected)), cluster.report()


def transitive_closure(
    matrix: Relation,
    semiring: Semiring,
    p: int = 16,
    include_identity: bool = False,
    max_doublings: int = 64,
    cluster: Optional[MPCCluster] = None,
) -> Tuple[Relation, CostReport]:
    """The Kleene closure ``R ⊕ R² ⊕ R³ ⊕ …`` for idempotent semirings.

    Uses path doubling: ``C ← C ⊕ C·C`` converges in ⌈log₂ diameter⌉
    iterations.  Raises for non-idempotent semirings, whose closure
    diverges (infinitely many walks).  ``include_identity`` ⊕-adds the
    diagonal (``a → a`` with weight 1) before closing, yielding the
    reflexive-transitive closure.
    """
    if not semiring.idempotent_add:
        raise ValueError("transitive closure needs an idempotent semiring")
    if len(matrix.schema) != 2:
        raise ValueError("transitive_closure needs a binary relation")
    if cluster is None:
        cluster = MPCCluster(p)
    view = admit_instance(cluster, [matrix]).view()

    working = Relation(matrix.name, ("A", "B"), list(matrix))
    if include_identity:
        values = working.active_domain("A") | working.active_domain("B")
        for value in values:
            working.add((value, value), semiring.one, semiring)

    closure = _as_dist(view, working, ("A", "B"))
    salt = 0
    for _ in range(max_doublings):
        squared = _multiply(closure, closure, semiring, salt)
        candidate = _add(closure, squared, semiring, salt + 7)
        salt += 23
        if _same_matrix(candidate, closure):
            closure = candidate
            break
        closure = candidate
    collected = closure.collect(f"{matrix.name}+", semiring)
    return (
        Relation(f"{matrix.name}+", matrix.schema, list(collected)),
        cluster.report(),
    )


def _same_matrix(a: DistRelation, b: DistRelation) -> bool:
    """Fixpoint check (simulation-side; a real cluster would reduce a
    change-counter, an O(1)-load operation)."""
    return dict(a.data.collect()) == dict(b.data.collect())
