"""Delta batches over annotated relations (the IVM change model).

A :class:`DeltaBatch` is an ordered set of tuple-level changes against one
:class:`~repro.data.query.Instance`:

* ``insert`` — add a tuple with an annotation; inserting an existing key
  ⊕-combines, exactly like :meth:`~repro.data.relation.Relation.add`;
* ``delete`` — remove a tuple outright (whatever its current annotation).
  Deleting an absent tuple is an error, and deletions are only supported
  when the semiring declares a :attr:`~repro.semiring.Semiring.negate`
  (:class:`~repro.errors.UnsupportedDeltaError` otherwise) — insert-only
  maintenance is the monoid case and works over *any* commutative
  semiring, because the query answer is multilinear in its relations.

Batch semantics are defined once here and shared by the incremental path
(:class:`~repro.ivm.view.MaterializedView`) and the from-scratch oracle
(:func:`mutate_instance`): relations are processed in query order, and
within each relation all deletions apply first (against the pre-batch
state of that relation), then insertions in batch order.

The module also builds the *support semiring* ``base × ℤ``: annotations
are ``(value, support)`` pairs where the second slot counts contributing
join combinations in ordinary integers.  The distributed executor keeps
tuples whose annotation *computes* to zero (e.g. ``+1 ⊕ −1`` over the
reals) as long as at least one combination contributed, so a maintained
answer must track support counts to know when a key truly disappears —
the pair's count slot is exactly that, and deletions carry
``(negate(w), −1)`` so one ⊕-merge both cancels the value and retires the
support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..data.query import Instance
from ..data.relation import Relation
from ..errors import ConfigError, UnsupportedDeltaError
from ..semiring import Semiring

__all__ = [
    "DeltaChange",
    "DeltaBatch",
    "insert",
    "delete",
    "validate_batch",
    "mutate_instance",
    "support_semiring",
]

INSERT = "insert"
DELETE = "delete"
_OPS = (INSERT, DELETE)


@dataclass(frozen=True)
class DeltaChange:
    """One tuple-level change: ``(relation, op, values[, annotation])``."""

    relation: str
    op: str
    values: Tuple[Any, ...]
    annotation: Any = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ConfigError(f"unknown delta op {self.op!r}; expected {_OPS}")
        object.__setattr__(self, "values", tuple(self.values))
        if self.op == INSERT and self.annotation is None:
            raise ConfigError(
                f"insert into {self.relation!r} needs an annotation "
                "(None is not a semiring element)"
            )
        if self.op == DELETE and self.annotation is not None:
            raise ConfigError(
                "delete removes the whole tuple; it does not take an "
                "annotation (the view computes the compensating value itself)"
            )


@dataclass(frozen=True)
class DeltaBatch:
    """An ordered batch of :class:`DeltaChange` applied atomically."""

    changes: Tuple[DeltaChange, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "changes", tuple(self.changes))

    def __len__(self) -> int:
        return len(self.changes)

    def __iter__(self):
        return iter(self.changes)

    def relations(self) -> Tuple[str, ...]:
        """Distinct relation names touched, in first-appearance order."""
        seen: Dict[str, None] = {}
        for change in self.changes:
            seen.setdefault(change.relation, None)
        return tuple(seen)

    @property
    def has_deletions(self) -> bool:
        return any(change.op == DELETE for change in self.changes)


def insert(relation: str, values: Sequence[Any], annotation: Any) -> DeltaChange:
    """Convenience constructor for an insertion change."""
    return DeltaChange(relation, INSERT, tuple(values), annotation)


def delete(relation: str, values: Sequence[Any]) -> DeltaChange:
    """Convenience constructor for a deletion change."""
    return DeltaChange(relation, DELETE, tuple(values))


def validate_batch(batch: DeltaBatch, instance: Instance) -> None:
    """Structural validation of ``batch`` against ``instance``.

    Checks relation names, tuple arities, and — for deletions — that the
    semiring is invertible.  Existence of deleted tuples is checked at
    apply time (an earlier change in the batch may affect it).
    """
    schemas = {name: attrs for name, attrs in instance.query.relations}
    for change in batch:
        attrs = schemas.get(change.relation)
        if attrs is None:
            raise ConfigError(
                f"delta touches unknown relation {change.relation!r}; "
                f"query has {sorted(schemas)}"
            )
        if len(change.values) != len(attrs):
            raise ConfigError(
                f"delta tuple {change.values!r} has arity {len(change.values)}, "
                f"but {change.relation!r} has schema {attrs!r}"
            )
    if batch.has_deletions and instance.semiring.negate is None:
        raise UnsupportedDeltaError(
            f"deletions need additive inverses, but semiring "
            f"{instance.semiring.name!r} declares no negate; only insert-only "
            "deltas are maintainable over it (the paper's semiring model "
            "forbids subtraction)"
        )


def _grouped(batch: DeltaBatch, name: str) -> Tuple[List[DeltaChange], List[DeltaChange]]:
    """(deletions, insertions) of one relation, in batch order."""
    deletions = [c for c in batch if c.relation == name and c.op == DELETE]
    insertions = [c for c in batch if c.relation == name and c.op == INSERT]
    return deletions, insertions


def apply_to_relation(relation: Relation, batch: DeltaBatch,
                      semiring: Semiring) -> None:
    """Apply ``batch``'s changes for one relation in place (batch semantics)."""
    deletions, insertions = _grouped(batch, relation.name)
    for change in deletions:
        if change.values not in relation.tuples:
            raise ConfigError(
                f"delete of absent tuple {change.values!r} from "
                f"{relation.name!r}"
            )
        del relation.tuples[change.values]
        relation._indexes.clear()
    for change in insertions:
        relation.add(change.values, change.annotation, semiring)


def mutate_instance(instance: Instance, batch: DeltaBatch) -> Instance:
    """The from-scratch oracle's view of a delta: a new mutated instance.

    Pure — ``instance`` is untouched; the returned instance holds fresh
    :class:`~repro.data.relation.Relation` copies with ``batch`` applied
    under the batch semantics documented in the module docstring.
    """
    validate_batch(batch, instance)
    relations: Dict[str, Relation] = {
        name: Relation(name, rel.schema, list(rel))
        for name, rel in instance.relations.items()
    }
    for name, _ in instance.query.relations:
        apply_to_relation(relations[name], batch, instance.semiring)
    return Instance(instance.query, relations, instance.semiring)


def support_semiring(base: Semiring) -> Semiring:
    """The pair semiring ``base × ℤ`` used for maintained state.

    Componentwise ⊕/⊗ — the count slot is an ordinary integer, outside
    the base semiring's element discipline on purpose: it is bookkeeping
    about *how many* join combinations contribute, not an annotation.
    Both projections of a pair computation equal the corresponding scalar
    computation, so answers over the pair semiring are the base answers
    plus exact support counts.
    """

    def add(a: Tuple[Any, int], b: Tuple[Any, int]) -> Tuple[Any, int]:
        return (base.add(a[0], b[0]), a[1] + b[1])

    def mul(a: Tuple[Any, int], b: Tuple[Any, int]) -> Tuple[Any, int]:
        return (base.mul(a[0], b[0]), a[1] * b[1])

    def normalize(a: Tuple[Any, int]) -> Tuple[Any, int]:
        return (base.normalize(a[0]), a[1])

    return Semiring(
        name=f"{base.name}×support",
        zero=(base.zero, 0),
        one=(base.one, 1),
        add=add,
        mul=mul,
        idempotent_add=False,  # support counts accumulate even when base is
        normalize=normalize,
    )
