"""Annotated relations (paper §1.1).

A relation ``R_e`` over attributes ``e`` is a set of tuples, each carrying an
annotation from a commutative semiring.  :class:`Relation` is the sequential
(logical) form used by generators, the RAM oracle, and as the result type;
:class:`DistRelation` couples a schema with a
:class:`~repro.mpc.distributed.Distributed` of ``(values, annotation)`` pairs
living on a cluster view.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..mpc.cluster import ClusterView
from ..mpc.distributed import Distributed
from ..semiring import Semiring

__all__ = ["Relation", "DistRelation", "AnnotatedTuple", "ColumnKey", "annotation_of"]

#: The wire format of one annotated tuple: (attribute values, annotation).
AnnotatedTuple = Tuple[Tuple[Any, ...], Any]

#: The value function "this item's annotation".  Passed by identity, so a
#: primitive handed array batches knows the values are the annotation array.
annotation_of = itemgetter(1)


class ColumnKey:
    """The key "columns ``indices`` of the values tuple", always a tuple.

    Calling it on a ``(values, annotation)`` item builds the key — what the
    item folds, sorts and searches do; :func:`~repro.primitives.reduce_by_key
    .reduce_by_key` on the columnar backend reads ``indices`` instead and
    takes the same key from code columns, one column per position, without
    building or interning a tuple per row.
    """

    __slots__ = ("indices", "_of_values")

    def __init__(self, indices: Sequence[int]) -> None:
        self.indices: Tuple[int, ...] = tuple(indices)
        if len(self.indices) >= 2:
            self._of_values = itemgetter(*self.indices)
        else:  # itemgetter(i) would return the bare value: slice the tuple
            stop = self.indices[0] + 1 if self.indices else 0
            self._of_values = itemgetter(slice(stop - len(self.indices), stop))

    def __call__(self, item: AnnotatedTuple) -> Tuple:
        return self._of_values(item[0])


class Relation:
    """A named, schema'd set of annotated tuples.

    Tuples are keyed by their attribute values; inserting a duplicate key
    ⊕-combines annotations when a semiring is supplied (and raises otherwise),
    so a :class:`Relation` is always a *set* with aggregated annotations.
    """

    def __init__(
        self,
        name: str,
        schema: Sequence[str],
        tuples: Optional[Iterable[AnnotatedTuple]] = None,
        semiring: Optional[Semiring] = None,
    ) -> None:
        if len(set(schema)) != len(schema):
            raise ValueError(f"duplicate attribute in schema {schema!r}")
        self.name = name
        self.schema: Tuple[str, ...] = tuple(schema)
        self.tuples: Dict[Tuple[Any, ...], Any] = {}
        #: per-attribute-index caches of (column values, value -> multiplicity);
        #: dropped whenever a *new* tuple key is inserted (annotation
        #: ⊕-combines keep the key set, so they leave the caches valid).
        self._indexes: Dict[int, Tuple[List[Any], Counter]] = {}
        if tuples is None:
            return
        items = tuples if isinstance(tuples, list) else list(tuples)
        try:
            bulk = dict(items)
        except (TypeError, ValueError):  # not pairs, or an unhashable key
            bulk = {}
        # Exact tuples of the schema's arity, no two equal: what ``add`` would
        # build one call at a time.  Anything else takes it, errors included.
        if (
            len(bulk) == len(items)
            and set(map(type, bulk)) <= {tuple}
            and set(map(len, bulk)) <= {len(self.schema)}
        ):
            self.tuples = bulk
        else:
            for values, annotation in items:
                self.add(values, annotation, semiring)

    # -- mutation ---------------------------------------------------------------

    def add(
        self,
        values: Sequence[Any],
        annotation: Any,
        semiring: Optional[Semiring] = None,
    ) -> None:
        """Insert a tuple; duplicates ⊕-combine when a semiring is given."""
        key = tuple(values)
        if len(key) != len(self.schema):
            raise ValueError(
                f"tuple arity {len(key)} does not match schema {self.schema!r}"
            )
        if key in self.tuples:
            if semiring is None:
                raise ValueError(f"duplicate tuple {key!r} without a semiring to combine")
            self.tuples[key] = semiring.add(self.tuples[key], annotation)
        else:
            self.tuples[key] = annotation
            if self._indexes:
                self._indexes.clear()

    # -- inspection ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterable[AnnotatedTuple]:
        return iter(self.tuples.items())

    def __contains__(self, values: Sequence[Any]) -> bool:
        return tuple(values) in self.tuples

    def annotation(self, values: Sequence[Any]) -> Any:
        """The annotation of one tuple (KeyError when absent)."""
        return self.tuples[tuple(values)]

    def attr_index(self, attribute: str) -> int:
        """Position of ``attribute`` in the schema (KeyError when absent)."""
        try:
            return self.schema.index(attribute)
        except ValueError:
            raise KeyError(f"{attribute!r} not in schema {self.schema!r}") from None

    def _index(self, attribute: str) -> Tuple[List[Any], Counter]:
        """The memoized (column, multiplicities) pair of one attribute.

        Built in one O(n) pass on first access; repeated ``degree`` probes —
        the hot statistic of every heavy/light split — are O(1) afterwards.
        """
        index = self.attr_index(attribute)
        cached = self._indexes.get(index)
        if cached is None:
            column = [values[index] for values in self.tuples]
            cached = (column, Counter(column))
            self._indexes[index] = cached
        return cached

    def column(self, attribute: str) -> List[Any]:
        """All values (with multiplicity) of one attribute."""
        return list(self._index(attribute)[0])

    def active_domain(self, attribute: str) -> set:
        """Distinct values of ``attribute`` occurring in the relation."""
        return set(self._index(attribute)[1])

    def degree(self, attribute: str, value: Any) -> int:
        """|σ_{attribute=value} R| — the paper's degree statistic (§2.1)."""
        return self._index(attribute)[1].get(value, 0)

    def project_keys(self, attributes: Sequence[str]) -> set:
        """Distinct value combinations of ``attributes`` (set projection)."""
        indices = [self.attr_index(a) for a in attributes]
        return {tuple(values[i] for i in indices) for values in self.tuples}

    # -- equality (semantic: same schema, tuples, annotations) --------------------

    def same_contents(self, other: "Relation") -> bool:
        """Same schema, tuples, and annotations (names may differ)."""
        return self.schema == other.schema and self.tuples == other.tuples

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self.name}{self.schema}, {len(self)} tuples)"


class DistRelation:
    """A relation distributed over a cluster view."""

    def __init__(self, schema: Sequence[str], data: Distributed) -> None:
        self.schema: Tuple[str, ...] = tuple(schema)
        self.data = data

    @classmethod
    def load(
        cls,
        view: ClusterView,
        relation: Relation,
        semiring: Optional[Semiring] = None,
    ) -> "DistRelation":
        """Round-0 placement of a logical relation (free, per the model).

        Under the ``"columnar"`` backend (and given the ``semiring``, so
        the annotation profile is known), the relation is encoded once into
        a :class:`~repro.mpc.columnar.ColumnarData` — the same contiguous
        ⌈n/p⌉ placement, physically stored as int64 code columns plus one
        annotation column, typed when the annotations fit the semiring's
        profile and an object array otherwise.
        """
        from ..backends.dispatch import columnar_enabled

        if semiring is None or not columnar_enabled(view):
            return cls(relation.schema, Distributed.from_items(view, list(relation)))
        from ..backends.batch import ColumnarBatch
        from ..backends.columnar import encode_annotations, profile_of
        from ..mpc.columnar import ColumnarData

        items = list(relation)
        profile = profile_of(semiring)
        annotations = encode_annotations([item[1] for item in items], profile)
        codec = view.cluster.codec
        columns = tuple(
            codec.encode_many([item[0][j] for item in items])
            for j in range(len(relation.schema))
        )
        batch = ColumnarBatch(columns, annotations, len(items), "items")
        return cls(relation.schema, ColumnarData.from_batch(view, batch, codec))

    @property
    def view(self) -> ClusterView:
        return self.data.view

    @property
    def total_size(self) -> int:
        return self.data.total_size

    def attr_index(self, attribute: str) -> int:
        """Position of ``attribute`` in the schema (KeyError when absent)."""
        try:
            return self.schema.index(attribute)
        except ValueError:
            raise KeyError(f"{attribute!r} not in schema {self.schema!r}") from None

    def key_fn(self, attributes: Sequence[str]) -> ColumnKey:
        """The key extracting the sub-tuple of ``attributes`` from an item."""
        return ColumnKey(self.attr_index(a) for a in attributes)

    def with_data(self, data: Distributed) -> "DistRelation":
        """Same schema over a different distributed payload."""
        return DistRelation(self.schema, data)

    def reordered(self, schema: Sequence[str]) -> "DistRelation":
        """This relation with its columns in ``schema`` order — ``self`` when
        they already are, else the code columns of a
        :class:`~repro.mpc.columnar.ColumnarData` permuted, or every value
        tuple re-read locally (no communication).  ``schema`` must be a
        permutation of the relation's own (``ValueError`` otherwise)."""
        schema = tuple(schema)
        if schema == self.schema:
            return self
        if sorted(schema) != sorted(self.schema):
            raise ValueError(
                f"{schema!r} is not a permutation of schema {self.schema!r}"
            )
        from ..mpc.columnar import ColumnarData

        indices = [self.attr_index(a) for a in schema]
        data = self.data
        if isinstance(data, ColumnarData) and data.batch.kind == "items":
            columns = data.batch.columns
            return DistRelation(schema, data.with_columns(columns[i] for i in indices))
        pick = itemgetter(*indices)  # width ≥ 2 here
        return DistRelation(
            schema, self.data.map_items(lambda item: (pick(item[0]), item[1]))
        )

    def collect(self, name: str, semiring: Semiring) -> Relation:
        """Materialize as a logical relation (inspection / test oracle path)."""
        return Relation(name, self.schema, self.data.collect(), semiring=semiring)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistRelation({self.schema}, {self.total_size} tuples)"
