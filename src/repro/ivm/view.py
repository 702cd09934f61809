"""Materialized join-aggregate views maintained by delta propagation.

A :class:`MaterializedView` pins a query, an
:class:`~repro.config.ExecutionConfig`, and the instance state, and keeps
the query answer live under :class:`~repro.ivm.delta.DeltaBatch` streams.
The design target is the instance-optimality lens of Hu & Yi's acyclic
joins work (arXiv:1903.09717): maintenance cost proportional to *what
changed*, not to instance size N.

How one batch is applied, per touched relation in query order
(sequential telescoping, so multi-relation batches compose exactly):

1. the relation's changes become one *delta relation* ΔR over the
   support semiring ``base × ℤ`` — a brand-new key carries ``(w, +1)``,
   an annotation bump of an existing key carries ``(w, 0)``, and a
   deletion carries ``(negate(w_current), −1)`` so the pair product of a
   combination is already the compensating contribution;
2. every *other* relation is semijoin-restricted to the tuples
   join-reachable from ΔR, walking the join tree outward from the delta
   edge through the view's per-attribute indexes — each relation and
   attribute is visited exactly once (the query hypergraph is a tree),
   so the restricted instance is proportional to the delta's join
   neighbourhood, never to N;
3. the restricted instance runs through the ordinary distributed
   executor (``algorithm="yannakakis"`` — the join-tree propagation pass
   — on a fresh cluster built from the pinned config), and the result is
   ⊕-merged into the maintained answer, dropping keys whose support
   count reaches zero;
4. the stored relation and its indexes absorb the changes.

Steps with an empty ΔR or an empty restriction short-circuit: no cluster
is built and nothing is metered.  All metering from step 3 accumulates
under the distinct ``maintenance`` tag of
:class:`~repro.mpc.stats.CostReport` (load is a max over delta runs,
communication/rounds/products are totals) — the base meters are the
materialization run's and never change afterwards, the same contract as
the fault-injection ``recovery`` tag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from ..config import ExecutionConfig
from ..core.executor import run_query
from ..data.query import Instance, TreeQuery
from ..data.relation import Relation
from ..errors import ConfigError
from ..mpc.stats import TAGGED_FIELDS, CostReport
from ..obs.events import MAINTENANCE_OP
from .delta import (
    DELETE,
    INSERT,
    DeltaBatch,
    DeltaChange,
    support_semiring,
    validate_batch,
)

__all__ = ["MaterializedView", "DeltaResult", "materialize"]

#: value → set of tuple keys, one map per schema position.
_AttrIndex = Dict[Any, Set[Tuple[Any, ...]]]


@dataclass(frozen=True)
class DeltaResult:
    """Outcome of one :meth:`MaterializedView.apply` call."""

    #: Number of changes in the applied batch.
    changes: int
    #: Relations the batch touched, in query order.
    relations: Tuple[str, ...]
    #: Propagation runs actually executed (short-circuited steps excluded).
    runs: int
    #: Maintenance cost of this batch: max load over its runs, and
    #: communication/rounds/products totals.
    load: int
    communication: int
    rounds: int
    products: int
    #: Answer size after the batch.
    out_size: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "changes": self.changes,
            "relations": list(self.relations),
            "runs": self.runs,
            "load": self.load,
            "communication": self.communication,
            "rounds": self.rounds,
            "products": self.products,
            "out_size": self.out_size,
        }


class MaterializedView:
    """A live join-aggregate answer over a pinned query and config."""

    def __init__(self, instance: Instance,
                 config: Optional[ExecutionConfig] = None,
                 name: str = "view") -> None:
        config = config if config is not None else ExecutionConfig()
        if config.fault_schedule is not None:
            raise ConfigError(
                "materialized views and fault injection are mutually "
                "exclusive: maintenance runs must be deterministic"
            )
        self.name = name
        self.query: TreeQuery = instance.query
        self.semiring = instance.semiring
        self.config = config
        self.out_schema: Tuple[str, ...] = tuple(sorted(self.query.output))
        #: Delta runs always use the join-tree propagation algorithm; the
        #: restricted instances keep the pinned query's shape, so the
        #: choice is deterministic and uniform across runs.
        self._run_config = dc_replace(config, algorithm="yannakakis")
        self._pair = support_semiring(instance.semiring)
        self._relations: Dict[str, Relation] = {
            rel_name: Relation(rel_name, rel.schema, list(rel))
            for rel_name, rel in instance.relations.items()
        }
        self._indexes: Dict[str, Tuple[_AttrIndex, _AttrIndex]] = {
            rel_name: self._build_index(rel)
            for rel_name, rel in self._relations.items()
        }
        result = run_query(
            Instance(self.query, self._pair_relations(), self._pair),
            config=self._run_config,
        )
        #: answer key → (base annotation, support count).
        self._answer: Dict[Tuple[Any, ...], Tuple[Any, int]] = dict(
            result.relation.tuples
        )
        #: The materialization run's report — the view's base meters.
        self.base_report: CostReport = result.report
        #: The accumulated ``maintenance`` tag, by :class:`CostReport` field.
        self._maintenance: Dict[str, int] = dict.fromkeys(
            TAGGED_FIELDS["maintenance"], 0
        )
        self.deltas_applied = 0
        self.changes_applied = 0
        #: Bumped on every applied batch; lets callers detect staleness.
        self.generation = 0

    # -- inspection ---------------------------------------------------------

    @property
    def out_size(self) -> int:
        return len(self._answer)

    @property
    def instance_size(self) -> int:
        """Current N = Σ_e |R_e| of the maintained state."""
        return sum(len(rel) for rel in self._relations.values())

    def answer(self) -> Relation:
        """The maintained answer over the *base* semiring."""
        return Relation(
            "result",
            self.out_schema,
            [(key, value) for key, (value, _count) in self._answer.items()],
        )

    def current_instance(self) -> Instance:
        """A fresh copy of the maintained instance (the oracle's input)."""
        return Instance(
            self.query,
            {
                rel_name: Relation(rel_name, rel.schema, list(rel))
                for rel_name, rel in self._relations.items()
            },
            self.semiring,
        )

    def report(self) -> CostReport:
        """Base meters from materialization + accumulated maintenance tag."""
        return dc_replace(self.base_report, **self._maintenance)

    def to_summary(self) -> Dict[str, Any]:
        """JSON-ready description (used by the CLI and the service)."""
        return {
            "name": self.name,
            "algorithm": self.base_report.algorithm,
            "out_size": self.out_size,
            "instance_size": self.instance_size,
            "deltas_applied": self.deltas_applied,
            "changes_applied": self.changes_applied,
            "generation": self.generation,
            "report": self.report().to_dict(),
        }

    # -- maintenance --------------------------------------------------------

    def apply(self, batch: Union[DeltaBatch, Iterable[DeltaChange]]) -> DeltaResult:
        """Apply one delta batch; returns this batch's maintenance costs."""
        if not isinstance(batch, DeltaBatch):
            batch = DeltaBatch(tuple(batch))
        validate_batch(
            batch, Instance(self.query, self._relations, self.semiring)
        )
        load = communication = rounds = products = runs = 0
        touched: List[str] = []
        for rel_name, _attrs in self.query.relations:
            deletions = [c for c in batch
                         if c.relation == rel_name and c.op == DELETE]
            insertions = [c for c in batch
                          if c.relation == rel_name and c.op == INSERT]
            if not deletions and not insertions:
                continue
            touched.append(rel_name)
            delta_rel = self._delta_relation(rel_name, deletions, insertions)
            delta_answer: Optional[Dict[Tuple[Any, ...], Tuple[Any, int]]] = None
            if len(delta_rel):
                restricted = self._restricted(rel_name, delta_rel)
                if restricted is not None:
                    restricted[rel_name] = delta_rel
                    run = run_query(
                        Instance(self.query, restricted, self._pair),
                        config=self._run_config,
                    )
                    delta_answer = run.relation.tuples
                    load = max(load, run.report.max_load)
                    communication += run.report.total_communication
                    rounds += run.report.rounds
                    products += run.report.elementary_products
                    runs += 1
            # Telescoping: this relation's state (and indexes) absorb the
            # changes *before* the next touched relation runs, so later
            # runs see the updated neighbourhood.
            self._apply_state(rel_name, deletions, insertions)
            if delta_answer:
                self._merge_answer(delta_answer)
        tag = self._maintenance
        tag["maintenance_load"] = max(tag["maintenance_load"], load)
        tag["maintenance_communication"] += communication
        tag["maintenance_rounds"] += rounds
        tag["maintenance_products"] += products
        self.deltas_applied += 1
        self.changes_applied += len(batch)
        self.generation += 1
        result = DeltaResult(
            changes=len(batch),
            relations=tuple(touched),
            runs=runs,
            load=load,
            communication=communication,
            rounds=rounds,
            products=products,
            out_size=self.out_size,
        )
        tracer = self.config.tracer
        if tracer is not None:
            # Out-of-band summary event (round −1, outside LOAD_OPS).
            tracer.emit(MAINTENANCE_OP, -1, (),
                        detail={"view": self.name, **result.to_dict()})
        return result

    # -- internals ----------------------------------------------------------

    def _pair_relations(self) -> Dict[str, Relation]:
        """Current state lifted to the support semiring: every key (w, 1)."""
        return {
            rel_name: Relation(
                rel_name, rel.schema,
                [(key, (value, 1)) for key, value in rel.tuples.items()],
            )
            for rel_name, rel in self._relations.items()
        }

    @staticmethod
    def _build_index(rel: Relation) -> Tuple[_AttrIndex, _AttrIndex]:
        first: _AttrIndex = {}
        second: _AttrIndex = {}
        for key in rel.tuples:
            first.setdefault(key[0], set()).add(key)
            second.setdefault(key[1], set()).add(key)
        return (first, second)

    def _delta_relation(self, rel_name: str, deletions: List[DeltaChange],
                        insertions: List[DeltaChange]) -> Relation:
        """The batch's changes to one relation as a ΔR over ``base × ℤ``."""
        rel = self._relations[rel_name]
        pair = self._pair
        entries: Dict[Tuple[Any, ...], Tuple[Any, int]] = {}

        def merge(key: Tuple[Any, ...], contribution: Tuple[Any, int]) -> None:
            current = entries.get(key)
            entries[key] = (contribution if current is None
                            else pair.add(current, contribution))

        deleted: Set[Tuple[Any, ...]] = set()
        for change in deletions:
            key = change.values
            if key in deleted or key not in rel.tuples:
                raise ConfigError(
                    f"delete of absent tuple {key!r} from {rel_name!r}"
                )
            deleted.add(key)
            merge(key, (self.semiring.negate(rel.tuples[key]), -1))
        present = set(rel.tuples) - deleted
        for change in insertions:
            key = change.values
            if key in present:
                merge(key, (change.annotation, 0))  # bump: support unchanged
            else:
                merge(key, (change.annotation, 1))  # brand-new key
                present.add(key)
        # A delete+reinsert pair can cancel to the exact pair zero; such
        # entries contribute nothing and would only widen the restriction.
        zero = pair.zero
        return Relation(
            rel_name, rel.schema,
            [(key, value) for key, value in entries.items() if value != zero],
        )

    def _restricted(self, delta_name: str,
                    delta_rel: Relation) -> Optional[Dict[str, Relation]]:
        """Every other relation semijoin-restricted to ΔR's neighbourhood.

        Walks the join tree outward from the delta edge; each relation is
        reached through exactly one attribute (tree-ness), so one pass of
        index probes computes the exact set of tuples that can join with
        any delta tuple.  Returns ``None`` when some restriction is empty
        — no combination can involve the delta, the contribution is zero.
        """
        query = self.query
        delta_index = next(
            i for i, (rel_name, _a) in enumerate(query.relations)
            if rel_name == delta_name
        )
        x, y = query.schema_of(delta_name)
        values: Dict[str, Set[Any]] = {
            x: {key[0] for key in delta_rel.tuples},
            y: {key[1] for key in delta_rel.tuples},
        }
        restricted: Dict[str, Relation] = {}
        visited = {delta_index}
        frontier = [x, y]
        while frontier:
            attr = frontier.pop()
            for rel_index, neighbour in query.adjacency[attr]:
                if rel_index in visited:
                    continue
                visited.add(rel_index)
                rel_name, attrs = query.relations[rel_index]
                position = attrs.index(attr)
                index = self._indexes[rel_name][position]
                keys: Set[Tuple[Any, ...]] = set()
                for value in values[attr]:
                    keys.update(index.get(value, ()))
                if not keys:
                    return None
                source = self._relations[rel_name].tuples
                restricted[rel_name] = Relation(
                    rel_name, attrs,
                    [(key, (source[key], 1)) for key in keys],
                )
                values[neighbour] = {key[1 - position] for key in keys}
                frontier.append(neighbour)
        return restricted

    def _apply_state(self, rel_name: str, deletions: List[DeltaChange],
                     insertions: List[DeltaChange]) -> None:
        rel = self._relations[rel_name]
        first, second = self._indexes[rel_name]
        for change in deletions:
            key = change.values
            del rel.tuples[key]
            for index, value in ((first, key[0]), (second, key[1])):
                bucket = index.get(value)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del index[value]
        for change in insertions:
            key = change.values
            if key in rel.tuples:
                rel.tuples[key] = self.semiring.add(
                    rel.tuples[key], change.annotation
                )
            else:
                rel.tuples[key] = change.annotation
                first.setdefault(key[0], set()).add(key)
                second.setdefault(key[1], set()).add(key)
        rel._indexes.clear()

    def _merge_answer(
        self, delta_answer: Dict[Tuple[Any, ...], Tuple[Any, int]]
    ) -> None:
        pair = self._pair
        for key, contribution in delta_answer.items():
            current = self._answer.get(key)
            merged = (contribution if current is None
                      else pair.add(current, contribution))
            if merged[1] == 0:
                # No contributing combination left: the key leaves the
                # answer (the executor keeps computed zeros only while at
                # least one combination supports them).
                self._answer.pop(key, None)
            else:
                self._answer[key] = merged


def materialize(instance: Instance, config: Optional[ExecutionConfig] = None,
                name: str = "view") -> MaterializedView:
    """Build a :class:`MaterializedView` over ``instance``.

    The materialization itself is one ordinary distributed run (its
    meters become the view's base report); subsequent
    :meth:`MaterializedView.apply` calls meter under the ``maintenance``
    tag only.
    """
    return MaterializedView(instance, config=config, name=name)
