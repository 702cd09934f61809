"""The conformance invariant catalog (docs/conformance.md has the prose).

Every invariant is a function ``check(case, config) -> None`` raising
:class:`InvariantViolation` on failure.  The catalog:

* ``differential`` — every algorithm whose shape predicate accepts the query
  (:func:`repro.core.executor.applicable_algorithms`) must reproduce the
  sequential oracle exactly, annotations included, over the case's semiring
  profile;
* ``homomorphism`` — semiring homomorphisms commute with evaluation:
  ``h(alg_ℕ(I)) = alg_T(h(I))`` for h: ℕ→𝔹 (positivity) and h: ℕ→ℤ₉₇
  (reduction mod a prime);
* ``permutation`` — renaming attributes, permuting the relation list, and
  reinserting tuples in a different order must not change the answer;
* ``scaling`` — growing p must not blow up the max load (generously bounded
  monotonicity) and must keep the round count stable (the paper's
  algorithms are O(1)-round for every fixed query);
* ``opaque-discipline`` — algorithms run over
  :class:`~repro.testing.OpaqueSemiring` touch annotations only through
  ⊕/⊗ and still produce the exact counting answer;
* ``columnar-identity`` (opt-in) — the ``"columnar"`` backend is
  *bit-identical* to the ``"pytuple"`` reference: every applicable
  algorithm produces the same answer, the same serialized cost report,
  and the same trace event stream on both backends;
* ``ivm-identity`` (opt-in) — the metamorphic IVM oracle: a
  :class:`~repro.ivm.MaterializedView` fed a deterministic delta
  sequence (inserts, annotation bumps, and — where the semiring is
  invertible — deletions) must answer bit-identically to recomputing
  from scratch on the mutated instance, and the maintained answers plus
  the maintenance-tagged cost reports must agree across backends.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Tuple

from ..core.executor import applicable_algorithms, run_query
from ..data.query import Instance, TreeQuery
from ..data.relation import Relation
from ..ram.evaluate import evaluate
from ..semiring import BOOLEAN, COUNTING, Semiring
from ..testing import OpaqueSemiring
from .generators import FuzzCase, PROFILES, materialize

__all__ = [
    "InvariantViolation",
    "INVARIANTS",
    "DEFAULT_INVARIANTS",
    "check_differential",
    "check_homomorphism",
    "check_permutation",
    "check_scaling",
    "check_opaque_discipline",
    "check_columnar_identity",
    "check_ivm_identity",
]

#: Generous load-growth allowance for the scaling invariant: constants
#: dominate at fuzz-sized instances, so we only flag gross blow-ups.
LOAD_GROWTH_FACTOR = 1.5
LOAD_GROWTH_SLACK = 64
#: Extra rounds allowed when p grows.  Heavy/light partitioning shifts with
#: the p-dependent threshold, so the metered round count wobbles by a
#: constant factor of itself (never asymptotically in p): allow an absolute
#: floor plus a quarter of the baseline.
ROUND_SLACK = 6


class InvariantViolation(AssertionError):
    """A conformance invariant failed on a concrete instance."""

    def __init__(self, invariant: str, algorithm: str, message: str) -> None:
        super().__init__(f"[{invariant}/{algorithm}] {message}")
        self.invariant = invariant
        self.algorithm = algorithm
        self.message = message


def _result_map(relation: Relation) -> Dict[Tuple[Any, ...], Any]:
    return dict(relation.tuples)


def _backend(config) -> Any:
    """The campaign's kernel backend (older configs predate the field)."""
    return getattr(config, "backend", None)


def check_differential(case: FuzzCase, config) -> None:
    """Every applicable algorithm against the RAM oracle, exact equality."""
    instance = materialize(case)
    expected = _result_map(evaluate(instance))
    for algorithm in applicable_algorithms(case.query):
        result = run_query(
            instance, p=config.p, algorithm=algorithm, backend=_backend(config)
        )
        got = _result_map(result.relation)
        if got != expected:
            missing = len(expected.keys() - got.keys())
            extra = len(got.keys() - expected.keys())
            raise InvariantViolation(
                "differential",
                algorithm,
                f"disagrees with oracle over {case.profile}: "
                f"{len(got)} vs {len(expected)} tuples "
                f"({missing} missing, {extra} extra, "
                f"{sum(1 for k in expected if k in got and got[k] != expected[k])} "
                f"wrong annotations)",
            )


_MOD = 97


def _hom_semirings() -> List[Tuple[str, Semiring, Callable[[int], Any]]]:
    mod97 = Semiring(
        name="mod-97",
        zero=0,
        one=1,
        add=lambda a, b: (a + b) % _MOD,
        mul=lambda a, b: (a * b) % _MOD,
    )
    return [
        ("positivity:ℕ→𝔹", BOOLEAN, lambda value: value > 0),
        ("mod-97:ℕ→ℤ", mod97, lambda value: value % _MOD),
    ]


def check_homomorphism(case: FuzzCase, config) -> None:
    """h(alg(I)) == alg(h(I)) for semiring homomorphisms h out of ℕ."""
    instance = materialize(case, profile="counting")
    base = run_query(
        instance, p=config.p, algorithm="auto", backend=_backend(config)
    )
    for label, target, hom in _hom_semirings():
        mapped_relations = {
            name: Relation(
                name,
                relation.schema,
                [(values, hom(weight)) for values, weight in relation],
                semiring=target,
            )
            for name, relation in instance.relations.items()
        }
        mapped_instance = Instance(case.query, mapped_relations, target)
        mapped = run_query(
            mapped_instance, p=config.p, algorithm="auto", backend=_backend(config)
        )
        expected = {k: hom(v) for k, v in base.relation.tuples.items()}
        if _result_map(mapped.relation) != expected:
            raise InvariantViolation(
                "homomorphism",
                mapped.algorithm,
                f"evaluation does not commute with {label}",
            )


def check_permutation(case: FuzzCase, config) -> None:
    """Attribute renaming + relation/tuple reorder leave the answer fixed."""
    instance = materialize(case, profile="counting")
    base = run_query(
        instance, p=config.p, algorithm="auto", backend=_backend(config)
    )

    rng = random.Random(case.seed ^ 0x5EED)
    attrs = sorted(case.query.attributes)
    shuffled = list(attrs)
    rng.shuffle(shuffled)
    # Fresh names whose sort order is itself permuted.
    rename = {attr: f"X{i:02d}_{attr}" for attr, i in zip(attrs, _ranks(shuffled, attrs))}

    specs = [
        (name, (rename[a], rename[b])) for name, (a, b) in case.query.relations
    ]
    rng.shuffle(specs)
    permuted_query = TreeQuery(
        tuple(specs), frozenset(rename[a] for a in case.query.output)
    )
    permuted_relations = {}
    for name, _attrs in case.query.relations:
        rows = list(case.skeleton[name])
        rng.shuffle(rows)
        schema = permuted_query.schema_of(name)
        relation = Relation(name, schema)
        for values, weight in rows:
            relation.add(values, weight, COUNTING)
        permuted_relations[name] = relation
    permuted_instance = Instance(permuted_query, permuted_relations, COUNTING)
    permuted = run_query(
        permuted_instance, p=config.p, algorithm="auto", backend=_backend(config)
    )

    # Re-key the permuted result onto the original output order.
    permuted_schema = tuple(sorted(permuted_query.output))
    original_schema = tuple(sorted(case.query.output))
    position = {
        rename[attr]: index for index, attr in enumerate(original_schema)
    }
    rekeyed: Dict[Tuple[Any, ...], Any] = {}
    for values, weight in permuted.relation:
        key: List[Any] = [None] * len(values)
        for renamed_attr, value in zip(permuted_schema, values):
            key[position[renamed_attr]] = value
        rekeyed[tuple(key)] = weight
    if rekeyed != _result_map(base.relation):
        raise InvariantViolation(
            "permutation",
            permuted.algorithm,
            "result changed under attribute renaming / input reordering",
        )


def _ranks(shuffled: List[str], attrs: List[str]) -> List[int]:
    order = {attr: index for index, attr in enumerate(shuffled)}
    return [order[attr] for attr in attrs]


def check_scaling(case: FuzzCase, config) -> None:
    """Load must not blow up and rounds must stay stable as p grows."""
    instance = materialize(case, profile="counting")
    small = run_query(instance, p=config.p, algorithm="auto", backend=_backend(config))
    large = run_query(
        instance, p=config.p_large, algorithm="auto", backend=_backend(config)
    )
    if large.relation.tuples != small.relation.tuples:
        raise InvariantViolation(
            "scaling", small.algorithm, "answer changed with the server count"
        )
    load_bound = small.report.max_load * LOAD_GROWTH_FACTOR + LOAD_GROWTH_SLACK
    if large.report.max_load > load_bound:
        raise InvariantViolation(
            "scaling",
            small.algorithm,
            f"max load grew from {small.report.max_load} (p={config.p}) to "
            f"{large.report.max_load} (p={config.p_large})",
        )
    round_bound = small.report.rounds + max(ROUND_SLACK, small.report.rounds // 4)
    if large.report.rounds > round_bound:
        raise InvariantViolation(
            "scaling",
            small.algorithm,
            f"rounds grew from {small.report.rounds} (p={config.p}) to "
            f"{large.report.rounds} (p={config.p_large})",
        )


def check_opaque_discipline(case: FuzzCase, config) -> None:
    """§1.3 discipline: annotations only ever combined through ⊕/⊗.

    Runs every applicable algorithm over the opaque semiring; any arithmetic
    outside the semiring object raises ``TypeError`` inside the algorithm,
    and the unwrapped values must equal the plain counting oracle's.
    """
    counting = materialize(case, profile="counting")
    expected = _result_map(evaluate(counting))
    for algorithm in applicable_algorithms(case.query):
        semiring, counters = OpaqueSemiring.make()
        relations = {}
        for name, attrs in case.query.relations:
            relation = Relation(name, attrs)
            for values, weight in case.skeleton[name]:
                relation.add(values, OpaqueSemiring.wrap(weight), semiring)
            relations[name] = relation
        instance = Instance(case.query, relations, semiring)
        try:
            result = run_query(
            instance, p=config.p, algorithm=algorithm, backend=_backend(config)
        )
        except TypeError as error:
            raise InvariantViolation(
                "opaque-discipline", algorithm, f"discipline violation: {error}"
            ) from error
        got = {
            key: OpaqueSemiring.unwrap(value)
            for key, value in result.relation.tuples.items()
        }
        if got != expected:
            raise InvariantViolation(
                "opaque-discipline",
                algorithm,
                f"opaque run disagrees with counting oracle: "
                f"{len(got)} vs {len(expected)} tuples",
            )
        if expected and counters["mul"] == 0:
            raise InvariantViolation(
                "opaque-discipline",
                algorithm,
                "non-empty result produced without any ⊗ invocation",
            )


def check_columnar_identity(case: FuzzCase, config) -> None:
    """The columnar backend is bit-identical to the reference backend.

    Every applicable algorithm runs twice — ``backend="pytuple"`` and
    ``backend="columnar"`` — and the answers (tuples *and* annotations),
    the serialized cost reports, and the full trace event streams must
    match exactly.  Opt-in like ``chaos``: the default campaign already
    cycles ``differential`` per backend, while this invariant pins the
    stronger meter/trace contract.
    """
    from ..config import ExecutionConfig
    from ..obs.events import RingBufferSink, Tracer, event_to_dict

    instance = materialize(case)
    for algorithm in applicable_algorithms(case.query):
        outcomes = {}
        for backend in ("pytuple", "columnar"):
            sink = RingBufferSink()
            result = run_query(
                instance,
                config=ExecutionConfig(
                    p=config.p,
                    algorithm=algorithm,
                    backend=backend,
                    tracer=Tracer((sink,)),
                ),
            )
            outcomes[backend] = (
                _result_map(result.relation),
                result.report.to_dict(),
                [event_to_dict(event) for event in sink.events],
            )
        reference, columnar = outcomes["pytuple"], outcomes["columnar"]
        for what, index in (("answer", 0), ("cost report", 1), ("trace", 2)):
            if reference[index] != columnar[index]:
                raise InvariantViolation(
                    "columnar-identity",
                    algorithm,
                    f"columnar {what} diverges from pytuple over "
                    f"{case.profile}/{case.skew}",
                )


def _ivm_delta_batches(case: FuzzCase, batches: int = 3):
    """A deterministic delta sequence for ``case`` (same seed, same deltas).

    Each batch mixes brand-new inserts, annotation bumps of existing keys,
    and — when the case's semiring profile has additive inverses —
    deletions, touching at most one key per relation per batch so the
    generated sequence is order-independent within a batch.  Values are
    drawn from the case's active domain so deltas actually join.
    """
    from ..ivm.delta import DeltaBatch, DeltaChange

    spec = PROFILES[case.profile]
    invertible = spec.make().negate is not None
    rng = random.Random(case.seed ^ 0x1D3A)
    state: Dict[str, set] = {
        name: {values for values, _weight in rows}
        for name, rows in case.skeleton.items()
    }
    domain = sorted(
        {value for rows in case.skeleton.values()
         for values, _weight in rows for value in values}
    ) or [0]
    names = [name for name, _ in case.query.relations]
    result = []
    fresh = 1000  # values outside any generated domain: guaranteed-new keys
    for index in range(batches):
        changes = []
        used: set = set()
        for step in range(rng.randint(1, 3)):
            name = names[(index + step) % len(names)]
            keys = sorted(key for key in state[name]
                          if (name, key) not in used)
            roll = rng.random()
            if invertible and keys and roll < 0.34:
                key = rng.choice(keys)
                state[name].discard(key)
                used.add((name, key))
                changes.append(DeltaChange(name, "delete", key))
                continue
            if keys and roll < 0.67:
                key = rng.choice(keys)  # bump an existing key
            else:
                key = (rng.choice(domain), rng.choice(domain))
                if key in state[name] or (name, key) in used:
                    key = (fresh, rng.choice(domain))
                    fresh += 1
                state[name].add(key)
            if (name, key) in used:
                continue
            used.add((name, key))
            weight = rng.randint(1, 4)
            changes.append(DeltaChange(
                name, "insert", key, spec.annotate(name, key, weight)
            ))
        if changes:
            result.append(DeltaBatch(tuple(changes)))
    return result


def check_ivm_identity(case: FuzzCase, config) -> None:
    """Incremental maintenance equals recompute-from-scratch, bit for bit.

    Builds a :class:`~repro.ivm.MaterializedView` per backend, applies the
    case's deterministic delta sequence, and requires (a) every backend's
    maintained answer to equal the RAM oracle on the sequentially mutated
    instance — annotations included — and (b) the maintained answers and
    maintenance-tagged serialized cost reports to be identical across
    backends.  Opt-in like ``columnar-identity`` (replay:
    ``repro fuzz --invariants differential ivm-identity``).
    """
    from ..config import ExecutionConfig
    from ..ivm import MaterializedView
    from ..ivm.delta import mutate_instance

    batches = _ivm_delta_batches(case)
    oracle_instance = materialize(case)
    for batch in batches:
        oracle_instance = mutate_instance(oracle_instance, batch)
    expected = _result_map(evaluate(oracle_instance))

    outcomes = {}
    for backend in ("pytuple", "columnar"):
        view = MaterializedView(
            materialize(case),
            config=ExecutionConfig(p=config.p, backend=backend),
        )
        for batch in batches:
            view.apply(batch)
        answer = _result_map(view.answer())
        if answer != expected:
            missing = len(expected.keys() - answer.keys())
            extra = len(answer.keys() - expected.keys())
            raise InvariantViolation(
                "ivm-identity",
                backend,
                f"incremental answer disagrees with recompute oracle over "
                f"{case.profile}/{case.skew} after {len(batches)} batches: "
                f"{len(answer)} vs {len(expected)} tuples "
                f"({missing} missing, {extra} extra, "
                f"{sum(1 for k in expected if k in answer and answer[k] != expected[k])} "
                f"wrong annotations)",
            )
        outcomes[backend] = (answer, view.report().to_dict())
    reference, columnar = outcomes["pytuple"], outcomes["columnar"]
    for what, index in (("answer", 0), ("cost report", 1)):
        if reference[index] != columnar[index]:
            raise InvariantViolation(
                "ivm-identity",
                "columnar",
                f"maintained {what} diverges between backends over "
                f"{case.profile}/{case.skew}",
            )


#: Name → checker; the runner cycles through this catalog.  The chaos tier
#: (:mod:`repro.conformance.chaos`) registers its ``"chaos"`` invariant
#: here too, so corpus replay resolves it by name.  ``columnar-identity``
#: and ``ivm-identity`` are registered but opt-in (absent from
#: :data:`DEFAULT_INVARIANTS`).
INVARIANTS: Dict[str, Callable[[FuzzCase, Any], None]] = {
    "differential": check_differential,
    "homomorphism": check_homomorphism,
    "permutation": check_permutation,
    "scaling": check_scaling,
    "opaque-discipline": check_opaque_discipline,
    "columnar-identity": check_columnar_identity,
    "ivm-identity": check_ivm_identity,
}

#: The invariants a plain ``repro fuzz`` campaign cycles by default.  Kept
#: explicit (rather than ``tuple(INVARIANTS)``) so opt-in registrations
#: like ``chaos`` never change default summaries — same seed, same bytes.
DEFAULT_INVARIANTS: Tuple[str, ...] = (
    "differential",
    "homomorphism",
    "permutation",
    "scaling",
    "opaque-discipline",
)
