"""Public testing utilities for downstream users.

:class:`OpaqueSemiring` is an instrumentation semiring whose elements
refuse every operation except ⊕/⊗ through the semiring object, proving an
algorithm obeys the *semiring MPC model* discipline (§1.3): new annotation
values arise only by adding/multiplying existing ones.  The conformance
fuzzer's ``opaque-discipline`` invariant runs every algorithm over it.

The rest of the validation kit lives where it is implemented:
:meth:`Semiring.check_axioms <repro.semiring.Semiring.check_axioms>`
spot-checks a custom semiring, :func:`repro.ram.evaluate` is the exact
sequential oracle, and ``run_query(instance, ExecutionConfig(p,
algorithm=a, validate=True))`` over
:func:`~repro.core.executor.applicable_algorithms` cross-checks every
algorithm against it.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .semiring import Semiring

__all__ = ["OpaqueSemiring"]


class _Opaque:
    """An annotation value that only the owning semiring can combine."""

    __slots__ = ("value", "owner")

    def __init__(self, value: int, owner: "OpaqueSemiring") -> None:
        self.value = value
        self.owner = owner

    # Equality is the one operation the model allows algorithms to observe
    # implicitly (hash-based data structures key on *tuples*, not
    # annotations, but results are compared at the end).
    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Opaque) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("_Opaque", self.value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"⟨{self.value}⟩"

    # Every arithmetic/ordering dunder is a discipline violation.
    def _forbidden(self, *_args):
        raise TypeError(
            "semiring-model violation: annotation combined outside ⊕/⊗"
        )

    __add__ = __radd__ = __mul__ = __rmul__ = _forbidden
    __sub__ = __rsub__ = __lt__ = __le__ = __gt__ = __ge__ = _forbidden
    __bool__ = None  # type: ignore[assignment]


class OpaqueSemiring:
    """Factory for an instrumented counting semiring.

    ``make()`` returns ``(semiring, counters)``: the semiring computes
    ordinary integer sums/products but wraps every element in an opaque
    shell that raises on any arithmetic performed outside the semiring
    object, and counts ⊕/⊗ invocations.
    """

    @staticmethod
    def make() -> Tuple[Semiring, Dict[str, int]]:
        counters = {"add": 0, "mul": 0}
        semiring_box: list = []

        def add(a: _Opaque, b: _Opaque) -> _Opaque:
            counters["add"] += 1
            return _Opaque(a.value + b.value, semiring_box[0])

        def mul(a: _Opaque, b: _Opaque) -> _Opaque:
            counters["mul"] += 1
            return _Opaque(a.value * b.value, semiring_box[0])

        semiring = Semiring(
            name="opaque-counting",
            zero=_Opaque(0, None),  # type: ignore[arg-type]
            one=_Opaque(1, None),  # type: ignore[arg-type]
            add=add,
            mul=mul,
        )
        semiring_box.append(semiring)
        return semiring, counters

    @staticmethod
    def wrap(value: int) -> _Opaque:
        return _Opaque(value, None)  # type: ignore[arg-type]

    @staticmethod
    def unwrap(value: _Opaque) -> int:
        return value.value
