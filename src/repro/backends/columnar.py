"""Columnar value coding and the numeric semiring profiles.

The columnar backend re-represents tuple batches as arrays, within a
server and (as :class:`~repro.backends.batch.ColumnarBatch`) on the wire:

* a :class:`ValueCodec` (one per cluster) interns every attribute/key value
  into a dense ``int64`` code, and memoizes the per-salt ``stable_hash`` of
  each interned value so repartitioning reuses hashes across rounds;
* an :class:`AnnotationProfile` maps a semiring with numeric ⊕/⊗ onto a
  dtype plus ufuncs (counting → int64 +/×, boolean → bool ∨/∧, the
  tropical/max family → float64 or int64 min-max/+/×).  ``profile_of``
  recognizes the standard semirings **by identity**, so a user-built
  semiring — whose ⊕/⊗ could be anything — never silently vectorizes.

Exactness contract: every profile's operations are bit-exact against the
scalar semiring.  Integer annotations stay in int64 ranges where +, × and
segment sums cannot overflow (``encodable`` rejects larger values, which
falls the call back to the tuple kernels); float operations are the same
IEEE754 double operations CPython performs.  ⊕-reductions are only ever
vectorized for order-insensitive ⊕ (ints, min, max, or) — the float ``+``
of the REAL semiring is order-sensitive and has no profile on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..mpc.hashing import encode_key, stable_hash_encoded
from ..semiring import Semiring
from ..semiring.standard import (
    BOOLEAN,
    COUNTING,
    MAX_MIN,
    MAX_TIMES,
    TROPICAL_MAX_PLUS,
    TROPICAL_MIN_PLUS,
)
from .dispatch import HAS_NUMPY, np

__all__ = [
    "AnnotationProfile",
    "FLOAT_MAX_PROFILE",
    "ValueCodec",
    "encode_annotations",
    "interns_exactly",
    "profile_of",
]

#: Annotation magnitude cap for integer profiles: with |a| < 2^20 every
#: pairwise product stays < 2^40 and any realistic segment sum (< 2^23
#: terms per server) stays far below 2^63.
_INT_LIMIT = 1 << 20
#: Floats convert int64 exactly only below 2^53.
_FLOAT_EXACT = 1 << 53


class ValueCodec:
    """Interns hashable values as dense int64 codes, with per-salt hash caches.

    One codec is shared by a whole cluster (``cluster.codec``): codes are
    stable for the lifetime of a run, so a value hashed for routing in one
    round is never re-hashed in a later round under the same salt — the
    blake2b evaluations that dominate the tuple backend's repartitioning
    cost are paid once per (value, salt).

    Interning is by dict equality, so values that are equal across types
    (``1``, ``1.0``, ``True``) would share a code and a hash: the executor
    only runs the array paths on instances that :func:`interns_exactly`.
    """

    __slots__ = ("_codes", "_values", "_hash_tables", "_int_table", "_int_state")

    def __init__(self) -> None:
        self._codes: Dict[Any, int] = {}
        self._values: List[Any] = []
        #: salt -> (uint64 hash table, bool "known" mask), aligned to codes.
        self._hash_tables: Dict[int, Tuple[Any, Any]] = {}
        #: lazy int64 *value* table for value-ordered sorts: per code, the
        #: value itself when it is a plain bounded int (state 1), else a
        #: "not numeric" marker (state 2); state 0 = not probed yet.
        self._int_table: Any = np.zeros(0, dtype=np.int64)
        self._int_state: Any = np.zeros(0, dtype=np.int8)

    def __len__(self) -> int:
        return len(self._values)

    def encode_many(self, values: Sequence[Any]) -> Any:
        """Codes of ``values`` as an int64 array, interning new ones."""
        codes = self._codes
        try:
            # Fast path: everything already interned — a C-level map beats
            # the interning loop ~4x, and re-encoding seen values is the
            # common case after the first round.
            return np.fromiter(
                map(codes.__getitem__, values), dtype=np.int64, count=len(values)
            )
        except KeyError:
            pass
        store = self._values
        out = np.empty(len(values), dtype=np.int64)
        for position, value in enumerate(values):
            code = codes.get(value)
            if code is None:
                code = len(store)
                codes[value] = code
                store.append(value)
            out[position] = code
        return out

    def value(self, code: int) -> Any:
        return self._values[code]

    def decode_many(self, ids: Any) -> List[Any]:
        """The original (interned, identity-preserved) values of ``ids``."""
        store = self._values
        return [store[code] for code in ids.tolist()]

    def hashes(self, ids: Any, salt: int) -> Any:
        """``stable_hash(value, salt)`` of each id, as uint64 (memoized)."""
        entry = self._hash_tables.get(salt)
        if entry is None or entry[0].shape[0] < len(self._values):
            entry = self._hash_tables[salt] = _grown(
                len(self._values),
                entry or (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=bool)),
            )
        table, known = entry
        unknown = ~known[ids]
        if unknown.any():
            missing = np.unique(ids[unknown])
            table[missing] = stable_hash_encoded(
                map(encode_key, map(self._values.__getitem__, missing.tolist())), salt
            )
            known[missing] = True
        return table[ids]

    def buckets(self, ids: Any, buckets: int, salt: int) -> Any:
        """``hash_to_bucket(value, buckets, salt)`` of each id (int64)."""
        return (self.hashes(ids, salt) % np.uint64(buckets)).astype(np.int64)

    def int_values(self, ids: Any) -> Optional[Any]:
        """The interned *values* of ``ids`` as an int64 array, or None.

        Only plain ints within ±2^62 qualify (bools and anything else make
        the caller fall back to Python comparison).  Sorting these arrays
        orders identically to sorting the original values.
        """
        if self._int_state.shape[0] < len(self._values):
            self._int_table, self._int_state = _grown(
                len(self._values), (self._int_table, self._int_state)
            )
        table, state = self._int_table, self._int_state
        probe = state[ids] == 0
        if probe.any():
            store = self._values
            limit = 1 << 62
            for code in np.unique(ids[probe]).tolist():
                value = store[code]
                if type(value) is int and -limit < value < limit:
                    table[code] = value
                    state[code] = 1
                else:
                    state[code] = 2
        if ids.shape[0] == 0:
            return table[:0]
        if (state[ids] == 1).all():
            return table[ids]
        return None

    def units(self, ids: Any, salt: int) -> Any:
        """``hash_to_unit(value, salt)`` of each id.

        Bit-exact vs. the scalar path: uint64→float64 conversion is the
        same round-to-nearest as CPython's int→float, and dividing by 2^64
        is an exact exponent shift.
        """
        return self.hashes(ids, salt).astype(np.float64) * 2.0**-64


#: What :func:`interns_exactly` admits: leaves that equal only values of
#: their own type, and the containers it looks inside.
_EXACT_LEAVES = frozenset((int, str, bytes, type(None)))
_EXACT_NESTS = frozenset((tuple, frozenset))


def interns_exactly(values: Sequence[Any]) -> bool:
    """True when a :class:`ValueCodec` can intern ``values`` without
    conflating any two of them: each is exactly an ``int``, ``str``,
    ``bytes`` or ``None``, or a tuple / frozenset of such, recursively.

    The codec interns by dict equality, under which ``1``, ``1.0`` and
    ``True`` (``0.0`` and ``-0.0``, ``(1,)`` and ``(1.0,)``) are one key:
    the later one would decode, and *hash*, as the earlier one, while the
    tuple kernels route each by its own ``stable_hash``.  Any float, bool
    or subclass leaf therefore sends the whole run to the tuple kernels.
    The type sweeps run at C level, one per nesting depth.
    """
    kinds = set(map(type, values))
    nests = kinds & _EXACT_NESTS
    if not kinds - nests <= _EXACT_LEAVES:
        return False
    if not nests:
        return True
    if kinds != nests:
        values = [value for value in values if type(value) in nests]
    return interns_exactly(list(chain.from_iterable(values)))


def _grown(size: int, tables: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """``tables`` (parallel, code-indexed) copied into zero-filled arrays of
    at least ``size`` entries and at least twice their length: a codec that
    interns a few values between every lookup reallocates O(log n) times,
    not once per lookup."""
    held = tables[0].shape[0]
    capacity = max(size, 2 * held)
    grown = tuple(np.zeros(capacity, dtype=table.dtype) for table in tables)
    for new, table in zip(grown, tables):
        new[:held] = table
    return grown


@dataclass(frozen=True)
class AnnotationProfile:
    """A semiring whose annotations vectorize: dtype + ⊕ ufunc + ⊗ kernel.

    ``add_ufunc`` must be order-insensitive on the profile's dtypes (sum of
    bounded ints, min, max, or) so segment reduction may reassociate;
    ``mul(a, b)`` is elementwise ⊗; ``encodable`` is the per-value guard
    deciding whether one annotation fits the dtype exactly.
    """

    name: str
    add_name: str  # "add" | "or" | "min" | "max"
    mul_name: str  # "mul" | "and" | "add" | "min"
    kind: str  # "int" | "bool" | "number"

    @property
    def add_ufunc(self):
        return _UFUNCS[self.add_name]

    def mul(self, a, b):
        return _UFUNCS[self.mul_name](a, b)

    def encodable(self, value: Any, int_limit: int = _INT_LIMIT) -> bool:
        if self.kind == "bool":
            return isinstance(value, bool)
        if self.kind == "int":
            return type(value) is int and -int_limit < value < int_limit
        # "number": int (exactly representable) or any non-NaN float (NaN
        # makes min/max order-sensitive, so it may never vectorize).
        if isinstance(value, bool):
            return False
        if isinstance(value, float):
            return value == value
        return type(value) is int and -_FLOAT_EXACT < value < _FLOAT_EXACT


if HAS_NUMPY:
    _UFUNCS = {
        "add": np.add,
        "or": np.logical_or,
        "min": np.minimum,
        "max": np.maximum,
        "mul": np.multiply,
        "and": np.logical_and,
    }
else:  # pragma: no cover - profile lookups are gated on HAS_NUMPY
    _UFUNCS = {}

_PROFILE_BY_SEMIRING: Dict[int, AnnotationProfile] = {}
if HAS_NUMPY:
    for _semiring, _profile in (
        (COUNTING, AnnotationProfile("counting", "add", "mul", "int")),
        (BOOLEAN, AnnotationProfile("boolean", "or", "and", "bool")),
        (TROPICAL_MIN_PLUS, AnnotationProfile("tropical-min-plus", "min", "add", "number")),
        (TROPICAL_MAX_PLUS, AnnotationProfile("tropical-max-plus", "max", "add", "number")),
        (MAX_MIN, AnnotationProfile("max-min", "max", "min", "number")),
        (MAX_TIMES, AnnotationProfile("max-times", "max", "mul", "number")),
    ):
        _PROFILE_BY_SEMIRING[id(_semiring)] = _profile


#: Profile for plain numeric max-folds outside any semiring (KMV estimate
#: tables); ⊕ = max is order-insensitive and exact on int64/float64.
FLOAT_MAX_PROFILE = AnnotationProfile("float-max", "max", "min", "number")


def profile_of(semiring: Semiring) -> Optional[AnnotationProfile]:
    """The vectorization profile of ``semiring``, or None.

    Recognition is by object identity against the standard singletons:
    structurally similar user semirings may carry arbitrary ⊕/⊗ callables,
    and REAL's float ⊕ is order-sensitive — both must stay on the tuple
    kernels.
    """
    return _PROFILE_BY_SEMIRING.get(id(semiring))


def encode_annotations(
    annotations: Sequence[Any],
    profile: AnnotationProfile,
    int_limit: int = _INT_LIMIT,
):
    """Annotations as a typed array, or None when any value does not fit.

    Semantically ``profile.encodable`` per value, but batched: the type
    sweep runs at C level (``map(type, ...)``) and the range/NaN guards run
    on the array, which matters because this sits on the per-batch hot path
    of every vectorized fold.
    """
    types = set(map(type, annotations))
    if profile.kind == "bool":
        return np.asarray(annotations, dtype=bool) if types <= {bool} else None
    if profile.kind == "int":
        if not types <= {int}:  # rejects bool (type(True) is bool) and floats
            return None
        if not types:
            return np.asarray(annotations, dtype=np.int64)
        try:
            array = np.fromiter(annotations, dtype=np.int64, count=len(annotations))
        except OverflowError:  # beyond int64 is certainly beyond int_limit
            return None
        if int(array.min()) <= -int_limit or int(array.max()) >= int_limit:
            return None
        return array
    # "number": int64 when all ints, float64 when all floats.  A *mixed*
    # batch must not vectorize: min/max over float64 would return a float
    # where the scalar semiring returns the original int object.  NaN makes
    # min/max order-sensitive, so any NaN also falls back.
    if types == {int}:
        try:
            array = np.fromiter(annotations, dtype=np.int64, count=len(annotations))
        except OverflowError:
            return None
        if int(array.min()) <= -_FLOAT_EXACT or int(array.max()) >= _FLOAT_EXACT:
            return None
        return array
    if types == {float}:
        array = np.fromiter(annotations, dtype=np.float64, count=len(annotations))
        return None if np.isnan(array).any() else array
    if not types:
        return np.asarray(annotations, dtype=np.int64)
    return None


def decode_annotations(array: Any) -> List[Any]:
    """Back to Python scalars (int/bool/float) for the wire format."""
    return array.tolist()
