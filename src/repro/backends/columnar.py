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
from itertools import chain, repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..mpc.hashing import encode_key, stable_digests, tuple_header, tuple_piece
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

    __slots__ = ("_codes", "_values", "_hash_tables", "_pieces")

    def __init__(self) -> None:
        self._codes: Dict[Any, int] = {}
        self._values: List[Any] = []
        #: salt -> (uint64 hash table, bool "known" mask), aligned to codes.
        self._hash_tables: Dict[int, Tuple[Any, Any]] = {}
        #: code -> ``tuple_piece(value)``, only for codes that occurred in a
        #: key column of :meth:`row_hashes` (an entry per interned value
        #: costs a star call ~10 MB of peak RSS).
        self._pieces: Dict[int, bytes] = {}

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

    def decode_many(self, ids: Any) -> List[Any]:
        """The original (interned, identity-preserved) values of ``ids``."""
        store = self._values
        return [store[code] for code in ids.tolist()]

    def components(self, ids: Any, width: int) -> List[Any]:
        """The code columns of the ``width`` components of the tuples
        interned at ``ids``: each distinct tuple is decoded once and its
        components interned, and every row gathers its tuple's codes."""
        distinct, rows = np.unique(ids, return_inverse=True)
        values = self.decode_many(distinct)
        return [
            self.encode_many([value[i] for value in values])[rows]
            for i in range(width)
        ]

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
            table[missing] = np.frombuffer(b"".join(stable_digests(
                map(encode_key, map(self._values.__getitem__, missing.tolist())), salt
            )), dtype=">u8")
            known[missing] = True
        return table[ids]

    def row_hashes(self, columns: Sequence[Any], size: int, salt: int) -> Any:
        """``stable_hash(tuple(row), salt)`` of each of the ``size`` rows of
        the parallel code ``columns``, as uint64 — the tuples are neither
        built nor interned.  A row's bytes are the tuple header plus one
        cached piece per code, which is ``encode_key`` of the decoded row;
        nothing is memoized per row (composite keys rarely repeat)."""
        pieces = self._pieces
        parts: List[Any] = [repeat(tuple_header(len(columns)), size)]
        for column in columns:
            codes = column.tolist()
            for code in set(codes) - pieces.keys():
                pieces[code] = tuple_piece(self._values[code])
            parts.append(map(pieces.__getitem__, codes))
        digests = stable_digests(map(b"".join, zip(*parts)), salt)
        return np.frombuffer(b"".join(digests), dtype=">u8").astype(np.uint64)

    def buckets(self, ids: Any, buckets: int, salt: int) -> Any:
        """``hash_to_bucket(value, buckets, salt)`` of each id (int64)."""
        return (self.hashes(ids, salt) % np.uint64(buckets)).astype(np.int64)

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
    #: exact annotation type -> the dtype :func:`encode_annotations` gives it.
    _ARRAY_TYPES = {bool: np.bool_, int: np.int64, float: np.float64}
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
    annotations: Any,
    profile: AnnotationProfile,
    int_limit: int = _INT_LIMIT,
):
    """Annotations as a typed array, or None when any value does not fit;
    an array (what some batch already holds) is checked and returned as is.

    Semantically ``profile.encodable`` per value, but batched: the type
    sweep runs at C level (``map(type, ...)``) and the range/NaN guards run
    on the array, which matters because this sits on the per-batch hot path
    of every vectorized fold.  A *mixed* int/float batch must not
    vectorize: min/max over float64 would return a float where the scalar
    semiring returns the original int object.
    """
    if not isinstance(annotations, np.ndarray):
        types = set(map(type, annotations))  # exact: a bool is not an int here
        if len(types) > 1 or not types <= _ARRAY_TYPES.keys():
            return None
        empty = bool if profile.kind == "bool" else int
        try:
            annotations = np.fromiter(
                annotations, _ARRAY_TYPES[types.pop() if types else empty],
                count=len(annotations),
            )
        except OverflowError:  # beyond int64 is certainly beyond any limit
            return None
    kind = annotations.dtype.kind
    if profile.kind == "bool" or kind == "b":
        fits = profile.kind == "bool" and kind == "b"
    elif kind == "f":
        # NaN makes min/max order-sensitive, so any NaN falls back.
        fits = profile.kind == "number" and not np.isnan(annotations).any()
    else:
        limit = int_limit if profile.kind == "int" else _FLOAT_EXACT
        fits = kind == "i" and (
            not annotations.size
            or -limit < int(annotations.min()) <= int(annotations.max()) < limit
        )
    return annotations if fits else None
