"""Columnar value coding and the annotation profiles.

The columnar backend re-represents tuple batches as arrays, within a
server and (as :class:`~repro.backends.batch.ColumnarBatch`) on the wire:

* a :class:`ValueCodec` (one per cluster) interns every attribute/key value
  into a dense ``int64`` code, and memoizes the per-salt ``stable_hash`` of
  each interned value so repartitioning reuses hashes across rounds;
* an :class:`AnnotationProfile` says how a semiring's annotations sit in a
  column.  The standard semirings map onto a dtype plus ufuncs (counting →
  int64 +/×, boolean → bool ∨/∧, the tropical/max family → float64 or
  int64 min-max/+/×), recognized **by identity**; every other semiring —
  whose ⊕/⊗ could be anything — gets :data:`OBJECT_PROFILE`.

Exactness contract: :func:`encode_annotations` gives a typed column only
when every value fits the profile's dtype exactly (ints in ranges where
+, × and segment sums cannot overflow, floats without NaN, one Python type
per column), on which the typed ⊕ is order-insensitive; otherwise an
``object`` column, folded by the caller's own ⊕ in arrival order.
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
from .dispatch import np

__all__ = [
    "AnnotationProfile",
    "FLOAT_MAX_PROFILE",
    "OBJECT_PROFILE",
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
    """How a semiring's annotations sit in a column: a typed profile names
    the ufuncs computing its ⊕ (order-insensitive, so segment reduction may
    reassociate) and ⊗ exactly on its dtypes; :data:`OBJECT_PROFILE` types
    nothing."""

    name: str
    add_name: Optional[str]  # "add" | "or" | "min" | "max"
    mul_name: Optional[str]  # "mul" | "and" | "add" | "min"
    kind: str  # "int" | "bool" | "number" | "object"

    def adder(self, column: Any, add: Any) -> Any:
        """The ⊕ ufunc folding ``column``: the profile's own on a typed
        column, the caller's scalar ``add`` on an object column."""
        if column.dtype == object:
            return np.frompyfunc(add, 2, 1)
        return _UFUNCS[self.add_name]

    def mul(self, a, b):
        """Elementwise ⊗ of two typed columns."""
        return _UFUNCS[self.mul_name](a, b)


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

_PROFILE_BY_SEMIRING: Dict[int, AnnotationProfile] = {
    id(semiring): profile
    for semiring, profile in (
        (COUNTING, AnnotationProfile("counting", "add", "mul", "int")),
        (BOOLEAN, AnnotationProfile("boolean", "or", "and", "bool")),
        (TROPICAL_MIN_PLUS, AnnotationProfile("tropical-min-plus", "min", "add", "number")),
        (TROPICAL_MAX_PLUS, AnnotationProfile("tropical-max-plus", "max", "add", "number")),
        (MAX_MIN, AnnotationProfile("max-min", "max", "min", "number")),
        (MAX_TIMES, AnnotationProfile("max-times", "max", "mul", "number")),
    )
}

#: The profile of every other semiring, and of reductions whose values are
#: not annotations at all: every column an object array.
OBJECT_PROFILE = AnnotationProfile("object", None, None, "object")

#: Profile for plain numeric max-folds outside any semiring (KMV estimate
#: tables); ⊕ = max is order-insensitive and exact on int64/float64.
FLOAT_MAX_PROFILE = AnnotationProfile("float-max", "max", "min", "number")


def profile_of(semiring: Semiring) -> AnnotationProfile:
    """The column profile of ``semiring``.

    Recognition is by object identity against the standard singletons:
    structurally similar user semirings may carry arbitrary ⊕/⊗ callables,
    and REAL's float ⊕ is order-sensitive — both get
    :data:`OBJECT_PROFILE` and fold by their own ⊕.
    """
    return _PROFILE_BY_SEMIRING.get(id(semiring), OBJECT_PROFILE)


def encode_annotations(annotations: Any, profile: AnnotationProfile) -> Any:
    """Annotations as one column: a typed array when every value fits
    ``profile``'s dtype exactly, else a 1-d object array of the values
    themselves; an array some batch already holds is kept when it fits.

    The type sweep runs at C level and the range/NaN guards on the array:
    this sits on the per-batch hot path of every fold.  A *mixed* int/float
    batch is objects: min/max over float64 would return a float where the
    scalar semiring returns the original int object.
    """
    if isinstance(annotations, np.ndarray):
        if annotations.dtype == object or _fits(annotations, profile):
            return annotations
        return annotations.astype(object)
    count = len(annotations)
    types = set(map(type, annotations))  # exact: a bool is not an int here
    if profile.kind != "object" and len(types) <= 1 and types <= _ARRAY_TYPES.keys():
        empty = bool if profile.kind == "bool" else int
        try:
            array = np.fromiter(
                annotations, _ARRAY_TYPES[types.pop() if types else empty], count=count
            )
        except OverflowError:  # beyond int64 is certainly beyond any limit
            pass
        else:
            if _fits(array, profile):
                return array
    # fromiter, not np.array: a list of tuples would become a 2-d array.
    return np.fromiter(annotations, object, count=count)


def _fits(array: Any, profile: AnnotationProfile) -> bool:
    """Does the typed ``array`` hold ``profile``'s annotations exactly?"""
    kind = array.dtype.kind
    if profile.kind == "bool" or kind == "b":
        return profile.kind == "bool" and kind == "b"
    if kind == "f":
        # NaN makes min/max order-sensitive.
        return profile.kind == "number" and not np.isnan(array).any()
    if profile.kind not in ("int", "number"):
        return False
    limit = _INT_LIMIT if profile.kind == "int" else _FLOAT_EXACT
    return kind == "i" and (
        not array.size or -limit < int(array.min()) <= int(array.max()) < limit
    )
