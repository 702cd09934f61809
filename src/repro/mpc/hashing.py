"""Deterministic keyed hashing for partitioning and sketches.

Python's builtin ``hash`` is randomized per process (PYTHONHASHSEED), which
would make simulated runs non-reproducible.  All MPC partitioning and all KMV
sketches therefore use a keyed blake2b over a canonical byte encoding.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Dict, Iterable, List

__all__ = [
    "stable_hash",
    "encode_key",
    "tuple_header",
    "tuple_piece",
    "stable_digests",
    "stable_hash_encoded",
    "hash_to_unit",
    "hash_to_bucket",
]

_MASK64 = (1 << 64) - 1


def tuple_header(length: int) -> bytes:
    """What a tuple of ``length`` elements starts its encoding with."""
    return b"t" + length.to_bytes(4, "big")


#: The header of every short tuple, built once.
_TUPLE_HEADERS = tuple(map(tuple_header, range(16)))

#: Entries the leaf memo of :func:`_encode` may hold before it is emptied.
#: Composite keys are almost all distinct, but their ``str``/``int`` leaves
#: come from the attribute domains (30–1,800 values on the ledger's planted
#: instances), so the cap is never reached in a run and only bounds what a
#: long-lived ``repro serve`` process can accumulate (a few MB).
_LEAF_MEMO_LIMIT = 1 << 16

#: exact ``str``/``int`` leaf -> its length-prefixed encoding inside a tuple.
#: Only exact types go in or are looked up, so ``1``, ``1.0`` and ``True``
#: (one dict slot) never answer for each other.
_LEAVES: Dict[Any, bytes] = {}


def _encode(value: Any) -> bytes:
    """Canonical byte encoding of values used as keys (ints, floats, strings,
    bytes, bools, None, and nested tuples thereof).

    Dispatches on the exact type for the three shapes nearly every key has
    (``str``, ``int``, tuples of them); everything else — subclasses
    included — takes the ``isinstance`` chain of :func:`_encode_other`,
    which defines the bytes.
    """
    kind = type(value)
    if kind is str:
        return b"s" + value.encode("utf-8")
    if kind is int:
        return b"i" + value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
    if kind is not tuple:
        return _encode_other(value)
    leaves = _LEAVES
    length = len(value)
    parts = [_TUPLE_HEADERS[length] if length < 16 else tuple_header(length)]
    for element in value:
        kind = type(element)
        if kind is str or kind is int:
            piece = leaves.get(element)
            if piece is None:
                piece = tuple_piece(element)
                if len(leaves) >= _LEAF_MEMO_LIMIT:
                    leaves.clear()
                leaves[element] = piece
        else:  # inline tuple_piece: nested keys are the hot case
            encoded = _encode(element)
            piece = len(encoded).to_bytes(4, "big") + encoded
        parts.append(piece)
    return b"".join(parts)


def _encode_other(value: Any) -> bytes:
    """The encoding by ``isinstance``, for what :func:`_encode` does not
    take inline: bools, floats, bytes, None, frozensets and subclasses."""
    if isinstance(value, bool):
        return b"b" + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        return b"i" + value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
    if isinstance(value, float):
        return b"f" + struct.pack(">d", value)
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, bytes):
        return b"y" + value
    if value is None:
        return b"n"
    if isinstance(value, tuple):
        return _encode(tuple(value))
    if isinstance(value, frozenset):
        encoded_elements = sorted(_encode(element) for element in value)
        parts = [b"F", len(encoded_elements).to_bytes(4, "big")]
        for encoded in encoded_elements:
            parts.append(len(encoded).to_bytes(4, "big"))
            parts.append(encoded)
        return b"".join(parts)
    raise TypeError(f"unhashable key type for stable_hash: {type(value)!r}")


def stable_hash(value: Any, salt: int = 0) -> int:
    """A 64-bit deterministic hash of ``value`` under a ``salt`` (hash-function
    index).  Different salts behave as independent hash functions."""
    digest = hashlib.blake2b(
        _encode(value), digest_size=8, key=salt.to_bytes(8, "big")
    ).digest()
    return int.from_bytes(digest, "big") & _MASK64


def encode_key(value: Any) -> bytes:
    """The canonical byte encoding :func:`stable_hash` digests.

    Exposed so callers hashing many values under one salt (the columnar
    codec's per-salt tables) or one value under many (KMV repetitions) can
    feed :func:`stable_hash_encoded`, which keys the salt in once.
    """
    return _encode(value)


def tuple_piece(element: Any) -> bytes:
    """What ``element`` adds to the encoding of a tuple holding it, so that
    ``tuple_header(len(t)) + b"".join(map(tuple_piece, t)) == encode_key(t)``
    for an exact tuple ``t`` — hashing rows of parts without building them."""
    encoded = _encode(element)
    return len(encoded).to_bytes(4, "big") + encoded


def stable_digests(encoded: Iterable[bytes], salt: int = 0) -> List[bytes]:
    """The 8-byte big-endian ``stable_hash`` digests of pre-encoded keys (see
    :func:`encode_key`), in order.

    The salt is keyed in once and the keyed state copied per value — the
    same digests as a fresh ``blake2b(raw, key=…)`` each, a quarter cheaper;
    array callers read them with one ``np.frombuffer(b"".join(…), ">u8")``.
    """
    keyed = hashlib.blake2b(digest_size=8, key=salt.to_bytes(8, "big"))
    digests: List[bytes] = []
    for raw in encoded:
        state = keyed.copy()
        state.update(raw)
        digests.append(state.digest())
    return digests


def stable_hash_encoded(encoded: Iterable[bytes], salt: int = 0) -> List[int]:
    """``stable_hash`` over pre-encoded keys (see :func:`encode_key`)."""
    from_bytes = int.from_bytes
    return [from_bytes(digest, "big") for digest in stable_digests(encoded, salt)]


def hash_to_unit(value: Any, salt: int = 0) -> float:
    """Hash ``value`` to a float uniform in [0, 1)."""
    return stable_hash(value, salt) / float(1 << 64)


def hash_to_bucket(value: Any, buckets: int, salt: int = 0) -> int:
    """Hash ``value`` to a bucket index in ``[0, buckets)``."""
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    return stable_hash(value, salt) % buckets
