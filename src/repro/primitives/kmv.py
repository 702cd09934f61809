"""k-minimum-values (KMV) distinct-count sketches (paper §2.2, [4, 7]).

A KMV sketch keeps the ``k`` smallest hash values of the elements inserted
into it.  With hashes uniform in [0, 1), the estimator ``(k−1)/v_k`` (where
``v_k`` is the k-th smallest value) is a constant-factor approximation of
the number of distinct elements with constant probability; sketches over
the *same* hash function merge by keeping the k smallest of the union,
which is exactly what reduce-by-key needs.  Running O(log N) independent
hash functions and taking the median boosts the success probability to
``1 − 1/N^{O(1)}``.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from typing import Any, Iterable, Tuple

from ..mpc.hashing import encode_key, hash_to_unit, stable_hash_encoded

__all__ = ["KMV", "MultiKMV", "median_estimate"]


class KMV:
    """One KMV sketch under one hash function (identified by ``salt``)."""

    __slots__ = ("k", "salt", "values")

    def __init__(self, k: int, salt: int = 0, values: Tuple[float, ...] = ()) -> None:
        if k < 2:
            raise ValueError("KMV needs k ≥ 2")
        self.k = k
        self.salt = salt
        self.values: Tuple[float, ...] = values  # sorted, ≤ k, distinct

    @classmethod
    def of(cls, elements: Iterable[Any], k: int, salt: int = 0) -> "KMV":
        sketch = cls(k, salt)
        for element in elements:
            sketch = sketch.add(element)
        return sketch

    def add(self, element: Any) -> "KMV":
        return self.add_unit(hash_to_unit(element, self.salt))

    def add_unit(self, value: float) -> "KMV":
        """Insert an element given its hash unit under this sketch's salt."""
        values = self.values
        if len(values) == self.k and value >= values[-1]:
            return self
        position = bisect_left(values, value)
        if position < len(values) and values[position] == value:
            return self
        merged = values[:position] + (value,) + values[position : self.k - 1]
        return KMV(self.k, self.salt, merged)

    def merge(self, other: "KMV") -> "KMV":
        if other.k != self.k or other.salt != self.salt:
            raise ValueError("cannot merge KMV sketches with different parameters")
        # Both sides are sorted and distinct; a linear merge (dedup, stop at
        # k) yields exactly sorted(set(a) | set(b))[:k] without the set/sort.
        mine, theirs = self.values, other.values
        if not theirs:
            return self
        if not mine:
            return other
        merged_list = []
        i = j = 0
        len_mine, len_theirs = len(mine), len(theirs)
        while len(merged_list) < self.k and i < len_mine and j < len_theirs:
            a, b = mine[i], theirs[j]
            if a < b:
                merged_list.append(a)
                i += 1
            elif b < a:
                merged_list.append(b)
                j += 1
            else:
                merged_list.append(a)
                i += 1
                j += 1
        if len(merged_list) < self.k:
            tail = mine[i:] if i < len_mine else theirs[j:]
            merged_list.extend(tail[: self.k - len(merged_list)])
        return KMV(self.k, self.salt, tuple(merged_list))

    def estimate(self) -> float:
        """Distinct-count estimate; exact when fewer than k values were seen."""
        if len(self.values) < self.k:
            return float(len(self.values))
        return (self.k - 1) / self.values[-1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KMV(k={self.k}, n={len(self.values)}, est={self.estimate():.1f})"


class MultiKMV:
    """A bundle of KMV sketches under independent hash functions.

    The bundle is the unit that flows through reduce-by-key during OUT
    estimation; the final estimate is the median of the per-sketch
    estimates (the paper's probability-boosting step).
    """

    __slots__ = ("sketches",)

    def __init__(self, sketches: Tuple[KMV, ...]) -> None:
        self.sketches = sketches

    @classmethod
    def of(
        cls, elements: Iterable[Any], k: int, repetitions: int, base_salt: int = 0
    ) -> "MultiKMV":
        # One canonical encoding per element, hashed under every salt.
        encoded = [encode_key(element) for element in elements]
        sketches = []
        for repetition in range(repetitions):
            sketch = KMV(k, base_salt + repetition)
            for hashed in stable_hash_encoded(encoded, sketch.salt):
                sketch = sketch.add_unit(hashed / float(1 << 64))
            sketches.append(sketch)
        return cls(tuple(sketches))

    def merge(self, other: "MultiKMV") -> "MultiKMV":
        return MultiKMV(
            tuple(mine.merge(theirs) for mine, theirs in zip(self.sketches, other.sketches))
        )

    def estimate(self) -> float:
        return median_estimate(sketch.estimate() for sketch in self.sketches)


def median_estimate(estimates: Iterable[float]) -> float:
    """Median of per-hash-function estimates (the boosting step)."""
    values = list(estimates)
    if not values:
        return 0.0
    return float(statistics.median(values))
