"""The differential fuzz runner: generate → check invariants → shrink → save.

One :func:`fuzz` call is one seeded, reproducible campaign.  Budgeting is by
iterations (deterministic: the same seed produces a byte-identical JSON
summary) or by wall-clock seconds (for nightly CI; iteration counts then
vary with machine speed, and the summary still contains no timestamps).

Per iteration the runner draws a case from the generator grid (query family
× semiring profile × skew), always checks the ``differential`` invariant,
and cycles one secondary invariant from the catalog so every default-budget
run exercises all of them.  Failures are delta-debugged down to a minimal
repro (:mod:`repro.conformance.shrink`) and — when a corpus directory is
configured — serialized for pytest auto-replay
(:mod:`repro.conformance.corpus`).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .chaos import CHAOS_FAULTS, CHAOS_SCHEDULES
from .corpus import save_case
from .generators import (
    PROFILES,
    QUERY_FAMILIES,
    SKEW_PROFILES,
    FuzzCase,
    GeneratorConfig,
    random_case,
    skeleton_size,
)
from .invariants import DEFAULT_INVARIANTS, INVARIANTS, InvariantViolation
from .shrink import failing_predicate, shrink_case

__all__ = ["FuzzConfig", "FuzzFailure", "FuzzSummary", "fuzz"]


@dataclass
class FuzzConfig:
    """Configuration of one fuzz campaign (CLI flags map 1:1 onto this)."""

    iterations: int = 25
    seconds: Optional[float] = None
    seed: int = 0
    p: int = 4
    p_large: int = 8
    max_tuples: int = 12
    domain: int = 5
    families: Sequence[str] = QUERY_FAMILIES
    profiles: Sequence[str] = tuple(PROFILES)
    skews: Sequence[str] = SKEW_PROFILES
    invariants: Sequence[str] = DEFAULT_INVARIANTS
    corpus: Optional[str] = None
    shrink: bool = True
    fail_fast: bool = False
    #: Kernel backend every invariant's runs use (``"pytuple"``/``"columnar"``/
    #: ``"auto"``/None, see :mod:`repro.backends`).  Results and meters are
    #: backend-independent, so summaries stay byte-identical across
    #: backends — the field is deliberately absent from the JSON summary.
    backend: Optional[str] = None
    #: Chaos-tier knobs (only read when the ``chaos`` invariant is active):
    #: recoverable schedules per (case, algorithm) and faults per schedule.
    chaos_schedules: int = CHAOS_SCHEDULES
    chaos_faults: int = CHAOS_FAULTS
    #: Clock used for the ``seconds`` deadline: a zero-arg callable returning
    #: monotonic seconds (default ``time.monotonic``).  Injectable so tests
    #: can drive wall-clock budgets deterministically — the same contract as
    #: :class:`repro.obs.profile.Profiler`'s clock.
    clock: Optional[Callable[[], float]] = None

    def generator(self) -> GeneratorConfig:
        return GeneratorConfig(
            max_tuples=self.max_tuples,
            domain=self.domain,
            families=tuple(self.families),
            profiles=tuple(self.profiles),
            skews=tuple(self.skews),
        )


@dataclass
class FuzzFailure:
    """One invariant violation, after shrinking."""

    iteration: int
    invariant: str
    family: str
    query_class: str
    profile: str
    skew: str
    case_seed: int
    message: str
    original_tuples: int
    shrunk_tuples: int
    corpus_file: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class FuzzSummary:
    """Outcome of one campaign; serializes deterministically per seed."""

    seed: int
    iterations_run: int
    p: int
    p_large: int
    max_tuples: int
    domain: int
    checked: int = 0
    coverage: Dict[str, Dict[str, int]] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def count(self, dimension: str, key: str) -> None:
        bucket = self.coverage.setdefault(dimension, {})
        bucket[key] = bucket.get(key, 0) + 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "iterations_run": self.iterations_run,
            "p": self.p,
            "p_large": self.p_large,
            "max_tuples": self.max_tuples,
            "domain": self.domain,
            "checked": self.checked,
            "ok": self.ok,
            "coverage": {
                dimension: dict(sorted(bucket.items()))
                for dimension, bucket in sorted(self.coverage.items())
            },
            "failures": [failure.to_dict() for failure in self.failures],
        }

    def to_json(self) -> str:
        """Machine-readable summary; byte-identical across same-seed runs."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def fuzz(config: FuzzConfig) -> FuzzSummary:
    """Run one fuzz campaign; never raises on invariant failures — they are
    collected (shrunk, serialized) in the returned summary."""
    rng = random.Random(config.seed)
    generator = config.generator()
    summary = FuzzSummary(
        seed=config.seed,
        iterations_run=0,
        p=config.p,
        p_large=config.p_large,
        max_tuples=config.max_tuples,
        domain=config.domain,
    )
    secondary = [name for name in config.invariants if name != "differential"]
    clock = config.clock if config.clock is not None else time.monotonic
    deadline = clock() + config.seconds if config.seconds is not None else None

    iteration = 0
    while True:
        if deadline is not None:
            if clock() >= deadline and iteration >= 1:
                break
            if iteration >= 100000:  # hard stop for pathological budgets
                break
        elif iteration >= config.iterations:
            break

        case = random_case(rng, generator, iteration)
        checks: List[str] = []
        if "differential" in config.invariants:
            checks.append("differential")
        if secondary:
            checks.append(secondary[iteration % len(secondary)])

        for invariant in checks:
            summary.count("invariant", invariant)
            try:
                INVARIANTS[invariant](case, config)
            except Exception as error:  # noqa: BLE001 — crashes are findings too
                failure = _handle_failure(
                    config, summary, case, invariant, iteration, error
                )
                summary.failures.append(failure)
                if config.fail_fast:
                    summary.checked += 1
                    summary.iterations_run = iteration + 1
                    _count_case(summary, case)
                    return summary
        summary.checked += 1
        _count_case(summary, case)
        iteration += 1
    summary.iterations_run = iteration
    return summary


def _count_case(summary: FuzzSummary, case: FuzzCase) -> None:
    summary.count("family", case.family)
    summary.count("query_class", case.query_class)
    summary.count("semiring", case.profile)
    summary.count("skew", case.skew)


def _handle_failure(
    config: FuzzConfig,
    summary: FuzzSummary,
    case: FuzzCase,
    invariant: str,
    iteration: int,
    error: Exception,
) -> FuzzFailure:
    original_size = skeleton_size(case)
    shrunk = case
    if config.shrink:
        predicate = failing_predicate(INVARIANTS[invariant], config)
        shrunk = shrink_case(case, predicate)
    failure = FuzzFailure(
        iteration=iteration,
        invariant=invariant,
        family=case.family,
        query_class=case.query_class,
        profile=case.profile,
        skew=case.skew,
        case_seed=case.seed,
        message=f"{type(error).__name__}: {error}",
        original_tuples=original_size,
        shrunk_tuples=skeleton_size(shrunk),
    )
    if config.corpus:
        failure.corpus_file = save_case(
            shrunk,
            {
                "invariant": invariant,
                "iteration": iteration,
                "run_seed": config.seed,
                "p": config.p,
                "p_large": config.p_large,
                "message": failure.message,
            },
            config.corpus,
        )
    return failure
