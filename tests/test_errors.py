"""The typed error hierarchy and its deterministic HTTP mapping.

Three contracts:

* every deliberate exception derives from :class:`repro.errors.ReproError`
  while keeping its historical built-in base (``ValueError`` /
  ``RuntimeError``), so both ``except ReproError`` and pre-hierarchy
  ``except ValueError`` call sites work;
* :class:`~repro.config.ExecutionConfig` validates eagerly — every bad
  knob raises :class:`~repro.errors.ConfigError` at construction, never
  later;
* the service's :func:`repro.service.status_for` maps exception class →
  HTTP status deterministically, first :data:`~repro.service.ERROR_STATUS`
  match in MRO-sensitive order winning.
"""

from __future__ import annotations

import pytest

from repro import errors
from repro.config import ExecutionConfig
from repro.errors import (
    ApplicabilityError,
    ConfigError,
    FaultError,
    MPCError,
    ReproError,
    RoutingError,
    UnrecoverableFaultError,
)
from repro.service import AdmissionRejected, UnknownInstanceError, status_for


# -- hierarchy shape ---------------------------------------------------------


def test_every_error_is_a_repro_error():
    for name in errors.__all__:
        cls = getattr(errors, name)
        assert issubclass(cls, ReproError), name


def test_leaves_keep_their_historical_builtin_bases():
    # except ValueError sites keep catching config/applicability problems…
    assert issubclass(ConfigError, ValueError)
    assert issubclass(ApplicabilityError, ValueError)
    # …and except RuntimeError sites keep catching cluster failures.
    assert issubclass(MPCError, RuntimeError)
    for leaf in (RoutingError, FaultError, UnrecoverableFaultError):
        assert issubclass(leaf, MPCError), leaf
        assert issubclass(leaf, RuntimeError), leaf
    assert issubclass(UnrecoverableFaultError, FaultError)


def test_mpc_package_exports_the_same_classes():
    """``repro.mpc`` re-exports the MPC branch: identical classes, not
    copies."""
    from repro import mpc

    for name in ("MPCError", "RoutingError", "FaultError", "UnrecoverableFaultError"):
        assert getattr(mpc, name) is getattr(errors, name), name


def test_fault_errors_carry_coordinates():
    fault = FaultError("boom", kind="drop", round_index=3, server=7)
    assert (fault.kind, fault.round, fault.server) == ("drop", 3, 7)


# -- eager ExecutionConfig validation ----------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"p": 0},
    {"p": -3},
    {"workers": 0},
    {"workers": 2},
    {"backend": "fortran"},
    {"backend": "numpy"},
    {"stats_mode": "psychic"},
])
def test_execution_config_rejects_bad_knobs_at_construction(kwargs):
    with pytest.raises(ConfigError):
        ExecutionConfig(**kwargs)
    # ConfigError is a ValueError, so legacy call sites also still catch it.
    with pytest.raises(ValueError):
        ExecutionConfig(**kwargs)


# -- exception class → HTTP status -------------------------------------------


@pytest.mark.parametrize("error,status", [
    (AdmissionRejected("no", reason="load-budget"), 429),
    (UnknownInstanceError("ghost"), 404),
    (ConfigError("bad"), 400),
    (ApplicabilityError("shape"), 422),
    (Exception("anything"), 500),
    (FaultError("injected"), 500),
    (UnrecoverableFaultError("fatal"), 500),
    (RoutingError("lost"), 500),
    (type("UnlistedMPCError", (MPCError,), {})("subclass"), 500),
    (MPCError("cluster"), 500),
    (ReproError("generic"), 500),
    (KeyError("missing"), 404),
    (ValueError("plain"), 400),
    (RuntimeError("unlisted"), 500),
])
def test_status_for_is_deterministic(error, status):
    assert status_for(error) == status


def test_specific_statuses_beat_ancestor_entries():
    """Listing order is MRO-aware: UnknownInstanceError gets 404 even
    though it is a ReproError (500) and a KeyError."""
    assert status_for(UnknownInstanceError("x")) == 404
    # A ConfigError is a ValueError, but the typed entry (400) wins anyway
    # and agrees with the legacy catch-all, so the mapping is stable.
    assert status_for(ConfigError("x")) == status_for(ValueError("x")) == 400
