"""Tests for the exception hierarchy."""

from __future__ import annotations

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    ModelError,
    ReproError,
    SimulationError,
    SolverError,
    WorkloadError,
)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            ConfigurationError,
            ConvergenceError,
            ModelError,
            SimulationError,
            SolverError,
            WorkloadError,
        ):
            assert issubclass(exc, ReproError)

    def test_convergence_is_model_error(self):
        assert issubclass(ConvergenceError, ModelError)

    def test_catchable_as_repro_error(self):
        try:
            raise WorkloadError("bad workload")
        except ReproError as caught:
            assert "bad workload" in str(caught)
