"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors (``TypeError`` etc. still
propagate as usual).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ModelError",
    "ConvergenceError",
    "SolverError",
    "SimulationError",
    "EngineStallError",
    "CheckpointError",
    "WorkloadError",
    "EstimationError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid machine, benchmark, or experiment configuration."""


class ModelError(ReproError):
    """A performance-model invariant was violated (e.g. negative rate)."""


class ConvergenceError(ModelError):
    """A fixed-point iteration failed to converge within its budget."""


class SolverError(ReproError):
    """A linear-programming solver failure."""


class SimulationError(ReproError):
    """A discrete-event simulation entered an inconsistent state."""


class EngineStallError(SimulationError):
    """The event loop processed many consecutive events without the
    clock advancing (a livelock).  Raised with machine/clock
    diagnostics instead of spinning until ``max_events``."""


class CheckpointError(SimulationError):
    """A checkpoint file could not be read back: truncated, not JSON,
    missing required sections, or written by a different format
    version.  The message names the file and the expected format."""


class WorkloadError(ReproError):
    """An invalid workload specification (unknown types, bad counts...)."""


class EstimationError(ReproError):
    """An invalid estimated-rate configuration (e.g. a dispatcher that
    consumes rates but never refreshes them from observations)."""
