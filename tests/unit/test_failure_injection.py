"""Failure-injection tests: the library must fail loudly and helpfully."""

from __future__ import annotations

import pytest

import repro.microarch.simulator as simulator_module
from repro.errors import ConvergenceError, SimulationError
from repro.microarch.benchmarks import default_roster
from repro.microarch.config import smt_machine
from repro.microarch.rates import TableRates
from repro.microarch.simulator import simulate_coschedule
from repro.queueing.engine import run_system
from repro.queueing.job import Job
from repro.queueing.schedulers import FcfsScheduler, Scheduler


class TestSimulatorFailures:
    def test_convergence_failure_names_the_coschedule(self, monkeypatch):
        """If every damping level fails, the error says which coschedule
        and machine were being simulated."""

        def always_diverges(*args, **kwargs):
            raise ConvergenceError("injected divergence")

        monkeypatch.setattr(
            simulator_module, "solve_fixed_point", always_diverges
        )
        with pytest.raises(ConvergenceError) as excinfo:
            simulate_coschedule(
                smt_machine(), default_roster(), ("bzip2", "mcf")
            )
        message = str(excinfo.value)
        assert "bzip2" in message and "mcf" in message
        assert "smt4" in message
        for damping in simulator_module._DAMPING_LADDER:
            assert f"damping {damping}: injected divergence" in message

    def test_convergence_failure_diagnoses_every_rung(self, monkeypatch):
        """A map gone non-finite fails each damping rung at its first
        iteration, and the error says so rung by rung."""

        def poisoned_iteration(machine, jobs):
            return lambda x: [float("nan")] * len(x)

        monkeypatch.setattr(
            simulator_module, "smt_iteration", poisoned_iteration
        )
        with pytest.raises(ConvergenceError) as excinfo:
            simulate_coschedule(
                smt_machine(), default_roster(), ("bzip2", "mcf")
            )
        message = str(excinfo.value)
        for damping in simulator_module._DAMPING_LADDER:
            assert (
                f"damping {damping}: non-finite iterate at iteration 1"
                in message
            )


class _OverbookingScheduler(Scheduler):
    """A buggy scheduler that selects more jobs than contexts."""

    name = "overbooking"

    def select(self, jobs, clock):
        return list(jobs)


class _DuplicatingScheduler(Scheduler):
    """A buggy scheduler that selects the same job twice."""

    name = "duplicating"

    def select(self, jobs, clock):
        return [jobs[0], jobs[0]]


class TestEngineGuards:
    @pytest.fixture()
    def rates(self):
        return TableRates(
            {
                ("A",): {"A": 1.0},
                ("A", "A"): {"A": 2.0},
                ("A", "A", "A"): {"A": 3.0},
            }
        )

    def jobs(self, n):
        return [
            Job(job_id=i, job_type="A", size=1.0, arrival_time=0.0)
            for i in range(n)
        ]

    def test_overbooking_detected(self, rates):
        with pytest.raises(SimulationError) as excinfo:
            run_system(rates, _OverbookingScheduler(rates, 2), self.jobs(3))
        assert "overbooking" in str(excinfo.value)

    def test_duplicate_selection_detected(self, rates):
        with pytest.raises(SimulationError) as excinfo:
            run_system(rates, _DuplicatingScheduler(rates, 2), self.jobs(2))
        assert "twice" in str(excinfo.value)

    def test_honest_scheduler_passes_guards(self, rates):
        metrics = run_system(rates, FcfsScheduler(rates, 2), self.jobs(3))
        assert metrics.completed == 3
