"""Tests for repro.microarch.config."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.errors import ConfigurationError
from repro.microarch.config import (
    FetchPolicy,
    MachineConfig,
    RobPolicy,
    quad_core_machine,
    smt_machine,
)

NUMERIC_FIELDS = [
    field.name
    for field in dataclasses.fields(MachineConfig)
    if field.type in ("int", "float")
]


class TestFactories:
    def test_smt_defaults(self):
        machine = smt_machine()
        assert machine.is_smt
        assert machine.contexts == 4
        assert machine.width == 4
        assert machine.fetch_policy is FetchPolicy.ICOUNT
        assert machine.rob_policy is RobPolicy.DYNAMIC

    def test_quad_defaults(self):
        machine = quad_core_machine()
        assert not machine.is_smt
        assert machine.contexts == 4

    def test_policy_variants(self):
        machine = smt_machine(
            fetch_policy=FetchPolicy.ROUND_ROBIN, rob_policy=RobPolicy.STATIC
        )
        assert machine.fetch_policy is FetchPolicy.ROUND_ROBIN
        assert machine.rob_policy is RobPolicy.STATIC

    def test_with_policies_renames(self):
        machine = smt_machine().with_policies(
            fetch_policy=FetchPolicy.ROUND_ROBIN
        )
        assert machine.fetch_policy is FetchPolicy.ROUND_ROBIN
        assert "round_robin" in machine.name

    def test_with_policies_noop(self):
        machine = smt_machine()
        assert machine.with_policies() == machine


class TestValidation:
    def base_kwargs(self) -> dict:
        return dict(
            name="m",
            kind="smt",
            contexts=4,
            width=4,
            rob_size=256,
            llc_mb=4.0,
            mem_latency_cycles=200.0,
            bus_service_cycles=20.0,
            branch_penalty_cycles=14.0,
        )

    def test_bad_kind(self):
        kwargs = self.base_kwargs() | {"kind": "gpu"}
        with pytest.raises(ConfigurationError):
            MachineConfig(**kwargs)

    @pytest.mark.parametrize(
        "field", ["contexts", "width", "rob_size", "llc_mb",
                  "mem_latency_cycles", "bus_service_cycles"]
    )
    def test_nonpositive_rejected(self, field):
        kwargs = self.base_kwargs() | {field: 0}
        with pytest.raises(ConfigurationError):
            MachineConfig(**kwargs)

    def test_bus_utilization_bounds(self):
        kwargs = self.base_kwargs() | {"bus_max_utilization": 1.0}
        with pytest.raises(ConfigurationError):
            MachineConfig(**kwargs)

    def test_cache_floor_bounds(self):
        kwargs = self.base_kwargs() | {"cache_share_floor": 0.3}
        with pytest.raises(ConfigurationError):
            MachineConfig(**kwargs)

    def test_negative_overheads_rejected(self):
        for field in ("smt_overhead", "smt_fragmentation", "icount_strength"):
            kwargs = self.base_kwargs() | {field: -0.1}
            with pytest.raises(ConfigurationError):
                MachineConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    def test_non_finite_values_rejected(self, field, value):
        kwargs = self.base_kwargs() | {field: value}
        message = f"{field} must be finite"
        with pytest.raises(ConfigurationError, match=message):
            MachineConfig(**kwargs)

    def test_frozen(self):
        machine = smt_machine()
        with pytest.raises(dataclasses.FrozenInstanceError):
            machine.width = 8  # type: ignore[misc]
