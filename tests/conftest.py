"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.config import SimEnvironment
from repro.core.calibration import CalibrationProfile
from repro.hardware.node import HardwareNode
from repro.hip.runtime import HipRuntime
from repro.topology.presets import frontier_node


@pytest.fixture(scope="session")
def topology():
    """The Fig. 1 topology (immutable, safe to share)."""
    return frontier_node()


@pytest.fixture(scope="session")
def calibration():
    """Default MI250X calibration profile (immutable)."""
    return CalibrationProfile.default()


@pytest.fixture
def node():
    """A fresh simulated node per test."""
    return HardwareNode()


@pytest.fixture
def hip():
    """A fresh HIP runtime on a fresh node."""
    return HipRuntime(HardwareNode())


@pytest.fixture
def hip_xnack():
    """HIP runtime with HSA_XNACK=1."""
    return HipRuntime(HardwareNode(), env=SimEnvironment(xnack_enabled=True))


def make_runtime(**env_kwargs) -> HipRuntime:
    """Helper for tests needing specific environment switches."""
    return HipRuntime(HardwareNode(), env=SimEnvironment(**env_kwargs))
