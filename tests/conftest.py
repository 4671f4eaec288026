"""Shared fixtures for the repro test suite.

Hypothesis runs derandomized by default, so every run of the suite
draws the same examples and a failure reproduces on rerun.
``HYPOTHESIS_PROFILE=random`` selects a randomized profile with the same
``max_examples`` so a separate CI job keeps searching new inputs.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.config import SimEnvironment
from repro.core.calibration import CalibrationProfile
from repro.hardware.node import HardwareNode
from repro.hip.runtime import HipRuntime
from repro.topology.presets import frontier_node

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("random", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))


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
    return HipRuntime()


@pytest.fixture
def hip_xnack():
    """HIP runtime with HSA_XNACK=1."""
    return HipRuntime(env=SimEnvironment(xnack_enabled=True))


def make_runtime(**env_kwargs) -> HipRuntime:
    """Helper for tests needing specific environment switches."""
    return HipRuntime(env=SimEnvironment(**env_kwargs))
