"""Shared fixtures for the FOCAL reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core.design import DesignPoint
from repro.core.scenario import EMBODIED_DOMINATED, OPERATIONAL_DOMINATED
from repro.dse import parallel as _parallel


@pytest.fixture(scope="session", autouse=True)
def _no_leaked_segments():
    """Leak detector: after the whole suite, every shared-memory
    segment any test created must have been released.

    ``_LIVE_NAMES`` tracks segment names process-wide; a non-empty set
    here points at the test — or engine ``finally`` path — that
    dropped a block without ``release()``.
    """
    yield
    assert _parallel.live_blocks() == frozenset(), (
        "leaked shared segments: "
        f"{sorted(_parallel.live_blocks())}"
    )


@pytest.fixture
def baseline() -> DesignPoint:
    """The unit design every paper figure normalizes to."""
    return DesignPoint.baseline("baseline")


@pytest.fixture
def better_design() -> DesignPoint:
    """A design strictly better on every axis (strongly sustainable)."""
    return DesignPoint("better", area=0.8, perf=1.2, power=0.9)


@pytest.fixture
def worse_design() -> DesignPoint:
    """A design strictly worse on every axis (less sustainable)."""
    return DesignPoint("worse", area=1.3, perf=0.9, power=1.2)


@pytest.fixture
def weak_design() -> DesignPoint:
    """Energy down but power up: the canonical weakly sustainable shape
    (like runahead execution)."""
    return DesignPoint("weak", area=1.0, perf=1.4, power=1.3)


@pytest.fixture(params=[EMBODIED_DOMINATED, OPERATIONAL_DOMINATED], ids=["emb", "op"])
def weight(request: pytest.FixtureRequest):
    """Both of the paper's alpha regimes."""
    return request.param
