"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.engine import MultiAgentRotorRouter
from repro.core.ring import RingRotorRouter
from repro.graphs.ring import ring_graph


@pytest.fixture
def small_ring_engine() -> RingRotorRouter:
    """A 12-node ring with 2 agents and clockwise pointers."""
    return RingRotorRouter(12, [1] * 12, [0, 6])


@pytest.fixture
def small_general_engine() -> MultiAgentRotorRouter:
    """The general engine on the same 12-node configuration."""
    return MultiAgentRotorRouter(ring_graph(12), [0] * 12, [0, 6])


@pytest.fixture
def chunk_lanes(monkeypatch):
    """Setter for the executor's lanes-per-chunk constant in one test.

    Small grids split into several kernel chunks only below the
    default :data:`repro.sweep.executor.CHUNK_LANES`; the planner
    reads the constant at call time.  Dense-block merging is switched
    off too (``CHUNK_ELEMENTS = 0``), so every block stays its own
    chunk whichever kernel it routes to.
    """
    from repro.sweep import executor

    def set_lanes(lanes: int) -> None:
        monkeypatch.setattr(executor, "CHUNK_LANES", lanes)
        monkeypatch.setattr(executor, "CHUNK_ELEMENTS", 0)

    return set_lanes

