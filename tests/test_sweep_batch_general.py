"""The CSR-batched general-graph kernel vs the reference engine.

Exactness, not approximation: every lane's cover round and final
``(pointers, counts)`` equal a standalone
:class:`repro.core.engine.MultiAgentRotorRouter` run across graph
families, mixed degrees, shuffled ports, k from 1 to beyond n,
truncating budgets and every scheduling mode, and on ring graphs
against the ring engine: the ``general*`` rows of
``tests/differential.py``.
"""

import numpy as np
import pytest

from differential import case, general_run, general_starts
from repro.graphs import clique, torus_2d
from repro.sweep import batch_general
from repro.sweep.batch_general import BatchGeneralKernel, batch_general_covers


class TestRandomizedEquivalence:
    def test_grid_is_large_and_diverse(self):
        lanes = [s.lane() for s in general_starts()]
        assert len(lanes) >= 160
        degrees = {
            int(d) for lane in lanes for d in np.unique(lane.csr.deg)
        }
        assert len(degrees) >= 4  # genuinely mixed degrees
        assert any(len(lane.agents) > lane.csr.num_nodes for lane in lanes)
        assert any(len(lane.agents) == 1 for lane in lanes)

    test_covers_and_final_states_match_reference = case("general")
    test_ring_graphs_match_the_ring_engine = case("general/ring")

    def test_tail_threshold_is_read_at_call_time(self, monkeypatch):
        # Patched after construction, the constant still decides: 0
        # never hands a lane to the scalar finisher, a huge threshold
        # hands every lane over before the first vector round.
        starts = general_starts()[:24]
        for tail in (0, 10**9):
            kernel = BatchGeneralKernel([s.lane() for s in starts])
            monkeypatch.setattr(batch_general, "SCALAR_TAIL_PAIRS", tail)
            covers = kernel.run_until_covered(strict=False)
            assert covers.tolist() == [general_run(s)[0] for s in starts]
            if tail:
                assert kernel._vector_rounds == 0 < kernel._scalar_lanes
            else:
                assert kernel._scalar_lanes == 0 < kernel._vector_rounds

    def test_truncated_lanes_report_minus_one(self):
        starts = general_starts()
        truncated = [
            index for index, s in enumerate(starts) if general_run(s)[0] < 0
        ]
        assert truncated  # the tiny budgets must truncate somewhere
        covers = batch_general_covers([s.lane() for s in starts], strict=False)
        for index in truncated:
            assert covers[index] == -1

    def test_strict_mode_raises_on_truncation(self):
        starts = general_starts()
        assert any(general_run(s)[0] < 0 for s in starts)
        with pytest.raises(RuntimeError, match="not covered"):
            batch_general_covers([s.lane() for s in starts], strict=True)


class TestKernelSurface:
    def test_covered_at_round_zero(self):
        graph = clique(5)
        covers = batch_general_covers(
            [(graph.to_csr(), [0] * 5, list(range(5)), 100)]
        )
        assert covers.tolist() == [0]

    # Lanes of every graph family share one kernel, here at the default
    # SCALAR_TAIL_PAIRS.
    test_heterogeneous_graphs_share_one_kernel = case("general/default-tail")

    def test_validation(self):
        csr = torus_2d(3, 3).to_csr()
        with pytest.raises(ValueError, match="at least one lane"):
            BatchGeneralKernel([])
        with pytest.raises(ValueError, match="at least one agent"):
            BatchGeneralKernel([(csr, [0] * 9, [], 10)])
        with pytest.raises(ValueError, match="pointer"):
            BatchGeneralKernel([(csr, [4] * 9, [0], 10)])
        with pytest.raises(ValueError, match="out of range"):
            BatchGeneralKernel([(csr, [0] * 9, [9], 10)])
        with pytest.raises(ValueError, match="pointers"):
            BatchGeneralKernel([(csr, [0] * 5, [0], 10)])

    def test_lane_state_bounds(self):
        csr = torus_2d(3, 3).to_csr()
        kernel = BatchGeneralKernel([(csr, [0] * 9, [0], 10)])
        with pytest.raises(IndexError):
            kernel.lane_state(1)
