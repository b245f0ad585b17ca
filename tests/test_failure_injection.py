"""Failure injection: malformed inputs fail loudly, never corrupt state.

Production discipline for a simulator: every malformed input must
raise with a clear message *before* mutating state, so a failed call
leaves the engine usable.
"""

import pytest

from repro.core.engine import MultiAgentRotorRouter
from repro.core.ring import RingRotorRouter
from repro.graphs.ring import ring_graph


class TestEngineStateSafetyOnErrors:
    def test_ring_overhold_leaves_state_intact(self):
        e = RingRotorRouter(8, [1] * 8, [0, 0])
        before_positions = e.positions()
        before_ptr = list(e.ptr)
        before_round = e.round
        with pytest.raises(ValueError):
            e.step(holds={0: 5})
        # The engine validates before mutating: nothing changed.
        assert e.positions() == before_positions
        assert e.ptr == before_ptr
        assert e.round == before_round
        # And it still runs.
        e.step()
        assert e.round == before_round + 1

    def test_general_overhold_checked_before_mutation(self):
        e = MultiAgentRotorRouter(ring_graph(8), [0] * 8, [0, 0])
        with pytest.raises(ValueError):
            e.step(holds={0: 5})
        assert e.round == 0
        assert e.positions() == [0, 0]

    def test_negative_hold_at_unoccupied_node(self):
        e = RingRotorRouter(8, [1] * 8, [0])
        with pytest.raises(ValueError):
            e.step(holds={0: -2})

    def test_hold_at_unoccupied_node_is_noop_if_zero(self):
        e = RingRotorRouter(8, [1] * 8, [0])
        e.step(holds={5: 0})
        assert e.round == 1


class TestConstructorRejections:
    @pytest.mark.parametrize(
        "n,ptrs,agents",
        [
            (2, [1, 1], [0]),                  # ring too small
            (4, [1, 1, 1], [0]),               # pointer length
            (4, [1, 2, 1, 1], [0]),            # pointer value
            (4, [1] * 4, []),                  # no agents
            (4, [1] * 4, [-1]),                # agent below range
            (4, [1] * 4, [4]),                 # agent above range
        ],
    )
    def test_ring_constructor(self, n, ptrs, agents):
        with pytest.raises(ValueError):
            RingRotorRouter(n, ptrs, agents)

    def test_engine_graph_mismatch(self):
        with pytest.raises(ValueError):
            MultiAgentRotorRouter(ring_graph(5), [0] * 6, [0])


class TestBudgetsFailLoudly:
    def test_cover_budget_message_includes_counts(self):
        e = RingRotorRouter(64, [1] * 64, [0], track_counts=False)
        with pytest.raises(RuntimeError, match="unvisited"):
            e.run_until_covered(5)

    def test_limit_cycle_budget(self):
        from repro.core.limit import find_limit_cycle

        e = RingRotorRouter(32, [1] * 32, [0], track_counts=False)
        with pytest.raises(RuntimeError, match="limit cycle"):
            find_limit_cycle(e, max_rounds=3)

    def test_walk_budget(self):
        from repro.randomwalk.ring_walk import RingRandomWalks

        w = RingRandomWalks(64, [0], seed=0)
        with pytest.raises(RuntimeError, match="unvisited"):
            w.run_until_covered(4)

    def test_deployment_walk_budget(self):
        from repro.core.delayed import walk_lone_agent

        e = RingRotorRouter(8, [1] * 8, [0])
        with pytest.raises(RuntimeError, match="stop condition"):
            walk_lone_agent(e, 0, lambda *_: False, max_rounds=3)


class TestAnalysisInputValidation:
    def test_scaling_rejects_mismatched(self):
        from repro.analysis.scaling import normalized

        with pytest.raises(ValueError):
            normalized([1.0, 2.0], [1.0])

    def test_remote_rejects_bad_ring(self):
        from repro.analysis.remote import remote_vertex_mask

        with pytest.raises(ValueError):
            remote_vertex_mask(1, [0])

    def test_token_game_illegal_move_keeps_state(self):
        from repro.theory.token_game import IllegalMoveError, TokenGame

        game = TokenGame(3, 5)
        game.heights = [1, 12, 2]
        with pytest.raises(IllegalMoveError):
            game.move(0, 1)
        assert game.heights == [1, 12, 2]
        assert game.moves_played == 0
