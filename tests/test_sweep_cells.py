"""Tests for explicit measurement cells (repro.sweep.cells)."""

import pickle

import pytest

from repro.sweep.cells import (
    GeneralRotorCell,
    RotorCell,
    WalkCoverCell,
    WalkGapsCell,
)
from repro.sweep.spec import SweepConfig


def _shipped(cell):
    """The cell as a worker process receives it."""
    return pickle.loads(pickle.dumps(cell))


def _rotor_cell(**overrides):
    kwargs = dict(
        n=8,
        agents=(0, 0, 3),
        directions=(1, -1, 1, 1, -1, 1, 1, -1),
        metrics=("cover",),
        max_rounds=1000,
    )
    kwargs.update(overrides)
    return RotorCell(**kwargs)


class TestRotorCell:
    def test_round_trip(self):
        cell = _rotor_cell()
        clone = _shipped(cell)
        assert clone == cell
        assert clone.config_hash == cell.config_hash

    def test_duck_type_surface(self):
        cell = _rotor_cell()
        assert cell.model == "rotor"
        assert cell.k == 3
        assert cell.repetitions == 1
        agents, directions = cell.build()
        assert agents == [0, 0, 3]
        assert directions == list(cell.directions)

    def test_hash_sensitive_to_instance(self):
        base = _rotor_cell()
        assert _rotor_cell(agents=(0, 0, 4)).config_hash != base.config_hash
        assert (
            _rotor_cell(metrics=("stabilization", "return")).config_hash
            != base.config_hash
        )
        assert _rotor_cell(max_rounds=999).config_hash != base.config_hash

    def test_validation(self):
        with pytest.raises(ValueError):
            _rotor_cell(agents=())
        with pytest.raises(ValueError):
            _rotor_cell(directions=(1, -1))
        with pytest.raises(ValueError):
            _rotor_cell(metrics=())
        # Would otherwise compute nothing and cache ``{}`` as a result.
        with pytest.raises(ValueError, match="unknown metric 'bogus'"):
            _rotor_cell(metrics=("bogus",))


class TestWalkCells:
    def test_cover_cell_surface(self):
        cell = WalkCoverCell(
            n=16, agents=(0, 8), seeds=(11, 22, 33), max_rounds=4096
        )
        assert cell.model == "walk"
        assert cell.metrics == ("cover",)
        assert cell.k == 2
        assert cell.repetitions == 3
        assert cell.build_agents() == [0, 8]
        assert cell.rep_seeds() == (11, 22, 33)
        assert _shipped(cell) == cell

    def test_cover_cell_validation(self):
        with pytest.raises(ValueError):
            WalkCoverCell(n=16, agents=(), seeds=(1,), max_rounds=10)
        with pytest.raises(ValueError):
            WalkCoverCell(n=16, agents=(0,), seeds=(), max_rounds=10)
        with pytest.raises(ValueError, match="at least 3 nodes"):
            WalkCoverCell(n=2, agents=(0,), seeds=(1,), max_rounds=10)
        with pytest.raises(ValueError, match=r"\[0, 16\)"):
            WalkCoverCell(n=16, agents=(0, 16), seeds=(1,), max_rounds=10)

    def test_gaps_cell_surface(self):
        cell = WalkGapsCell(
            n=24, k=3, node=5, observation_rounds=960, burn_in=96, seed=7
        )
        assert cell.model == "walk"
        assert cell.metrics == ("gaps",)
        assert cell.max_rounds == 960 + 96
        assert _shipped(cell) == cell

    def test_gaps_cell_validation(self):
        with pytest.raises(ValueError):
            WalkGapsCell(
                n=24, k=0, node=0, observation_rounds=10, burn_in=0, seed=0
            )
        with pytest.raises(ValueError):
            WalkGapsCell(
                n=24, k=1, node=24, observation_rounds=10, burn_in=0, seed=0
            )
        with pytest.raises(ValueError):
            WalkGapsCell(
                n=24, k=1, node=0, observation_rounds=0, burn_in=0, seed=0
            )


class TestGeneralRotorCell:
    def test_round_trip_and_surface(self):
        # Triangle graph, one agent.
        cell = GeneralRotorCell(
            graph_ports=((1, 2), (0, 2), (0, 1)),
            agents=(0,),
            ports=(0, 0, 0),
            max_rounds=100,
        )
        assert cell.model == "rotor-general"
        assert cell.n == 3
        assert cell.k == 1
        # The pickled cell carries its graph and its CSR packing.
        clone = _shipped(cell)
        assert clone == cell
        assert clone.config_hash == cell.config_hash

    def test_labeled_cell_shares_identity(self):
        from repro.sweep.cells import LabeledGeneralRotorCell

        plain = GeneralRotorCell(
            graph_ports=((1, 2), (0, 2), (0, 1)),
            agents=(0,),
            ports=(0, 0, 0),
            max_rounds=100,
        )
        labeled = LabeledGeneralRotorCell(
            graph_ports=((1, 2), (0, 2), (0, 1)),
            agents=(0,),
            ports=(0, 0, 0),
            max_rounds=100,
            family="triangle",
            seed=7,
        )
        assert labeled.config_hash == plain.config_hash
        assert labeled.placement == "triangle"
        assert labeled.pointer == "random"
        assert labeled.seed == 7

    def test_identity_includes_graph(self):
        triangle = GeneralRotorCell(
            graph_ports=((1, 2), (0, 2), (0, 1)),
            agents=(0,),
            ports=(0, 0, 0),
            max_rounds=100,
        )
        path = GeneralRotorCell(
            graph_ports=((1,), (0, 2), (1,)),
            agents=(0,),
            ports=(0, 0, 0),
            max_rounds=100,
        )
        assert triangle.config_hash != path.config_hash

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneralRotorCell(
                graph_ports=((1,), (0,)),
                agents=(0,),
                ports=(0,),
                max_rounds=10,
            )
        with pytest.raises(ValueError, match=r"\[0, 2\) on the graph"):
            GeneralRotorCell(
                graph_ports=((1,), (0,)),
                agents=(2,),
                ports=(0, 0),
                max_rounds=10,
            )

    def test_ports_are_checked_at_construction(self, monkeypatch):
        # A port past its node's degree fails the cell's construction,
        # so no chunk runs (and retries, then quarantines) the cell.
        from repro.graphs import torus_2d
        from repro.sweep import executor

        ran = []
        monkeypatch.setattr(executor, "compute_chunk", ran.append)
        graph = torus_2d(4, 4)
        ports = [0] * graph.num_nodes
        ports[3] = 7
        with pytest.raises(
            ValueError, match="pointer 7 at node 3 out of range for degree 4"
        ):
            executor.run_cells(
                [GeneralRotorCell.from_graph(graph, [0, 5], ports, 500)]
            )
        ports[3] = -1
        with pytest.raises(ValueError, match="pointer -1 at node 3"):
            GeneralRotorCell(
                graph_ports=graph.port_lists(),
                agents=(0,),
                ports=tuple(ports),
                max_rounds=500,
            )
        assert not ran


class TestDispatcher:
    def test_sweep_config_fallback(self):
        config = SweepConfig(
            n=16,
            k=2,
            placement="all_on_one",
            pointer="toward_node0",
            seed=0,
            metrics=("cover",),
            max_rounds=2048,
        )
        assert _shipped(config) == config

    def test_no_cross_kind_hash_collisions(self):
        # Distinct cell kinds never share a cache identity.
        rotor = _rotor_cell()
        walk = WalkCoverCell(
            n=8, agents=(0, 0, 3), seeds=(0,), max_rounds=1000
        )
        assert rotor.config_hash != walk.config_hash
