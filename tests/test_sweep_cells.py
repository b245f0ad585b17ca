"""Tests for explicit measurement cells (repro.sweep.cells)."""

import pytest

from repro.sweep.cells import (
    CELL_SCHEMA_VERSION,
    GeneralRotorCell,
    RotorCell,
    WalkCoverCell,
    WalkGapsCell,
    cell_from_dict,
)
from repro.sweep.spec import SweepConfig


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
        clone = cell_from_dict(cell.to_dict())
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
        assert cell_from_dict(cell.to_dict()) == cell

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
        assert cell_from_dict(cell.to_dict()) == cell

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
        # The dict form is compact (graph by digest); deserialization
        # resolves the structure through the chunk's graph table.
        graphs = {cell.graph_digest: cell.csr()}
        clone = cell_from_dict(cell.to_dict(), graphs=graphs)
        assert clone == cell
        assert clone.config_hash == cell.config_hash

    def test_dict_form_is_compact_and_needs_graph_table(self):
        cell = GeneralRotorCell(
            graph_ports=((1, 2), (0, 2), (0, 1)),
            agents=(0,),
            ports=(0, 0, 0),
            max_rounds=100,
        )
        data = cell.to_dict()
        assert "graph_ports" not in data
        assert data["graph"] == cell.graph_digest
        with pytest.raises(ValueError, match="graph table"):
            cell_from_dict(data)

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


class TestDispatcher:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown cell kind"):
            cell_from_dict({"kind": "mystery-cell", "schema": 1})

    def test_schema_mismatch(self):
        data = _rotor_cell().to_dict()
        data["schema"] = CELL_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            cell_from_dict(data)

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
        assert cell_from_dict(config.to_dict()) == config

    def test_no_cross_kind_hash_collisions(self):
        # Distinct cell kinds never share a cache identity.
        rotor = _rotor_cell()
        walk = WalkCoverCell(
            n=8, agents=(0, 0, 3), seeds=(0,), max_rounds=1000
        )
        assert rotor.config_hash != walk.config_hash
