"""Grid expansion and deterministic hashing of sweep specs."""

import pickle

import numpy as np
import pytest

from repro.sweep.batch_ring import lanes_from_configs
from repro.sweep.cells import RotorCell
from repro.sweep.spec import (
    PLACEMENTS,
    POINTERS,
    SCHEMA_VERSION,
    WALK_POINTER,
    InitFamily,
    ScenarioSpec,
    SweepConfig,
    rotor_lanes,
)


def _spec(**overrides):
    base = dict(
        name="t",
        ns=(16, 32),
        ks=(2, 4),
        families=(
            InitFamily("all_on_one", "toward_node0"),
            InitFamily("random", "random"),
        ),
        metrics=("cover",),
        seeds=(0, 1),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestExpansion:
    def test_grid_size_with_seed_collapse(self):
        spec = _spec()
        configs = spec.configs()
        # deterministic family: 1 seed; random family: 2 seeds
        assert len(configs) == 2 * 2 * (1 + 2)
        assert spec.num_configs == len(configs)

    def test_duplicate_grid_entries_expand_once(self):
        spec = _spec(ns=(16, 16), families=(
            InitFamily("all_on_one", "toward_node0"),
            InitFamily("all_on_one", "toward_node0"),
        ))
        configs = spec.configs()
        assert len(configs) == len({c.config_hash for c in configs})
        assert len(configs) == 2  # n=16 x k in (2, 4)

    def test_deterministic_order_and_budget(self):
        spec = _spec()
        configs = spec.configs()
        assert configs == spec.configs()
        for config in configs:
            assert config.max_rounds == spec.budget(config.n)
            assert config.metrics == ("cover",)

    def test_build_matches_named_initializers(self):
        config = _spec().configs()[0]
        agents, directions = config.build()
        assert agents == [0] * config.k
        assert len(directions) == config.n
        assert all(d in (1, -1) for d in directions)

    def test_random_family_seeds_differ(self):
        spec = _spec(families=(InitFamily("random", "random"),))
        by_seed = {}
        for config in spec.configs():
            if config.n == 16 and config.k == 4:
                by_seed[config.seed] = config.build()
        assert by_seed[0] != by_seed[1]
        # and are reproducible
        again = {
            config.seed: config.build()
            for config in spec.configs()
            if config.n == 16 and config.k == 4
        }
        assert by_seed == again

    def test_every_named_initializer_builds(self):
        n, k = 16, 3
        for placement_name in PLACEMENTS:
            for pointer_name in POINTERS:
                config = SweepConfig(
                    n=n,
                    k=k,
                    placement=placement_name,
                    pointer=pointer_name,
                    seed=0,
                    metrics=("cover",),
                    max_rounds=100,
                )
                agents, directions = config.build()
                assert len(agents) == k
                assert len(directions) == n


def _every_family(n, k, seeds=(0, 1, 7)):
    return [
        SweepConfig(
            n=n, k=k, placement=placement, pointer=pointer, seed=seed,
            metrics=("cover",), max_rounds=100,
        )
        for placement in PLACEMENTS
        for pointer in POINTERS
        for seed in seeds
    ]


def _lanes_of_builds(n, cells):
    """The per-cell reference: every cell's ``build()``, stacked."""
    built = [cell.build() for cell in cells]
    return lanes_from_configs(
        n, [(directions, agents) for agents, directions in built]
    )


def _assert_same_lanes(got, expected):
    for array, reference in zip(got, expected):
        assert array.dtype == reference.dtype
        np.testing.assert_array_equal(array, reference)


class TestRotorLanes:
    """The chunk materializer against per-cell ``build()``.

    Odd ``n`` and odd ``k`` leave the shared generator a buffered
    half-word after a draw; a reseed that kept it would shift the next
    stream's draws.
    """

    @pytest.mark.parametrize(
        "n, k",
        [
            (n, k)
            for n in (3, 4, 64, 127, 128)
            for k in (1, 2, 5, 16, n + 3)
        ],
    )
    def test_spec_cells_match_per_cell_build(self, n, k):
        cells = _every_family(n, k)
        _assert_same_lanes(rotor_lanes(n, cells), _lanes_of_builds(n, cells))

    @pytest.mark.parametrize("n", [3, 64, 127])
    def test_explicit_cells_copy_their_rows(self, n):
        spec_cells = _every_family(n, 5, seeds=(3,))
        explicit = []
        for cell in spec_cells:
            agents, directions = cell.build()
            explicit.append(
                RotorCell(
                    n=n, agents=tuple(agents), directions=tuple(directions),
                    metrics=("cover",), max_rounds=100,
                )
            )
        mixed = [cell for pair in zip(explicit, spec_cells) for cell in pair]
        _assert_same_lanes(rotor_lanes(n, mixed), _lanes_of_builds(n, mixed))
        _assert_same_lanes(
            rotor_lanes(n, explicit), rotor_lanes(n, spec_cells)
        )

    def test_empty_chunk_rejected(self):
        with pytest.raises(ValueError):
            rotor_lanes(8, [])


class TestModelAxis:
    def test_schema_version_bumped_for_model_axis(self):
        # v2 added model + repetitions; pre-bump cache entries must
        # never hash-collide with current identities.
        assert SCHEMA_VERSION == 2

    def test_default_expansion_is_rotor_only(self):
        for config in _spec().configs():
            assert config.model == "rotor"
            assert config.repetitions == 1

    def test_walk_cells_normalize_pointer_and_carry_repetitions(self):
        spec = _spec(
            families=(
                InitFamily("all_on_one", "toward_node0"),
                InitFamily("all_on_one", "positive"),
            ),
            models=("walk",),
            repetitions=7,
        )
        configs = spec.configs()
        # two families sharing a placement collapse to one walk cell
        assert len(configs) == 2 * 2
        for config in configs:
            assert config.model == "walk"
            assert config.pointer == WALK_POINTER
            assert config.repetitions == 7
            assert len(config.rep_seeds()) == 7
            assert len(set(config.rep_seeds())) == 7

    def test_walk_seed_collapse_follows_placement_randomness(self):
        spec = _spec(models=("walk",), repetitions=2)
        walk_seeds = {}
        for config in spec.configs():
            walk_seeds.setdefault(config.placement, set()).add(config.seed)
        assert walk_seeds["all_on_one"] == {0}  # deterministic placement
        assert walk_seeds["random"] == {0, 1}   # placement needs the seed

    def test_both_models_expand_disjoint_cells(self):
        spec = _spec(models=("rotor", "walk"), repetitions=3)
        configs = spec.configs()
        hashes = {c.config_hash for c in configs}
        assert len(hashes) == len(configs)
        models = {c.model for c in configs}
        assert models == {"rotor", "walk"}

    def test_walk_build_is_rotor_only_but_agents_shared(self):
        spec = _spec(models=("rotor", "walk"))
        walk = next(c for c in spec.configs() if c.model == "walk")
        rotor = next(
            c
            for c in spec.configs()
            if c.model == "rotor"
            and (c.n, c.k, c.placement, c.seed)
            == (walk.n, walk.k, walk.placement, walk.seed)
        )
        with pytest.raises(ValueError):
            walk.build()
        assert walk.build_agents() == rotor.build_agents()
        assert rotor.build()[0] == rotor.build_agents()

    def test_identity_round_trips_model_fields(self):
        spec = _spec(models=("walk",), repetitions=4)
        config = spec.configs()[0]
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.config_hash == config.config_hash

    def test_repetitions_change_the_hash(self):
        a = _spec(models=("walk",), repetitions=3).configs()[0]
        b = _spec(models=("walk",), repetitions=5).configs()[0]
        assert a.config_hash != b.config_hash

    def test_invalid_models_and_repetitions(self):
        with pytest.raises(ValueError):
            _spec(models=())
        with pytest.raises(ValueError):
            _spec(models=("nope",))
        with pytest.raises(ValueError):
            _spec(repetitions=0)
        # walks have no rotors: stabilization/return are rotor-only
        with pytest.raises(ValueError):
            _spec(models=("rotor", "walk"), metrics=("stabilization",))


class TestHashing:
    def test_hash_is_stable_and_sensitive(self):
        config = _spec().configs()[0]
        same = pickle.loads(pickle.dumps(config))
        assert same.config_hash == config.config_hash
        bumped = SweepConfig(
            n=config.n,
            k=config.k + 1,
            placement=config.placement,
            pointer=config.pointer,
            seed=config.seed,
            metrics=config.metrics,
            max_rounds=config.max_rounds,
        )
        assert bumped.config_hash != config.config_hash

    def test_spec_hash_changes_with_grid(self):
        assert _spec().spec_hash != _spec(ks=(2,)).spec_hash
        assert _spec().spec_hash == _spec().spec_hash

    def test_scenario_name_not_part_of_identity(self):
        # Two scenarios sharing a cell share its cache entry.
        a = _spec(name="a").configs()[0]
        b = _spec(name="b").configs()[0]
        assert a.config_hash == b.config_hash

    def test_deterministic_cells_normalize_seed(self):
        # Different seed lists must not split deterministic cells'
        # cache identities (the seed is ignored when building them).
        a = _spec(seeds=(0,)).configs()
        b = _spec(seeds=(42,)).configs()
        det_a = [c for c in a if c.placement == "all_on_one"]
        det_b = [c for c in b if c.placement == "all_on_one"]
        assert [c.config_hash for c in det_a] == [
            c.config_hash for c in det_b
        ]
        rnd_a = [c for c in a if c.placement == "random"]
        rnd_b = [c for c in b if c.placement == "random"]
        assert {c.config_hash for c in rnd_a}.isdisjoint(
            c.config_hash for c in rnd_b
        )


class TestValidation:
    def test_unknown_placement(self):
        with pytest.raises(ValueError):
            InitFamily("nope", "random")

    def test_unknown_pointer(self):
        with pytest.raises(ValueError):
            InitFamily("random", "nope")

    def test_family_randomness_flag(self):
        assert InitFamily("random", "uniform").is_random
        assert InitFamily("all_on_one", "random").is_random
        assert not InitFamily("all_on_one", "uniform").is_random

    def test_bad_grids(self):
        with pytest.raises(ValueError):
            _spec(ns=())
        with pytest.raises(ValueError):
            _spec(ns=(2,))
        with pytest.raises(ValueError):
            _spec(ks=(0,))
        with pytest.raises(ValueError):
            _spec(families=())
        with pytest.raises(ValueError):
            _spec(metrics=("nope",))
        with pytest.raises(ValueError):
            _spec(metrics=())
        with pytest.raises(ValueError):
            _spec(seeds=())
        with pytest.raises(ValueError):
            _spec(max_rounds_factor=0)
