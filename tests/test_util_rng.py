"""Tests for repro.util.rng."""

import numpy as np
import pytest

from repro.util.rng import (
    choice_seeded,
    default_rng_states,
    default_rng_stream,
    derive_seed,
    make_rng,
    shuffled,
    spawn_rngs,
)


def _pcg64_state(seed):
    state = np.random.PCG64(seed).state["state"]
    return state["state"], state["inc"]


class TestMakeRng:
    def test_int_seed_is_deterministic(self):
        a = make_rng(42).integers(0, 1_000_000, size=10)
        b = make_rng(42).integers(0, 1_000_000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).integers(0, 1_000_000, size=10)
        b = make_rng(2).integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "x", 2) == derive_seed(1, "x", 2)

    def test_sensitive_to_labels(self):
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_order_matters(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")

    def test_fits_in_63_bits(self):
        for i in range(50):
            assert 0 <= derive_seed(i, "label") < 2 ** 63

    def test_numeric_vs_string_labels_distinguished_by_position(self):
        # "1:2" vs "12" style collisions must not occur.
        assert derive_seed(1, 23) != derive_seed(12, 3)


class TestDefaultRngStates:
    @pytest.mark.parametrize(
        "seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1]
    )
    def test_edge_seeds_match_pcg64(self, seed):
        assert default_rng_states([seed]) == [_pcg64_state(seed)]

    @pytest.mark.parametrize(
        "low, high", [(0, 2 ** 32), (2 ** 32, 2 ** 63)],
        ids=["one-word", "two-word"],
    )
    def test_random_seeds_match_pcg64(self, low, high):
        seeds = np.random.default_rng(low).integers(
            low, high, size=10_000, dtype=np.uint64
        ).tolist()
        assert default_rng_states(seeds) == [
            _pcg64_state(seed) for seed in seeds
        ]

    @pytest.mark.parametrize("seed", [-1, 2 ** 63])
    def test_out_of_range_rejected(self, seed):
        with pytest.raises(ValueError):
            default_rng_states([0, seed])

    def test_empty(self):
        assert default_rng_states([]) == []

    def test_stream_draws_what_default_rng_draws(self):
        # Odd draw counts leave PCG64 a buffered 32-bit half-word; each
        # reseed must drop it, as a fresh generator has none.
        seeds = [derive_seed(7, "stream", i) for i in range(6)]
        sizes = [3, 5, 1, 4, 7, 2]
        for seed, size, rng in zip(seeds, sizes, default_rng_stream(seeds)):
            fresh = np.random.default_rng(seed)
            assert np.array_equal(
                rng.integers(0, 2, size=size), fresh.integers(0, 2, size=size)
            )
            assert rng.random() == fresh.random()


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5, "ctx")) == 5

    def test_reproducible(self):
        a = [g.integers(0, 10**9) for g in spawn_rngs(7, 3, "ctx")]
        b = [g.integers(0, 10**9) for g in spawn_rngs(7, 3, "ctx")]
        assert a == b

    def test_independent(self):
        values = [g.integers(0, 10**9) for g in spawn_rngs(7, 10, "ctx")]
        assert len(set(int(v) for v in values)) == 10

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestHelpers:
    def test_choice_seeded_uniformish(self):
        rng = make_rng(0)
        picks = [choice_seeded(rng, ["a", "b", "c"]) for _ in range(300)]
        assert set(picks) == {"a", "b", "c"}

    def test_choice_seeded_empty_rejected(self):
        with pytest.raises(ValueError):
            choice_seeded(make_rng(0), [])

    def test_shuffled_is_permutation(self):
        items = list(range(20))
        result = shuffled(make_rng(3), items)
        assert sorted(result) == items
        assert items == list(range(20))  # input untouched

    def test_shuffled_deterministic(self):
        assert shuffled(make_rng(5), range(10)) == shuffled(
            make_rng(5), range(10)
        )
