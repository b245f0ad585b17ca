"""Remote vertices: Definition 2 exactness and Lemma 15 abundance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.remote import (
    count_remote_vertices,
    is_remote,
    lemma15_lower_bound,
    remote_vertex_mask,
    remote_vertices_far_from_agents,
)
from repro.core import placement
from repro.graphs.ring import ring_distance
from repro.util.rng import make_rng


def _far_oracle(n, starts, min_distance):
    """The per-vertex transcription: every start checked at every node."""
    mask = remote_vertex_mask(n, starts)
    return [
        v for v in range(n)
        if mask[v]
        and all(ring_distance(n, v, s) >= min_distance for s in starts)
    ]


class TestMaskVsReference:
    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=30, deadline=None)
    def test_vectorized_matches_definition(self, seed):
        rng = make_rng(seed)
        n = int(rng.integers(10, 120))
        k = int(rng.integers(1, 12))
        starts = [int(s) for s in rng.integers(0, n, size=k)]
        mask = remote_vertex_mask(n, starts)
        for v in range(n):
            assert bool(mask[v]) == is_remote(n, starts, v)

    def test_validation(self):
        with pytest.raises(ValueError):
            remote_vertex_mask(2, [0])
        with pytest.raises(ValueError):
            remote_vertex_mask(10, [])
        with pytest.raises(ValueError):
            remote_vertex_mask(10, [11])
        with pytest.raises(ValueError):
            is_remote(10, [0], 10)


class TestGeometry:
    def test_far_vertices_are_remote_for_single_cluster(self):
        n, k = 200, 8
        starts = placement.all_on_one(k, node=0)
        mask = remote_vertex_mask(n, starts)
        # The antipode is far from the only cluster: remote.
        assert mask[n // 2]
        # Node 0 itself hosts k agents in a zero-width window: for
        # window r=1 the count is k > 1, so it is not remote (k > 1).
        assert not mask[0]

    def test_spread_placement_everything_remote(self):
        # Equally spaced k on large n: every window of r*n/(10k) holds
        # at most ~r/10 + 1 <= r agents.
        n, k = 400, 8
        mask = remote_vertex_mask(n, placement.equally_spaced(n, k))
        assert mask.all()


class TestLemma15:
    @pytest.mark.parametrize(
        "make_placement",
        [
            lambda n, k: placement.all_on_one(k),
            lambda n, k: placement.equally_spaced(n, k),
            lambda n, k: placement.half_ring(n, k),
            lambda n, k: placement.clustered(n, k, max(1, k // 3), seed=5),
            lambda n, k: placement.random_nodes(n, k, seed=9),
        ],
    )
    def test_at_least_80_percent_remote(self, make_placement):
        n, k = 2000, 32
        starts = make_placement(n, k)
        count = count_remote_vertices(n, starts)
        # Lemma 15 is 0.8n - o(n); at n=2000 allow a small slack.
        assert count >= 0.75 * n
        assert lemma15_lower_bound(n) == 1600.0

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=10, deadline=None)
    def test_random_placements_abundant(self, seed):
        n = 1500
        k = 30
        starts = placement.random_nodes(n, k, seed=seed)
        assert count_remote_vertices(n, starts) >= 0.7 * n


class TestFarRemote:
    def test_far_filter(self):
        n, k = 300, 6
        starts = placement.equally_spaced(n, k)
        far = remote_vertices_far_from_agents(n, starts, n // (9 * k))
        mask = remote_vertex_mask(n, starts)
        from repro.graphs.ring import ring_distance

        for v in far:
            assert mask[v]
            assert all(
                ring_distance(n, v, s) >= n // (9 * k) for s in starts
            )

    def test_matches_oracle_on_random_inputs(self):
        rng = make_rng(15)
        for _ in range(300):
            n = int(rng.integers(3, 160))
            k = int(rng.integers(1, 2 * n))  # k > n included
            if rng.random() < 0.25:
                starts = [int(rng.integers(0, n))] * k  # one stack
            else:
                starts = rng.integers(0, n, size=k).tolist()
            min_distance = int(rng.integers(0, n // 2 + 2))
            assert remote_vertices_far_from_agents(
                n, starts, min_distance
            ) == _far_oracle(n, starts, min_distance)

    def test_theorem4_ingredient_exists(self):
        # For every battery placement there is a far remote vertex.
        n, k = 1000, 10
        for starts in (
            placement.all_on_one(k),
            placement.equally_spaced(n, k),
            placement.random_nodes(n, k, seed=0),
        ):
            far = remote_vertices_far_from_agents(n, starts, n // (9 * k))
            assert far


class TestCountsDtypes:
    def test_multiplicity_counted(self):
        n = 100
        # 5 agents stacked: window r=1 around the stack sees 5 > 1.
        mask = remote_vertex_mask(n, [10] * 5)
        assert not mask[10]

    def test_mask_is_bool(self):
        mask = remote_vertex_mask(50, [0])
        assert mask.dtype == np.bool_
