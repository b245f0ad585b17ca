"""The CSR-batched general-graph kernel vs the reference engine.

The contract of :mod:`repro.sweep.batch_general` is exactness, not
approximation: for every lane, the cover round *and* the final
``(pointers, counts)`` configuration must equal a standalone
:class:`repro.core.engine.MultiAgentRotorRouter` run bit for bit —
across graph families, mixed degrees, shuffled port orders, agent
counts from 1 to beyond n, truncating budgets, and every scheduling
mode (vector-only, default crossover, scalar-only).
"""

import numpy as np
import pytest

from repro.core.engine import MultiAgentRotorRouter
from repro.core.pointers import random_ports
from repro.graphs import (
    clique,
    gnp_random_graph,
    grid_2d,
    hypercube,
    lollipop,
    path_graph,
    random_regular_graph,
    ring_graph,
    star,
    torus_2d,
)
from repro.graphs.random_graphs import shuffled_ports
from repro.sweep import batch_general
from repro.sweep.batch_general import (
    BatchGeneralKernel,
    GeneralLane,
    batch_general_covers,
)
from repro.util.rng import make_rng

#: Every family from graphs.families / graphs.random_graphs, small
#: enough to fan ~20 configurations each and stay fast.  Mixed
#: degrees on purpose: paths/stars have leaves, cliques are dense,
#: lollipops combine both extremes.
FAMILIES = {
    "ring": lambda: ring_graph(12),
    "path": lambda: path_graph(9),
    "grid": lambda: grid_2d(4, 5),
    "torus": lambda: torus_2d(4, 4),
    "hypercube": lambda: hypercube(4),
    "clique": lambda: clique(7),
    "star": lambda: star(8),
    "lollipop": lambda: lollipop(5, 6),
    "gnp": lambda: gnp_random_graph(18, 0.25, seed=4),
    "random-regular": lambda: random_regular_graph(14, 3, seed=4),
}


def reference_run(graph, ports, agents, budget):
    """Cover + final state from the serial engine (state at the cover
    round, or at the budget for truncated runs)."""
    engine = MultiAgentRotorRouter(graph, list(ports), list(agents))
    try:
        cover = engine.run_until_covered(budget)
    except RuntimeError:
        cover = -1
    if cover < 0 and engine.round < budget:
        engine.run(budget - engine.round)
    return cover, list(engine.pointers), engine.counts.tolist()


def build_grid():
    """~130 randomized configurations across every family."""
    lanes, references, graphs = [], [], []
    for index, (name, factory) in enumerate(sorted(FAMILIES.items())):
        base = factory()
        for variant in range(2):
            graph = (
                base if variant == 0 else shuffled_ports(base, seed=index)
            )
            n = graph.num_nodes
            csr = graph.to_csr()
            # k from 1 to beyond n, plus truncating budget lanes.
            cases = [
                (1, 50_000), (2, 50_000), (3, 50_000), (n // 2 + 1, 50_000),
                (n, 50_000), (n + 5, 50_000), (1, 7), (4, 3),
            ]
            for case, (k, budget) in enumerate(cases):
                rng = make_rng((index, variant, case))
                agents = [int(rng.integers(0, n)) for _ in range(k)]
                ports = random_ports(graph, rng)
                lanes.append(GeneralLane(csr, tuple(ports), tuple(agents),
                                         budget))
                references.append(reference_run(graph, ports, agents, budget))
                graphs.append(graph)
    return lanes, references, graphs


GRID = build_grid()


class TestRandomizedEquivalence:
    def test_grid_is_large_and_diverse(self):
        lanes, _, _ = GRID
        assert len(lanes) >= 100
        degrees = {
            int(d) for lane in lanes for d in np.unique(lane.csr.deg)
        }
        assert len(degrees) >= 4  # genuinely mixed degrees
        assert any(len(lane.agents) > lane.csr.num_nodes for lane in lanes)
        assert any(len(lane.agents) == 1 for lane in lanes)

    @pytest.mark.parametrize(
        "tail", [0, 32, 10**9], ids=["vector-only", "crossover", "scalar-only"]
    )
    def test_covers_and_final_states_match_reference(self, tail, monkeypatch):
        lanes, references, _ = GRID
        monkeypatch.setattr(batch_general, "SCALAR_TAIL_PAIRS", tail)
        kernel = BatchGeneralKernel(lanes)
        covers = kernel.run_until_covered(strict=False)
        for lane_index, (cover, ref_ptr, ref_cnt) in enumerate(references):
            assert covers[lane_index] == cover, lane_index
            pointers, counts = kernel.lane_state(lane_index)
            assert pointers.tolist() == ref_ptr, lane_index
            assert counts.tolist() == ref_cnt, lane_index

    def test_tail_threshold_is_read_at_call_time(self, monkeypatch):
        # Patched after construction, the constant still decides: 0
        # never hands a lane to the scalar finisher, a huge threshold
        # hands every lane over before the first vector round.
        lanes, references, _ = GRID
        lanes, references = lanes[:24], references[:24]
        for tail in (0, 10**9):
            kernel = BatchGeneralKernel(lanes)
            monkeypatch.setattr(batch_general, "SCALAR_TAIL_PAIRS", tail)
            covers = kernel.run_until_covered(strict=False)
            assert covers.tolist() == [cover for cover, _, _ in references]
            if tail:
                assert kernel._vector_rounds == 0 < kernel._scalar_lanes
            else:
                assert kernel._scalar_lanes == 0 < kernel._vector_rounds

    def test_truncated_lanes_report_minus_one(self):
        lanes, references, _ = GRID
        truncated = [
            index for index, (cover, _, _) in enumerate(references)
            if cover < 0
        ]
        assert truncated  # the tiny budgets above must truncate somewhere
        covers = batch_general_covers(lanes, strict=False)
        for index in truncated:
            assert covers[index] == -1

    def test_strict_mode_raises_on_truncation(self):
        lanes, references, _ = GRID
        assert any(cover < 0 for cover, _, _ in references)
        with pytest.raises(RuntimeError, match="not covered"):
            batch_general_covers(lanes, strict=True)


class TestKernelSurface:
    def test_covered_at_round_zero(self):
        graph = clique(5)
        covers = batch_general_covers(
            [(graph.to_csr(), [0] * 5, list(range(5)), 100)]
        )
        assert covers.tolist() == [0]

    def test_heterogeneous_graphs_share_one_kernel(self):
        small, big = star(4), torus_2d(4, 4)
        lanes = []
        expected = []
        for graph, k in ((small, 1), (big, 3), (small, 2), (big, 1)):
            rng = make_rng((graph.num_nodes, k))
            agents = [int(rng.integers(0, graph.num_nodes)) for _ in range(k)]
            ports = random_ports(graph, rng)
            lanes.append((graph.to_csr(), ports, agents, 10_000))
            expected.append(reference_run(graph, ports, agents, 10_000)[0])
        kernel = BatchGeneralKernel(lanes)
        assert kernel.run_until_covered().tolist() == expected

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
