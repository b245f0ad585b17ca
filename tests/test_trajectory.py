"""The one ring-and-path stepper against the reference engines: the
``trajectory/*`` rows of the differential harness
(``tests/differential.py``), at ``_SHORTEST_JUMP`` 8 (the production
value) and 1 (every jump the bounds allow): ring and path runs with
stops, visit kinds and rank maxima, lone walks, the Theorem 1
deployment, and Lemmas 4 and 5 as properties.
"""

from differential import case


class TestRingRuns:
    test_runs_match_the_engine_and_its_visit_kinds = case("trajectory/ring")
    test_cover_stop_matches_the_engine = case("trajectory/cover")


class TestPathRuns:
    test_runs_with_stops_and_rank_maxima = case("trajectory/path")


class TestLoneWalks:
    test_walks_match_hold_all_except_one = case("trajectory/walks")


class TestDeployment:
    test_trace_matches_the_hold_construction = case("trajectory/deployment")


class TestDomainLemmas:
    """§2.2's Lemmas 4 and 5 on seeded ring trajectories."""

    test_at_most_two_agents_per_node_stays_so = case("trajectory/lemma5")
    test_every_snapshot_is_partitioned = case("trajectory/lemma4")
