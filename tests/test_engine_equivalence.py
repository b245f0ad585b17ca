"""The ring and path engines equal the general reference engine step
for step: the ``engines/*`` rows of ``tests/differential.py``."""

from differential import case


class TestRingEquivalence:
    test_trajectories_match = case("engines/ring")
    test_cover_times_match = case("engines/ring-cover")
    test_equivalence_with_random_holds = case("engines/holds")


class TestPathEquivalence:
    test_trajectories_match = case("engines/path")
    test_cover_times_match = case("engines/path-cover")
