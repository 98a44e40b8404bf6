import math

import pytest

from succorder import (
    RegularityProfile,
    RegularityWitness,
    brute_sigma,
    count_check,
    detect_fully_regular,
    mask_of,
    sigma,
    sigma_closed_form,
)

from conftest import c5_chord, complete_bipartite, complete_graph, cycle_graph, path_graph


class TestDetect:
    def test_c5_is_fully_regular(self):
        profile = detect_fully_regular(cycle_graph(5))
        assert profile == RegularityProfile(alpha=2, a_seq=(5, 2, 0))

    def test_c5_chord_witness(self):
        verdict = detect_fully_regular(c5_chord())
        assert isinstance(verdict, RegularityWitness)
        assert verdict.size == 1
        assert verdict.first_set == mask_of([0])
        assert verdict.first_value == 2
        assert verdict.other_set == mask_of([1])
        assert verdict.other_value == 1

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_complete_graphs(self, n):
        profile = detect_fully_regular(complete_graph(n))
        assert isinstance(profile, RegularityProfile)
        assert profile.a_seq == (n, 0)
        assert profile.alpha == 1

    def test_balanced_bipartite_regular(self):
        profile = detect_fully_regular(complete_bipartite(2, 2))
        assert profile == RegularityProfile(alpha=2, a_seq=(4, 1, 0))

    def test_unbalanced_bipartite_is_not(self):
        # sides of different sizes give different outside counts for singletons
        verdict = detect_fully_regular(complete_bipartite(2, 3))
        assert isinstance(verdict, RegularityWitness)
        assert verdict.size == 1
        assert {verdict.first_value, verdict.other_value} == {1, 2}

    def test_path_is_not_regular(self):
        assert isinstance(detect_fully_regular(path_graph(3)), RegularityWitness)


class TestCountCheck:
    def test_c5(self):
        g = cycle_graph(5)
        assert count_check(g, detect_fully_regular(g))

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_complete(self, n):
        g = complete_graph(n)
        assert count_check(g, detect_fully_regular(g))

    def test_k22(self):
        g = complete_bipartite(2, 2)
        assert count_check(g, detect_fully_regular(g))

    def test_fails_on_wrong_profile(self):
        g = cycle_graph(5)
        assert not count_check(g, RegularityProfile(alpha=2, a_seq=(5, 3, 0)))

    def test_fails_on_a_graph_with_fewer_layers(self):
        # C5's profile (5, 2, 0) predicts 5 independent pairs; K5 has none
        assert not count_check(complete_graph(5), detect_fully_regular(cycle_graph(5)))


class TestClosedForm:
    def test_c5(self):
        profile = detect_fully_regular(cycle_graph(5))
        assert sigma_closed_form(profile) == 40
        assert sigma(cycle_graph(5)).sigma == 40
        assert brute_sigma(cycle_graph(5)) == 40

    def test_k22(self):
        profile = detect_fully_regular(complete_bipartite(2, 2))
        assert sigma_closed_form(profile) == 16
        assert brute_sigma(complete_bipartite(2, 2)) == 16

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_complete(self, n):
        g = complete_graph(n)
        assert sigma_closed_form(detect_fully_regular(g)) == math.factorial(n)

    def test_matches_engine_on_short_cycles(self):
        # C3, C4, C5 are fully regular; from C6 on, independent pairs at
        # different distances leave different numbers of outside vertices
        for n in [3, 4, 5]:
            g = cycle_graph(n)
            profile = detect_fully_regular(g)
            assert isinstance(profile, RegularityProfile)
            assert count_check(g, profile)
            assert sigma_closed_form(profile) == sigma(g).sigma
        assert isinstance(detect_fully_regular(cycle_graph(6)), RegularityWitness)
