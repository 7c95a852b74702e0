from fractions import Fraction

import pytest
from conftest import ball, brute_min_depth, support_cover_exhaustive

from groupapprox.coverage import (
    empirical_covering_constant,
    support_cover_sweep,
    verify_brenner_bound,
    verify_support_cover,
)
from groupapprox.groups import FiniteGroup, class_first_depths, iter_consequence_class_layers
from groupapprox.lengths import hamming
from groupapprox.perm import parse_cycles


def s(text, degree):
    return parse_cycles(text, degree)


A4 = FiniteGroup.alternating(4)
A5 = FiniteGroup.alternating(5)


def first_depth(G, X, y):
    """Least depth n with y in C_n(X, G), None when no depth reaches it, as
    ``lengths.cayley_conjugation_length`` reads it."""
    return class_first_depths(iter_consequence_class_layers(G, X)).get(G.class_index_of(y))


class TestMinConsequenceDepth:
    def test_member_of_base_is_depth_one(self):
        x = s("(1 2 3)", 5)
        assert first_depth(A5, [x], x) == 1

    def test_klein_closure_never_reaches(self):
        x = s("(1 2)(3 4)", 4)
        y = s("(1 2 3)", 4)
        assert first_depth(A4, [x], y) is None

    def test_double_transposition_from_three_cycles(self):
        x = s("(1 2 3)", 5)
        y = s("(1 2)(3 4)", 5)
        assert first_depth(A5, [x], y) == 2

    def test_max_n_cuts_off(self):
        x = s("(1 2 3)", 5)
        y = s("(1 2)(3 4)", 5)
        assert brute_min_depth(A5, [x], y, 1) is None
        assert first_depth(A5, [x], y) > 1

    def test_matches_brute_force_on_a5(self):
        reps = [s("(1 2 3)", 5), s("(1 2)(3 4)", 5), s("(1 2 3 4 5)", 5)]
        for x in reps:
            for y in reps:
                assert first_depth(A5, [x], y) == brute_min_depth(A5, [x], y, 6)


class TestSupportCover:
    def test_five_cycle_targets_whole_group(self):
        rep = verify_support_cover(5, s("(1 2 3 4 5)", 5))
        assert rep.holds
        assert rep.target_size == 59

    def test_three_cycle_targets_its_two_rotations(self):
        rep = verify_support_cover(5, s("(1 2 3)", 5))
        assert rep.holds
        assert rep.target_size == 2

    def test_degree_four_rejected(self):
        with pytest.raises(ValueError):
            verify_support_cover(4, s("(1 2)(3 4)", 4))

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            verify_support_cover(5, s("()", 5))

    def test_sweep_all_reps_m5(self):
        reports = support_cover_sweep(5)
        assert reports and all(r.holds for r in reports)

    def test_exhaustive_m5(self):
        checked, violations = support_cover_exhaustive(5)
        assert checked == 59
        assert violations == ()


class TestBrennerBound:
    def test_depth_one_is_vacuous(self):
        rep = verify_brenner_bound(5, [s("(1 2 3)", 5)], 1)
        assert rep.threshold == 0
        assert rep.ball_size == 0
        assert rep.holds

    def test_three_cycle_depth_seventeen(self):
        rep = verify_brenner_bound(5, [s("(1 2 3)", 5)], 17)
        assert rep.epsilon == Fraction(3, 5)
        assert rep.threshold == Fraction(3, 5)
        assert rep.holds

    def test_double_transposition_m6_depth_33(self):
        rep = verify_brenner_bound(6, [s("(1 2)(3 4)", 6)], 33)
        assert rep.holds

    def test_base_validation(self):
        with pytest.raises(ValueError):
            verify_brenner_bound(5, [], 3)
        with pytest.raises(ValueError):
            verify_brenner_bound(5, [s("()", 5)], 3)

    def test_ball_members_reachable_within_depth(self):
        X = [s("(1 2 3)", 5)]
        n = 9
        rep = verify_brenner_bound(5, X, n)
        assert rep.holds
        for y in ball(hamming(A5), rep.threshold):
            if y in A5:
                depth = first_depth(A5, X, y)
                assert depth is not None and depth <= n


class TestCoveringTable:
    def test_diagonal_ratio_is_one(self):
        table = empirical_covering_constant(5)
        for row in table.rows:
            if row.x == row.y:
                assert row.depth == 1 and row.ratio == 1

    def test_m5_within_sixteen(self):
        table = empirical_covering_constant(5)
        assert all(row.depth is not None and row.ratio <= 16 for row in table.rows)
        assert table.max_ratio is not None

    def test_small_degree_rejected(self):
        with pytest.raises(ValueError):
            empirical_covering_constant(4)
