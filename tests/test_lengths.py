from fractions import Fraction

import pytest
from conftest import ball, brute_cayley_distances

from groupapprox.groups import FiniteGroup, is_n_separated
from groupapprox.lengths import (
    cayley_conjugation_length,
    from_table,
    hamming,
    verify_axioms,
)
from groupapprox.perm import Permutation, identity, parse_cycles


def s(text, degree):
    return parse_cycles(text, degree)


S4 = FiniteGroup.symmetric(4)
S5 = FiniteGroup.symmetric(5)
A5 = FiniteGroup.alternating(5)


class TestVerifyAxioms:
    def test_hamming_on_s4(self):
        rep = verify_axioms(hamming(S4))
        assert rep.valid
        assert rep.pairs_checked == 2 * 24 * 24

    def test_single_spike_table_breaks_invariance(self):
        values = {x: Fraction(0) for x in S4.elements()}
        values[s("(1 2)", 4)] = Fraction(1)
        rep = verify_axioms(from_table(S4, values))
        assert not rep.valid
        axioms = {v.axiom for v in rep.violations}
        assert "invariant" in axioms
        witness = next(v for v in rep.violations if v.axiom == "invariant").witness
        assert len(witness) == 2

    def test_zero_table_is_valid_pseudo_length(self):
        values = {x: Fraction(0) for x in S4.elements()}
        assert verify_axioms(from_table(S4, values)).valid

    def test_table_must_cover_carrier(self):
        with pytest.raises(ValueError):
            from_table(S4, {identity(4): Fraction(0)})

    def test_table_must_stay_inside_carrier(self):
        A4 = FiniteGroup.alternating(4)
        with pytest.raises(ValueError, match=r"^table has 12 elements outside A4, first \(1 2\)$"):
            from_table(A4, hamming(S4).table())

    def test_negative_value_reported(self):
        values = {x: Fraction(0) for x in S4.elements()}
        values[s("(1 2)(3 4)", 4)] = Fraction(-1)
        rep = verify_axioms(from_table(S4, values))
        assert not rep.valid
        assert "nonnegative" in {v.axiom for v in rep.violations}


class TestCayleyConjugationLength:
    def test_empty_base_clamps_everything(self):
        ell = cayley_conjugation_length(S4, [], 3)
        assert ell(identity(4)) == 0
        for x in S4.elements():
            if not x.is_identity():
                assert ell(x) == 1

    def test_holds_one_value_per_class(self):
        """No container the length holds has an entry per element: it keeps
        a value per class, read through the group's class labels."""
        ell = cayley_conjugation_length(A5, [s("(1 2 3)", 5)], 4)

        def containers(v):
            """v, if a container, and the containers nested in it."""
            if isinstance(v, dict):
                yield v
                for item in v.values():
                    yield from containers(item)
            elif isinstance(v, (tuple, list, set, frozenset)) and not isinstance(v, Permutation):
                yield v
                for item in v:
                    yield from containers(item)

        held = [c for k, v in vars(ell).items() if k != "group" for c in containers(v)]
        assert max(map(len, held)) < len(A5.elements())
        assert len(ell._values) == len(A5.conjugacy_classes())

    def test_base_elements_get_one_over_n(self):
        ell = cayley_conjugation_length(A5, [s("(1 2 3)", 5)], 4)
        assert ell(s("(1 2 3)", 5)) == Fraction(1, 4)

    def test_passes_axioms(self):
        for X, n in ([[s("(1 2 3)", 5)], 4], [[s("(1 2)(3 4)", 5)], 2]):
            ell = cayley_conjugation_length(A5, X, n)
            assert verify_axioms(ell).valid

    def test_matches_brute_force_distances(self):
        X = [s("(1 2 3)", 4)]
        n = 3
        ell = cayley_conjugation_length(S4, X, n)
        dist = brute_cayley_distances(S4, X)
        for h in S4.elements():
            expected = min(Fraction(dist[h], n), Fraction(1)) if h in dist else Fraction(1)
            assert ell(h) == expected

    def test_separated_elements_sit_at_one(self):
        X = [s("(1 2 3)", 5)]
        n = 4
        ell = cayley_conjugation_length(A5, X, n)
        for y in A5.elements():
            if is_n_separated(A5, [y], X, n).separated:
                assert ell(y) == 1

    def test_unreachable_elements_clamp_to_one(self):
        # Klein letters never produce a 3-cycle, so those distances are
        # infinite and the clamp actually fires (non-vacuous, unlike A_5
        # with a 3-cycle base, whose depth-2 set is already everything)
        A4 = FiniteGroup.alternating(4)
        X = [s("(1 2)(3 4)", 4)]
        ell = cayley_conjugation_length(A4, X, 2)
        separated = 0
        for y in A4.elements():
            if is_n_separated(A4, [y], X, 2).separated:
                separated += 1
                assert ell(y) == 1
        assert separated == 8  # all eight 3-cycles


class TestBall:
    def test_radius_zero_empty(self):
        assert ball(hamming(S5), 0) == frozenset()

    def test_radius_half_on_s5(self):
        got = ball(hamming(S5), Fraction(1, 2))
        transpositions = {x for x in S5.elements() if len(x.support()) == 2}
        assert got == transpositions | {identity(5)}

    def test_radius_past_one_is_everything(self):
        assert ball(hamming(S5), Fraction(3, 2)) == frozenset(S5.elements())


class TestBallSeparationLemma:
    @pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 2)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_outside_big_ball_separated_from_small_ball(self, eps, n):
        # subadditivity plus invariance: n letters from the eps-ball
        # multiply to something shorter than n*eps
        ell = hamming(S4)
        X = ball(ell, eps)
        Y = [h for h in S4.elements() if ell(h) >= n * eps]
        rep = is_n_separated(S4, Y, X, n)
        assert rep.separated

    def test_nontrivial_instance_via_graph_length(self):
        # transposition-alphabet length on S_4: the half ball holds the
        # identity and all transpositions, yet 4-cycles (three letters
        # deep) stay out of the depth-2 set
        ell = cayley_conjugation_length(S4, [s("(1 2)", 4)], 3)
        X = ball(ell, Fraction(1, 2))
        assert any(not x.is_identity() for x in X)
        Y = [h for h in S4.elements() if ell(h) >= 2 * Fraction(1, 2)]
        assert Y
        assert is_n_separated(S4, Y, X, 2).separated
