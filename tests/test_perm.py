from fractions import Fraction
from itertools import permutations as iter_perms

import pytest
from conftest import length_of_tensor_power, tensor_power
from hypothesis import given, strategies as st

from groupapprox.errors import CapExceeded, ParseError
from groupapprox.perm import (
    Permutation,
    conjugate,
    cycle_string,
    direct_sum,
    embed_sym_in_alt,
    hamming_length,
    identity,
    is_even,
    parse_cycles,
    replicate,
)


def s(text, degree):
    return parse_cycles(text, degree)


def all_perms(m):
    return [Permutation(p) for p in iter_perms(range(m))]


@st.composite
def perm_pairs(draw, max_degree=6):
    m = draw(st.integers(min_value=1, max_value=max_degree))
    a = Permutation(draw(st.permutations(range(m))))
    b = Permutation(draw(st.permutations(range(m))))
    return a, b


class TestCompose:
    def test_identity_case(self):
        assert s("(1 2)", 2) * identity(2) == s("(1 2)", 2)

    def test_three_cycle_squared(self):
        assert s("(1 2 3)", 3) * s("(1 2 3)", 3) == s("(1 3 2)", 3)

    def test_right_action_convention(self):
        # the one convention test: a acts first, so 1 -> 2 -> 3
        ab = s("(1 2)", 3) * s("(2 3)", 3)
        assert ab[0] == 2
        assert ab == s("(1 3 2)", 3)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            s("(1 2)", 2) * s("(1 2)", 3)

    @given(perm_pairs())
    def test_inverse_cancels(self, pair):
        a, _ = pair
        assert a * a.inverse() == identity(len(a))
        assert a.inverse() * a == identity(len(a))

    @given(st.integers(min_value=1, max_value=5), st.data())
    def test_associative(self, m, data):
        a = Permutation(data.draw(st.permutations(range(m))))
        b = Permutation(data.draw(st.permutations(range(m))))
        c = Permutation(data.draw(st.permutations(range(m))))
        assert (a * b) * c == a * (b * c)


class TestConjugate:
    def test_identity_case(self):
        assert conjugate(s("(1 2)", 2), identity(2)) == s("(1 2)", 2)

    def test_direct_evaluation(self):
        assert conjugate(s("(1 2)", 3), s("(1 3)", 3)) == s("(2 3)", 3)

    def test_matches_product_form(self):
        for x in all_perms(4):
            for g in all_perms(4):
                assert conjugate(x, g) == (g.inverse() * x) * g

    def test_preserves_hamming_on_s4(self):
        for x in all_perms(4):
            for g in all_perms(4):
                assert hamming_length(conjugate(x, g)) == hamming_length(x)


class TestHammingLength:
    def test_identity_is_zero(self):
        assert hamming_length(identity(5)) == 0

    def test_three_cycle_in_s5(self):
        assert hamming_length(s("(1 2 3)", 5)) == Fraction(3, 5)

    def test_full_support(self):
        assert hamming_length(s("(1 2)(3 4)", 4)) == 1

    def test_exact_type(self):
        assert isinstance(hamming_length(s("(1 2)", 4)), Fraction)


class TestDirectSum:
    def test_identities(self):
        assert direct_sum(identity(2), identity(3)) == identity(5)

    def test_block_values(self):
        a, b = s("(1 2)", 2), s("(1 2 3)", 3)
        assert direct_sum(a, b) == s("(1 2)(3 4 5)", 5)

    def test_length_formula_examples(self):
        a = s("(1 2)", 2)
        assert hamming_length(direct_sum(a, s("(1 2 3)", 3))) == 1
        b4 = s("(1 2 3)", 4)
        assert hamming_length(direct_sum(a, b4)) == Fraction(5, 6)

    def test_length_formula_s3_x_s4(self):
        # weighted-average identity over every pair
        for a in all_perms(3):
            for b in all_perms(4):
                expected = (3 * hamming_length(a) + 4 * hamming_length(b)) / Fraction(7)
                assert hamming_length(direct_sum(a, b)) == expected

    def test_replication_preserves_length(self):
        for h in all_perms(3):
            rep = direct_sum(direct_sum(h, h), h)
            assert hamming_length(rep) == hamming_length(h)

    @given(perm_pairs(max_degree=5))
    def test_length_formula_random(self, pair):
        a, b = pair
        r, k = len(a), len(b)
        expected = (r * hamming_length(a) + k * hamming_length(b)) / Fraction(r + k)
        assert hamming_length(direct_sum(a, b)) == expected

    @pytest.mark.parametrize("copies", [1, 2, 5])
    def test_replicate_is_the_pairwise_direct_sum(self, copies):
        for h in all_perms(3):
            folded = h
            for _ in range(copies - 1):
                folded = direct_sum(folded, h)
            assert replicate(h, copies) == folded
            assert isinstance(replicate(h, copies), Permutation)


class TestTensorPower:
    def test_identity(self):
        assert tensor_power(identity(3), 4) == identity(81)

    def test_half_length_squares_to_three_quarters(self):
        h = s("(1 2)", 4)
        assert hamming_length(h) == Fraction(1, 2)
        assert hamming_length(tensor_power(h, 2)) == Fraction(3, 4)

    def test_formula_matches_materialized_s3(self):
        for h in all_perms(3):
            for r in (1, 2, 3):
                assert hamming_length(tensor_power(h, r)) == length_of_tensor_power(
                    hamming_length(h), r
                )

    def test_cap(self):
        with pytest.raises(CapExceeded):
            tensor_power(identity(10), 7, cap=10**6)

    def test_is_homomorphism_on_s3(self):
        for a in all_perms(3):
            for b in all_perms(3):
                assert tensor_power(a * b, 2) == tensor_power(a, 2) * tensor_power(b, 2)


class TestLengthOfTensorPower:
    def test_zero_stays_zero(self):
        assert length_of_tensor_power(Fraction(0), 5) == 0

    def test_half_squared(self):
        assert length_of_tensor_power(Fraction(1, 2), 2) == Fraction(3, 4)

    def test_agrees_with_materialized_s4(self):
        for h in all_perms(4):
            for r in (1, 2, 3):
                assert length_of_tensor_power(hamming_length(h), r) == hamming_length(
                    tensor_power(h, r)
                )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            length_of_tensor_power(Fraction(3, 2), 2)


class TestEmbedSymInAlt:
    def test_identity(self):
        assert embed_sym_in_alt(identity(3)) == identity(6)

    def test_transposition(self):
        img = embed_sym_in_alt(s("(1 2)", 2))
        assert img == s("(1 2)(3 4)", 4)
        assert is_even(img)
        assert hamming_length(img) == 1

    def test_homomorphism_on_s3(self):
        for a in all_perms(3):
            for b in all_perms(3):
                assert embed_sym_in_alt(a * b) == embed_sym_in_alt(a) * embed_sym_in_alt(b)

    def test_injective_even_length_preserving_s4(self):
        images = set()
        for a in all_perms(4):
            img = embed_sym_in_alt(a)
            images.add(img)
            assert is_even(img)
            assert hamming_length(img) == hamming_length(a)
        assert len(images) == 24


class TestParity:
    @pytest.mark.parametrize(
        "text,degree,expected",
        [("()", 3, "even"), ("(1 2)", 3, "odd"), ("(1 2 3)", 3, "even")],
    )
    def test_basics(self, text, degree, expected):
        assert is_even(s(text, degree)) == (expected == "even")

    def test_multiplicative(self):
        for a in all_perms(4):
            for b in all_perms(4):
                even = is_even(a) == is_even(b)
                assert is_even(a * b) == even


class TestCycleText:
    def test_round_trip(self):
        for h in all_perms(4):
            assert parse_cycles(cycle_string(h), 4) == h

    def test_identity_text(self):
        assert cycle_string(identity(6)) == "()"
        assert parse_cycles("()", 6) == identity(6)

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_cycles("(1 2", 4)
        assert err.value.column == 1
        with pytest.raises(ParseError):
            parse_cycles("(1 9)", 4)
        with pytest.raises(ParseError):
            parse_cycles("(1 2)(2 3)", 4)
        with pytest.raises(ParseError):
            parse_cycles("", 4)


class TestLengthAxiomsOnSmallSymmetric:
    def test_subadditive_on_s4(self):
        for g in all_perms(4):
            for h in all_perms(4):
                assert hamming_length(g * h) <= hamming_length(g) + hamming_length(h)
