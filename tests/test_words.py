import pytest
from hypothesis import given, strategies as st

from groupapprox.errors import ParseError
from groupapprox.perm import identity, parse_cycles
from groupapprox.words import (
    concat,
    evaluate_word,
    parse_word,
    reduce_word,
    word_str,
)

symbols = st.lists(
    st.integers(min_value=-3, max_value=3).filter(lambda v: v != 0), max_size=12
)


def test_reduce_cancels_adjacent_inverses():
    assert reduce_word((1, -1)) == ()
    assert reduce_word((1, 2, -2, -1)) == ()
    assert reduce_word((1, 2, -2, 3)) == (1, 3)


@given(symbols)
def test_reduce_idempotent(seq):
    once = reduce_word(seq)
    assert reduce_word(once) == once


@given(symbols)
def test_word_times_inverse_is_trivial(seq):
    w = reduce_word(seq)
    assert concat(w, tuple(-s for s in reversed(w))) == ()


def test_parse_and_format_round_trip():
    names = ("a", "b")
    for text in ("1", "a", "a b^-1", "a^2 b", "b^-2"):
        w = parse_word(text, names)
        assert parse_word(word_str(w, names), names) == w


def test_parse_exponents():
    assert parse_word("a^3", ("a",)) == (1, 1, 1)
    assert parse_word("a^-2", ("a",)) == (-1, -1)
    assert parse_word("a a^-1", ("a",)) == ()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_word("c", ("a", "b"))
    with pytest.raises(ParseError):
        parse_word("a^x", ("a",))


def test_evaluate_respects_signs():
    a = parse_cycles("(1 2 3)", 3)
    assert evaluate_word((1, -1), [a], 3) == identity(3)
    assert evaluate_word((1, 1, 1), [a], 3) == identity(3)
    assert evaluate_word((-1,), [a], 3) == a.inverse()


def test_evaluate_validates():
    a = parse_cycles("(1 2)", 2)
    with pytest.raises(ValueError):
        evaluate_word((2,), [a], 2)
    with pytest.raises(ValueError):
        evaluate_word((1,), [a], 3)
