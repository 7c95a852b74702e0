"""Differential tests: the index kernel of ``verify_axioms`` against the
element double loop it replaced (the oracle in conftest.py)."""

import random
from fractions import Fraction
from functools import cache

import pytest
from conftest import element_verify_axioms

from groupapprox import lengths
from groupapprox.groups import FiniteGroup, cyclic
from groupapprox.lengths import cayley_conjugation_length, from_table, hamming, verify_axioms
from groupapprox.perm import parse_cycles

S4 = FiniteGroup.symmetric(4)
A5 = FiniteGroup.alternating(5)
S5 = FiniteGroup.symmetric(5)
S4_BY_TRANSPOSITIONS = FiniteGroup.generated(
    4, [parse_cycles(c, 4) for c in ("(1 2)", "(2 3)", "(3 4)")], name="S4t"
)


# The identity and a repeated generator give index maps that reach nothing
# new, in the spanning tree and in the group's conjugation walk alike.
S4_WITH_IDLE_GENERATORS = FiniteGroup.generated(
    4, [parse_cycles(c, 4) for c in ("()", "(1 2)", "(1 2 3 4)", "(1 2)")], name="S4i"
)


def _z3_x_k4():
    k4 = FiniteGroup.generated(
        4, [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)], name="K4"
    )
    return FiniteGroup.direct_product([cyclic(3), k4])


def _table(seed, edit, group=S4):
    """Hamming length on ``group`` with seeded edits applied to its table."""
    rng = random.Random(seed)
    values = hamming(group).table()
    edit(values, rng, group.elements())
    return from_table(group, values)


def _spike(values, rng, els):
    values[rng.choice(els[1:])] = Fraction(1)


def _negative(values, rng, els):
    values[rng.choice(els[1:])] = Fraction(-rng.randint(1, 3), rng.randint(1, 4))


def _nonzero_identity(values, rng, els):
    values[els[0]] = Fraction(rng.randint(1, 3), 4)


def _negative_identity(values, rng, els):
    values[els[0]] = -Fraction(rng.randint(1, 3), 4)


def _squared(values, rng, els):
    """Hamming squared: a class function, but (1 2)(2 3) is a 3-cycle, and
    2*(2/m)^2 < (3/m)^2 breaks subadditivity."""
    for x in els:
        values[x] = values[x] ** 2


def _three_cycles_raised(values, rng, els):
    """Every 3-cycle of S5 at 1: still a class function, but a 3-cycle is a
    product of two transpositions, and 1 > 2/5 + 2/5."""
    for x in els:
        if sorted(map(len, x.cycles())) == [3]:
            values[x] = Fraction(1)


def _scrambled(values, rng, els):
    for x in els:
        values[x] = Fraction(rng.randint(-1, 6), rng.choice((1, 2, 3, 5)))


CASES = {
    "hamming-S1": lambda: hamming(FiniteGroup.symmetric(1)),
    "hamming-S4": lambda: hamming(S4),
    "hamming-A5": lambda: hamming(A5),
    "hamming-A6": lambda: hamming(FiniteGroup.alternating(6)),
    "hamming-S4-three-generators": lambda: hamming(S4_BY_TRANSPOSITIONS),
    "hamming-Z3xK4": lambda: hamming(_z3_x_k4()),
    "cayley-S4": lambda: cayley_conjugation_length(S4, [parse_cycles("(1 2 3)", 4)], 3),
    "cayley-A5": lambda: cayley_conjugation_length(A5, [parse_cycles("(1 2)(3 4)", 5)], 2),
    **{f"spike-{seed}": (lambda seed=seed: _table(seed, _spike)) for seed in (1, 2)},
    **{f"negative-{seed}": (lambda seed=seed: _table(seed, _negative)) for seed in (3, 4)},
    **{f"identity-{seed}": (lambda seed=seed: _table(seed, _nonzero_identity)) for seed in (5, 6)},
    **{f"scrambled-{seed}": (lambda seed=seed: _table(seed, _scrambled)) for seed in (7, 8)},
    "negative-identity": lambda: _table(10, _negative_identity),
    "spike-S5": lambda: _table(11, _spike, S5),
    "scrambled-A5": lambda: _table(9, _scrambled, A5),
    "squared-S4": lambda: _table(0, _squared),
    "squared-A5": lambda: _table(0, _squared, A5),
    "squared-S5": lambda: _table(0, _squared, S5),
    "three-cycles-raised-S5": lambda: _table(0, _three_cycles_raised, S5),
    "hamming-S4-idle-generators": lambda: hamming(S4_WITH_IDLE_GENERATORS),
    "spike-S4-idle-generators": lambda: _table(12, _spike, S4_WITH_IDLE_GENERATORS),
    "squared-S4-idle-generators": lambda: _table(0, _squared, S4_WITH_IDLE_GENERATORS),
}


# 10**6 lists every witness, so a class function's failing classes must be
# expanded in full from the one row per class that is tested.
@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("max_violations", [0, 1, 3, 20, 10**6])
def test_report_matches_element_loop(name, max_violations):
    assert verify_axioms(CASES[name](), max_violations=max_violations) == _oracle(
        name, max_violations
    )


@cache
def _oracle(name, max_violations):
    """The oracle's report; a valid one lists nothing whatever the cap, so it
    is computed once per case."""
    if max_violations != 20 and _oracle(name, 20).valid:
        return _oracle(name, 20)
    return element_verify_axioms(CASES[name](), max_violations=max_violations)


@pytest.mark.parametrize("name", ["spike-1", "scrambled-7", "scrambled-A5"])
def test_truncation_is_exercised(name):
    """These tables fail more pairs than the report keeps, per axiom."""
    rep = verify_axioms(CASES[name](), max_violations=3)
    kept = [v.axiom for v in rep.violations]
    assert not rep.valid and kept.count("invariant") == 3


def _rows_tested(monkeypatch, ell):
    """The report, and the length of each row the subadditivity scan tests."""
    rows = []
    scan = lengths._row_excess
    monkeypatch.setattr(
        lengths, "_row_excess", lambda srow, scaled: rows.append(len(srow)) or scan(srow, scaled)
    )
    return verify_axioms(ell), rows


def test_invariant_length_tests_one_row_per_class(monkeypatch):
    rep, rows = _rows_tested(monkeypatch, hamming(FiniteGroup.symmetric(6)))
    assert rep.valid and rep.pairs_checked == 2 * 720**2
    assert rows == [720] * 11  # one per partition of 6


def test_variant_table_tests_every_row(monkeypatch):
    rep, rows = _rows_tested(monkeypatch, CASES["spike-1"]())
    assert not rep.valid and rep.pairs_checked == 2 * 24**2
    assert rows == [24] * 24


def test_classes_are_read_off_the_group(monkeypatch):
    """The one breadth-first search is the spanning tree's: the classes come
    from ``FiniteGroup.class_labels``, with no conjugation walk of its own."""
    calls = []
    search = lengths._search
    monkeypatch.setattr(lengths, "_search", lambda *args: calls.append(args) or search(*args))
    for ell in (hamming(FiniteGroup.symmetric(5)), CASES["spike-1"](), CASES["cayley-A5"]()):
        calls.clear()
        verify_axioms(ell)
        assert len(calls) == 1
