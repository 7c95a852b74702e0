"""Differential tests: the class-level ``support-cover`` and
``brenner-verify`` checks of ``coverage`` against the element loops they
replaced (conftest.py)."""

import dataclasses
import random

import pytest
from conftest import element_verify_brenner_bound, element_verify_support_cover

from groupapprox import coverage
from groupapprox.coverage import verify_brenner_bound, verify_support_cover
from groupapprox.errors import CapExceeded
from groupapprox.perm import Permutation, conjugate, parse_cycles

DEGREES = (5, 6, 7)
DEPTHS = range(1, 34)


def _elements(m):
    """Every nontrivial class representative of A_m, then 20 seeded random
    conjugates of them by elements of S_m, so both halves of a split class
    occur."""
    G = coverage._alternating(m)
    reps = coverage.nontrivial_class_representatives(G)
    rng = random.Random(m)
    conjugates = []
    for _ in range(20):
        g = list(range(m))
        rng.shuffle(g)
        conjugates.append(conjugate(rng.choice(reps), Permutation(g)))
    return reps + tuple(conjugates)


@pytest.mark.parametrize("m", DEGREES)
def test_support_cover_matches_element_path(m):
    for x in _elements(m):
        rep = verify_support_cover(m, x)
        assert rep == element_verify_support_cover(m, x), x
        assert rep.holds


@pytest.mark.parametrize("m", DEGREES)
def test_brenner_matches_element_path(m):
    elements = _elements(m)
    reps = len(coverage.nontrivial_class_representatives(coverage._alternating(m)))
    others = [(x,) for x in elements[reps:]] + [elements[:2], elements[-3:]]
    # the oracle measures every element of A_m on each call, so at m = 7
    # only the class representatives take every depth
    cases = [((x,), n) for x in elements[:reps] for n in DEPTHS]
    cases += [(base, n) for base in others for n in (DEPTHS if m < 7 else DEPTHS[::8])]
    for base, n in cases:
        rep = verify_brenner_bound(m, base, n)
        assert rep == element_verify_brenner_bound(m, base, n), (base, n)
        assert rep.holds


@pytest.mark.parametrize("n", [1, 2])
def test_brenner_refuses_a_group_past_the_cap(n):
    x = parse_cycles("(1 2 3)", 5)
    for check in (verify_brenner_bound, element_verify_brenner_bound):
        with pytest.raises(CapExceeded, match="A5 has 60 elements, past cap 10"):
            check(5, [x], n, cap=10)


@pytest.mark.parametrize("m", (5, 6))
def test_support_cover_violations_match(m, monkeypatch):
    """Dropping x's own class from its fourth power makes x, and every other
    member of that class supported in supp(x), a violation on both paths.
    The identity class (index 0) is dropped too: it is never a target."""
    power = coverage._class_power_indices
    monkeypatch.setattr(
        coverage, "_class_power_indices", lambda G, ci, k: power(G, ci, k) - {0, ci}
    )
    for x in _elements(m):
        rep = verify_support_cover(m, x)
        assert rep == element_verify_support_cover(m, x), x
        assert x in rep.violations and not rep.holds


@pytest.mark.parametrize("dropped", ["base", "identity"])
@pytest.mark.parametrize(
    "m, base, n",
    [(5, "(1 2 3)", 33), (5, "(1 2)(3 4)", 25), (6, "(1 2 3)", 33), (6, "(1 2 3 4 5)", 20)],
)
def test_brenner_violations_match(m, base, n, dropped, monkeypatch):
    """Dropping a ball class (the base element's, or the identity's) from
    the depth-n set turns that whole class into violations on both paths."""
    x = parse_cycles(base, m)
    G = coverage._alternating(m)
    dropped_element = x if dropped == "base" else G.identity()
    gone = G.class_of(dropped_element)
    gone_index = G.class_index_of(dropped_element)
    full = coverage.consequences

    def without_class(G, X, depth, cap):
        cons = full(G, X, depth, cap)
        last = cons.class_layers[-1] - {gone_index}
        return dataclasses.replace(cons, class_layers=cons.class_layers[:-1] + (last,))

    monkeypatch.setattr(coverage, "consequences", without_class)
    rep = verify_brenner_bound(m, [x], n)
    assert rep == element_verify_brenner_bound(m, [x], n)
    assert set(rep.violations) == gone and not rep.holds
