"""Differential tests: the class-index consequence engine behind
``cayley_conjugation_length`` and ``is_n_separated`` against the element
loops they replaced (conftest.py), and explicit caps above the default."""

import random
from fractions import Fraction

import pytest
from conftest import brute_cayley_distances, element_is_n_separated

from groupapprox.errors import CapExceeded
from groupapprox.groups import FiniteGroup, consequences, cyclic, is_n_separated
from groupapprox.lengths import cayley_conjugation_length
from groupapprox.perm import parse_cycles


def _z3_x_k4():
    k4 = FiniteGroup.generated(
        4, [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)], name="K4"
    )
    return FiniteGroup.direct_product([cyclic(3), k4])


GROUPS = {
    "S3": lambda: FiniteGroup.symmetric(3),
    "S4": lambda: FiniteGroup.symmetric(4),
    "A4": lambda: FiniteGroup.alternating(4),
    "A5": lambda: FiniteGroup.alternating(5),
    "S5": lambda: FiniteGroup.symmetric(5),
    "Z3xK4": _z3_x_k4,
}
DEPTHS = range(1, 5)


def _bases(G):
    """Every class representative alone, the empty base, a base holding the
    identity, and a two-element base."""
    reps = [G.class_representative(i) for i in range(len(G.conjugacy_classes()))]
    bases = [(x,) for x in reps] + [(), (G.identity(), reps[-1])]
    bases.append((reps[1], reps[-1]))
    return bases


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_cayley_length_matches_breadth_first_search(name):
    G = GROUPS[name]()
    for X in _bases(G):
        dist = brute_cayley_distances(G, X)
        for n in DEPTHS:
            ell = cayley_conjugation_length(G, X, n)
            for h in G.elements():
                expected = min(Fraction(dist[h], n), Fraction(1)) if h in dist else Fraction(1)
                assert ell(h) == expected, (X, n, h)
                assert type(ell(h)) is Fraction


def test_cayley_length_clamps_the_klein_base_in_a4():
    G = FiniteGroup.alternating(4)
    X = [parse_cycles("(1 2)(3 4)", 4)]
    dist = brute_cayley_distances(G, X)
    unreachable = [h for h in G.elements() if h not in dist]
    assert len(unreachable) == 8  # the 3-cycles
    for n in DEPTHS:
        ell = cayley_conjugation_length(G, X, n)
        assert all(ell(h) == 1 for h in unreachable)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_separation_matches_element_layers(name):
    G = GROUPS[name]()
    els = G.elements()
    rng = random.Random(name)
    pairs = [tuple(rng.sample(els, 2)) for _ in range(10)]
    for X in _bases(G):
        for n in range(1, 7):
            for Y in [(y,) for y in els] + pairs:
                got = is_n_separated(G, Y, X, n)
                assert got == element_is_n_separated(G, Y, X, n), (X, Y, n)


@pytest.fixture
def default_cap_100(monkeypatch):
    """Every group method's default cap lowered to 100, so S5 (120 elements)
    lies past the default and only an explicit cap admits it."""
    for name in ("elements", "element_set", "order", "conjugacy_classes", "class_of"):
        monkeypatch.setattr(getattr(FiniteGroup, name), "__defaults__", (100,))


def _refuses_the_default(G):
    """G, listed under an explicit cap, refuses the default as a copy of it
    that was never listed does."""
    with pytest.raises(CapExceeded) as listed:
        G.conjugacy_classes()
    with pytest.raises(CapExceeded) as fresh:
        FiniteGroup(G.kind, G.degree, G.generators, name=G.name).conjugacy_classes()
    assert str(listed.value) == str(fresh.value)
    assert "100" in str(listed.value)


def test_consequences_honour_an_explicit_cap(default_cap_100):
    G = FiniteGroup.symmetric(5)
    cons = consequences(G, [parse_cycles("(1 2)", 5)], 2, cap=1000)
    assert cons.layer_sizes == (10, 36)
    assert len(cons.elements) == 36 and cons.layers[-1] == cons.elements
    assert len(cons.cumulative) == 46
    _refuses_the_default(G)


def test_generated_group_membership_honours_an_explicit_cap(default_cap_100):
    G = FiniteGroup.generated(5, [parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)])
    cons = consequences(G, [parse_cycles("(1 2)", 5)], 2, cap=1000)
    assert cons.layer_sizes == (10, 36)
    _refuses_the_default(G)


def test_separation_honours_an_explicit_cap(default_cap_100):
    G = FiniteGroup.symmetric(5)
    rep = is_n_separated(G, [parse_cycles("(1 2 3)", 5)], [parse_cycles("(1 2)", 5)], 2, cap=1000)
    assert not rep.separated and rep.violated_depths == (2,)
    _refuses_the_default(G)


def test_cayley_length_honours_an_explicit_cap(default_cap_100):
    G = FiniteGroup.symmetric(5)
    ell = cayley_conjugation_length(G, [parse_cycles("(1 2)", 5)], 4, cap=1000)
    assert ell(parse_cycles("(1 2 3 4 5)", 5)) == 1
    assert ell(parse_cycles("(1 2 3)", 5)) == Fraction(1, 2)
    _refuses_the_default(G)
