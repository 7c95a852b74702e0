"""Differential tests: the class-level ``support-cover`` and
``brenner-verify`` checks of ``coverage``, read off the character table,
against the element loops they replaced (conftest.py)."""

import hashlib
import random

import conftest
import pytest
from conftest import (
    element_verify_brenner_bound,
    element_verify_support_cover,
    enumerated_alternating,
)

from groupapprox import characters, cli, coverage, groups
from groupapprox.characters import alternating_table
from groupapprox.coverage import verify_brenner_bound, verify_support_cover
from groupapprox.errors import CapExceeded
from groupapprox.groups import FiniteGroup
from groupapprox.perm import Permutation, conjugate, parse_cycles

DEGREES = (5, 6, 7)
DEPTHS = range(1, 34)


def _elements(m):
    """Every nontrivial class representative of A_m, then 20 seeded random
    conjugates of them by elements of S_m, so both halves of a split class
    occur."""
    _, reps = enumerated_alternating(m)
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
    reps = len(enumerated_alternating(m)[1])
    others = [(x,) for x in elements[reps:]] + [elements[:2], elements[-3:]]
    # the oracle measures every element of A_m on each call, so at m = 7
    # only the class representatives take every depth
    cases = [((x,), n) for x in elements[:reps] for n in DEPTHS]
    cases += [(base, n) for base in others for n in (DEPTHS if m < 7 else DEPTHS[::8])]
    for base, n in cases:
        rep = verify_brenner_bound(m, base, n)
        assert rep == element_verify_brenner_bound(m, base, n), (base, n)
        assert rep.holds


def test_a_degree_past_the_cap_is_refused_before_the_table(monkeypatch, capsys):
    """The table answers past the element cap; only the table's own cap and
    a listing of violations past the element cap are refused, each before
    anything is formed."""
    for argv, verdict in (
        (["support-cover", "--m", "10"], "all-hold: true"),
        (["brenner-verify", "--m", "10", "--X", "(1 2 3)", "--n", "17"], "holds: true"),
    ):
        assert cli.run(argv) == 0
        assert verdict in capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("formed past the cap")

    monkeypatch.setattr(characters, "_least_element", refuse)
    assert cli.run(["support-cover", "--m", "22"]) == 2
    assert capsys.readouterr().err.startswith(
        "cap exceeded: the S22 character table passes cap 1000000 entries"
    )

    monkeypatch.setattr(coverage, "permutations", refuse)
    with pytest.raises(
        CapExceeded, match="^listing the even permutations of 10 points passes cap 1000000$"
    ):
        coverage._class_members(alternating_table(10), {1}, range(10))


# sha256 and length of the reports the element path wrote
REPORTS_AT_NINE = [
    (
        ["support-cover", "--m", "9"],
        "2ec9712eb02bf17c2836160a346077aa01a6ae3286b7220fb2372bb0e429b1aa",
        1665,
    ),
    (
        ["brenner-verify", "--m", "9", "--X", "(1 2)(3 4)", "--n", "33"],
        "2e79f099b5a5bff56b0423f0b05ac45c024d5065b5ed46c03a1677571c12c5b9",
        180,
    ),
]


@pytest.mark.parametrize("argv, digest, size", REPORTS_AT_NINE)
def test_coverage_checks_never_list_the_alternating_group(argv, digest, size, monkeypatch, capsys):
    for name in ("elements", "conjugacy_classes"):
        original = getattr(FiniteGroup, name)

        def refuse(self, *args, original=original, **kwargs):
            if self.kind == "alternating":
                raise AssertionError(f"{self.name} listed")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FiniteGroup, name, refuse)
    alternating_table.cache_clear()
    assert cli.run(argv) == 0
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), len(out)) == (digest, size)


@pytest.mark.parametrize("m", (5, 6))
def test_support_cover_violations_match(m, monkeypatch):
    """Dropping x's own class from its fourth power makes x, and every other
    member of that class supported in supp(x), a violation on both paths.
    The identity class (index 0) is dropped too: it is never a target.
    The library drops it from its exact-depth layers, the oracle from its
    class power."""
    table = alternating_table(m)
    exact, power = coverage.exact_depth_layers, conftest.element_class_power
    monkeypatch.setattr(
        conftest, "element_class_power",
        lambda G, ci, k, product=None: power(G, ci, k, product) - {0, ci},
    )
    for x in _elements(m):

        def without_class(layers, n, gone=frozenset((0, table.class_index(x)))):
            out = exact(layers, n)
            return out[:-1] + (out[-1] - gone,)

        monkeypatch.setattr(coverage, "exact_depth_layers", without_class)
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
    the depth-n set turns that whole class into violations on both paths.
    The library drops it from its exact-depth layers, the oracle from its
    consequence set."""
    x = parse_cycles(base, m)
    G, _ = enumerated_alternating(m)
    dropped_element = x if dropped == "base" else G.identity()
    gone = G.conjugacy_classes()[G.class_index_of(dropped_element)]
    gone_index = alternating_table(m).class_index(dropped_element)
    exact, full = coverage.exact_depth_layers, groups.consequences

    def library_without_class(layers, depth):
        out = exact(layers, depth)
        return out[:-1] + (out[-1] - {gone_index},)

    def oracle_without_class(G, X, depth):
        cons = full(G, X, depth)
        last = cons.class_layers[-1] - {G.class_index_of(dropped_element)}
        return groups.ConsequenceSet(cons.group, cons.base, cons.depth, cons.class_layers[:-1] + (last,))

    monkeypatch.setattr(coverage, "exact_depth_layers", library_without_class)
    monkeypatch.setattr(groups, "consequences", oracle_without_class)
    rep = verify_brenner_bound(m, [x], n)
    assert rep == element_verify_brenner_bound(m, [x], n)
    assert set(rep.violations) == gone and not rep.holds
