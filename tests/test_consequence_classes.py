"""Differential tests: the class-index consequence engine behind
``cayley_conjugation_length`` and ``is_n_separated`` against the element
loops they replaced (conftest.py), and explicit caps above the default."""

import importlib
import inspect
import pkgutil
import random
from fractions import Fraction

import pytest
from conftest import brute_cayley_distances, brute_consequences, clear_store, element_is_n_separated

import groupapprox
from groupapprox import cli, groups
from groupapprox.errors import CapExceeded
from groupapprox.groups import FiniteGroup, consequences, cyclic, is_n_separated
from groupapprox.lengths import cayley_conjugation_length, hamming
from groupapprox.perm import parse_cycles
from groupapprox.report import dump_report, length_table_to_data


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


def _lower_the_default_cap(monkeypatch):
    """Lower the default element cap to 100: the module constant, and every
    function default in groupapprox that holds it.  S5 (120 elements) then
    lies past the default, and only an explicit cap admits it."""
    monkeypatch.setattr(groups, "DEFAULT_ELEMENT_CAP", 100)
    for info in pkgutil.iter_modules(groupapprox.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"groupapprox.{info.name}")
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else (obj,)
            for fn in members:
                fn = getattr(fn, "__func__", fn)
                if inspect.isfunction(fn) and 10**6 in (fn.__defaults__ or ()):
                    lowered = tuple(100 if d == 10**6 else d for d in fn.__defaults__)
                    monkeypatch.setattr(fn, "__defaults__", lowered)


@pytest.fixture
def default_cap_100(monkeypatch):
    _lower_the_default_cap(monkeypatch)


def _refuses_the_default(G):
    """G, listed under an explicit cap, refuses the default cap when asked
    for it, with the message of a copy of it that was never listed."""
    with pytest.raises(CapExceeded) as listed:
        G.elements(100)
    with pytest.raises(CapExceeded) as fresh:
        FiniteGroup(G.kind, G.degree, G.generators, name=G.name).conjugacy_classes()
    assert str(listed.value) == str(fresh.value)
    assert "100" in str(listed.value)


def test_consequences_honour_an_explicit_cap(default_cap_100):
    G = FiniteGroup.symmetric(5)
    G.elements(1000)
    X = [parse_cycles("(1 2)", 5)]
    cons = consequences(G, X, 2)
    assert cons.layer_sizes == (10, 36)
    assert len(cons.elements) == 36 and cons.elements == brute_consequences(G, X, 2)
    assert len(cons.cumulative) == 46
    _refuses_the_default(G)


def test_generated_group_membership_honours_an_explicit_cap(default_cap_100):
    G = FiniteGroup.generated(5, [parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)])
    G.elements(1000)
    cons = consequences(G, [parse_cycles("(1 2)", 5)], 2)
    assert cons.layer_sizes == (10, 36)
    _refuses_the_default(G)


def test_separation_honours_an_explicit_cap(default_cap_100):
    G = FiniteGroup.symmetric(5)
    G.elements(1000)
    rep = is_n_separated(G, [parse_cycles("(1 2 3)", 5)], [parse_cycles("(1 2)", 5)], 2)
    assert not rep.separated and rep.violated_depths == (2,)
    _refuses_the_default(G)


def test_cayley_length_honours_an_explicit_cap(default_cap_100):
    G = FiniteGroup.symmetric(5)
    G.elements(1000)
    ell = cayley_conjugation_length(G, [parse_cycles("(1 2)", 5)], 4)
    assert ell(parse_cycles("(1 2 3 4 5)", 5)) == 1
    assert ell(parse_cycles("(1 2 3)", 5)) == Fraction(1, 2)
    _refuses_the_default(G)


def test_axioms_check_honours_a_cap_above_the_default(monkeypatch, tmp_path, capsys):
    """``axioms-check --cap`` admits a group past the default cap for the
    cayley and table kinds as for hamming, with the report of a run that
    needs no cap above the default."""
    table = tmp_path / "s5.report"
    table.write_text(dump_report(length_table_to_data(hamming(FiniteGroup.symmetric(5)))))
    check = ["axioms-check", "--group", "S5"]
    kinds = {
        "hamming": [],
        "cayley": ["--length-kind", "cayley", "--X", "(1 2)", "--n", "2"],
        "table": ["--length-kind", "table", "--table", str(table)],
    }
    for name, kind in kinds.items():
        assert cli.run([*check, *kind, "--cap", "1000", "--out", str(tmp_path / name)]) == 0
    _lower_the_default_cap(monkeypatch)
    for name, kind in kinds.items():
        clear_store()
        out = tmp_path / f"{name}-lowered"
        assert cli.run([*check, *kind, "--cap", "1000", "--out", str(out)]) == 0, capsys.readouterr().err
        assert out.read_text() == (tmp_path / name).read_text()
        assert cli.run([*check, *kind, "--cap", "100"]) == 2
        assert capsys.readouterr().err == "cap exceeded: S5 has more than 100 elements\n"
