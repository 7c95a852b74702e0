"""Differential tests: the compiled assignment scan of ``equations``, over
the constant tuples led by orbit leaders, against the word-by-word
``evaluate_word`` scan of every tuple it replaced (conftest.py), the
streamed ``S_m``/``A_m`` overgroups of ``solvable_over_bounded`` against
the same scan over the overgroup listed in canonical order, and power
words over ``S_m``/``A_m``, decided from cycle types, against both."""

import hashlib
import random
from functools import lru_cache
from pathlib import Path

import pytest
from conftest import (
    canonical_tuples,
    element_scan_constants,
    every_tuple,
    is_conjugation_canonical,
)

from groupapprox import cli, equations, groups
from groupapprox.characters import power_types
from groupapprox.equations import (
    Embedding,
    EquationSystem,
    diagonal_embedding,
    parse_equation_system,
    solvable_in,
    solvable_over_bounded,
)
from groupapprox.errors import CapExceeded
from groupapprox.groups import FiniteGroup, cyclic
from groupapprox.perm import Permutation, parse_cycles
from groupapprox.words import reduce_word


def _z3_x_k4():
    k4 = FiniteGroup.generated(
        4, [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)], name="K4"
    )
    return FiniteGroup.direct_product([cyclic(3), k4])


GROUPS = {
    "degree 0": lambda: FiniteGroup.generated(0, []),
    "S1": lambda: FiniteGroup.symmetric(1),
    "A1": lambda: FiniteGroup.alternating(1),
    "A2": lambda: FiniteGroup.alternating(2),
    "S3": lambda: FiniteGroup.symmetric(3),
    "S4": lambda: FiniteGroup.symmetric(4),
    "A4": lambda: FiniteGroup.alternating(4),
    "A5": lambda: FiniteGroup.alternating(5),
    "Z3xK4": _z3_x_k4,
}

# Each key names the case its system covers; a system is scanned in every
# group small enough for the oracle.
FIXED = {
    "square": "constants 1; variables 1;\nx1 x1 a1^-1\n",
    "cube": "constants 1; variables 1;\nx1 x1 x1 a1^-1\n",
    "seventh power": "constants 1; variables 1;\nx1 x1 x1 x1 x1 x1 x1 a1^-1\n",
    "inverted square": "constants 1; variables 1;\nx1^-1 x1^-1 a1\n",
    "constants on both sides": "constants 2; variables 1;\na1 x1 x1 a2^-1\n",
    "inverted variables": "constants 1; variables 2;\nx1 x2 x1^-1 x2^-1 a1^-1\n",
    "adjacent and inverted constants": "constants 2; variables 1;\na2^-1 a1 x1 a1^-1 a2 a2 x1^-1\n",
    "constants inside": "constants 2; variables 1;\nx1 a1 x1^-1 a2^-1\n",
    "two inner blocks": "constants 2; variables 1;\nx1 a1 a2^-1 x1 a2 x1 a1\n",
    "trivial word": "constants 1; variables 1;\n1\nx1 a1 x1^-1 a1^-1\n",
    "no constants": "constants 0; variables 2;\nx1 x1 x2^-1\nx2 x2 x2\n",
    "no variables": "constants 1; variables 0;\na1 a1 a1 a1 a1 a1\n",
    "failing constant word": "constants 2; variables 1;\na1 a2 a1^-1 a2^-1\nx1 a1\n",
    "nothing at all": "constants 0; variables 0;\n1\n",
}


def _seeded_system(seed, max_symbols):
    """A random system over at most ``max_symbols`` constants plus variables."""
    rng = random.Random(seed)
    while True:
        r = rng.randint(0, 2)
        k = rng.randint(0, 2)
        if 0 < r + k <= max_symbols:
            break
    words = []
    for _ in range(rng.randint(1, 2)):
        letters = [rng.choice((1, -1)) * rng.randint(1, r + k) for _ in range(rng.randint(0, 8))]
        words.append(reduce_word(letters))
    return EquationSystem(constants=r, variables=k, words=tuple(words))


def _systems(G):
    # keep the oracle's worst case |G|^(r + k) to a few thousand assignments
    max_symbols = {1: 4, 6: 4, 12: 3, 24: 2, 60: 2}[G.order()]
    out = []
    for text in FIXED.values():
        system = parse_equation_system(text)
        if G.order() ** (system.constants + system.variables) <= 60**2:
            out.append(system)
    out += [_seeded_system(1000 * G.order() + i, max_symbols) for i in range(16)]
    return out


@lru_cache(maxsize=None)
def _own_canonical(G, r):
    return canonical_tuples(G.elements(), r, G.elements())


def _constant_tuples(G, items, r, inner=False):
    """The constant tuples of the oracle: the canonical ones, by brute force,
    where only G's own conjugation keeps the verdict (``inner``), else every
    tuple."""
    return _own_canonical(G, r) if inner else every_tuple(G, items, r)


def _oracle(monkeypatch, fn, *args, scan=element_scan_constants, **kwargs):
    """``fn`` with the element scan over every constant tuple, or over the
    canonical ones by brute force where only G's own conjugation counts."""
    with monkeypatch.context() as m:
        m.setattr(equations, "_scan_constants", scan)
        m.setattr(equations, "leader_first", _constant_tuples)
        return fn(*args, **kwargs)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_solvable_in_matches_element_scan(name, monkeypatch):
    G = GROUPS[name]()
    verdicts = set()
    for system in _systems(G):
        for witnesses in (False, True):
            for reduce in (False, True):
                kw = dict(want_witnesses=witnesses, constants_up_to_conjugacy=reduce)
                expected = _oracle(monkeypatch, solvable_in, G, system, **kw)
                assert solvable_in(G, system, **kw) == expected, (system, kw)
                verdicts.add(expected.verdict)
    assert verdicts == {"solvable", "unsolvable"} or G.order() == 1


# 7 is prime to the exponent of every group below, so the seventh power is solvable
POWER_WORDS = ("square", "cube", "seventh power", "inverted square", "constants on both sides")


@pytest.mark.parametrize("name", ["S1", "S3", "S4", "A1", "A2", "A4", "A5"])
def test_power_words_match_element_scan(name, monkeypatch):
    """Every power word on every listed group, past the size filter of
    ``_systems``: witness-free reports come from cycle types, the others
    from the scan, and both must equal the oracle's."""
    G = GROUPS[name]()
    verdicts = set()
    for key in POWER_WORDS:
        system = parse_equation_system(FIXED[key])
        assert equations._root_types(G, system, want_witnesses=False) is not None, key
        for witnesses in (False, True):
            for reduce in (False, True):
                kw = dict(want_witnesses=witnesses, constants_up_to_conjugacy=reduce)
                expected = _oracle(monkeypatch, solvable_in, G, system, **kw)
                assert solvable_in(G, system, **kw) == expected, (key, kw)
                verdicts.add(expected.verdict)
    assert verdicts == {"solvable", "unsolvable"} or G.order() == 1


# Witness-free systems that are not power words, so their constant tuples
# are scanned, those led by an orbit leader only.  A 5-cycle and its square
# are S5- but not A5-conjugate, so "conjugacy" fails across the split halves
# of A5; "fifth root" first fails at the least 5-cycle, the leader of a type
# that splits in A5 and A6.
NOT_POWER_WORDS = {
    "conjugacy": "constants 2; variables 1;\nx1 a1 x1^-1 a2^-1\n",
    "commutator with a constant": "constants 2; variables 1;\nx1 a1 x1^-1 a1^-1 a2^-1\n",
    "fifth root": "constants 1; variables 1;\nx1 x1 x1 x1 x1 a1^-1\nx1 a1 x1^-1 a1^-1\n",
    "common centralizer": "constants 2; variables 1;\nx1 a1 x1^-1 a1^-1\nx1 a2 x1^-1 a2^-1\n",
}

LEADER_GROUPS = {
    **{f"S{m}": (lambda m=m: FiniteGroup.symmetric(m)) for m in range(1, 6)},
    **{f"A{m}": (lambda m=m: FiniteGroup.alternating(m)) for m in range(1, 7)},
    "D4": lambda: FiniteGroup.generated(
        4, [parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)", 4)], name="D4"
    ),
    "Z3xK4": _z3_x_k4,
}


@pytest.mark.parametrize("name", sorted(LEADER_GROUPS))
def test_leader_scan_matches_the_full_scan(name, monkeypatch):
    G = LEADER_GROUPS[name]()
    monkeypatch.setattr("os.cpu_count", lambda: 2)  # so that --jobs 2 starts two workers
    verdicts = set()
    for key, text in NOT_POWER_WORDS.items():
        if key == "common centralizer" and G.order() > 120:
            continue  # the oracle would solve all 360**2 constant pairs of A6 (2 s)
        system = parse_equation_system(text)
        assert equations._root_types(G, system, want_witnesses=False) is None, key
        for reduce, witnesses in ((False, False), (True, False), (True, True)):
            kw = dict(  # A6 has 360**3 assignments
                budget=10**8, constants_up_to_conjugacy=reduce, want_witnesses=witnesses
            )
            expected = _oracle(monkeypatch, solvable_in, G, system, **kw)
            for jobs in (2,) if witnesses else (1, 2):
                assert solvable_in(G, system, jobs=jobs, **kw) == expected, (key, kw, jobs)
            verdicts.add(expected.verdict)
    assert "unsolvable" in verdicts or G.order() == 1
    assert "solvable" in verdicts or G.order() > 120


def test_split_halves_fail_the_conjugacy_system():
    G = FiniteGroup.alternating(5)
    system = parse_equation_system(NOT_POWER_WORDS["conjugacy"])
    five = parse_cycles("(1 2 3 4 5)", 5)
    els = G.elements()
    assert equations._scan_constants(system, [(five, five * five)], els, 5, False)[0]
    assert equations._scan_constants(system, [(five, five.inverse())], els, 5, False)[0] is None
    report = solvable_in(G, parse_equation_system(NOT_POWER_WORDS["fifth root"]))
    assert report.counterexample == (five,)


@pytest.mark.parametrize("command", ["eq-solve", "eq-sys"])
def test_leader_scan_reports_match_the_full_scan(command, monkeypatch, tmp_path):
    """Whole CLI reports, against the element scan of every constant tuple."""
    catalog = tmp_path / "groups.catalog"
    catalog.write_text("S4 symmetric 4\nA5 alternating 5\nD4 generated 4 (1 2 3 4), (1 3)\n")
    for key, text in NOT_POWER_WORDS.items():
        system = tmp_path / "system.eqn"
        system.write_text(text)
        targets = [["--catalog", str(catalog)]] if command == "eq-sys" else [
            ["--group", name] for name in ("S4", "A5")
        ]
        for target in targets:
            argv = [command, *target, "--system", str(system)]
            reports = []
            for oracle in (True, False):
                out = tmp_path / f"report-{oracle}"
                if oracle:
                    code = _oracle(monkeypatch, cli.run, argv + ["--out", str(out)])
                else:
                    code = cli.run(argv + ["--out", str(out)])
                reports.append((code, out.read_bytes()))
            assert reports[0] == reports[1], (key, target)


def test_one_constant_binds_only_the_leaders(monkeypatch, tmp_path):
    """The commutator system on A5 binds its words once per leader: the
    identity, a 3-cycle, a double transposition and a 5-cycle."""
    system = tmp_path / "commutator.eqn"
    system.write_text("constants 1; variables 2;\nx1 x2 x1^-1 x2^-1 a1^-1\n")
    bound = []

    def counting(system, constants, *args):
        bound.append(constants)
        return bind(system, constants, *args)

    bind = equations._bind_words
    monkeypatch.setattr(equations, "_bind_words", counting)
    out = tmp_path / "report"
    argv = ["eq-solve", "--group", "A5", "--system", str(system), "--out", str(out)]
    assert cli.run(argv) == 0
    assert len(bound) == 4
    assert b"verdict: solvable" in out.read_bytes()


def test_reduced_constants_check_only_tuples_led_by_a_class_representative():
    """--reduce-constants on A6 with two constants tests exactly the 400
    constant pairs least in their orbits under A6's own conjugation, of
    all 360**2: with witnesses, one per tested pair.  By Burnside's lemma
    the orbits number sum_g |C(g)|^2 / |G|, the sum of the class
    centralizer orders."""
    G = FiniteGroup.alternating(6)
    els = G.elements()
    system = parse_equation_system("constants 2; variables 1;\nx1 a1 a2 x1^-1 a2^-1 a1^-1\n")
    report = solvable_in(
        G, system, budget=10**8, want_witnesses=True, constants_up_to_conjugacy=True
    )
    tested = [constants for constants, _ in report.witnesses]
    orbits = sum(len(els) // len(K) for K in G.conjugacy_classes())
    assert len(tested) == orbits == 400
    assert report.reason == "constants reduced to 400 orbit representatives"
    assert tested == sorted(tested, key=lambda t: [els.index(x) for x in t])
    assert all(is_conjugation_canonical(t, els) for t in tested)


@pytest.mark.parametrize("name", ["S3", "A4", "Z3xK4"])
def test_parallel_scan_matches_element_scan(name, monkeypatch):
    G = GROUPS[name]()
    for text in ("square", "inverted variables", "adjacent and inverted constants"):
        system = parse_equation_system(FIXED[text])
        expected = _oracle(monkeypatch, solvable_in, G, system, want_witnesses=True)
        assert solvable_in(G, system, want_witnesses=True, jobs=2) == expected


@pytest.mark.parametrize("witnesses", [False, True])
def test_solvable_over_diagonal_matches_element_scan(witnesses, monkeypatch):
    G = GROUPS["S3"]()
    embeddings = [diagonal_embedding(G, 2)]
    texts = [t for t in FIXED.values() if "variables 2" not in t]
    systems = [parse_equation_system(t) for t in texts]
    systems += [s for s in (_seeded_system(7000 + i, 3) for i in range(40)) if s.variables < 2][:6]
    verdicts = set()
    for system in systems:
        expected = _oracle(
            monkeypatch, solvable_over_bounded, G, system, embeddings, want_witnesses=witnesses
        )
        got = solvable_over_bounded(G, system, embeddings, want_witnesses=witnesses)
        assert got == expected, system
        verdicts.add(expected.verdict)
    assert verdicts == {"solvable", "unknown"}


def _listed_scan(system, constant_tuples, domain, degree, want_witnesses, roots=None):
    """``element_scan_constants`` over the domain listed in canonical order,
    as ``solvable_over_bounded`` scanned every overgroup before streaming;
    ``roots`` is ignored, so power words are scanned too."""
    listed = sorted(domain, key=Permutation.sort_key)
    return element_scan_constants(system, constant_tuples, listed, degree, want_witnesses)


def _s3_into_s6():
    G = FiniteGroup.symmetric(3)
    return G, diagonal_embedding(G, 2)


def _a4_into_a8():
    """g -> g (+) g, whose image is always even, into a streamed A8."""
    G = FiniteGroup.alternating(4)
    embedding = diagonal_embedding(G, 2)
    return G, Embedding(embedding.source, FiniteGroup.alternating(8), embedding.pairs)


OVERGROUPS = {"S3 -> S6": _s3_into_s6, "A4 -> A8": _a4_into_a8}

# solvable power words whose every constant tuple costs the oracle a scan of A8
SLOW_IN_A8 = ("seventh power", "constants on both sides")


@pytest.mark.parametrize("name", sorted(OVERGROUPS))
def test_streamed_overgroup_matches_listed_element_scan(name, monkeypatch):
    G, embedding = OVERGROUPS[name]()
    systems = [
        parse_equation_system(t)
        for key, t in FIXED.items()
        if "variables 2" not in t and (name == "S3 -> S6" or key not in SLOW_IN_A8)
    ]
    seeded = (_seeded_system(9000 + i, 2) for i in range(100))
    systems += [s for s in seeded if s.variables == 1 and s.constants == 1][:4]
    verdicts = set()
    for system in systems:
        expected = _oracle(monkeypatch, solvable_over_bounded, G, system, [embedding], scan=_listed_scan)
        assert solvable_over_bounded(G, system, [embedding]) == expected, system
        verdicts.add((expected.verdict, _inverts_a_variable(system)))
    # a solvable system rescans the domain for every constant tuple, also paired
    assert {("solvable", False), ("solvable", True), ("unknown", True)} <= verdicts


def _inverts_a_variable(system):
    return any(s < -system.constants for w in system.words for s in w)


@pytest.mark.parametrize("kind, degrees", [("symmetric", range(1, 8)), ("alternating", range(1, 9))])
def test_iter_elements_yields_each_element_once(kind, degrees):
    for m in degrees:
        G = getattr(FiniteGroup, kind)(m)
        view = G.iter_elements()
        first = list(view)
        assert len(first) == G.order() and set(first) == G.element_set(), m
        assert first == sorted(first), m  # lexicographic image order
        assert list(view) == first, m  # each pass starts again
    with pytest.raises(CapExceeded):  # 10! and 10!/2 pass the default cap
        getattr(FiniteGroup, kind)(10).iter_elements()


def test_iter_elements_of_other_groups_is_the_canonical_tuple():
    G = _z3_x_k4()
    assert G.iter_elements() is G.elements()


def test_power_words_are_one_run_of_one_variable():
    shapes = {
        "constants 1; variables 1;\nx1 x1 x1 a1^-1\n": 3,
        "constants 1; variables 1;\na1 x1^-1 x1^-1\n": 2,
        "constants 2; variables 1;\na1 x1 a2\n": 1,
        "constants 1; variables 1;\nx1 a1 x1\n": None,  # an inner constant block
        "constants 1; variables 1;\nx1 a1 x1^-1 a1^-1\n": None,
        "constants 1; variables 1;\nx1 x1 a1\nx1 a1\n": None,  # two words
        "constants 1; variables 1;\na1 a1\n": None,  # no variable letter
        "constants 0; variables 2;\nx1 x1 x2^-1\n": None,
    }
    S3, A4 = FiniteGroup.symmetric(3), FiniteGroup.alternating(4)
    for text, k in shapes.items():
        system = parse_equation_system(text)
        for G in (S3, A4):
            expected = None if k is None else power_types(G.degree, k, G is A4)
            assert equations._root_types(G, system, want_witnesses=False) == expected, text
    square = parse_equation_system(FIXED["square"])
    assert equations._root_types(_z3_x_k4(), square, want_witnesses=False) is None
    assert equations._root_types(S3, square, want_witnesses=True) is None


# sha256 and length of the witness-free reports the element scan wrote
UNSCANNED_REPORTS = [
    (
        ["eq-over", "--group", "S3", "--diagonal", "2"],
        "82f43af512d2a8bc2c29c112557c3fb5b0153522411b6593ce447ac28f68c18f",
        290,
    ),
    (
        ["eq-over", "--group", "S3", "--diagonal", "3"],
        "58dd4a4eb0fd9ad60100a560a60b5753630ab4283e8187dd79dca7e83f7e6a6e",
        311,
    ),
    (
        ["eq-solve", "--group", "A6"],
        "1323aca59d37ffa6d3879d72342b2ce05c38c59946fd5370b24d95e2e5b3ce57",
        299,
    ),
    (
        ["eq-solve", "--group", "A7"],
        "df8acc15e80cd69fdf186a21daf0102f07c7cd6d8b4d4a380f3bc84ba368803c",
        301,
    ),
]

SQ = str(Path(__file__).resolve().parent.parent / "manifests" / "sq.eqn")


def _refuse_scans(monkeypatch):
    """Make the assignment scan and every streamed pass over S_m/A_m raise;
    listing a group in canonical order stays allowed."""

    def refuse(*args, **kwargs):
        raise AssertionError("scanned")

    monkeypatch.setattr(equations, "_first_solution", refuse)
    monkeypatch.setattr(groups._Lexicographic, "__iter__", refuse)


@pytest.mark.parametrize(
    "argv, digest, size",
    UNSCANNED_REPORTS,
    ids=["over-S3-diagonal-2", "over-S3-diagonal-3", "solve-A6", "solve-A7"],
)
def test_power_words_over_builtin_groups_are_never_scanned(argv, digest, size, monkeypatch, tmp_path):
    _refuse_scans(monkeypatch)
    out = tmp_path / "report"
    assert cli.run(argv + ["--system", SQ, "--out", str(out)]) == 0
    data = out.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, size)


def test_witnesses_still_scan_the_overgroup(monkeypatch, tmp_path):
    _refuse_scans(monkeypatch)
    argv = ["eq-over", "--group", "S3", "--diagonal", "3", "--system", SQ, "--witnesses"]
    with pytest.raises(AssertionError, match="scanned"):
        cli.run(argv + ["--out", str(tmp_path / "report")])


def test_power_word_with_jobs_starts_no_pool(monkeypatch, tmp_path):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(equations, "_scan_parallel", no_pool)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        argv = ["eq-solve", "--group", "S4", "--system", SQ, "--jobs", jobs, "--out", str(out)]
        assert cli.run(argv) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert b"verdict: unsolvable" in reports[0]
