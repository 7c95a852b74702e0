"""Differential tests: the raw-tuple kernels of ``search_separating_hom``
and ``search_sofic_instance``, and the canonical tuples of
``characters.leader_first``, against the loops they replaced
(conftest.py).  The searches test only the assignments least in their
conjugation orbits; the loops test every assignment, or, pruned, those
that ``conftest.is_conjugation_canonical`` keeps."""

import random
from fractions import Fraction
from itertools import product as iter_product

import pytest
from conftest import (
    element_search_separating_hom,
    element_search_sofic_instance,
    is_conjugation_canonical,
)

from groupapprox import approximation, cli
from groupapprox.approximation import (
    Exhausted,
    FoundHomomorphism,
    Presentation,
    SoficCertificate,
    parse_presentation,
    search_separating_hom,
    search_sofic_instance,
    verify_sofic_certificate,
)
from groupapprox.characters import cycle_type, leader_first, orbit_leaders
from groupapprox.errors import BudgetExceeded
from groupapprox.groups import FiniteGroup, cyclic
from groupapprox.perm import parse_cycles
from groupapprox.words import evaluate_compiled, reduce_word


def _generated(name, degree, *cycles):
    return FiniteGroup.generated(degree, [parse_cycles(c, degree) for c in cycles], name=name)


def _k4():
    return _generated("K4", 4, "(1 2)(3 4)", "(1 3)(2 4)")


GROUPS = {
    "Z3": lambda: cyclic(3),
    "K4": _k4,
    "S3": lambda: FiniteGroup.symmetric(3),
    "A4": lambda: FiniteGroup.alternating(4),
    "S4": lambda: FiniteGroup.symmetric(4),
    "A5": lambda: FiniteGroup.alternating(5),
    "D4": lambda: _generated("D4", 4, "(1 2 3 4)", "(1 3)"),
    "Z3xK4": lambda: FiniteGroup.direct_product([cyclic(3), _k4()]),
}


def outcome(search, *args, **kwargs):
    """The search's result, or the message and stats of its BudgetExceeded."""
    try:
        return search(*args, **kwargs)
    except BudgetExceeded as exc:
        return ("budget exceeded", str(exc), exc.stats)


def _word(rng, rank, max_length):
    return reduce_word(
        rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(rng.randint(0, max_length))
    )


def _presentation(seed, inside=None, outside=None, rank=2):
    """A seeded presentation on ``rank`` generators; ``inside``/``outside``
    fix a count."""
    rng = random.Random(seed)
    n_inside = rng.randint(0, 2) if inside is None else inside
    n_outside = rng.randint(1, 2) if outside is None else outside
    return Presentation(
        generators=("a", "b", "c")[:rank],
        relators=(),
        inside=tuple(_word(rng, rank, 4) for _ in range(n_inside)),
        outside=tuple(_word(rng, rank, 5) for _ in range(n_outside)),
    )


def _text(gens, inside, outside):
    lines = [f"generators {gens}"]
    lines += [f"inside {w}" for w in inside] + [f"outside {w}" for w in outside]
    return parse_presentation("\n".join(lines) + "\n")


def _skipped_budgets(catalog, rank):
    """Budgets that fall in a stretch the searches skip: between two leader
    blocks, or after a group's last one."""
    out = []
    count = 0
    for H in catalog:
        size = len(H.elements())
        block = size ** (rank - 1)
        starts = [i * block for i in orbit_leaders(H)] + [size**rank]
        for end, start in zip([i + block for i in starts], starts[1:]):
            if start > end:  # positions end + 1 .. start are skipped
                out.append(count + (end + start) // 2)
        count += size**rank
    return out


def _hard_presentation(seed):
    """Outside word = square of a conjugate of the inside word, so it lies in
    C_2 of the inside images and no assignment separates at depth 2."""
    rng = random.Random(seed)
    w = _word(rng, 2, 3) or (1,)
    c = _word(rng, 2, 2)
    inv_c = tuple(-s for s in reversed(c))
    conj = reduce_word(inv_c + w + c)
    return Presentation(("a", "b"), (), (w,), (reduce_word(conj + conj),))


def _same_separating(p, n, catalog, budget, prune):
    """The search against the loop over every assignment, or over the
    canonical ones when ``prune``: both find the same first map."""
    got = outcome(search_separating_hom, p, n, catalog, budget=budget)
    want = outcome(element_search_separating_hom, p, n, catalog, budget, prune_conjugates=prune)
    assert got == want
    return got


class TestSeparatingSearch:
    @pytest.mark.parametrize("name", sorted(GROUPS))
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("prune", [False, True])
    def test_seeded_presentations(self, name, n, prune):
        G = GROUPS[name]()
        for k in range(4):
            p = _presentation(f"{name}/{n}/{k}")
            _same_separating(p, n, [G], 10**6, prune)

    @pytest.mark.parametrize("name", sorted(GROUPS))
    @pytest.mark.parametrize("prune", [False, True])
    def test_exhausted(self, name, prune):
        G = GROUPS[name]()
        got = _same_separating(_hard_presentation(name), 2, [G], 10**6, prune)
        assert isinstance(got, Exhausted)

    @pytest.mark.parametrize("prune", [False, True])
    def test_identity_inside_word(self, prune):
        G = GROUPS["A4"]()
        p = Presentation(("a", "b"), (), ((), (1, 2)), ((1,), (1, -2)))
        for n in (1, 2, 3):
            _same_separating(p, n, [G], 10**6, prune)

    @pytest.mark.parametrize("prune", [False, True])
    def test_no_inside_words_takes_the_first_assignment(self, prune):
        G = GROUPS["S4"]()
        p = _presentation("no inside", inside=0)
        got = _same_separating(p, 2, [G], 10**6, prune)
        assert isinstance(got, FoundHomomorphism)
        assert got.stats.assignments == 1

    @pytest.mark.parametrize("budget", [1, 9, 200, 600])
    @pytest.mark.parametrize("prune", [False, True])
    def test_budget_runs_out_mid_group(self, budget, prune):
        catalog = [GROUPS[name]() for name in ("Z3", "K4", "S3", "S4")]
        got = _same_separating(_hard_presentation("budget"), 2, catalog, budget, prune)
        assert got[0] == "budget exceeded"

    @pytest.mark.parametrize("name", ["Z3", "K4", "S3", "D4", "A4", "Z3xK4"])
    @pytest.mark.parametrize("prune", [False, True])
    def test_rank_one_and_three(self, name, prune):
        G = GROUPS[name]()
        for rank in (1, 3):
            for k in range(3):
                p = _presentation(f"rank {rank}/{name}/{k}", rank=rank)
                _same_separating(p, 2, [G], 10**6, prune)

    @pytest.mark.parametrize("prune", [False, True])
    def test_found_on_split_types(self, prune):
        # only 5- and 7-cycles have trivial fifth or seventh powers and move
        # points, and their types split into two A_m classes
        cases = [
            ("A5", _text("a", ["a^5"], ["a"])),
            ("A5", _text("a b", ["a^5", "b a b^-1 a^-4"], ["a", "b"])),
            ("A6", _text("a", ["a^5"], ["a"])),
            ("A7", _text("a", ["a^7"], ["a"])),
        ]
        for name, p in cases:
            G = FiniteGroup.alternating(int(name[1:]))
            got = _same_separating(p, 2, [G], 10**6, prune)
            assert isinstance(got, FoundHomomorphism)
            assert cycle_type(got.images[0])[0] in (5, 7)

    @pytest.mark.parametrize("prune", [False, True])
    def test_budget_at_group_boundaries(self, prune):
        catalog = [GROUPS[name]() for name in ("S3", "A4", "Z3xK4", "S4")]
        p = _hard_presentation("boundaries")
        total = 0
        for H in catalog:
            total += len(H.elements()) ** 2
            for budget in (total - 1, total, total + 1):
                _same_separating(p, 2, catalog, budget, prune)

    @pytest.mark.parametrize("prune", [False, True])
    def test_budget_in_a_skipped_stretch(self, prune):
        catalog = [GROUPS[name]() for name in ("S3", "A4", "D4", "S4")]
        budgets = _skipped_budgets(catalog, 2)
        assert len(budgets) >= 6
        for budget in budgets:
            got = _same_separating(_hard_presentation("skipped"), 2, catalog, budget, prune)
            assert got[0] == "budget exceeded"

    @pytest.mark.parametrize("prune", [False, True])
    def test_catalog_order_and_per_group_counts(self, prune):
        catalog = [GROUPS[name]() for name in ("Z3", "K4", "S3", "D4", "A4", "Z3xK4")]
        for k in range(6):
            _same_separating(_presentation(f"catalog/{k}", inside=1), 2, catalog, 10**6, prune)
        got = _same_separating(_hard_presentation("catalog"), 2, catalog, 10**6, prune)
        assert [name for name, _ in got.stats.per_group] == [G.name for G in catalog]


def _same_sofic(p, eps, catalog, budget):
    got = outcome(search_sofic_instance, p, eps, catalog, budget=budget)
    want = outcome(element_search_sofic_instance, p, eps, catalog, budget)
    assert got == want
    if isinstance(got, SoficCertificate):
        assert verify_sofic_certificate(got)
    return got


SOFIC_GROUPS = ("S3", "S4", "A4", "A5")


class TestSoficSearch:
    @pytest.mark.parametrize("name", SOFIC_GROUPS)
    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)])
    def test_seeded_presentations(self, name, eps):
        G = GROUPS[name]()
        for k in range(4):
            _same_sofic(_presentation(f"sofic/{name}/{eps}/{k}", outside=1), eps, [G], 10**6)

    @pytest.mark.parametrize("name", SOFIC_GROUPS)
    def test_conjugate_inside_and_outside_exhaust(self, name):
        # a word and its conjugate have one Hamming length, never separated
        p = Presentation(("a", "b"), (), ((1, 2, 1, -2),), ((2, 1, -2, 1),))
        got = _same_sofic(p, Fraction(1, 2), [GROUPS[name]()], 10**6)
        assert isinstance(got, Exhausted)

    def test_symmetric_candidates_are_doubled(self):
        p = Presentation(("a", "b"), (), ((1, 1),), ((1, 2),))
        got = _same_sofic(p, Fraction(1, 3), [GROUPS["S3"](), GROUPS["S4"]()], 10**6)
        assert isinstance(got, SoficCertificate) and got.embedded

    @pytest.mark.parametrize("name", ["S5", "A7", "S7"])
    def test_amplified_one_generator(self, name):
        # transpositions of S5 and S7 and 3-cycles of A7 move less than half
        # the points, so they need the amplification exponents 2, 3 and 2
        G = {
            "S5": FiniteGroup.symmetric(5),
            "A7": FiniteGroup.alternating(7),
            "S7": FiniteGroup.symmetric(7),
        }[name]
        insides = [(), ((1, 1),), ((1, 1, 1),), ((1, 1, 1, 1),), ((1, 1), (1, 1, 1))]
        epsilons = [Fraction(k, d) for k, d in ((1, 10), (1, 3), (1, 2), (16, 25), (3, 4))]
        for inside in insides:
            p = Presentation(("a",), (), inside, ((1,),))
            for eps in epsilons:
                _same_sofic(p, eps, [G], 10**6)

    @pytest.mark.parametrize("budget", [1, 30, 500])
    def test_budget_runs_out_mid_group(self, budget):
        p = Presentation(("a", "b"), (), ((1, 2, 1, -2),), ((2, 1, -2, 1),))
        catalog = [GROUPS[name]() for name in ("S3", "A4", "S4")]
        got = _same_sofic(p, Fraction(1, 2), catalog, budget)
        assert got[0] == "budget exceeded"

    @pytest.mark.parametrize("name", ["S3", "S4", "A4", "A5"])
    def test_rank_one_and_three(self, name):
        G = GROUPS[name]()
        ranks = (1, 3) if G.order() <= 24 else (1,)
        for rank in ranks:
            for k in range(4):
                p = _presentation(f"sofic rank {rank}/{name}/{k}", outside=1, rank=rank)
                _same_sofic(p, Fraction(1, 2), [G], 10**6)

    def test_found_on_split_types(self):
        # the first image has a trivial fifth or seventh power, so it is a 5-
        # or 7-cycle, whose type splits into two A_m classes
        cases = [
            ("A5", _text("a b", ["a^5", "b a b^-1 a^-4"], ["a"])),
            ("A6", _text("a", ["a^5"], ["a"])),
            ("A7", _text("a", ["a^7"], ["a"])),
        ]
        for name, p in cases:
            G = FiniteGroup.alternating(int(name[1:]))
            got = _same_sofic(p, Fraction(1, 2), [G], 10**6)
            assert isinstance(got, SoficCertificate) and not got.embedded
            assert cycle_type(got.images[0])[0] in (5, 7)
            assert got.stats.assignments > len(G.elements()) ** (len(p.generators) - 1)

    def test_found_with_embedding(self):
        cases = [
            (FiniteGroup.symmetric(5), _text("a b", ["a^3", "b a b^-1 a^-2"], ["a"])),
            (FiniteGroup.symmetric(4), _text("a b c", ["a^4", "b a b^-1 a^-3", "c c"], ["a"])),
        ]
        for G, p in cases:
            got = _same_sofic(p, Fraction(1, 2), [G], 10**6)
            assert isinstance(got, SoficCertificate) and got.embedded
            assert got.stats.assignments > len(G.elements()) ** (len(p.generators) - 1)

    def test_budget_at_group_boundaries(self):
        p = Presentation(("a", "b"), (), ((1, 2, 1, -2),), ((2, 1, -2, 1),))
        catalog = [GROUPS[name]() for name in ("S3", "A4", "S4")]
        total = 0
        for H in catalog:
            total += len(H.elements()) ** 2
            for budget in (total - 1, total, total + 1):
                _same_sofic(p, Fraction(1, 2), catalog, budget)

    def test_budget_in_a_skipped_stretch(self):
        p = Presentation(("a", "b"), (), ((1, 2, 1, -2),), ((2, 1, -2, 1),))
        catalog = [GROUPS[name]() for name in ("S3", "A4", "S4")]
        budgets = _skipped_budgets(catalog, 2)
        assert len(budgets) >= 5
        for budget in budgets:
            got = _same_sofic(p, Fraction(1, 2), catalog, budget)
            assert got[0] == "budget exceeded"


# The sofic-search steps of the benchmark's scan workload: two generators,
# an outside word conjugate to the inside word, and a catalog S4, A5.
SCAN_SOFIC = "generators a b\ninside a b a b^-1\noutside b a b^-1 a\n"


def test_sofic_scan_tests_only_leader_assignments(monkeypatch, tmp_path):
    """The scan's sofic search tests the 43 + 44 = 87 assignments into S4
    and A5 that are least in their orbits under conjugation by S4 and S5,
    of the 24**2 + 60**2 = 4176 assignments, and reports all 4176."""
    pres = tmp_path / "sofic.pres"
    pres.write_text(SCAN_SOFIC)
    cat = tmp_path / "sofic.catalog"
    cat.write_text("S4 symmetric 4\nA5 alternating 5\n")
    outside = approximation.compile_word(parse_presentation(SCAN_SOFIC).outside[0])
    tested = []

    def counting(slots, vals, points):
        if slots == outside:
            tested.append(vals)
        return evaluate_compiled(slots, vals, points)

    monkeypatch.setattr(approximation, "evaluate_compiled", counting)
    out = tmp_path / "report"
    argv = ["sofic-search", "--presentation", str(pres), "--eps", "1/2",
            "--catalog", str(cat), "--out", str(out)]
    assert cli.run(argv) == 0
    assert len(tested) == 87
    text = out.read_text()
    assert "status: exhausted" in text and "assignments: 4176" in text


def _canonical(G, r):
    """``leader_first``'s r-tuples over G under G's own conjugation."""
    return {t for _, t in leader_first(G, G.elements(), r, inner=True)}


class TestConjugationCanonical:
    """Tuples are kept by ``leader_first`` iff the brute-force predicate
    holds, over G's own conjugation."""

    @pytest.mark.parametrize("name", ["S3", "S4", "A4", "Z3xK4"])
    def test_every_short_tuple(self, name):
        G = GROUPS[name]()
        els = G.elements()
        for k in (0, 1, 2):
            canonical = _canonical(G, k)
            for items in iter_product(els, repeat=k):
                assert (items in canonical) == is_conjugation_canonical(items, els)

    def test_a5_singletons_and_seeded_pairs(self):
        G = GROUPS["A5"]()
        els = G.elements()
        singletons = _canonical(G, 1)
        for x in els:
            assert ((x,) in singletons) == is_conjugation_canonical((x,), els)
        rng = random.Random("A5 pairs")
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(300)]
        # pairs led by a class representative reach the centralizer's orbits
        reps = [G.class_representative(i) for i in range(len(G.conjugacy_classes()))]
        pairs += [(r, y) for r in reps for y in rng.sample(els, 20)]
        canonical = _canonical(G, 2)
        for items in pairs:
            assert (items in canonical) == is_conjugation_canonical(items, els)

    @pytest.mark.parametrize("name", ["S4", "D4"])
    def test_seeded_triples(self, name):
        G = GROUPS[name]()
        els = G.elements()
        canonical = _canonical(G, 3)
        rng = random.Random(f"{name} triples")
        for _ in range(400):
            items = tuple(rng.choice(els) for _ in range(3))
            assert (items in canonical) == is_conjugation_canonical(items, els)
