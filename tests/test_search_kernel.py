"""Differential tests: the raw-tuple kernels of ``search_separating_hom``,
``search_sofic_instance`` and ``FiniteGroup.is_conjugation_canonical``
against the loops they replaced (conftest.py)."""

import random
from fractions import Fraction
from itertools import product as iter_product

import pytest
from conftest import (
    element_search_separating_hom,
    element_search_sofic_instance,
    is_conjugation_canonical,
)

from groupapprox.approximation import (
    Exhausted,
    FoundHomomorphism,
    Presentation,
    SoficCertificate,
    search_separating_hom,
    search_sofic_instance,
    verify_sofic_certificate,
)
from groupapprox.errors import BudgetExceeded
from groupapprox.groups import FiniteGroup, cyclic
from groupapprox.perm import parse_cycles
from groupapprox.words import reduce_word


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


def _presentation(seed, inside=None, outside=None):
    """A seeded two-generator presentation; ``inside``/``outside`` fix a count."""
    rng = random.Random(seed)
    n_inside = rng.randint(0, 2) if inside is None else inside
    n_outside = rng.randint(1, 2) if outside is None else outside
    return Presentation(
        generators=("a", "b"),
        relators=(),
        inside=tuple(_word(rng, 2, 4) for _ in range(n_inside)),
        outside=tuple(_word(rng, 2, 5) for _ in range(n_outside)),
    )


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
    got = outcome(search_separating_hom, p, n, catalog, budget=budget, prune_conjugates=prune)
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


class TestConjugationCanonical:
    @pytest.mark.parametrize("name", ["S3", "S4", "A4", "Z3xK4"])
    def test_every_short_tuple(self, name):
        G = GROUPS[name]()
        els = G.elements()
        for k in (0, 1, 2):
            for items in iter_product(els, repeat=k):
                assert G.is_conjugation_canonical(items) == is_conjugation_canonical(items, els)

    def test_a5_singletons_and_seeded_pairs(self):
        G = GROUPS["A5"]()
        els = G.elements()
        for x in els:
            assert G.is_conjugation_canonical((x,)) == is_conjugation_canonical((x,), els)
        rng = random.Random("A5 pairs")
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(300)]
        # pairs led by a class representative reach the centralizer scan
        reps = [G.class_representative(i) for i in range(len(G.conjugacy_classes()))]
        pairs += [(r, y) for r in reps for y in rng.sample(els, 20)]
        for items in pairs:
            assert G.is_conjugation_canonical(items) == is_conjugation_canonical(items, els)

    @pytest.mark.parametrize("name", ["S4", "D4"])
    def test_seeded_triples(self, name):
        G = GROUPS[name]()
        els = G.elements()
        rng = random.Random(f"{name} triples")
        for _ in range(400):
            items = tuple(rng.choice(els) for _ in range(3))
            assert G.is_conjugation_canonical(items) == is_conjugation_canonical(items, els)
