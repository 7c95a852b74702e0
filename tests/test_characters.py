"""The cycle-type engine of ``groupapprox.characters`` against the element
machinery it replaced for ``covering-constant``, and against the identities
its character tables must satisfy."""

from functools import reduce
from itertools import product as iter_product
from math import factorial, prod
from operator import mul

import pytest
from conftest import canonical_tuples, element_covering_constant, enumerated_alternating

from groupapprox import coverage
from groupapprox.characters import (
    AlternatingTable,
    _centralizer_order,
    conjugate_partition,
    cycle_type,
    leader_first,
    orbit_leaders,
    partitions,
    power_types,
    symmetric_character,
)
from groupapprox.coverage import covering_csv, empirical_covering_constant
from groupapprox.errors import CapExceeded
from groupapprox.groups import FiniteGroup, cyclic
from groupapprox.perm import conjugate, parse_cycles


@pytest.mark.parametrize(
    "kind, m",
    [(k, m) for k in ("symmetric", "alternating") for m in range(1, 6)] + [("alternating", 6)],
)
def test_orbit_leaders_are_the_least_elements_of_the_orbits(kind, m):
    """Orbits under S_m (and, with ``inner``, under G itself), formed by
    conjugating every element by every element; A6 has the split type
    (5, 1) and the even type (4, 2)."""
    G = getattr(FiniteGroup, kind)(m)
    els = G.elements()
    position = {x: i for i, x in enumerate(els)}
    for inner in (False, True):
        by = els if inner else FiniteGroup.symmetric(m).elements()
        least = {min(position[conjugate(x, g)] for g in by) for x in els}
        assert orbit_leaders(G, inner=inner) == sorted(least)


@pytest.mark.parametrize("name", ["D4", "Z3xK4", "degree 0"])
def test_orbit_leaders_of_other_groups_are_their_class_representatives(name):
    k4 = [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)]
    G = {
        "D4": lambda: FiniteGroup.generated(4, [parse_cycles("(1 2 3 4)", 4), k4[1]]),
        "Z3xK4": lambda: FiniteGroup.direct_product([cyclic(3), FiniteGroup.generated(4, k4)]),
        "degree 0": lambda: FiniteGroup.generated(0, []),
    }[name]()
    els = G.elements()
    reps = sorted(els.index(G.class_representative(i)) for i in range(len(G.conjugacy_classes())))
    for inner in (False, True):
        assert orbit_leaders(G, inner=inner) == reps


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_leader_first_positions_index_every_tuple(r):
    """On A4, under S4: the yielded tuples are in canonical order, each at
    its position in ``iter_product``, and are the canonical ones."""
    G = FiniteGroup.alternating(4)
    items = G.elements()
    every = list(iter_product(items, repeat=r))
    led = list(leader_first(G, items, r))
    positions = [position for position, _ in led]
    assert positions == sorted(set(positions))
    assert [every[position - 1] for position in positions] == [t for _, t in led]
    assert led == canonical_tuples(items, r, FiniteGroup.symmetric(4).elements())


def _s3_x_z2():
    return FiniteGroup.direct_product([FiniteGroup.symmetric(3), cyclic(2)])


LEADER_GROUPS = {
    **{f"S{m}": (lambda m=m: FiniteGroup.symmetric(m)) for m in range(1, 6)},
    **{f"A{m}": (lambda m=m: FiniteGroup.alternating(m)) for m in range(1, 7)},
    "D4": lambda: FiniteGroup.generated(
        4, [parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)", 4)], name="D4"
    ),
    "S3xZ2": _s3_x_z2,
}


@pytest.mark.parametrize("inner", [False, True])
@pytest.mark.parametrize("name", sorted(LEADER_GROUPS))
def test_leader_first_yields_exactly_the_canonical_tuples(name, inner):
    """Against the brute-force predicate, over S_m for builtin S_m and A_m
    unless ``inner``, else over the group itself: the same tuples in the
    same order at the same positions, for r = 0..3 (0..2 past order 60).
    Asked again, the group's memoized orbits give the same tuples."""
    G = LEADER_GROUPS[name]()
    els = G.elements()
    by_sym = G.kind == "symmetric" or (G.kind == "alternating" and not inner)
    acting = FiniteGroup.symmetric(G.degree).elements() if by_sym else els
    for r in range(4 if len(els) <= 60 else 3):
        expected = canonical_tuples(els, r, acting)
        assert list(leader_first(G, els, r, inner)) == expected, r
        assert list(leader_first(G, els, r, inner)) == expected, r


@pytest.mark.parametrize("kind", ["symmetric", "alternating"])
@pytest.mark.parametrize("m", range(1, 8))
def test_power_types_match_the_enumerated_powers(kind, m):
    els = getattr(FiniteGroup, kind)(m).elements()
    for k in range(1, 13):
        expected = frozenset(cycle_type(reduce(mul, [x] * k)) for x in els)
        assert power_types(m, k, kind == "alternating") == expected, k


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_covering_table_and_csv_match_the_element_path(m):
    new = empirical_covering_constant(m)
    old = element_covering_constant(m)
    assert new == old
    assert covering_csv(new) == covering_csv(old)


@pytest.mark.parametrize("m", [5, 6, 7, 8, 9])
def test_classes_match_the_enumerated_partition(m):
    table = AlternatingTable(m)
    G, _ = enumerated_alternating(m)
    classes = G.conjugacy_classes()
    assert table.representatives == tuple(map(G.class_representative, range(len(classes))))
    assert table.sizes == tuple(map(len, classes))
    assert table.inverses == tuple(
        G.class_index_of(G.class_representative(c).inverse()) for c in range(len(classes))
    )


@pytest.mark.parametrize("m", range(2, 9))
def test_class_index_matches_the_enumerated_partition(m):
    """Every element, so both halves of each split type: m = 5, 6, 7, 8 have
    split types."""
    table = AlternatingTable(m)
    G, _ = enumerated_alternating(m)
    for h in G.elements():
        c = table.class_index(h)
        assert c == G.class_index_of(h), h
        assert table.class_index(h.inverse()) == table.inverses[c], h


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_step_gives_every_class_product(m):
    """One letter class against one layer class: a real split class times
    itself holds the identity and times its other half does not, which only
    the irrational parts of the pair characters tell apart."""
    table = AlternatingTable(m)
    G, _ = enumerated_alternating(m)
    k = len(table.representatives)
    for a in range(k):
        step = table.step((a,))
        for c in range(k):
            assert step(frozenset((c,))) == G.class_product(a, c), (a, c)


def test_split_classes_of_both_kinds_are_covered():
    """m = 5, 6, 9 hold real split classes (x^-1 in x's half) and m = 7, 8, 9
    non-real ones, so the differential tests above see both kinds."""
    real, non_real = set(), set()
    for m in (5, 6, 7, 8, 9):
        table = AlternatingTable(m)
        types = [sorted(map(len, rep.cycles())) for rep in table.representatives]
        for c, inverse in enumerate(table.inverses):
            if types.count(types[c]) == 2:
                (real if inverse == c else non_real).add(m)
    assert real == {5, 6, 9} and non_real == {7, 8, 9}


def test_covering_constant_never_lists_the_alternating_group(monkeypatch):
    elements = FiniteGroup.elements

    def refuse(self, *args, **kwargs):
        if self.kind == "alternating":
            raise AssertionError(f"{self.name} listed")
        return elements(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "elements", refuse)
    coverage.alternating_table.cache_clear()
    table = empirical_covering_constant(8)
    assert len(table.rows) == 13 * 13 and table.max_ratio == 4
    with pytest.raises(AssertionError, match="A8 listed"):
        FiniteGroup.alternating(8).conjugacy_classes()


def _symmetric_table(m):
    shapes = partitions(m)
    memo = {}
    return shapes, {(lam, mu): symmetric_character(lam, mu, memo) for lam in shapes for mu in shapes}


@pytest.mark.parametrize("m", range(1, 11))
def test_symmetric_table_is_orthogonal(m):
    shapes, chi = _symmetric_table(m)
    identity = (1,) * m
    assert sum(chi[lam, identity] ** 2 for lam in shapes) == factorial(m)
    for mu in shapes:
        for nu in shapes:
            inner = sum(chi[lam, mu] * chi[lam, nu] for lam in shapes)
            assert inner == (_centralizer_order(mu) if mu == nu else 0), (mu, nu)


@pytest.mark.parametrize("m", range(2, 11))
def test_conjugate_partition_twists_by_the_sign(m):
    shapes, chi = _symmetric_table(m)
    for lam in shapes:
        for mu in shapes:
            sign = -1 if (m - len(mu)) % 2 else 1
            assert chi[conjugate_partition(lam), mu] == sign * chi[lam, mu]


@pytest.mark.parametrize("m", range(2, 13))
def test_alternating_degrees_square_to_the_order(m):
    table = AlternatingTable(m)
    paired = {row for row, *_ in table.pairs}
    total = 0
    for row, chi in enumerate(table.characters):
        # class 0 is the identity; chi+- each have degree chi(1)/2
        total += chi[0] ** 2 // 2 if row in paired else chi[0] ** 2
    assert total == factorial(m) // 2
    assert sum(table.sizes) == factorial(m) // 2


@pytest.mark.parametrize("m", range(2, 13))
def test_self_conjugate_characters_take_their_sign_on_the_hook_type(m):
    table = AlternatingTable(m)
    for row, d, plus, minus in table.pairs:
        chi = table.characters[row]
        assert chi[plus] == chi[minus] == (-1 if d < 0 else 1)
        assert prod(map(len, table.representatives[plus].cycles())) == abs(d)


def test_past_the_element_cap_the_table_is_built():
    table = AlternatingTable(12)
    assert len(table.representatives) == 43
    assert sum(table.sizes) == factorial(12) // 2


def test_table_size_is_checked_while_counting():
    assert len(partitions(21)) == 792
    with pytest.raises(CapExceeded, match="counted 1001 partitions of 22"):
        partitions(22)
    with pytest.raises(CapExceeded, match="counted 1001 partitions of 1000000"):
        partitions(10**6)
