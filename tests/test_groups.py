from itertools import permutations as iter_permutations
from itertools import product as iter_product

import pytest
from conftest import brute_consequences, quotient

from groupapprox import groups
from groupapprox.errors import CapExceeded
from groupapprox.groups import (
    FiniteGroup,
    consequences,
    cyclic,
    is_n_separated,
)
from groupapprox.perm import (
    Permutation,
    conjugate,
    cycle_string,
    identity,
    is_even,
    parse_cycles,
)


def s(text, degree):
    return parse_cycles(text, degree)


S3 = FiniteGroup.symmetric(3)
S4 = FiniteGroup.symmetric(4)
A4 = FiniteGroup.alternating(4)
A5 = FiniteGroup.alternating(5)
KLEIN = FiniteGroup.generated(
    4, [s("(1 2)(3 4)", 4), s("(1 3)(2 4)", 4)], name="K4"
)


class TestEnumeration:
    def test_cyclic_generated(self):
        G = FiniteGroup.generated(3, [s("(1 2 3)", 3)])
        assert G.order() == 3

    def test_alternating_size(self):
        assert A4.order() == 12
        assert A5.order() == 60

    def test_symmetric_size(self):
        assert S4.order() == 24

    def test_klein_closure(self):
        assert KLEIN.order() == 4
        assert set(KLEIN.elements()) == {
            identity(4),
            s("(1 2)(3 4)", 4),
            s("(1 3)(2 4)", 4),
            s("(1 4)(2 3)", 4),
        }

    def test_product_order(self):
        P = FiniteGroup.direct_product([S3, KLEIN])
        assert P.order() == 24

    def test_product_order_is_known_before_listing(self):
        P = FiniteGroup.direct_product([S3, KLEIN, S3])
        assert P.order() == 144 and P._elements is None
        assert len(P.elements()) == 144

    def test_product_past_the_cap_is_refused_before_listing(self, monkeypatch):
        P = FiniteGroup.direct_product([S3] * 11, name="P")  # 6**11 elements
        Q = FiniteGroup.direct_product([S3] * 3, name="Q")

        def refuse(*args):
            raise AssertionError("an element was formed")

        monkeypatch.setattr(groups, "direct_sum", refuse)
        for call in (P.order, P.elements, P.conjugacy_classes):
            with pytest.raises(CapExceeded, match="^P enumeration passed cap 1000000$"):
                call()
        with pytest.raises(CapExceeded, match="^Q enumeration passed cap 100$"):
            Q.elements(cap=100)

    def test_product_refuses_a_component_past_the_cap_first(self):
        P = FiniteGroup.direct_product([S3, FiniteGroup.symmetric(5)], name="P")
        with pytest.raises(CapExceeded, match="^S5 has more than 100 elements$"):
            P.elements(cap=100)

    def test_listed_generated_group_refuses_a_lower_cap_from_its_size(self, monkeypatch):
        K = FiniteGroup.generated(4, [s("(1 2)(3 4)", 4), s("(1 3)(2 4)", 4)], name="K")
        P = FiniteGroup.direct_product([K, K], name="P")
        P.elements()  # lists K too

        def refuse(*args):
            raise AssertionError("a closure was formed again")

        monkeypatch.setattr(groups, "_closure", refuse)
        for G in (K, P):
            with pytest.raises(CapExceeded, match="^closure of K passed the element cap 3$"):
                G.elements(3)
        with pytest.raises(CapExceeded, match="^P enumeration passed cap 15$"):
            P.elements(15)
        assert len(K.elements(4)) == 4 and len(P.elements(16)) == 16

    def test_closure_is_group(self):
        els = set(KLEIN.elements())
        for a in els:
            assert a.inverse() in els
            for b in els:
                assert a * b in els

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            FiniteGroup.symmetric(10).elements(cap=1000)
        with pytest.raises(CapExceeded):
            FiniteGroup.generated(6, [s("(1 2)", 6), s("(1 2 3 4 5 6)", 6)]).elements(cap=10)

    @pytest.mark.parametrize("m", range(1, 10))
    def test_alternating_matches_the_parity_filter(self, m):
        els = FiniteGroup.alternating(m).elements()
        assert len(els) == len(set(els))
        assert set(els) == {Permutation(p) for p in iter_permutations(range(m)) if is_even(p)}

    def test_canonical_order_starts_small(self):
        names = [cycle_string(x) for x in S3.elements()]
        assert names == ["()", "(1 2)", "(1 3)", "(2 3)", "(1 2 3)", "(1 3 2)"]

    def test_membership(self):
        assert s("(1 2 3)", 4) in A4
        assert s("(1 2)", 4) not in A4
        assert s("(1 2)", 3) not in A4


class TestCanonicalOrderAndMembership:
    @pytest.mark.parametrize(
        "G",
        [FiniteGroup.symmetric(m) for m in range(1, 9)]
        + [FiniteGroup.alternating(m) for m in range(1, 9)]
        + [
            FiniteGroup.generated(6, [s("(1 2 3 4)(5 6)", 6), s("(1 3)", 6)]),
            FiniteGroup.direct_product([S3, KLEIN, cyclic(2)]),
        ],
        ids=lambda G: G.name,
    )
    def test_elements_sorted_by_sort_key(self, G):
        els = G.elements()
        assert els == tuple(sorted(els, key=Permutation.sort_key))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_structural_membership_matches_element_set(self, m):
        for kind in (FiniteGroup.symmetric, FiniteGroup.alternating):
            G = kind(m)
            els = frozenset(G.elements())
            assert G.order() == len(els)
            for images in iter_product(range(m), repeat=m):
                x = Permutation(images)
                assert (x in G) == (x in els), (G.name, images)

    def test_membership_rejects_non_elements(self):
        for G in (FiniteGroup.symmetric(4), FiniteGroup.alternating(4)):
            assert Permutation((0, 0, 2, 3)) not in G
            assert Permutation((0, 1, 2, 4)) not in G
            assert s("(1 2 3)", 5) not in G
            assert s("(1 2 3)", 3) not in G
            assert (1, 2, 0, 3) not in G
            assert [1, 2, 0, 3] not in G
            assert "abcd" not in G
            assert s("(1 2 3)", 4) in G

    def test_symmetric_and_alternating_membership_does_not_enumerate(self):
        for G, order in (
            (FiniteGroup.symmetric(12), 479001600),
            (FiniteGroup.alternating(12), 239500800),
        ):
            assert s("(1 2 3)(4 5 6 7 8)", 12) in G
            assert G.order(cap=10**9) == order
            with pytest.raises(CapExceeded):
                G.order()
            assert G._elements is None

    @pytest.mark.parametrize("kind", ["generated", "product"])
    def test_membership_builds_no_second_index(self, kind):
        if kind == "generated":
            G, outside = FiniteGroup.generated(4, A4.generators, name="A4'"), s("(1 2)", 4)
        else:
            G, outside = FiniteGroup.direct_product([S3, cyclic(4)]), s("(3 4)", 7)

        def indexes():
            """The hash structures G holds with an entry per element."""
            return [
                v
                for v in vars(G).values()
                if isinstance(v, (dict, set, frozenset)) and len(v) >= len(G.elements())
            ]

        def hash_entries(v):
            """The entries of the hash structures in v, nested ones included."""
            if isinstance(v, dict):
                return len(v) + sum(map(hash_entries, v.values()))
            if isinstance(v, (set, frozenset)):
                return len(v)
            if isinstance(v, (tuple, list)) and not isinstance(v, Permutation):
                return sum(map(hash_entries, v))
            return 0

        assert G.elements()[-1] in G and outside not in G
        assert G._classes is None
        assert len(indexes()) == 1 and indexes()[0] is G.positions()
        G.conjugacy_classes()
        assert len(indexes()) == 1 and indexes()[0] is G.positions()
        assert sum(map(hash_entries, vars(G).values())) == len(G.elements())


def class_of(G, x):
    return G.conjugacy_classes()[G.class_index_of(x)]


class TestConjugacyClasses:
    def test_identity_class(self):
        assert class_of(S3, identity(3)) == (identity(3),)

    def test_three_cycles_in_s3(self):
        cls = class_of(S3, s("(1 2 3)", 3))
        assert cls == (s("(1 2 3)", 3), s("(1 3 2)", 3))

    def test_three_cycles_split_in_a4(self):
        cls = class_of(A4, s("(1 2 3)", 4))
        assert len(cls) == 4

    @pytest.mark.parametrize(
        "G",
        [S4, A5, KLEIN, cyclic(6), FiniteGroup.direct_product([S3, cyclic(2)])],
        ids=lambda G: G.name,
    )
    def test_classes_hold_and_label_the_listed_elements(self, G):
        els, where = G.elements(), G.positions()
        classes = G.conjugacy_classes()
        for c, K in enumerate(classes):
            assert all(x is els[where[x]] for x in K)
            rep = G.class_representative(c)
            assert rep is els[where[rep]]
            assert rep == min(K, key=Permutation.sort_key)
        for x, c in zip(els, G.class_labels(), strict=True):
            assert x in classes[c]
            assert G.class_index_of(x) == G.class_index_of(tuple(x)) == c

    def test_partition_matches_brute_force(self):
        for G in (S3, A4, KLEIN):
            els = G.elements()
            for x in els:
                direct = {conjugate(x, g) for g in els}
                assert class_of(G, x) == tuple(sorted(direct, key=Permutation.sort_key))


class TestConsequences:
    def test_empty_base(self):
        cons = consequences(S3, [], 3)
        assert cons.elements == frozenset()
        assert cons.layer_sizes == (0, 0, 0)

    def test_partitioned_group_still_refuses_a_cap_below_its_order(self):
        G = FiniteGroup.alternating(5)
        G.conjugacy_classes()
        with pytest.raises(CapExceeded, match="^A5 has more than 10 elements$"):
            G.elements(10)

    def test_transposition_class_at_depth_one(self):
        cons = consequences(S3, [s("(1 2)", 3)], 1)
        assert cons.elements == frozenset(
            {s("(1 2)", 3), s("(1 3)", 3), s("(2 3)", 3)}
        )

    def test_klein_stays_in_klein(self):
        for n in (1, 2, 3, 5, 8):
            cons = consequences(A4, [s("(1 2)(3 4)", 4)], n)
            assert cons.elements <= frozenset(KLEIN.elements())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force(self, n):
        cases = [
            (S3, [s("(1 2)", 3)]),
            (S3, [s("(1 2 3)", 3)]),
            (A4, [s("(1 2)(3 4)", 4)]),
            (A4, [s("(1 2 3)", 4)]),
            (S4, [s("(1 2)", 4), s("(1 2 3 4)", 4)]),
            (KLEIN, [s("(1 2)(3 4)", 4)]),
        ]
        for G, X in cases:
            assert consequences(G, X, n).elements == brute_consequences(G, X, n)

    def test_identity_in_base_gives_cumulative_layers(self):
        base = [identity(3), s("(1 2)", 3)]
        cons = consequences(S3, base, 3)
        for earlier, later in zip(cons.class_layers, cons.class_layers[1:]):
            assert earlier <= later

    def test_conjugation_saturated_on_s4(self):
        cons = consequences(S4, [s("(1 2 3)", 4)], 2)
        for g in S4.elements():
            assert frozenset(conjugate(x, g) for x in cons.elements) == cons.elements

    def test_monotone_in_steps_of_two(self):
        for X in ([s("(1 2)", 4)], [s("(1 2 3 4)", 4)]):
            deep = consequences(S4, X, 6)
            for n in (1, 2, 3, 4):
                assert deep.class_layers[n - 1] <= deep.class_layers[n + 1]

    def test_projection_commutes_on_products(self):
        P = FiniteGroup.direct_product([A4, S3])
        x = P.elements()[5]
        cons = consequences(P, [x], 2)

        def project(h, j):  # the restriction of h to block j: A4 moves 4 points, then S3
            off = 4 * j
            return Permutation(h[off + i] - off for i in range(P.components[j].degree))

        for j, comp in enumerate((A4, S3)):
            projected = frozenset(project(h, j) for h in cons.elements)
            direct = consequences(comp, [project(x, j)], 2).elements
            assert projected == direct


class TestSeparation:
    def test_empty_base_always_separated(self):
        for n in (1, 2, 7):
            rep = is_n_separated(S3, [s("(1 2)", 3)], [], n)
            assert rep.separated and rep.witness is None

    def test_klein_separation_in_a4(self):
        rep = is_n_separated(A4, [s("(1 2 3)", 4)], [s("(1 2)(3 4)", 4)], 8)
        assert rep.separated
        assert rep.cumulative_separated

    def test_inverse_letter_violation_in_a5(self):
        rep = is_n_separated(A5, [s("(1 3 2)", 5)], [s("(1 2 3)", 5)], 1)
        assert not rep.separated
        assert rep.witness == s("(1 3 2)", 5)

    def test_separated_at_n_implies_separated_two_below(self):
        X = [s("(1 2 3)", 4)]
        for y in S4.elements():
            for n in (3, 4, 5):
                later = is_n_separated(S4, [y], X, n)
                earlier = is_n_separated(S4, [y], X, n - 2)
                if later.separated:
                    assert earlier.separated

    def test_membership_validated(self):
        with pytest.raises(ValueError):
            is_n_separated(A4, [s("(1 2)", 4)], [s("(1 2 3)", 4)], 2)


class TestQuotient:
    def test_s3_mod_a3(self):
        evens = [x for x in S3.elements() if x in FiniteGroup.alternating(3)]
        Q, qmap = quotient(S3, evens)
        assert Q.order() == 2
        for a in S3.elements():
            for b in S3.elements():
                assert qmap[a * b] == qmap[a] * qmap[b]

    def test_a4_mod_klein(self):
        Q, qmap = quotient(A4, KLEIN.elements())
        assert Q.order() == 3

    def test_rejects_non_normal(self):
        sub = [identity(3), s("(1 2)", 3)]
        with pytest.raises(ValueError):
            quotient(S3, sub)

    def test_rejects_non_subgroup(self):
        with pytest.raises(ValueError):
            quotient(S3, [identity(3), s("(1 2 3)", 3)])

    def test_cyclic_quotient(self):
        Z6 = cyclic(6)
        c = Z6.generators[0]
        N = [identity(6), c * c * c]
        Q, _ = quotient(Z6, N)
        assert Q.order() == 3
