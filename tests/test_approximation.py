from fractions import Fraction
from itertools import product as iter_product

import pytest

from groupapprox import approximation, cli
from groupapprox.approximation import (
    Certificate,
    ConsequenceMode,
    Exhausted,
    FoundHomomorphism,
    MetricMode,
    SoficCertificate,
    Window,
    amplification_exponent,
    check_consequence_instance,
    check_metric_instance,
    merge_homomorphisms,
    parse_presentation,
    search_separating_hom,
    search_sofic_instance,
    verify_sofic_certificate,
    window_from_texts,
)
from groupapprox.errors import BudgetExceeded, ParseError
from groupapprox.groups import FiniteGroup, cyclic, is_n_separated
from groupapprox.lengths import hamming
from groupapprox.perm import hamming_length, identity, parse_cycles
from groupapprox.report import load_report


def s(text, degree):
    return parse_cycles(text, degree)


S4 = FiniteGroup.symmetric(4)
A4 = FiniteGroup.alternating(4)
Z3 = cyclic(3)


class TestWindow:
    def test_needs_identity(self):
        with pytest.raises(ValueError):
            Window(names=("a",), words=((1,),))

    def test_needs_reduced_distinct_words(self):
        with pytest.raises(ValueError):
            Window(names=("a",), words=((), (1, -1)))
        with pytest.raises(ValueError):
            Window(names=("a",), words=((), (1,), (1,)))

    def test_products_table(self):
        w = window_from_texts(["a"], ["1", "a", "a^2"])
        assert (1, 1, 2) in w.products()
        assert all(w.words[i] != (1, 1, 1) for i, _, _ in w.products())


class TestConsequenceCheck:
    def test_honest_inclusion_holds_at_every_depth(self):
        w = window_from_texts(["a"], ["1", "a", "a^2"])
        c = s("(1 2 3)", 4)
        for n in (1, 2, 5, 9):
            cert = Certificate(
                window=w,
                target=A4,
                images=(identity(4), c, c * c),
                mode=ConsequenceMode(depth=n),
            )
            assert check_consequence_instance(cert).holds

    def test_identity_must_map_to_identity(self):
        w = window_from_texts(["a"], ["1", "a"])
        cert = Certificate(
            window=w,
            target=A4,
            images=(s("(1 2 3)", 4), s("(1 2 3)", 4)),
            mode=ConsequenceMode(depth=2),
        )
        result = check_consequence_instance(cert)
        assert not result.holds

    def test_perturbed_inclusion_matches_direct_separation(self):
        w = window_from_texts(["a"], ["1", "a", "a^2"])
        images = (identity(4), s("(1 2 3)", 4), s("(1 2 4)", 4))
        cert = Certificate(window=w, target=A4, images=images, mode=ConsequenceMode(depth=4))
        defect = images[1] * images[1] * images[2].inverse()
        assert defect == s("(1 3)(2 4)", 4)
        assert cert.defects() == frozenset({identity(4), defect})
        direct = is_n_separated(A4, set(images[1:]), cert.defects(), 4)
        assert check_consequence_instance(cert).holds == direct.separated
        assert direct.separated  # Klein letters never reach a 3-cycle


class TestMetricCheck:
    def _inclusion_cert(self, epsilon, alpha=None):
        w = window_from_texts(["a"], ["1", "a", "a^2"])
        c = s("(1 2 3)", 4)
        images = (identity(4), c, c * c)
        if alpha is None:
            alpha = (Fraction(0), hamming_length(c), hamming_length(c * c))
        mode = MetricMode(length=hamming(A4), alpha=alpha, epsilon=epsilon)
        return Certificate(window=w, target=A4, images=images, mode=mode)

    def test_inclusion_holds_for_positive_epsilon(self):
        assert check_metric_instance(self._inclusion_cert(Fraction(1, 100))).holds

    def test_epsilon_zero_always_fails(self):
        # the table always contains (1,1) -> 1, so the defect set is
        # nonempty and the strict inequality bites
        assert not check_metric_instance(self._inclusion_cert(Fraction(0))).holds

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            check_metric_instance(self._inclusion_cert(Fraction(1, 2), alpha=(0, 1)))
        with pytest.raises(ValueError):
            check_metric_instance(
                self._inclusion_cert(
                    Fraction(1, 2), alpha=(Fraction(1), Fraction(1), Fraction(1))
                )
            )

    def test_commuting_disjoint_supports_window(self):
        w = window_from_texts(["a", "b"], ["1", "a", "b", "a b", "b a"])
        A, B = s("(1 2)", 4), s("(3 4)", 4)
        images = (identity(4), A, B, A * B, B * A)
        alpha = tuple(hamming_length(x) if not x.is_identity() else Fraction(0) for x in images)
        cert = Certificate(
            window=w,
            target=S4,
            images=images,
            mode=MetricMode(length=hamming(S4), alpha=alpha, epsilon=Fraction(1, 10)),
        )
        assert cert.defects() == frozenset({identity(4)})
        assert check_metric_instance(cert).holds


class TestMetricToConsequenceBridge:
    def test_passing_metric_implies_passing_consequence(self):
        # alpha pinned to n*eps: defects below eps cannot multiply up to
        # the floor within n letters
        w = window_from_texts(["a"], ["1", "a", "a^2"])
        eps, n = Fraction(1, 4), 2
        alpha = (Fraction(0), n * eps, n * eps)
        els = S4.elements()
        hits = 0
        for img_a, img_a2 in iter_product(els, repeat=2):
            images = (identity(4), img_a, img_a2)
            metric_cert = Certificate(
                window=w,
                target=S4,
                images=images,
                mode=MetricMode(length=hamming(S4), alpha=alpha, epsilon=eps),
            )
            if check_metric_instance(metric_cert).holds:
                hits += 1
                cons_cert = Certificate(
                    window=w, target=S4, images=images, mode=ConsequenceMode(depth=n)
                )
                assert check_consequence_instance(cons_cert).holds
        assert hits > 0


class TestSearchSeparatingHom:
    def test_honest_quotient_found(self):
        p = parse_presentation("generators a\nrelator a a a\ninside a a a\noutside a\n")
        found = search_separating_hom(p, 2, [Z3], budget=100)
        assert isinstance(found, FoundHomomorphism)
        assert found.images == (s("(1 2 3)", 3),)
        assert found.separation.separated

    def test_outside_equals_inside_is_impossible(self):
        p = parse_presentation("generators a\ninside a\noutside a\n")
        out = search_separating_hom(p, 1, [Z3, A4], budget=10**4)
        assert isinstance(out, Exhausted)
        assert out.stats.assignments == 3 + 12

    def test_commutator_needs_two_independent_directions(self):
        p = parse_presentation(
            "generators a b\nrelator a^-1 b^-1 a b\ninside a^-1 b^-1 a b\n"
            "outside a\noutside b\noutside a b\n"
        )
        Z2 = cyclic(2)
        K4 = FiniteGroup.direct_product([Z2, cyclic(2, name="Z2'")], name="Z2xZ2")
        found = search_separating_hom(p, 2, [Z2, K4], budget=10**4)
        assert isinstance(found, FoundHomomorphism)
        assert found.group.name == "Z2xZ2"
        # re-verify the certificate through the public checker
        images = dict(zip(p.generators, found.images))
        assert all(not x.is_identity() for x in images.values())

    def test_budget_exceeded_is_not_exhausted(self):
        p = parse_presentation("generators a\ninside a\noutside a\n")
        with pytest.raises(BudgetExceeded):
            search_separating_hom(p, 1, [A4], budget=2)

    def test_prune_agrees_on_verdict(self, tmp_path):
        """``--prune`` is accepted and reported, and changes nothing else."""
        pres = tmp_path / "z3.pres"
        pres.write_text("generators a\nrelator a a a\ninside a a a\noutside a\n")
        catalog = tmp_path / "z3.catalog"
        catalog.write_text("Z3 generated 3 (1 2 3)\n")
        reports = []
        for prune in ([], ["--prune"]):
            out = tmp_path / "search.report"
            argv = ["approx-search", "--presentation", str(pres), "--n", "2",
                    "--catalog", str(catalog), "--budget", "100", *prune, "--out", str(out)]
            assert cli.run(argv) == 0
            reports.append(load_report(out.read_text(encoding="utf-8")))
        assert [r["params"]["prune"] for r in reports] == [False, True]
        assert reports[0]["result"] == reports[1]["result"]
        assert reports[0]["result"]["status"] == "found"


class TestSearchSoficInstance:
    def test_free_generator_any_moving_image_works(self):
        p = parse_presentation("generators a\noutside a\n")
        cert = search_sofic_instance(p, Fraction(1, 4), [A4], budget=1000)
        assert isinstance(cert, SoficCertificate)
        assert cert.amplified_outside_length >= Fraction(1, 2)
        assert cert.amplification == 1  # raw length already clears 1/2
        assert verify_sofic_certificate(cert)

    def test_symmetric_catalog_gets_embedded(self):
        p = parse_presentation("generators a\noutside a\n")
        S3 = FiniteGroup.symmetric(3)
        cert = search_sofic_instance(p, Fraction(1, 2), [S3], budget=1000)
        assert isinstance(cert, SoficCertificate)
        assert cert.embedded and cert.group_degree == 6
        assert verify_sofic_certificate(cert)

    def test_requires_single_outside_word(self):
        p = parse_presentation("generators a\noutside a\noutside a a\n")
        with pytest.raises(ValueError):
            search_sofic_instance(p, Fraction(1, 2), [A4], budget=10)

    @pytest.mark.parametrize("eps", [0, Fraction(-1, 2)])
    def test_requires_positive_epsilon(self, eps):
        p = parse_presentation("generators a\noutside a\n")
        with pytest.raises(ValueError, match="epsilon must be positive"):
            search_sofic_instance(p, eps, [A4], budget=10)

    def test_exhausted_when_epsilon_unreachable(self):
        # killing a^2 in A_4 forces involutions of full support, whose
        # amplified length can never drop below a tiny epsilon
        p = parse_presentation(
            "generators a\nrelator a a\ninside a a\noutside a\n"
        )
        out = search_sofic_instance(p, Fraction(1, 1000), [Z3_as_alt()], budget=10**4)
        assert isinstance(out, Exhausted)


def Z3_as_alt():
    return FiniteGroup.alternating(3)


class TestAmplification:
    def test_quarter_needs_cube(self):
        assert amplification_exponent(Fraction(1, 4)) == 3
        assert 1 - (1 - Fraction(1, 4)) ** 3 == Fraction(37, 64)

    def test_half_or_more_is_identity_exponent(self):
        for L in (Fraction(1, 2), Fraction(2, 3), Fraction(1)):
            assert amplification_exponent(L) == 1

    def test_hand_built_quarter_certificate_verifies(self):
        cert = SoficCertificate(
            group_degree=12,
            images=(s("(1 2 3)", 12),),
            amplification=3,
            epsilon=Fraction(1, 2),
            outside_word=(1,),
            inside_words=(),
            raw_outside_length=Fraction(1, 4),
            amplified_outside_length=Fraction(37, 64),
            amplified_inside_lengths=(),
            stats=None,
            embedded=False,
        )
        assert verify_sofic_certificate(cert)

    def test_tampered_certificate_rejected(self):
        cert = SoficCertificate(
            group_degree=12,
            images=(s("(1 2 3)", 12),),
            amplification=2,
            epsilon=Fraction(1, 2),
            outside_word=(1,),
            inside_words=(),
            raw_outside_length=Fraction(1, 4),
            amplified_outside_length=Fraction(7, 16),
            amplified_inside_lengths=(),
            stats=None,
            embedded=False,
        )
        assert not verify_sofic_certificate(cert)


class TestMergeHomomorphisms:
    def test_degrees_four_and_six_merge_at_twenty_four(self):
        h1 = (4, (s("(1 2)(3 4)", 4),))
        h2 = (6, (s("(1 2 3)(4 5 6)", 6),))
        degree, images = merge_homomorphisms([h1, h2])
        assert degree == 24  # lcm 12, two blocks
        assert len(images[0]) == 24
        # block-weighted average of 1 and 1
        assert hamming_length(images[0]) == 1

    def test_merged_length_at_least_half_over_count(self):
        strong = (4, (s("(1 2)(3 4)", 4),))  # length 1
        weak = (6, (s("(1 2)(3 4)", 6),))  # length 2/3
        degree, images = merge_homomorphisms([strong, weak])
        count = 2
        assert hamming_length(images[0]) >= Fraction(1, 2 * count)

    def test_blocks_replicate_in_one_pass(self, monkeypatch):
        # one direct sum joins the two blocks; replicating y into 50 copies
        # by pairwise direct sums would make 49 more
        calls = []
        direct_sum = approximation.direct_sum

        def counted(a, b):
            calls.append(1)
            return direct_sum(a, b)

        monkeypatch.setattr(approximation, "direct_sum", counted)
        x, y = s("(1 2)", 50), s("()", 1)
        degree, images = merge_homomorphisms([(50, (x,)), (1, (y,))])
        assert (degree, images[0], len(calls)) == (100, s("(1 2)", 100), 1)

    def test_preserves_products(self):
        a, b = s("(1 2 3)", 3), s("(1 2)", 3)
        _, images = merge_homomorphisms([(3, (a, b)), (3, (b, a))])
        ma, mb = images
        _, images_prod = merge_homomorphisms([(3, (a * b, b * a))])
        # merging is generator-wise, so products merge to products
        assert ma * mb == merge_homomorphisms([(3, (a * b,)), (3, (b * a,))])[1][0]


class TestPresentations:
    def test_parse_round_trip(self):
        p = parse_presentation(
            "# comment\ngenerators a b\nrelator a a a\ninside a a a\noutside b\n"
        )
        assert p.generators == ("a", "b")
        assert p.relators == ((1, 1, 1),)
        assert p.outside == ((2,),)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_presentation("generators a\nrelator c\n")
        assert err.value.line == 2
        with pytest.raises(ParseError):
            parse_presentation("relator a\n")
        with pytest.raises(ParseError):
            parse_presentation("generators a\nfoo a\n")
