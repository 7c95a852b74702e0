import pytest
from conftest import quotient

from groupapprox import equations, perm
from groupapprox.equations import (
    EquationSystem,
    bridge_report,
    diagonal_embedding,
    Embedding,
    parse_equation_system,
    solvable_in,
    solvable_over_bounded,
    sys_membership,
)
from groupapprox.errors import ParseError
from groupapprox.groups import FiniteGroup, cyclic
from groupapprox.perm import identity, parse_cycles
from groupapprox.words import evaluate_word


def s(text, degree):
    return parse_cycles(text, degree)


SQUARE = parse_equation_system("constants 1; variables 1;\nx1 x1 a1^-1\n")
SINGLE_VAR = parse_equation_system("constants 0; variables 1;\nx1\n")
COMMUTE = parse_equation_system("constants 1; variables 1;\na1^-1 x1^-1 a1 x1\n")
CUBE = parse_equation_system("constants 1; variables 1;\nx1 x1 x1 a1^-1\n")

S3 = FiniteGroup.symmetric(3)
S4 = FiniteGroup.symmetric(4)
A4 = FiniteGroup.alternating(4)


def small_catalog():
    return [
        cyclic(2),
        cyclic(3),
        cyclic(4),
        cyclic(5),
        cyclic(6),
        FiniteGroup.generated(4, [s("(1 2)(3 4)", 4), s("(1 3)(2 4)", 4)], name="K4"),
        FiniteGroup.generated(4, [s("(1 2 3 4)", 4), s("(1 3)", 4)], name="D4"),
        S3,
        A4,
        S4,
    ]


class TestParsing:
    def test_header_and_words(self):
        sys_ = parse_equation_system("constants 2; variables 1;\na1 x1 a2^-1\n")
        assert sys_.constants == 2 and sys_.variables == 1
        assert sys_.words == ((1, 3, -2),)

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_equation_system("constants two; variables 1;\nx1\n")
        assert err.value.line == 1

    def test_unknown_symbol_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_equation_system("constants 1; variables 1;\nx2\n")
        assert err.value.line == 2

    def test_empty_system_rejected(self):
        with pytest.raises(ParseError):
            parse_equation_system("constants 1; variables 1;\n")

    def test_unreduced_words_rejected(self):
        with pytest.raises(ValueError):
            EquationSystem(constants=1, variables=1, words=((2, -2),))


class TestEvaluateWord:
    def test_empty_word_is_identity(self):
        assert evaluate_word((), (s("(1 2)", 3), s("(1 3)", 3)), 3) == identity(3)

    def test_commutator_of_equal_elements(self):
        g = s("(1 2 3)", 3)
        word = COMMUTE.words[0]
        assert evaluate_word(word, (g, g), 3) == identity(3)

    def test_square_root_example(self):
        word = SQUARE.words[0]
        x, a = s("(1 3 2)", 3), s("(1 2 3)", 3)
        assert evaluate_word(word, (a, x), 3) == identity(3)


class TestSolvableIn:
    def test_single_variable_solvable_everywhere(self):
        for G in small_catalog():
            assert solvable_in(G, SINGLE_VAR).verdict == "solvable"

    def test_squares_in_odd_order_groups(self):
        assert solvable_in(cyclic(3), SQUARE).verdict == "solvable"
        assert solvable_in(cyclic(5), SQUARE).verdict == "solvable"

    def test_squares_fail_in_s3_at_a_transposition(self):
        report = solvable_in(S3, SQUARE)
        assert report.verdict == "unsolvable"
        assert report.counterexample == (s("(1 2)", 3),)
        # counterexample re-verifies: no element of S_3 squares to it
        a = report.counterexample[0]
        assert all(x * x != a for x in S3.elements())

    def test_commuting_variable_exists_everywhere(self):
        for G in small_catalog():
            assert solvable_in(G, COMMUTE).verdict == "solvable"

    def test_budget_gives_unknown(self):
        report = solvable_in(S4, SQUARE, budget=10)
        assert report.verdict == "unknown"
        assert "budget" in report.reason

    def test_witnesses_satisfy_the_system(self):
        report = solvable_in(cyclic(5), SQUARE, want_witnesses=True)
        assert report.verdict == "solvable"
        assert len(report.witnesses) == 5
        for constants, variables in report.witnesses:
            assert evaluate_word(SQUARE.words[0], constants + variables, 5).is_identity()

    def test_witnessed_scan_on_s3(self):
        """A witnessed scan records one solution per constant, in canonical
        order, and none once a constant fails."""
        square = solvable_in(S3, SQUARE, want_witnesses=True)
        assert square.verdict == "unsolvable" and square.witnesses == ()
        assert square.counterexample == (s("(1 2)", 3),)
        commute = solvable_in(S3, COMMUTE, want_witnesses=True)
        assert [c for c, _ in commute.witnesses] == [(g,) for g in S3.elements()]
        for constants, variables in commute.witnesses:
            assert evaluate_word(COMMUTE.words[0], constants + variables, 3).is_identity()

    def test_conjugacy_reduction_keeps_verdicts(self):
        for G in (S3, A4):
            for sys_ in (SQUARE, COMMUTE, CUBE):
                raw = solvable_in(G, sys_)
                reduced = solvable_in(G, sys_, constants_up_to_conjugacy=True)
                assert raw.verdict == reduced.verdict
                assert raw.counterexample == reduced.counterexample

    def test_conjugacy_reduction_records_orbit_representatives(self):
        report = solvable_in(S3, SQUARE, constants_up_to_conjugacy=True)
        assert "orbit representatives" in report.reason
        # S_3 has 3 conjugacy classes, so 3 representative constants
        assert "3 orbit" in report.reason


class TestSysMembership:
    def test_single_variable_everywhere(self):
        table = sys_membership(small_catalog(), SINGLE_VAR)
        assert table.overall == "member"

    def test_square_fails_at_s3(self):
        table = sys_membership([cyclic(3), cyclic(5), S3], SQUARE)
        assert table.overall == "non-member"
        verdicts = dict((name, rep.verdict) for name, rep in table.entries)
        assert verdicts["S3"] == "unsolvable"
        assert verdicts["Z3"] == "solvable"

    def test_unknown_propagates(self):
        table = sys_membership([cyclic(3), S4], SQUARE, budget=10)
        assert table.overall == "unknown"


class TestClosureProperties:
    systems = [SINGLE_VAR, SQUARE, COMMUTE, CUBE]

    def test_product_closure(self):
        pairs = [(cyclic(3), cyclic(5)), (cyclic(2), S3), (cyclic(3), A4)]
        for G1, G2 in pairs:
            P = FiniteGroup.direct_product([G1, G2])
            for sys_ in self.systems:
                if (
                    solvable_in(G1, sys_).verdict == "solvable"
                    and solvable_in(G2, sys_).verdict == "solvable"
                ):
                    assert solvable_in(P, sys_).verdict == "solvable"

    def test_quotient_monotonicity(self):
        instances = []
        evens = [x for x in S3.elements() if x in FiniteGroup.alternating(3)]
        instances.append((S3, evens))
        Z6 = cyclic(6)
        c = Z6.generators[0]
        instances.append((Z6, [identity(6), c * c * c]))
        klein = FiniteGroup.generated(
            4, [s("(1 2)(3 4)", 4), s("(1 3)(2 4)", 4)]
        ).elements()
        instances.append((A4, list(klein)))
        instances.append((cyclic(5), [identity(5)]))
        for G, N in instances:
            Q, _ = quotient(G, N)
            for sys_ in self.systems:
                if solvable_in(G, sys_).verdict == "solvable":
                    assert solvable_in(Q, sys_).verdict == "solvable"


class TestSolvableOver:
    def test_trivial_system_over_itself(self):
        emb = diagonal_embedding(S3, 1)
        report = solvable_over_bounded(S3, SINGLE_VAR, [emb])
        assert report.verdict == "solvable"

    def test_diagonal_replicates_each_element_in_one_pass(self, monkeypatch):
        # a block copy by pairwise direct sums makes copies - 1 of them per element
        calls = []

        def counted(a, b):
            calls.append(1)
            return perm.direct_sum(a, b)

        monkeypatch.setattr(equations, "direct_sum", counted, raising=False)
        emb = diagonal_embedding(S3, 50)
        assert len(calls) == 0
        g = parse_cycles("(1 2 3)", 3)
        assert emb.mapping()[g] == parse_cycles(
            "".join(f"({3 * k + 1} {3 * k + 2} {3 * k + 3})" for k in range(50)), 150
        )

    def test_square_over_s3_via_diagonal(self):
        emb = diagonal_embedding(S3, 2)
        assert emb.target.degree == 6
        report = solvable_over_bounded(S3, SQUARE, [emb], want_witnesses=True)
        assert report.verdict == "solvable"
        assert len(report.witnesses) == 6
        for constants, variables in report.witnesses:
            x = variables[0]
            assert x * x == constants[0]

    def test_never_unsolvable(self):
        report = solvable_over_bounded(S3, SQUARE, [diagonal_embedding(S3, 1)])
        assert report.verdict == "unknown"

    def test_budget_skip_reported(self):
        report = solvable_over_bounded(S3, SQUARE, [diagonal_embedding(S3, 2)], budget=5)
        assert report.verdict == "unknown"
        assert "budget" in report.reason

    def test_invalid_embedding_rejected(self):
        els = S3.elements()
        broken = Embedding(
            source=S3,
            target=FiniteGroup.symmetric(6),
            pairs=tuple((g, identity(6)) for g in els),
        )
        with pytest.raises(ValueError):
            solvable_over_bounded(S3, SQUARE, [broken])


class TestBridgeReport:
    def test_solvable_catalog_system_over_test_groups(self):
        alts = [FiniteGroup.alternating(4), FiniteGroup.alternating(5)]
        rep = bridge_report(
            alts,
            SINGLE_VAR,
            [(S3, [diagonal_embedding(S3, 1)])],
        )
        assert rep.system_solvable_in_catalog
        assert rep.insufficiencies == ()

    def test_catalog_insufficiency_is_flagged_not_fatal(self):
        alts = [FiniteGroup.alternating(3)]
        # squares work in A_3; the lone diagonal copy of S_3 cannot witness
        rep = bridge_report(alts, SQUARE, [(S3, [diagonal_embedding(S3, 1)])])
        assert rep.system_solvable_in_catalog
        assert rep.insufficiencies == ("S3",)
