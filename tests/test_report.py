from fractions import Fraction

import pytest

from groupapprox.approximation import (
    Certificate,
    ConsequenceMode,
    MetricMode,
    check_consequence_instance,
    check_metric_instance,
    window_from_texts,
)
from groupapprox.errors import ParseError
from groupapprox.groups import FiniteGroup, cyclic
from groupapprox.lengths import cayley_conjugation_length, from_table, hamming
from groupapprox.perm import identity, parse_cycles
from groupapprox.report import (
    certificate_from_data,
    certificate_to_data,
    dump_report,
    format_rational,
    group_from_data,
    group_to_data,
    load_report,
    parse_rational,
    sofic_certificate_from_data,
    sofic_certificate_to_data,
)


def s(text, degree):
    return parse_cycles(text, degree)


class TestScalars:
    def test_rational_strings(self):
        assert format_rational(Fraction(3, 5)) == "3/5"
        assert format_rational(2) == "2/1"
        assert parse_rational("3/5") == Fraction(3, 5)
        assert parse_rational("7") == 7

    @pytest.mark.parametrize(
        "data",
        [
            {"i": 42, "neg": -7},
            {"q": Fraction(22, 7)},
            {"flag": True, "other": False, "nothing": None},
            {"text": "plain words", "cycle": "(1 2 3)(4 5)"},
            {"tricky": "3/5", "trickier": "true", "worst": "none", "blank": ""},
            {"nested": {"a": 1, "b": {"c": [1, 2, 3]}}},
            {"empty-list": [], "empty-map": {}},
            {"rows": [{"x": 1, "y": Fraction(1, 2)}, {"x": 2, "y": "s"}]},
        ],
    )
    def test_round_trip(self, data):
        assert load_report(dump_report(data)) == data

    def test_permutations_serialize_as_cycle_strings(self):
        text = dump_report({"witness": s("(1 2)(3 4)", 5), "list": [s("(1 2)", 3)]})
        loaded = load_report(text)
        assert loaded == {"witness": "(1 2)(3 4)", "list": ["(1 2)"]}

    @pytest.mark.parametrize("brk, escaped", [
        ("\n", "\\n"), ("\r", "\\r"), ("\x0b", "\\u000b"), ("\x0c", "\\u000c"), ("\x1c", "\\u001c"),
        ("\x1d", "\\u001d"), ("\x1e", "\\u001e"), ("\x85", "\\u0085"), ("\u2028", "\\u2028"),
        ("\u2029", "\\u2029"),
    ])
    def test_line_breaks_are_escaped_inside_quotes(self, brk, escaped):
        data = {"s": f"a{brk}b", "end": f"x{brk}", "list": [brk, f'"{brk}\\']}
        text = dump_report(data)
        assert f's: "a{escaped}b"\n' in text
        assert text.splitlines() == text.split("\n")[:-1]
        assert load_report(text) == data

    @pytest.mark.parametrize("body, value", [
        (r'"\\n"', "\\n"), (r'"\n"', "\n"), (r'"\\\n"', "\\\n"), (r'"\q"', "\\q"),
        (r'"\"\\"', '"\\'), (r'"\u0041"', "\\u0041"), (r'"\u2028"', "\u2028"), (r'"\u202"', "\\u202"),
    ])
    def test_quoted_escapes_read_left_to_right(self, body, value):
        assert load_report(f"groupapprox-report 1\ns: {body}\n") == {"s": value}

    @pytest.mark.parametrize("body", [r'"abc\"', r'"\"', r'"a\\\"', r'"\\\\\"'])
    def test_an_escaped_closing_quote_leaves_the_string_unterminated(self, body):
        for text, line in (
            (f"groupapprox-report 1\nok: 1\ns: {body}\n", 3),
            (f"groupapprox-report 1\ns:\n  - {body}\n", 3),
        ):
            with pytest.raises(ParseError, match="unterminated string") as exc:
                load_report(text)
            assert exc.value.line == line
            assert exc.value.bare_message == f"unterminated string {body!r}"

    @pytest.mark.parametrize("body, value", [(r'"abc\\"', "abc\\"), (r'"\\\\"', "\\\\")])
    def test_an_escaped_backslash_before_the_closing_quote_loads(self, body, value):
        assert load_report(f"groupapprox-report 1\ns: {body}\n") == {"s": value}

    def test_escape_lookalikes_keep_their_bytes(self):
        assert dump_report({"s": "\\n", "t": " \\u2028"}) == (
            'groupapprox-report 1\ns: \\n\nt: " \\\\u2028"\n'
        )
        assert load_report(dump_report({"t": " \\u2028"})) == {"t": " \\u2028"}

    def test_version_guard(self):
        with pytest.raises(ParseError):
            load_report("groupapprox-report 99\nkey: 1\n")
        with pytest.raises(ParseError):
            load_report("something else\n")


class TestGroupSerialization:
    @pytest.mark.parametrize(
        "G",
        [
            FiniteGroup.symmetric(4),
            FiniteGroup.alternating(5),
            cyclic(6),
            FiniteGroup.generated(
                4, [s("(1 2)(3 4)", 4), s("(1 3)(2 4)", 4)], name="K4"
            ),
            FiniteGroup.direct_product([cyclic(2), FiniteGroup.symmetric(3)]),
        ],
    )
    def test_round_trip_same_elements(self, G):
        data = load_report(dump_report(group_to_data(G)))
        H = group_from_data(data)
        assert H.element_set() == G.element_set()
        assert H.name == G.name


class TestCertificateRoundTrip:
    def _window_cert(self, mode):
        w = window_from_texts(["a"], ["1", "a", "a^2"])
        A4 = FiniteGroup.alternating(4)
        c = s("(1 2 3)", 4)
        return Certificate(window=w, target=A4, images=(identity(4), c, c * c), mode=mode)

    def test_consequence_certificate(self):
        cert = self._window_cert(ConsequenceMode(depth=3))
        text = dump_report(certificate_to_data(cert))
        loaded = certificate_from_data(load_report(text))
        assert check_consequence_instance(loaded).holds == check_consequence_instance(cert).holds
        assert loaded.images == cert.images
        assert loaded.window.words == cert.window.words

    def test_metric_certificate_hamming(self):
        A4 = FiniteGroup.alternating(4)
        mode = MetricMode(
            length=hamming(A4),
            alpha=(Fraction(0), Fraction(3, 4), Fraction(3, 4)),
            epsilon=Fraction(1, 8),
        )
        cert = self._window_cert(mode)
        loaded = certificate_from_data(load_report(dump_report(certificate_to_data(cert))))
        assert check_metric_instance(loaded).holds == check_metric_instance(cert).holds

    def test_metric_certificate_table(self):
        A4 = FiniteGroup.alternating(4)
        values = {x: Fraction(1) for x in A4.elements()}
        values[identity(4)] = Fraction(0)
        mode = MetricMode(
            length=from_table(A4, values),
            alpha=(Fraction(0), Fraction(1), Fraction(1)),
            epsilon=Fraction(1, 8),
        )
        cert = self._window_cert(mode)
        loaded = certificate_from_data(load_report(dump_report(certificate_to_data(cert))))
        assert check_metric_instance(loaded).holds == check_metric_instance(cert).holds

    def test_metric_certificate_cayley(self):
        A4 = FiniteGroup.alternating(4)
        mode = MetricMode(
            length=cayley_conjugation_length(A4, [s("(1 2 3)", 4)], 2),
            alpha=(Fraction(0), Fraction(1, 2), Fraction(1, 2)),
            epsilon=Fraction(1, 8),
        )
        cert = self._window_cert(mode)
        loaded = certificate_from_data(load_report(dump_report(certificate_to_data(cert))))
        assert check_metric_instance(loaded).holds == check_metric_instance(cert).holds


class TestSoficCertificateRoundTrip:
    def test_round_trip_and_reverify(self):
        from groupapprox.approximation import (
            parse_presentation,
            search_sofic_instance,
            verify_sofic_certificate,
        )

        p = parse_presentation("generators a\noutside a\n")
        cert = search_sofic_instance(p, Fraction(1, 4), [FiniteGroup.alternating(4)])
        data = load_report(dump_report(sofic_certificate_to_data(cert)))
        loaded = sofic_certificate_from_data(data)
        assert verify_sofic_certificate(loaded)
        assert loaded.images == cert.images
        assert loaded.amplification == cert.amplification
