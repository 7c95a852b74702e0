"""Malformed input exits 1 with a positioned message, never a traceback."""

import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupapprox import cli, commands
from groupapprox.approximation import (
    Certificate,
    MetricMode,
    parse_presentation,
    search_sofic_instance,
    window_from_texts,
)
from groupapprox.errors import ParseError
from groupapprox.groups import FiniteGroup
from groupapprox.lengths import hamming
from groupapprox.perm import identity, parse_cycles
from groupapprox.report import (
    certificate_from_data,
    certificate_to_data,
    dump_report,
    length_table_to_data,
    load_report,
    parse_rational,
    sofic_certificate_from_data,
    sofic_certificate_to_data,
)
from groupapprox.words import parse_word

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def _metric_certificate_text():
    A4 = FiniteGroup.alternating(4)
    c = parse_cycles("(1 2 3)", 4)
    mode = MetricMode(
        length=hamming(A4),
        alpha=(Fraction(0), Fraction(3, 4), Fraction(3, 4)),
        epsilon=Fraction(1, 8),
    )
    w = window_from_texts(["a"], ["1", "a", "a^2"])
    cert = Certificate(window=w, target=A4, images=(identity(4), c, c * c), mode=mode)
    return dump_report(certificate_to_data(cert, verdict=True))


def _sofic_certificate_data():
    p = parse_presentation("generators a\noutside a\n")
    cert = search_sofic_instance(p, Fraction(1, 4), [FiniteGroup.alternating(4)])
    return sofic_certificate_to_data(cert)


SOFIC_FIELDS = [key for key in _sofic_certificate_data() if key != "kind"]


def _separate_report_text():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.run(["separate", "--group", "A4", "--X", "(1 2)(3 4)", "--Y", "(1 2 3)", "--n", "8"])
    return out.getvalue()


SEPARATE_REPORT = _separate_report_text()


def _edits(text):
    """Up to six character edits, drawing the report's own characters plus
    ones its grammar gives meaning to."""
    grammar = set("[]{}:-/#,.'\"\t\r0123456789")
    chars = st.sampled_from(sorted(set(text) | grammar)) | st.characters()
    kinds = st.sampled_from(("substitute", "delete", "insert"))
    return st.lists(st.tuples(kinds, st.integers(0, 10**4), chars), min_size=1, max_size=6)


def _run(capsys, *argv):
    code = cli.run(list(argv))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("text", ["1/0", "-3/0", "a/2", "1/b", "1.5", "", "/"])
def test_parse_rational_rejects_with_parse_error(text):
    with pytest.raises(ParseError):
        parse_rational(text)


def test_report_rational_with_zero_denominator_is_positioned():
    text = "groupapprox-report 1\nresult:\n  epsilon: 1/0\n"
    with pytest.raises(ParseError) as info:
        load_report(text, source="r.report")
    assert info.value.line == 3 and info.value.source == "r.report"


def test_certificate_with_zero_denominator_exits_1(tmp_path, capsys):
    path = tmp_path / "bad_rational.report"
    path.write_text(_metric_certificate_text().replace("epsilon: 1/8", "epsilon: 1/0"))
    code, err = _run(capsys, "approx-check", "--certificate", str(path))
    assert code == 1
    assert f"{path}:" in err and "1/0" in err


def test_certificate_without_mode_exits_1(tmp_path, capsys):
    text = _metric_certificate_text()
    path = tmp_path / "bad_truncated.report"
    path.write_text(text[: text.index("mode:")])
    code, err = _run(capsys, "approx-check", "--certificate", str(path))
    assert code == 1
    assert str(path) in err and "'mode'" in err


@pytest.mark.parametrize("field", SOFIC_FIELDS)
def test_sofic_certificate_without_field_exits_1(field, tmp_path, capsys):
    data = _sofic_certificate_data()
    del data[field]
    path = tmp_path / "sofic.report"
    path.write_text(dump_report(data))
    code, err = _run(capsys, "approx-check", "--certificate", str(path))
    assert code == 1
    assert f"{path}: sofic certificate has no {field!r} field" in err


@pytest.mark.parametrize("field, value", [
    ("degree", "x"),
    ("images", 7),
    ("outside-word", 5),
])
def test_sofic_certificate_with_mistyped_field_exits_1(field, value, tmp_path, capsys):
    data = _sofic_certificate_data()
    data[field] = value
    path = tmp_path / "sofic.report"
    path.write_text(dump_report(data))
    code, err = _run(capsys, "approx-check", "--certificate", str(path))
    assert code == 1
    assert f"{path}: field {field!r} must be of type" in err


def _drop_values(data):
    del data["values"]


def _list_values(data):
    data["values"] = list(data["values"])


def _decimal_value(data):
    data["values"]["(1 2)"] = "0.5"


@pytest.mark.parametrize("edit, message", [
    (_drop_values, "length table has no 'values' field"),
    (_list_values, "field 'values' must be of type mapping of rationals"),
    (_decimal_value, "field 'values' must be of type mapping of rationals"),
])
def test_malformed_length_table_exits_1(edit, message, tmp_path, capsys):
    data = length_table_to_data(hamming(FiniteGroup.symmetric(3)))
    edit(data)
    path = tmp_path / "table.report"
    path.write_text(dump_report(data))
    code, err = _run(
        capsys, "axioms-check", "--group", "S3", "--length-kind", "table", "--table", str(path)
    )
    assert code == 1
    assert f"{path}: {message}" in err


def test_table_outside_the_group_exits_1(tmp_path, capsys):
    """An S4 table checked on A4 holds the 12 odd permutations of S4 too."""
    path = tmp_path / "s4.report"
    path.write_text(dump_report(length_table_to_data(hamming(FiniteGroup.symmetric(4)))))
    code, err = _run(
        capsys, "axioms-check", "--group", "A4", "--length-kind", "table", "--table", str(path)
    )
    assert code == 1
    assert err == "error: table has 12 elements outside A4, first (1 2)\n"


def test_mistyped_table_entry_is_named_alone(tmp_path, capsys):
    """The message names the one bad entry, not the whole mapping."""
    data = length_table_to_data(hamming(FiniteGroup.symmetric(5)))
    data["values"]["(1 2)"] = "x/y"
    path = tmp_path / "table.report"
    path.write_text(dump_report(data))
    code, err = _run(
        capsys, "axioms-check", "--group", "S5", "--length-kind", "table", "--table", str(path)
    )
    assert code == 1
    [line] = err.splitlines()
    assert len(line) < 200 and "Fraction(" not in line
    assert "field 'values' must be of type mapping of rationals" in line
    assert "(1 2)" in line and "x/y" in line


def test_dangling_caret_is_positioned():
    with pytest.raises(ParseError, match="bad exponent '' on 'a'") as info:
        parse_word("b a^ b", ["a", "b"], line=4)
    assert (info.value.line, info.value.column) == (4, 3)


def test_system_with_dangling_caret_exits_1(tmp_path, capsys):
    path = tmp_path / "caret.eqn"
    path.write_text("constants 1; variables 1;\nx1^ x1 a1^-1\n")
    code, err = _run(capsys, "eq-solve", "--group", "S3", "--system", str(path))
    assert code == 1
    assert f"{path}:2:1: bad exponent '' on 'x1'" in err


def test_presentation_with_dangling_caret_exits_1(tmp_path, capsys):
    path = tmp_path / "caret.pres"
    path.write_text("generators a b\noutside a^ b\n")
    code, err = _run(
        capsys, "sofic-search", "--presentation", str(path), "--eps", "1/4",
        "--catalog", str(MANIFESTS / "alt.catalog"),
    )
    assert code == 1
    assert f"{path}:2:" in err and "bad exponent '' on 'a'" in err


@pytest.mark.parametrize("budget", [[], ["--budget", "3"]], ids=["default budget", "budget 3"])
def test_sofic_catalog_with_a_generated_group_exits_1(budget, tmp_path, capsys):
    """Every group is checked before any is scanned: z3.pres is answered
    inside S3 at the default budget, and budget 3 runs out inside S3, and
    neither may hide the bad group behind it."""
    catalog = tmp_path / "mixed.catalog"
    catalog.write_text("S3 symmetric 3\nZ3 generated 3 (1 2 3)\n")
    code, err = _run(
        capsys, "sofic-search", "--presentation", str(MANIFESTS / "z3.pres"),
        "--eps", "1/4", "--catalog", str(catalog), *budget, "--out", str(tmp_path / "r"),
    )
    assert code == 1
    assert "symmetric or alternating groups, not generated: Z3" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("record, message", [
    ("S0 symmetric 0", "symmetric degree must be >= 1"),
    ("A0 alternating 0", "alternating degree must be >= 1"),
])
def test_catalog_degree_zero_exits_1_at_its_line(record, message, tmp_path, capsys):
    catalog = tmp_path / "zero.catalog"
    catalog.write_text(f"S3 symmetric 3\n{record}\n")
    code, err = _run(
        capsys, "eq-sys", "--catalog", str(catalog), "--system", str(MANIFESTS / "sq.eqn")
    )
    assert (code, err) == (1, f"error: {catalog}:2: {message}\n")


def test_missing_catalog_exits_1_like_a_missing_system(tmp_path, capsys):
    missing = tmp_path / "none.catalog"
    code, err = _run(
        capsys, "eq-sys", "--catalog", str(missing), "--system", str(MANIFESTS / "sq.eqn")
    )
    assert (code, err) == (1, f"error: {missing}: cannot read {missing}: No such file or directory\n")


def test_unreadable_catalog_in_the_catalog_dir_exits_1(monkeypatch, tmp_path, capsys):
    unreadable = tmp_path / "a.catalog"
    unreadable.mkdir()
    monkeypatch.setenv("GROUPAPPROX_CATALOG_DIR", str(tmp_path))
    code, err = _run(capsys, "length", "--group", "K4", "--perm", "()")
    assert (code, err) == (1, f"error: {unreadable}: cannot read {unreadable}: Is a directory\n")


def test_unwritable_csv_exits_1(tmp_path, capsys):
    # an unwritable --out is tested for every command in test_cli.py
    path = tmp_path / "missing" / "x.csv"
    code = cli.run(["covering-constant", "--m", "5", "--csv", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "", f"error: {path}: cannot write {path}: No such file or directory\n"
    )


def test_replay_into_an_uncreatable_directory_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = blocker / "out"
    manifest = MANIFESTS / "acceptance.manifest"
    code, err = _run(capsys, "manifest-replay", str(manifest), "--out-dir", str(out_dir))
    assert (code, err) == (1, f"error: {out_dir}: cannot create {out_dir}: Not a directory\n")


def test_certificate_target_of_degree_zero_exits_1_at_its_source(tmp_path, capsys):
    text = _metric_certificate_text()
    assert "  kind: alternating\n  degree: 4\n" in text
    path = tmp_path / "zero.report"
    path.write_text(text.replace("  degree: 4\n", "  degree: 0\n", 1))
    code, err = _run(capsys, "approx-check", "--certificate", str(path))
    assert (code, err) == (1, f"error: {path}: alternating degree must be >= 1\n")


def test_system_error_column_is_the_file_column(tmp_path, capsys):
    path = tmp_path / "caret.eqn"
    path.write_text("constants 1; variables 1;\n  x1^x x1 a1^-1\n")
    code, err = _run(capsys, "eq-solve", "--group", "S3", "--system", str(path))
    assert code == 1
    assert f"{path}:2:3: bad exponent 'x' on 'x1'" in err


def test_presentation_error_column_is_the_file_column(tmp_path, capsys):
    path = tmp_path / "caret.pres"
    path.write_text("generators a b\nrelator a b a^-1 b^-1\n  outside b  a^x\n")
    code, err = _run(
        capsys, "sofic-search", "--presentation", str(path), "--eps", "1/4",
        "--catalog", str(MANIFESTS / "alt.catalog"),
    )
    assert code == 1
    assert f"{path}:3:14: bad exponent 'x' on 'a'" in err


def _tabbed_like_spaced(capsys, tmp_path, name, tabbed, *command):
    """Run a command on a file whose tokens a tab separates and on the same
    file with spaces; both must exit 0 with the same report."""
    outputs = []
    for kind, text in (("spaced", tabbed.replace("\t", " ")), ("tabbed", tabbed)):
        path = tmp_path / kind / name
        path.parent.mkdir()
        path.write_text(text)
        code = cli.run([arg.replace("FILE", str(path)) for arg in command])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), (kind, captured.err)
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


def test_tab_separates_words_of_a_system(tmp_path, capsys):
    _tabbed_like_spaced(
        capsys, tmp_path, "sq.eqn", "constants 1; variables 1;\nx1\tx1 a1^-1\n",
        "eq-solve", "--group", "S3", "--system", "FILE",
    )


def test_tab_separates_words_of_a_presentation(tmp_path, capsys):
    _tabbed_like_spaced(
        capsys, tmp_path, "ab.pres", "generators a b\ninside a\tb\noutside a\n",
        "sofic-search", "--presentation", "FILE", "--eps", "1/4",
        "--catalog", str(MANIFESTS / "alt.catalog"),
    )


def test_tab_ends_a_presentation_keyword(tmp_path, capsys):
    _tabbed_like_spaced(
        capsys, tmp_path, "ab.pres", "generators\ta b\ninside a b\noutside a\n",
        "sofic-search", "--presentation", "FILE", "--eps", "1/4",
        "--catalog", str(MANIFESTS / "alt.catalog"),
    )


def test_report_with_non_integer_version_exits_1(tmp_path, capsys):
    path = tmp_path / "bad_version.report"
    text = _metric_certificate_text().replace("groupapprox-report 1", "groupapprox-report x")
    path.write_text(text)
    code, err = _run(capsys, "approx-check", "--certificate", str(path))
    assert code == 1
    assert f"{path}:1: bad report version" in err


def test_sofic_search_eps_with_zero_denominator_exits_1(capsys):
    code, err = _run(
        capsys,
        "sofic-search",
        "--presentation", str(MANIFESTS / "free1.pres"),
        "--eps", "7/0",
        "--catalog", str(MANIFESTS / "alt.catalog"),
    )
    assert code == 1
    assert "--eps" in err and "7/0" in err


@pytest.mark.parametrize("eps", ["0", "0/5", "1/-2", "-0"])
def test_sofic_search_eps_not_positive_exits_1(eps, tmp_path, capsys):
    """No inside word is shorter than a threshold at or below 0."""
    code, err = _run(
        capsys,
        "sofic-search",
        "--presentation", str(MANIFESTS / "free1.pres"),
        "--eps", eps,
        "--catalog", str(MANIFESTS / "alt.catalog"),
        "--out", str(tmp_path / "r"),
    )
    assert (code, err) == (1, "error: epsilon must be positive\n")
    assert not (tmp_path / "r").exists()


def test_sofic_search_eps_read_as_an_option_exits_1(capsys):
    code, err = _run(
        capsys,
        "sofic-search",
        "--presentation", str(MANIFESTS / "free1.pres"),
        "--eps", "-1/2",
        "--catalog", str(MANIFESTS / "alt.catalog"),
    )
    assert code == 1
    assert err.endswith("error: argument --eps: expected one argument\n")


def test_manifest_with_non_integer_version_exits_1(tmp_path, capsys):
    manifest = tmp_path / "m.manifest"
    manifest.write_text("groupapprox-manifest x\n")
    code, err = _run(capsys, "manifest-replay", str(manifest), "--out-dir", str(tmp_path / "o"))
    assert code == 1
    assert f"{manifest}:1: bad manifest version" in err


LIMITED = {
    "--budget": [
        ["eq-solve", "--group", "S3", "--system", str(MANIFESTS / "sq.eqn")],
        ["eq-sys", "--catalog", str(MANIFESTS / "alt.catalog"), "--system", str(MANIFESTS / "sq.eqn")],
        ["eq-over", "--group", "S3", "--system", str(MANIFESTS / "sq.eqn"), "--diagonal", "2"],
        ["approx-search", "--presentation", str(MANIFESTS / "z3.pres"), "--n", "1",
         "--catalog", str(MANIFESTS / "alt.catalog")],
        ["sofic-search", "--presentation", str(MANIFESTS / "z3.pres"), "--eps", "1/4",
         "--catalog", str(MANIFESTS / "alt.catalog")],
    ],
    "--cap": [
        ["consequences", "--group", "S3", "--X", "(1 2)", "--n", "1"],
        ["separate", "--group", "S3", "--X", "(1 2)", "--Y", "(1 2 3)", "--n", "1"],
        ["axioms-check", "--group", "S3"],
    ],
}


@pytest.mark.parametrize("flag, command", [(f, c) for f, cs in LIMITED.items() for c in cs])
@pytest.mark.parametrize("value", ["-1", "-3"])
def test_negative_budget_or_cap_exits_1(flag, command, value, tmp_path, capsys):
    code, err = _run(capsys, *command, flag, value, "--out", str(tmp_path / "r"))
    assert code == 1
    assert f"argument {flag}: must be at least 0, got {value}" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flag, command", [(f, cs[0]) for f, cs in LIMITED.items()])
def test_zero_budget_or_cap_is_a_limit(flag, command, tmp_path, capsys):
    code, err = _run(capsys, *command, flag, "0", "--out", str(tmp_path / "r"))
    assert code == 2
    assert "must be at least" not in err


EVERY_COMMAND = [
    ["length", "--group", "S3", "--perm", "(1 2)"],
    ["brenner-verify", "--m", "5", "--X", "(1 2 3)", "--n", "1"],
    ["support-cover", "--m", "5"],
    ["covering-constant", "--m", "5"],
    ["approx-check", "--certificate", str(MANIFESTS / "missing.cert")],
    *(c for cs in LIMITED.values() for c in cs),
    ["manifest-replay", str(MANIFESTS / "acceptance.manifest")],
]


def _refused(capsys, tmp_path, command, *flag):
    out = "--out-dir" if command[0] == "manifest-replay" else "--out"
    code, err = _run(capsys, *command, *flag, out, str(tmp_path / "r"))
    assert code == 1
    assert re.search(r"\b_[a-z]\w*", err) is None, err
    assert not (tmp_path / "r").exists()
    return err


@pytest.mark.parametrize("flag, command", [
    *((f, c) for f, cs in LIMITED.items() for c in cs),
    *(("--jobs", c) for c in (LIMITED["--budget"][0], EVERY_COMMAND[-1])),
])
@pytest.mark.parametrize("value", ["x", "two", "1.5", ""])
def test_non_integer_budget_cap_or_jobs_exits_1(flag, command, value, tmp_path, capsys):
    err = _refused(capsys, tmp_path, command, flag, value)
    if flag == "--jobs":  # no command has it: every command runs in one process
        assert f"unrecognized arguments: --jobs {value}" in err
    else:
        assert f"argument {flag}: expected an integer, got {value!r}" in err


def test_every_command_is_listed():
    assert sorted({c[0] for c in EVERY_COMMAND}) == sorted(commands._COMMANDS)


@pytest.mark.parametrize("command", EVERY_COMMAND)
@pytest.mark.parametrize("jobs", ["0", "-2", "two", "2"])
def test_jobs_below_one_exits_1(command, jobs, tmp_path, capsys):
    """Every command runs in one process and refuses ``--jobs``, whatever its value."""
    err = _refused(capsys, tmp_path, command, "--jobs", jobs)
    assert f"unrecognized arguments: --jobs {jobs}" in err


def _mutate(text, edits):
    chars = list(text)
    for kind, pos, ch in edits:
        pos %= len(chars) + 1
        if kind == "insert":
            chars.insert(pos, ch)
        elif pos < len(chars):
            if kind == "delete":
                del chars[pos]
            else:
                chars[pos] = ch
    return "".join(chars)


@settings(max_examples=400, deadline=None)
@given(_edits(SEPARATE_REPORT))
def test_mutated_separate_report_loads_or_raises_parse_error(edits):
    try:
        load_report(_mutate(SEPARATE_REPORT, edits))
    except ParseError:
        pass


@pytest.mark.parametrize("text, decode", [
    (_metric_certificate_text(), certificate_from_data),
    (dump_report(_sofic_certificate_data()), sofic_certificate_from_data),
], ids=["certificate", "sofic-certificate"])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_certificate_decodes_or_raises_parse_error(text, decode, data):
    try:
        decode(load_report(_mutate(text, data.draw(_edits(text)))))
    except (ParseError, ValueError):
        pass
