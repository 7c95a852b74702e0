import argparse
import json
import pkgutil
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from groupapprox import cli, commands, groups, perm
from groupapprox.report import dump_report, load_report

ROOT = Path(__file__).resolve().parent.parent
MANIFESTS = ROOT / "manifests"


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "groupapprox", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestBasicCommands:
    def test_length_hamming(self):
        proc = run_cli("length", "--group", "A5", "--perm", "(1 2 3)")
        assert proc.returncode == 0
        data = load_report(proc.stdout)
        assert data["result"]["value"] == Fraction(3, 5)

    def test_length_cayley(self):
        proc = run_cli(
            "length",
            "--group",
            "A5",
            "--perm",
            "(1 2 3)",
            "--length-kind",
            "cayley",
            "--X",
            "(1 2 3)",
            "--n",
            "4",
        )
        assert proc.returncode == 0
        assert load_report(proc.stdout)["result"]["value"] == Fraction(1, 4)

    def test_separate_klein(self):
        proc = run_cli(
            "separate", "--group", "A4", "--X", "(1 2)(3 4)", "--Y", "(1 2 3)", "--n", "8"
        )
        assert proc.returncode == 0
        data = load_report(proc.stdout)
        assert data["result"]["verdict"] == "separated"
        assert data["result"]["witness"] is None

    def test_consequences_sizes(self):
        proc = run_cli("consequences", "--group", "S3", "--X", "(1 2)", "--n", "2")
        data = load_report(proc.stdout)
        # depth 1: the three transpositions; depth 2: identity and both
        # 3-cycles (products of two transpositions)
        assert data["result"]["layer-sizes"] == [3, 3]
        assert data["result"]["cumulative-size"] == 6

    def test_eq_solve_square_in_s3(self, tmp_path):
        system = tmp_path / "sq.eqn"
        system.write_text("constants 1; variables 1;\nx1 x1 a1^-1\n")
        proc = run_cli("eq-solve", "--group", "S3", "--system", str(system))
        assert proc.returncode == 0
        data = load_report(proc.stdout)
        assert data["result"]["verdict"] == "unsolvable"
        assert data["result"]["counterexample"] == ["(1 2)"]

    def test_axioms_check_hamming(self):
        proc = run_cli("axioms-check", "--group", "S4")
        assert proc.returncode == 0
        assert load_report(proc.stdout)["result"]["valid"] is True

    def test_axioms_check_reports_canonical_x(self, capsys):
        argv = ["axioms-check", "--group", "S3", "--length-kind", "cayley", "--n", "1"]
        assert cli.run([*argv, "--X", "(2 1)"]) == 0
        out = capsys.readouterr().out
        assert "  X:\n    - (1 2)\n" in out
        assert cli.run([*argv, "--X", "(1 2)"]) == 0
        assert capsys.readouterr().out == out

    def test_support_cover_reports_canonical_x(self, capsys):
        argv = ["support-cover", "--m", "5"]
        assert cli.run([*argv, "--x", "(3 1 2)"]) == 0
        out = capsys.readouterr().out
        assert "params:\n  m: 5\n  x: (1 2 3)\n" in out
        assert cli.run([*argv, "--x", "(1 2 3)"]) == 0
        assert capsys.readouterr().out == out
        assert cli.run([*argv, "--x", ""]) == 1  # not a sweep, as at --perm ""
        assert capsys.readouterr().err == 'error: empty permutation text; use "()" for the identity\n'

    def test_axioms_check_table_file(self, tmp_path):
        from groupapprox.groups import FiniteGroup
        from groupapprox.lengths import hamming
        from groupapprox.report import dump_report, length_table_to_data

        table_file = tmp_path / "table.report"
        table_file.write_text(
            dump_report(length_table_to_data(hamming(FiniteGroup.symmetric(3))))
        )
        proc = run_cli(
            "axioms-check",
            "--group",
            "S3",
            "--length-kind",
            "table",
            "--table",
            str(table_file),
        )
        assert proc.returncode == 0
        assert load_report(proc.stdout)["result"]["valid"] is True

    def test_eq_solve_reduce_constants_same_verdict(self, tmp_path):
        system = tmp_path / "sq.eqn"
        system.write_text("constants 1; variables 1;\nx1 x1 a1^-1\n")
        raw = run_cli("eq-solve", "--group", "S3", "--system", str(system))
        reduced = run_cli(
            "eq-solve", "--group", "S3", "--system", str(system), "--reduce-constants"
        )
        raw_data = load_report(raw.stdout)["result"]
        red_data = load_report(reduced.stdout)["result"]
        assert raw_data["verdict"] == red_data["verdict"] == "unsolvable"
        assert raw_data["counterexample"] == red_data["counterexample"]

    def test_covering_constant_csv(self, tmp_path):
        out = tmp_path / "cov.report"
        csv = tmp_path / "cov.csv"
        proc = run_cli(
            "covering-constant", "--m", "5", "--out", str(out), "--csv", str(csv)
        )
        assert proc.returncode == 0
        assert csv.read_text().startswith("m,x,y,depth,steps,ratio")
        assert load_report(out.read_text())["result"]["max-ratio"] is not None


SQ = str(MANIFESTS / "sq.eqn")
DEMO = str(MANIFESTS / "demo.catalog")
CERTIFICATE = object()  # stands for a sofic certificate file written by the test
REPORT_COMMANDS = {
    "length": (["--group", "A5", "--perm", "(1 2 3)"], 0),
    "consequences": (["--group", "S3", "--X", "(1 2)", "--n", "2"], 0),
    "separate": (["--group", "A4", "--X", "(1 2)(3 4)", "--Y", "(1 2 3)", "--n", "8"], 0),
    "brenner-verify": (["--m", "5", "--X", "(1 2 3)", "--n", "17"], 0),
    "support-cover": (["--m", "5"], 0),
    "covering-constant": (["--m", "5"], 0),
    "axioms-check": (["--group", "S4"], 0),
    "approx-check": (["--certificate", CERTIFICATE], 0),
    "approx-search": (["--presentation", str(MANIFESTS / "z3.pres"), "--n", "2", "--catalog", DEMO], 0),
    "sofic-search": (
        ["--presentation", str(MANIFESTS / "free1.pres"), "--eps", "1/4",
         "--catalog", str(MANIFESTS / "alt.catalog")],
        0,
    ),
    "eq-solve": (["--group", "A8", "--system", SQ], 2),
    "eq-sys": (["--catalog", DEMO, "--system", SQ], 0),
    "eq-over": (["--group", "S3", "--system", SQ, "--diagonal", "2"], 0),
}


@pytest.mark.parametrize("command", REPORT_COMMANDS)
def test_run_writes_the_same_report_to_out_and_stdout(command, tmp_path, capsys):
    from groupapprox.approximation import parse_presentation, search_sofic_instance
    from groupapprox.groups import FiniteGroup
    from groupapprox.report import sofic_certificate_to_data

    args, code = REPORT_COMMANDS[command]
    if CERTIFICATE in args:
        p = parse_presentation("generators a\noutside a\n")
        cert = search_sofic_instance(p, Fraction(1, 4), [FiniteGroup.alternating(4)])
        certificate = tmp_path / "sofic.report"
        certificate.write_text(dump_report(sofic_certificate_to_data(cert)))
        args = [str(certificate) if a is CERTIFICATE else a for a in args]
    argv = [command, *args]
    assert cli.run(argv) == code
    printed = capsys.readouterr()
    out = tmp_path / "r.report"
    assert cli.run([*argv, "--out", str(out)]) == code
    assert capsys.readouterr().out == printed.err == ""
    assert out.read_bytes() == printed.out.encode("utf-8")
    assert next(iter(load_report(printed.out).items())) == ("command", command)
    # an unwritable --out is an input error, whatever the command
    unwritable = tmp_path / "missing" / "r.report"
    assert cli.run([*argv, "--out", str(unwritable)]) == 1
    assert capsys.readouterr().err == (
        f"error: {unwritable}: cannot write {unwritable}: No such file or directory\n"
    )


def _report(tmp_path, argv):
    out = tmp_path / "same.report"
    assert cli.run([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


class TestFlagsThatChangeNoWork:
    """Every scan tests only the tuples least in their conjugation orbits,
    so ``--prune`` changes no report but its own param."""

    def test_prune_on_the_scan_catalogs(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        steps = workloads.build("scan", 1, str(tmp_path), str(ROOT))
        searches = [
            step.argv[:step.argv.index("--out")]
            for step in steps
            if step.argv[0] == "approx-search" and "--prune" not in step.argv
        ]
        assert len(searches) == 2
        for argv in searches:
            plain = _report(tmp_path, argv)
            assert "  prune: false\n" in plain and "status: exhausted" in plain
            pruned = _report(tmp_path, argv + ["--prune"])
            assert pruned == plain.replace("  prune: false\n", "  prune: true\n")

    def test_prune_on_a_found_map(self, tmp_path):
        pres = tmp_path / "found.pres"
        pres.write_text("generators a b\ninside a a\noutside a b\noutside b\n")
        catalog = tmp_path / "found.catalog"
        catalog.write_text("S3 symmetric 3\nD4 generated 4 (1 2 3 4), (1 3)\nA5 alternating 5\n")
        argv = ["approx-search", "--presentation", str(pres), "--n", "1",
                "--catalog", str(catalog)]
        plain = _report(tmp_path, argv)
        assert "status: found" in plain
        pruned = _report(tmp_path, argv + ["--prune"])
        assert pruned == plain.replace("  prune: false\n", "  prune: true\n")

class TestExitCodes:
    def test_bad_cycle_notation_is_input_error(self):
        proc = run_cli("length", "--group", "A5", "--perm", "(1 2")
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_unknown_group_is_input_error(self):
        proc = run_cli("length", "--group", "NOPE", "--perm", "()")
        assert proc.returncode == 1
        assert "unknown group" in proc.stderr

    def test_dsl_error_has_line_number(self, tmp_path):
        system = tmp_path / "bad.eqn"
        system.write_text("constants 1; variables 1;\nx9\n")
        proc = run_cli("eq-solve", "--group", "S3", "--system", str(system))
        assert proc.returncode == 1
        assert ":2:" in proc.stderr

    def test_eq_budget_is_exit_2(self, tmp_path):
        system = tmp_path / "sq.eqn"
        system.write_text("constants 1; variables 1;\nx1 x1 a1^-1\n")
        proc = run_cli(
            "eq-solve", "--group", "S4", "--system", str(system), "--budget", "10"
        )
        assert proc.returncode == 2
        assert load_report(proc.stdout)["result"]["verdict"] == "unknown"

    def test_search_budget_is_exit_2(self, tmp_path):
        pres = tmp_path / "p.pres"
        pres.write_text("generators a\ninside a\noutside a\n")
        cat = tmp_path / "c.catalog"
        cat.write_text("A4 alternating 4\n")
        proc = run_cli(
            "approx-search",
            "--presentation",
            str(pres),
            "--n",
            "1",
            "--catalog",
            str(cat),
            "--budget",
            "2",
        )
        assert proc.returncode == 2
        assert "budget exceeded" in proc.stderr

    def test_not_enough_arguments(self):
        proc = run_cli("length")
        assert proc.returncode == 1

    def test_eq_over_past_element_cap_is_exit_2(self):
        proc = run_cli(
            "eq-over", "--group", "S3", "--system", str(MANIFESTS / "sq.eqn"), "--diagonal", "4"
        )
        assert proc.returncode == 2
        assert proc.stderr == "cap exceeded: S12 has more than 1000000 elements\n"
        assert proc.stdout == ""

    def test_eq_over_cap_trips_before_enumerating(self, monkeypatch, capsys):
        # the factorial bound must refuse S12 before any of it is listed
        listed = groups.iter_permutations

        def small_only(points):
            assert len(points) == 3, "the S12 target was enumerated"
            return listed(points)

        monkeypatch.setattr(groups, "iter_permutations", small_only)
        code = cli.run(
            ["eq-over", "--group", "S3", "--system", str(MANIFESTS / "sq.eqn"), "--diagonal", "4"]
        )
        assert code == 2
        assert "S12 has more than 1000000 elements" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["eq-sys", "--system", str(MANIFESTS / "sq.eqn")],
        ["length", "--group", "P", "--perm", "()"],
    ], ids=["eq-sys", "length"])
    def test_product_past_the_cap_is_refused_before_listing(self, command, monkeypatch, tmp_path, capsys):
        # 6**11 elements; the catalog embeds P's 22 generators with two direct sums each
        catalog = tmp_path / "big.catalog"
        catalog.write_text("S3 symmetric 3\nP product" + " S3" * 11 + "\n")
        formed = []
        direct_sum = groups.direct_sum

        def counted(a, b):
            formed.append(1)
            assert len(formed) <= 100, "P was listed"
            return direct_sum(a, b)

        monkeypatch.setattr(groups, "direct_sum", counted)
        code = cli.run([*command, "--catalog", str(catalog)])
        assert (code, capsys.readouterr().err) == (2, "cap exceeded: P enumeration passed cap 1000000\n")

    def test_eq_over_budget_trips_before_enumerating(self, monkeypatch, tmp_path):
        # |S3| * |S9| = 2177280 is past the budget, known from 9! without listing S9
        listed = groups.iter_permutations

        def small_only(points):
            assert len(points) == 3, "the S9 target was enumerated"
            return listed(points)

        monkeypatch.setattr(groups, "iter_permutations", small_only)
        out = tmp_path / "over.report"
        code = cli.run(
            ["eq-over", "--group", "S3", "--system", str(MANIFESTS / "sq.eqn"),
             "--diagonal", "3", "--budget", "10", "--out", str(out)]
        )
        assert code == 2
        result = load_report(out.read_text())["result"]
        assert result["verdict"] == "unknown"
        assert result["reason"].endswith("skipped over budget: S9 (scan 2177280)")

    @pytest.mark.parametrize("witnesses", [False, True])
    def test_eq_over_lists_its_target_only_for_witnesses(self, witnesses, monkeypatch, tmp_path):
        # a witness-free scan streams S9; the first witness is defined by canonical order
        listed = []
        elements = groups.FiniteGroup.elements

        def record(G, *args):
            assert witnesses or G.degree != 9, "the S9 target was listed"
            listed.append(G.degree)
            return elements(G, *args)

        monkeypatch.setattr(groups.FiniteGroup, "elements", record)
        out = tmp_path / "over.report"
        argv = ["eq-over", "--group", "S3", "--system", str(MANIFESTS / "sq.eqn"),
                "--diagonal", "3", "--out", str(out)]
        code = cli.run(argv + ["--witnesses"] * witnesses)
        assert code == 0
        result = load_report(out.read_text())["result"]
        assert result["verdict"] == "unknown"
        assert result["reason"] == "no supplied overgroup witnessed solvability"
        assert (9 in listed) == witnesses


class TestDegreeCap:
    """A degree past the cap exits 2 before anything of that size is built;
    the cap is lowered to 8 so that no test allocates a large degree."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(perm, "DEFAULT_DEGREE_CAP", 8)

    @pytest.mark.parametrize("group", ["S9", "A9", "Z9"])
    def test_builtin_group(self, group, capsys):
        assert cli.run(["length", "--group", group, "--perm", "()"]) == 2
        assert capsys.readouterr().err == "cap exceeded: degree 9 exceeds cap 8\n"

    def test_brenner_degree(self, capsys):
        assert cli.run(["brenner-verify", "--m", "9", "--X", "(1 2 3)", "--n", "1"]) == 2
        assert "degree 9 exceeds cap 8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record", ["symmetric 9", "alternating 9", "generated 9 (1 2)", "generated 9"]
    )
    def test_catalog_record(self, record, tmp_path, capsys):
        catalog = tmp_path / "big.catalog"
        catalog.write_text(f"G {record}\n")
        code = cli.run(["length", "--group", "G", "--catalog", str(catalog), "--perm", "()"])
        assert code == 2
        assert "degree 9 exceeds cap 8" in capsys.readouterr().err

    def test_certificate_degree(self, tmp_path, capsys):
        cert = tmp_path / "cert.report"
        cert.write_text(dump_report({
            "kind": "sofic-certificate",
            "degree": 9,
            "images": ["(1 2 3)"],
            "amplification": 1,
            "epsilon": Fraction(1, 4),
            "outside-word": "g1",
            "inside-words": [],
            "raw-outside-length": Fraction(1, 3),
            "amplified-outside-length": Fraction(1, 3),
            "amplified-inside-lengths": [],
            "embedded": False,
        }))
        assert cli.run(["approx-check", "--certificate", str(cert)]) == 2
        assert "degree 9 exceeds cap 8" in capsys.readouterr().err

    def test_degree_at_the_cap_is_accepted(self, capsys):
        assert cli.run(["length", "--group", "S8", "--perm", "(1 8)"]) == 0
        assert load_report(capsys.readouterr().out)["result"]["value"] == Fraction(1, 4)


class TestCoveringConstantDegree:
    """covering-constant is refused by the size of its character table, not
    by the order of A_m."""

    def test_past_the_element_cap(self, capsys):
        assert cli.run(["covering-constant", "--m", "10"]) == 0
        result = load_report(capsys.readouterr().out)["result"]
        assert len(result["rows"]) == 23 * 23 and result["max-ratio"] == 2

    def test_table_past_the_cap_exits_2(self, capsys):
        assert cli.run(["covering-constant", "--m", "1000000"]) == 2
        assert capsys.readouterr().err == (
            "cap exceeded: the S1000000 character table passes cap 1000000 entries: "
            "counted 1001 partitions of 1000000\n"
        )

    @pytest.mark.parametrize("m", ["4", "1"])
    def test_small_degree_exits_1(self, m, capsys):
        assert cli.run(["covering-constant", "--m", m]) == 1
        assert capsys.readouterr().err == "error: coverage sweeps require degree >= 5\n"


def _value(kwargs, k=0):
    """A value the option of kwargs takes: its k-th choice, an integer, or text."""
    if "choices" in kwargs:
        return kwargs["choices"][k % len(kwargs["choices"])]
    return str(3 + k) if "type" in kwargs else f"({k + 1} 2)"


def _success_argvs():
    """Argument lists that argparse parses, per subcommand: the required
    options alone; every option set, each append option twice, store_true
    set; each choice; each plain int option at 0 and -1, each other typed
    option at 1; and the positional first or last."""
    for name, (_, options) in commands._COMMANDS.items():
        positional = [_value(kw) for flag, kw in options if not flag.startswith("-")]

        def required(skip=None):
            out = []
            for flag, kw in options:
                if flag != skip and flag.startswith("-") and kw.get("required"):
                    out += [flag, _value(kw)]
            return out

        every = []
        for flag, kw in options:
            action = kw.get("action", "store")
            if action == "store_true":
                every.append(flag)
            elif flag.startswith("-"):
                every += [flag, _value(kw)]
                if action == "append":
                    every += [flag, _value(kw, 1)]
        yield [name, *positional, *required()]
        yield [name, *every, *positional]
        for flag, kw in options:
            values = []
            if "choices" in kw:
                values = kw["choices"]
            elif "type" in kw:
                values = ["0", "-1"] if kw["type"] is int else ["1"]
            for value in values:
                yield [name, *required(skip=flag), flag, value, *positional]


SUCCESS = [
    *_success_argvs(),
    # argparse reads an empty string as a value
    ["length", "--group", "S4", "--perm", ""],
    ["manifest-replay", "", "--out-dir", ""],
]
STEPS = [
    shlex.split(line)
    for line in (MANIFESTS / "acceptance.manifest").read_text().splitlines()[1:]
    if not line.startswith("#")
]
# what the table parse must take itself: no value starting with "-"
WELL_FORMED = [argv for argv in SUCCESS + STEPS if "-1" not in argv]


class TestTableParse:
    """``commands.parse_args`` gives argparse's namespace for every argument
    list argparse accepts, and leaves to argparse every other one."""

    @pytest.mark.parametrize("argv", SUCCESS + STEPS, ids=" ".join)
    def test_same_namespace_as_argparse(self, argv):
        args = commands.parse_args(argv)
        assert args.command == argv[0]
        assert vars(args) == vars(commands._build_parser().parse_args(argv))

    def test_well_formed_argvs_are_parsed_from_the_table(self):
        assert len(STEPS) == 19 and len(WELL_FORMED) > len(STEPS) + 2 * len(commands._COMMANDS)
        for argv in WELL_FORMED:
            assert commands._table_parse(argv) is not None, argv

    def test_append_defaults_are_fresh_lists(self):
        argv = ["separate", "--group", "A4", "--Y", "(1 2 3)", "--n", "1"]
        commands.parse_args(argv).X.append("(1 2)")
        assert commands.parse_args(argv).X == []

    # handed to argparse, with a well-formed argv of the same namespace
    HANDED_OVER = {
        "flag=value": (["covering-constant", "--m=5"], ["covering-constant", "--m", "5"]),
        "abbreviations": (
            ["length", "--grou", "S4", "--per", "(1 2)", "--length-k", "cayley"],
            ["length", "--group", "S4", "--perm", "(1 2)", "--length-kind", "cayley"],
        ),
        "repeated --n": (
            ["consequences", "--group", "S3", "--n", "1", "--n", "2"],
            ["consequences", "--group", "S3", "--n", "2"],
        ),
        "-- before the positional": (
            ["manifest-replay", "--out-dir", "D", "--", "M"],
            ["manifest-replay", "M", "--out-dir", "D"],
        ),
        "negative --n": (["length", "--group", "S4", "--perm", "(1 2)", "--n", "-1"], None),
    }

    @pytest.mark.parametrize("case", sorted(HANDED_OVER))
    def test_other_forms_reach_argparse(self, case):
        argv, same = self.HANDED_OVER[case]
        assert commands._table_parse(argv) is None
        args = commands.parse_args(argv)
        assert vars(args) == vars(commands._build_parser().parse_args(argv))
        if same is not None:
            assert commands._table_parse(same) is not None
            assert vars(args) == vars(commands.parse_args(same))

    REFUSED = {
        "-h mixed in": ["covering-constant", "--m", "5", "-h", "--out", "x"],
        "--help after a value": ["eq-solve", "--group", "S3", "--system", "s", "--help"],
        "trailing --": ["length", "--group", "S4", "--perm", "(1 2)", "--"],
        "-- before options": ["length", "--group", "S4", "--", "--perm", "(1 2)"],
        "flag without value": ["covering-constant", "--m"],
        "value that is a flag": ["length", "--group", "--perm", "(1 2)"],
        "second positional": ["manifest-replay", "M", "N", "--out-dir", "D"],
        "store_true with value": ["approx-search", "--presentation", "p", "--n", "1",
                                  "--catalog", "c", "--prune", "yes"],
        "bad --jobs": ["manifest-replay", "M", "--out-dir", "D", "--jobs", "0"],
        "bad --n": ["consequences", "--group", "S3", "--n", "x"],
        "empty --n": ["consequences", "--group", "S3", "--n", ""],
        "bad choice": ["length", "--group", "S4", "--perm", "(1 2)", "--length-kind", "table"],
    }

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_help_and_errors_are_worded_by_argparse(self, case, capsys):
        argv = self.REFUSED[case]
        assert commands._table_parse(argv) is None
        code = cli.run(argv)
        by_run = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            commands._build_parser().parse_args(argv)
        assert (by_run.out, by_run.err) == capsys.readouterr()
        assert code == (1 if exc.value.code not in (0, None) else 0)
        assert by_run.out or by_run.err


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert commands._build_parser() is commands._build_parser()

    def test_append_options_do_not_leak_between_calls(self, tmp_path):
        cat = tmp_path / "c.catalog"
        cat.write_text("K4 generated 4 (1 2)(3 4), (1 3)(2 4)\n")
        first = ["separate", "--group", "A4", "--catalog", str(cat), "--X", "(1 2)(3 4)",
                 "--X", "(1 2 3)", "--Y", "(1 3 2)", "--Y", "(1 2 4)", "--n", "2"]
        second = ["separate", "--group", "K4", "--catalog", str(cat),
                  "--Y", "(1 2)(3 4)", "--n", "1"]

        def emit(argv, name):
            path = tmp_path / name
            assert cli.run([*argv, "--out", str(path)]) == 0
            return path.read_bytes()

        alone = []
        for k, argv in enumerate((first, second)):
            commands._build_parser.cache_clear()
            alone.append(emit(argv, f"alone{k}.report"))
        commands._build_parser.cache_clear()
        together = [emit(first, "together0.report"), emit(second, "together1.report")]
        assert together == alone
        assert b"(1 2 3)" not in together[1]


class TestOneCommandParser:
    """``cli.run`` prints and exits as the full parser does for help and
    for every malformed argument list."""

    @staticmethod
    def _cases():
        yield "top --help", ["--help"]
        yield "top no arguments", []
        yield "top unknown command", ["frobnicate", "--m", "5"]
        for name, (_, options) in commands._COMMANDS.items():
            required = []
            for flag, kwargs in options:
                value = "1" if "type" in kwargs else "M"
                if not flag.startswith("-"):
                    required.append(value)
                elif kwargs.get("required"):
                    required += [flag, value]
            yield f"{name} --help", [name, "--help"]
            yield f"{name} abbreviated --help", [name, "--he"]
            yield f"{name} missing required", [name]
            yield f"{name} unknown option", [name, *required, "--bogus", "x"]
            yield f"{name} unknown option alone", [name, "--bogus"]
            yield f"{name} extra positional", [name, *required, "stray"]
            for flag, kwargs in options:
                if "type" in kwargs:
                    yield f"{name} {flag} bad type", [name, flag, "x"]
                if "choices" in kwargs:
                    yield f"{name} {flag} bad choice", [name, flag, "nope"]

    CASES = dict(_cases())

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_output_as_the_full_parser(self, case, capsys):
        argv = self.CASES[case]
        code = cli.run(argv)
        by_run = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            commands._build_parser().parse_args(argv)
        by_full = capsys.readouterr()
        assert (by_run.out, by_run.err) == (by_full.out, by_full.err)
        assert code == (1 if exc.value.code not in (0, None) else 0)
        assert by_run.out or by_run.err

    def test_every_command_is_covered(self):
        assert {argv[0] for argv in self.CASES.values() if argv} >= set(commands._COMMANDS)
        assert len(commands._COMMANDS) == 14

    def test_one_parser_per_process_and_command(self, monkeypatch, capsys):
        """A well-formed argv builds no ArgumentParser; an error or help in
        a subcommand builds that subcommand's parser alone, and a top-level
        one the full parser, each once per process."""
        commands._build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert cli.run(["covering-constant", "--m", "5"]) == 0
        for argv in WELL_FORMED:
            commands.parse_args(argv)
        assert built == []
        assert cli.run(["covering-constant", "--m", "x"]) == 1
        one = ["groupapprox", "groupapprox covering-constant"]
        assert built == one
        assert cli.run(["covering-constant", "--help"]) == 0
        assert cli.run(["covering-constant", "--m", "5"]) == 0
        assert built == one
        assert cli.run(["--help"]) == 0
        assert cli.run(["frobnicate"]) == 1
        full = ["groupapprox", *(f"groupapprox {name}" for name in commands._COMMANDS)]
        assert built == one + full
        capsys.readouterr()

    def test_manifest_replay_has_no_out(self, tmp_path, capsys):
        manifest, out = MANIFESTS / "acceptance.manifest", tmp_path / "F"
        argv = ["manifest-replay", str(manifest), "--out-dir", str(tmp_path / "d")]
        assert cli.run([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"groupapprox: error: unrecognized arguments: --out {out}\n")
        assert not out.exists() and not (tmp_path / "d").exists()
        assert cli.run(["manifest-replay", "--help"]) == 0
        help_text = capsys.readouterr().out
        assert "--out-dir OUT_DIR" in help_text and "--out OUT" not in help_text


class TestCertificates:
    def test_sofic_search_then_recheck(self, tmp_path):
        pres = tmp_path / "free.pres"
        pres.write_text("generators a\noutside a\n")
        cat = tmp_path / "alt.catalog"
        cat.write_text("A4 alternating 4\n")
        out = tmp_path / "sofic.report"
        proc = run_cli(
            "sofic-search",
            "--presentation",
            str(pres),
            "--eps",
            "1/4",
            "--catalog",
            str(cat),
            "--out",
            str(out),
        )
        assert proc.returncode == 0
        report = load_report(out.read_text())
        assert report["result"]["status"] == "found"
        # extract the embedded certificate into its own file and re-verify
        from groupapprox.report import dump_report

        cert_file = tmp_path / "cert.report"
        cert_data = report["result"]["certificate"]
        cert_data.pop("assignments", None)
        cert_file.write_text(dump_report(cert_data))
        check = run_cli("approx-check", "--certificate", str(cert_file))
        assert check.returncode == 0
        assert load_report(check.stdout)["result"]["holds"] is True

    def test_sofic_certificate_missing_inside_lengths_fails(self, tmp_path, capsys):
        pres = tmp_path / "two.pres"
        pres.write_text("generators a b\noutside a\ninside b\n")
        cat = tmp_path / "alt.catalog"
        cat.write_text("A5 alternating 5\n")
        out = tmp_path / "sofic.report"
        assert cli.run([
            "sofic-search", "--presentation", str(pres), "--eps", "1/4",
            "--catalog", str(cat), "--out", str(out),
        ]) == 0
        cert_data = load_report(out.read_text())["result"]["certificate"]
        cert_data.pop("assignments")
        # g1 has length 3/5, past eps, but no stored length pairs with it
        cert_data["inside-words"] = ["g1"]
        cert_data["amplified-inside-lengths"] = []
        cert_file = tmp_path / "cert.report"
        cert_file.write_text(dump_report(cert_data))
        assert cli.run(["approx-check", "--certificate", str(cert_file)]) == 0
        assert load_report(capsys.readouterr().out)["result"]["holds"] is False

    def test_window_certificate_check(self, tmp_path):
        from groupapprox.approximation import Certificate, ConsequenceMode, window_from_texts
        from groupapprox.groups import FiniteGroup
        from groupapprox.perm import identity, parse_cycles
        from groupapprox.report import certificate_to_data, dump_report

        w = window_from_texts(["a"], ["1", "a", "a^2"])
        c = parse_cycles("(1 2 3)", 4)
        cert = Certificate(
            window=w,
            target=FiniteGroup.alternating(4),
            images=(identity(4), c, c * c),
            mode=ConsequenceMode(depth=3),
        )
        path = tmp_path / "cert.report"
        path.write_text(dump_report(certificate_to_data(cert, verdict=True)))
        proc = run_cli("approx-check", "--certificate", str(path))
        assert proc.returncode == 0
        result = load_report(proc.stdout)["result"]
        assert result["holds"] is True
        assert result["stored-verdict"] == "holds"
        assert result["matches-stored"] is True

    def test_tampered_stored_verdict_is_flagged(self, tmp_path):
        from groupapprox.approximation import Certificate, ConsequenceMode, window_from_texts
        from groupapprox.groups import FiniteGroup
        from groupapprox.perm import identity, parse_cycles
        from groupapprox.report import certificate_to_data, dump_report

        w = window_from_texts(["a"], ["1", "a"])
        cert = Certificate(
            window=w,
            target=FiniteGroup.alternating(4),
            images=(identity(4), parse_cycles("(1 2 3)", 4)),
            mode=ConsequenceMode(depth=2),
        )
        data = certificate_to_data(cert, verdict=False)  # wrong on purpose
        path = tmp_path / "cert.report"
        path.write_text(dump_report(data))
        proc = run_cli("approx-check", "--certificate", str(path))
        assert proc.returncode == 0
        result = load_report(proc.stdout)["result"]
        assert result["holds"] is True
        assert result["matches-stored"] is False


class TestRoundTrip:
    def test_separate_report_reverifies(self, tmp_path):
        out = tmp_path / "sep.report"
        run_cli(
            "separate",
            "--group",
            "A5",
            "--X",
            "(1 2 3)",
            "--Y",
            "(1 3 2)",
            "--n",
            "1",
            "--out",
            str(out),
        )
        data = load_report(out.read_text())
        # re-run the same query through the library and compare verdicts
        from groupapprox.catalog import resolve_group
        from groupapprox.groups import is_n_separated
        from groupapprox.perm import parse_cycles

        G = resolve_group(data["params"]["group"], [])
        X = [parse_cycles(t, G.degree) for t in data["params"]["X"]]
        Y = [parse_cycles(t, G.degree) for t in data["params"]["Y"]]
        rep = is_n_separated(G, Y, X, data["params"]["n"])
        assert rep.verdict == data["result"]["verdict"]

    @pytest.mark.parametrize("brk, escaped", [("\n", "\\n"), ("\r", "\\r"), ("\u2028", "\\u2028")])
    def test_a_system_path_with_a_line_break_loads(self, brk, escaped, tmp_path, capsys):
        """The report names the system file; a line break in its name is
        escaped, so the report still loads and round-trips."""
        system = tmp_path / f"a{brk}b.eqn"
        system.write_text((MANIFESTS / "sq.eqn").read_text())
        out = tmp_path / "r.report"
        assert cli.run(["eq-solve", "--group", "S3", "--system", str(system), "--out", str(out)]) == 0
        text = out.read_bytes().decode("utf-8")
        assert f'system: "a{escaped}b.eqn"\n' in text
        assert load_report(text)["params"]["system"] == system.name
        assert dump_report(load_report(text)) == text


class TestManifests:
    def test_version_mismatch_aborts(self, tmp_path):
        manifest = tmp_path / "m.manifest"
        manifest.write_text("groupapprox-manifest 99\n")
        proc = run_cli("manifest-replay", str(manifest), "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert "version mismatch" in proc.stderr

    def test_step_without_out_is_rejected(self, tmp_path):
        manifest = tmp_path / "m.manifest"
        manifest.write_text('groupapprox-manifest 1\nlength --group A5 --perm "(1 2 3)"\n')
        proc = run_cli("manifest-replay", str(manifest), "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 1

    def test_budget_step_propagates_exit_2(self, tmp_path):
        (tmp_path / "sq.eqn").write_text("constants 1; variables 1;\nx1 x1 a1^-1\n")
        manifest = tmp_path / "m.manifest"
        manifest.write_text(
            "groupapprox-manifest 1\n"
            "eq-solve --group S4 --system sq.eqn --budget 10 --out unknown.report\n"
        )
        out_dir = tmp_path / "o"
        proc = run_cli("manifest-replay", str(manifest), "--out-dir", str(out_dir))
        assert proc.returncode == 2
        assert (out_dir / "unknown.report").exists()

    def test_flag_equals_value_steps(self, tmp_path):
        """``--flag=path`` steps write what ``--flag path`` steps write, and
        a step's own ``--budget=N`` is kept as ``--budget N`` is."""
        (tmp_path / "sq.eqn").write_text("constants 1; variables 1;\nx1 x1 a1^-1\n")
        steps = [
            "covering-constant --m 5 --out{}covering.report --csv{}covering.csv",
            "eq-solve --group S3 --system{}sq.eqn --budget{}1000 --out{}eq.report",
        ]
        written = []
        for k, sep in enumerate(["=", " "]):
            manifest = tmp_path / f"m{k}.manifest"
            lines = [step.replace("{}", sep) for step in steps]
            manifest.write_text("\n".join(["groupapprox-manifest 1", *lines, ""]))
            out_dir = tmp_path / f"o{k}"
            assert cli.run(["manifest-replay", str(manifest), "--out-dir", str(out_dir)]) == 0
            written.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
        assert written[0] == written[1]
        assert sorted(written[0]) == ["covering.csv", "covering.report", "eq.report"]
        assert b"  budget: 1000\n" in written[0]["eq.report"]

    # (step, the same step with every flag spelled out)
    SHORT_STEPS = [
        (
            "eq-solve --group S3 --sys sq.eqn --out a.report",
            "eq-solve --group S3 --system sq.eqn --out a.report",
        ),
        (
            "covering-constant --m 5 --ou a.report --cs a.csv",
            "covering-constant --m 5 --out a.report --csv a.csv",
        ),
        (
            "eq-sys --catal demo.catalog --system sq.eqn --out a.report",
            "eq-sys --catalog demo.catalog --system sq.eqn --out a.report",
        ),
        (
            "approx-search --pres z3.pres --n 2 --catalog demo.catalog --out a.report",
            "approx-search --presentation z3.pres --n 2 --catalog demo.catalog --out a.report",
        ),
        (
            "eq-solve --group S3 --system=sq.eqn --ou=a.report",
            "eq-solve --group S3 --system sq.eqn --out a.report",
        ),
    ]

    @pytest.mark.parametrize("short, spelled", SHORT_STEPS, ids=[s for s, _ in SHORT_STEPS])
    def test_steps_replay_as_typed_alone(self, short, spelled, tmp_path, monkeypatch, capsys):
        """A step is parsed as the same command typed alone, so abbreviated
        flags and ``--flag=value`` find their files as the spelled-out step
        does, replayed from a directory other than the manifest's."""
        here = tmp_path / "manifests"
        here.mkdir()
        for name in ("sq.eqn", "demo.catalog", "z3.pres"):
            (here / name).write_text((MANIFESTS / name).read_text())
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        written = []
        for k, step in enumerate((short, spelled)):
            manifest = here / f"m{k}.manifest"
            manifest.write_text(f"groupapprox-manifest 1\n{step}\n")
            assert cli.run(["manifest-replay", str(manifest), "--out-dir", f"o{k}"]) == 0
            written.append({p.name: p.read_bytes() for p in (elsewhere / f"o{k}").iterdir()})
        assert capsys.readouterr() == ("", "")
        assert written[0] == written[1] and "a.report" in written[0]

    def test_a_step_is_parsed_before_its_out_is_checked(self, tmp_path, capsys):
        """A malformed step exits 1 with argparse's error and the step's
        line, whether or not it gives ``--out``; a well-formed step without
        ``--out`` is refused for that."""
        step_failed = "{m}:3: step failed with input error\n"
        bad_m = "groupapprox covering-constant: error: argument --m: invalid int value: 'x'\n"
        cases = [
            ("covering-constant --m x --out a.report", bad_m + step_failed),
            ("covering-constant --m x", bad_m + step_failed),
            ("covering-constant --m 5 --bogus", "groupapprox: error: unrecognized "
             "arguments: --bogus\n" + step_failed),
            ("covering-constant --m 5", "error: {m}:3: every manifest step needs --out\n"),
        ]
        manifest, out_dir = tmp_path / "m.manifest", tmp_path / "o"
        for step, err_tail in cases:
            manifest.write_text(f"groupapprox-manifest 1\n# comment\n{step}\n")
            assert cli.run(["manifest-replay", str(manifest), "--out-dir", str(out_dir)]) == 1
            assert capsys.readouterr().err.endswith(err_tail.format(m=manifest)), step
            assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "step", ["covering-constant --help --out a.report", "covering-constant -h", "--help"]
    )
    def test_a_help_step_stops_the_replay(self, step, tmp_path, capsys):
        """A help step writes no report, so the replay stops there with an
        input error and runs no later step."""
        manifest, out_dir = tmp_path / "m.manifest", tmp_path / "o"
        manifest.write_text(f"groupapprox-manifest 1\n{step}\ncovering-constant --m 5 --out b.report\n")
        assert cli.run(["manifest-replay", str(manifest), "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: groupapprox")
        assert captured.err == f"{manifest}:2: step failed with input error\n"
        assert list(out_dir.iterdir()) == []

    def test_empty_manifest_produces_no_reports(self, tmp_path):
        manifest = tmp_path / "m.manifest"
        manifest.write_text("groupapprox-manifest 1\n# nothing\n")
        out_dir = tmp_path / "o"
        proc = run_cli("manifest-replay", str(manifest), "--out-dir", str(out_dir))
        assert proc.returncode == 0
        assert list(out_dir.iterdir()) == []


class TestStartUp:
    def test_cli_import_loads_no_process_pool(self):
        code = (
            "import sys, groupapprox.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_well_formed_run_imports_no_locale(self):
        """argparse's first parse imports locale (through gettext); a
        well-formed command line builds no parser."""
        code = (
            "import sys\nfrom groupapprox import cli\n"
            "code = cli.run(['length', '--group', 'S4', '--perm', '(1 2)'])\n"
            "print(code, 'locale' in sys.modules, file=sys.stderr)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stderr == "0 False\n"
        assert load_report(proc.stdout)["result"]["value"] == Fraction(1, 2)

    def test_cli_import_loads_no_dataclasses(self):
        code = "import sys, groupapprox.cli\nprint('dataclasses' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_package_import_loads_no_submodule(self):
        code = "import sys, groupapprox\nprint(sorted(m for m in sys.modules if m.startswith('groupapprox.')))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("name", sorted(
        info.name for info in pkgutil.iter_modules([str(ROOT / "src" / "groupapprox")])
        if info.name != "__main__"
    ))
    def test_each_module_imports_first(self, name):
        """Each module imports in a fresh interpreter before any other, so no
        import cycle hides behind an order that some other import sets up."""
        proc = subprocess.run(
            [sys.executable, "-c", f"import groupapprox.{name}"], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


class TestScripts:
    def test_covering_sweep(self, tmp_path):
        csv = tmp_path / "ratios.csv"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "covering_sweep.py"),
             "--degrees", "5", "--csv", str(csv)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("A_5: 16 class pairs, max ratio ")
        assert csv.read_text().startswith("m,x,y,depth,steps,ratio\n5,")

    def test_covering_sweep_past_the_element_cap(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "covering_sweep.py"), "--degrees", "10"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("A_10: 529 class pairs, max ratio 2\n")

    def test_bench_pairs_toy(self, tmp_path):
        """One toy pair of the repository against itself: both sides run,
        every run is correct, and each metric gets its summary line and its
        record in the JSON file, beside the workloads already there.  A
        second run on another seed goes under ``repeats`` and keeps the
        first record."""
        record = tmp_path / "bench.json"
        record.write_text('{"workloads": {"scan": {"seed": 4}}}')

        def bench(seed):
            return subprocess.run(
                [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(ROOT), str(ROOT),
                 "--workload", "sweep", "--seed", str(seed), "--pairs", "1", "--seconds", "0.1",
                 "--toy", "--json", str(record)],
                capture_output=True,
                text=True,
                timeout=300,
            )

        proc = bench(1)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("pair 1, parent first: setup_s ")
        for name in ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"):
            summary = [line for line in lines if line.startswith(f"  {name}: parent ")]
            assert len(summary) == 1 and "change wins " in summary[0]
        assert "  change: 0 of 1 runs not correct or with failed steps" in lines
        workloads = json.loads(record.read_text())["workloads"]
        assert workloads["scan"] == {"seed": 4}
        sweep = workloads["sweep"]
        assert sweep["seed"] == 1 and sweep["pairs"] == 1 and sweep["toy"] is True
        assert set(sweep["host"]) == {"machine", "system", "cpus", "python"}
        assert sweep["runs-not-correct-or-failed"] == {"parent": 0, "change": 0}
        for name in ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"):
            metric = sweep["metrics"][name]
            assert {"unit", "better", "median-diff", "parent-iqr", "change-wins"} <= set(metric)
            for side in ("parent", "change"):
                assert set(metric[side]) == {"q1", "median", "q3", "runs"}
                assert len(metric[side]["runs"]) == 1
        assert "repeats" not in json.loads(record.read_text())

        assert bench(2).returncode == 0
        after = json.loads(record.read_text())
        assert after["workloads"] == workloads
        repeat = after["repeats"]["sweep"]
        assert repeat["seed"] == 2 and set(repeat["metrics"]) == set(sweep["metrics"])

    def test_bench_pairs_refuses_paths_of_unequal_length(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(ROOT), str(ROOT / "src"),
             "--workload", "scan", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "checkout paths differ in length" in proc.stderr
        assert proc.stdout == ""

    def test_sofic_demo(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "sofic_demo.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("order-two quotient instance:\n")
