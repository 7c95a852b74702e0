"""The report codec against the one it replaced.

The oracle below is the codec as it was before the single-pass rewrite:
an isinstance chain per value, ``cycle_string`` from ``Permutation.cycles``
for every Permutation it meets, ``Fraction(value)`` in ``format_rational``,
``int()`` tried on every scalar it loads and every line stripped several
times.  The library must write the same bytes and load the same values
(equal ``repr``, so ``True`` and ``1``, ``Fraction(2, 1)`` and ``2`` stay
apart) on every report of the benchmark workloads and the acceptance
replay, on random trees, and must refuse malformed texts with the same
message at the same line.  The one intended difference: the oracle breaks
a string that holds a line break over two lines, which it then cannot
load; the library escapes the break inside quotes.
"""

from __future__ import annotations

import contextlib
import io
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupapprox import cli, report
from groupapprox.errors import ParseError
from groupapprox.perm import Permutation, cycle_string
from groupapprox.report import dump_report, load_report

ROOT = Path(__file__).resolve().parent.parent
BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


# --- the oracle ---------------------------------------------------------------


def oracle_cycle_string(h):
    cycs = h.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)


def oracle_format_rational(value):
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _scalar_str(value):
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return oracle_format_rational(value)
    if isinstance(value, Permutation):
        return oracle_cycle_string(value)
    if isinstance(value, str):
        if value in ("none", "true", "false", "[]", "{}") or _looks_typed(value) or (
            value != value.strip() or "\n" in value or value == ""
        ):
            return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
        return value
    raise TypeError(f"cannot serialize {value!r} in a report")


def _looks_typed(text):
    t = text.strip()
    if not t:
        return False
    try:
        int(t)
        return True
    except ValueError:
        pass
    if "/" in t:
        num, _, den = t.partition("/")
        try:
            int(num), int(den)
            return True
        except ValueError:
            pass
    return t.startswith('"')


def _parse_scalar(text, line, source):
    t = text.strip()
    if t.startswith('"'):
        if not t.endswith('"') or len(t) < 2:
            raise ParseError(f"unterminated string {t!r}", line=line, source=source)
        body = t[1:-1]
        return body.replace('\\"', '"').replace("\\\\", "\\")
    if t == "none":
        return None
    if t == "true":
        return True
    if t == "false":
        return False
    if t == "[]":
        return []
    if t == "{}":
        return {}
    try:
        return int(t)
    except ValueError:
        pass
    if "/" in t and _looks_typed(t):
        return report.parse_rational(t, line=line, source=source)
    return t


def _dump_into(lines, data, indent):
    pad = "  " * indent
    for key, value in data.items():
        if isinstance(value, Permutation):
            lines.append(f"{pad}{key}: {_scalar_str(value)}")
        elif isinstance(value, dict):
            if value:
                lines.append(f"{pad}{key}:")
                _dump_into(lines, value, indent + 1)
            else:
                lines.append(f"{pad}{key}: {{}}")
        elif isinstance(value, (list, tuple)):
            if value:
                lines.append(f"{pad}{key}:")
                for item in value:
                    if isinstance(item, dict):
                        lines.append(f"{pad}  -")
                        _dump_into(lines, item, indent + 2)
                    else:
                        lines.append(f"{pad}  - {_scalar_str(item)}")
            else:
                lines.append(f"{pad}{key}: []")
        else:
            lines.append(f"{pad}{key}: {_scalar_str(value)}")


def oracle_dump(data):
    lines = ["groupapprox-report 1"]
    _dump_into(lines, data, 0)
    return "\n".join(lines) + "\n"


def oracle_load(text, source=None):
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty report", line=1, source=source)
    head = lines[0].split()
    if len(head) != 2 or head[0] != "groupapprox-report":
        raise ParseError("not a report file", line=1, source=source)
    try:
        version = int(head[1])
    except ValueError:
        raise ParseError("bad report version", line=1, source=source) from None
    if version != 1:
        raise ParseError(f"report format version {head[1]} unsupported", line=1, source=source)
    items = []
    for ln, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        if indent % 2:
            raise ParseError("odd indentation", line=ln, source=source)
        items.append((indent // 2, raw.strip(), ln))
    data, rest = _parse_block(items, 0, 0, source)
    if rest != len(items):
        raise ParseError("trailing content", line=items[rest][2], source=source)
    return data


def _parse_block(items, pos, level, source):
    out = {}
    while pos < len(items):
        depth, content, ln = items[pos]
        if depth < level:
            break
        if depth > level:
            raise ParseError("unexpected indentation", line=ln, source=source)
        if content.startswith("- ") or content == "-":
            raise ParseError("list item outside a list", line=ln, source=source)
        key, sep, rest = content.partition(":")
        if not sep:
            raise ParseError(f"expected 'key:' in {content!r}", line=ln, source=source)
        key = key.strip()
        rest = rest.strip()
        if rest:
            out[key] = _parse_scalar(rest, ln, source)
            pos += 1
            continue
        pos += 1
        if pos < len(items) and items[pos][0] == level + 1 and (
            items[pos][1] == "-" or items[pos][1].startswith("- ")
        ):
            value, pos = _parse_list(items, pos, level + 1, source)
        else:
            value, pos = _parse_block(items, pos, level + 1, source)
        out[key] = value
    return out, pos


def _parse_list(items, pos, level, source):
    out = []
    while pos < len(items):
        depth, content, ln = items[pos]
        if depth < level:
            break
        if depth > level:
            raise ParseError("unexpected indentation", line=ln, source=source)
        if content == "-":
            sub, pos = _parse_block(items, pos + 1, level + 1, source)
            out.append(sub)
        elif content.startswith("- "):
            out.append(_parse_scalar(content[2:], ln, source))
            pos += 1
        else:
            break
    return out, pos


# --- comparison ---------------------------------------------------------------


def outcome(load, text):
    """What a load gives: ("value", repr) or ("error", message, line)."""
    try:
        return "value", repr(load(text))
    except ParseError as exc:
        return "error", exc.bare_message, exc.line


def plain(value):
    """The value a report loads back for ``value``: permutations as their
    cycle notation, tuples as lists."""
    if isinstance(value, Permutation):
        return oracle_cycle_string(value)
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


@pytest.fixture
def compared(monkeypatch):
    """Every report ``cli`` dumps or loads, also through the oracle: the
    dumps must be the same bytes and the loads the same outcome.  Yields
    the list of dumped texts."""
    dumped = []

    def dump(data):
        text = dump_report(data)
        assert text == oracle_dump(data)
        dumped.append(text)
        return text

    def load(text, source=None):
        assert outcome(load_report, text) == outcome(oracle_load, text)
        return load_report(text, source=source)

    monkeypatch.setattr(cli, "dump_report", dump)
    monkeypatch.setattr(cli, "load_report", load)
    yield dumped


def _run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)


def _check_texts(texts):
    for text in texts:
        assert outcome(load_report, text) == outcome(oracle_load, text)
        loaded = load_report(text)
        assert dump_report(loaded) == text == oracle_dump(oracle_load(text))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["replay", "sweep", "scan"])
def test_benchmark_workload_reports(workload, seed, tmp_path, compared, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    steps = workloads.build(workload, seed, str(tmp_path), str(ROOT))
    for step in steps:
        _run_quietly(step.argv)
    written = [Path(step.outputs["out"]) for step in steps]
    texts = [path.read_text(encoding="utf-8") for path in written if path.exists()]
    assert len(texts) >= len([s for s in steps if not s.malformed and s.expect_exit == 0])
    assert len(compared) >= len(texts)
    _check_texts(compared)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_acceptance_replay_reports(jobs, tmp_path, compared):
    out = tmp_path / "out"
    argv = ["manifest-replay", str(ROOT / "manifests" / "acceptance.manifest"),
            "--out-dir", str(out), "--jobs", jobs]
    assert _run_quietly(argv) == 0
    texts = [path.read_text(encoding="utf-8") for path in sorted(out.glob("*.report"))]
    assert len(texts) == 19 and len(compared) == 19
    _check_texts(texts)


# --- random trees ---------------------------------------------------------------

KEYS = st.text("abcxyz-_0123456789", min_size=1, max_size=6).filter(lambda k: k[0] != "-")
STRINGS = st.one_of(
    st.text(st.sampled_from('" \\/:-+_٣\t0123456789nrux' + BREAKS), max_size=8),
    st.sampled_from(["none", "true", "false", "[]", "{}", "1/0", "-3/4", "\\n", "\\u2028",
                     "(1 2)(3 4)", "a b", "1_000", '"quoted"', "\\", "\\\\\"", "x\\"]),
)
PERMS = st.integers(0, 7).flatmap(lambda m: st.permutations(range(m))).map(Permutation)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.fractions(max_denominator=50), PERMS, STRINGS,
)


def _nested(children):
    maps = st.dictionaries(KEYS, children, max_size=4)
    return maps | st.lists(SCALARS | maps, max_size=4) | st.tuples(SCALARS, SCALARS)


TREES = st.dictionaries(KEYS, st.recursive(SCALARS, _nested, max_leaves=16), max_size=5)


def _has_break(value):
    if isinstance(value, str):
        return any(c in value for c in BREAKS)
    if isinstance(value, dict):
        return any(map(_has_break, value.values()))
    if isinstance(value, (list, tuple)):
        return any(map(_has_break, value))
    return False


@settings(derandomize=True, max_examples=400, deadline=None)
@given(TREES)
def test_random_trees_round_trip_and_match_the_oracle(tree):
    text = dump_report(tree)
    assert text.splitlines() == text.split("\n")[:-1]  # no line break but the line ends
    assert repr(load_report(text)) == repr(plain(tree))
    assert dump_report(load_report(text)) == text
    if not _has_break(tree):
        assert text == oracle_dump(tree)
        assert repr(oracle_load(text)) == repr(load_report(text))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TREES.filter(lambda t: t and not _has_break(t)), st.data())
def test_damaged_texts_fail_alike(tree, data):
    """A line of a dump deleted, repeated, re-indented or given a bad value:
    the two codecs load the same value or refuse at the same line."""
    lines = dump_report(tree).splitlines()
    k = data.draw(st.integers(1, len(lines) - 1))
    line = lines[k]
    damage = data.draw(st.sampled_from(["delete", "repeat", "indent", "dedent", "odd", "dash", "zero"]))
    if damage == "delete":
        lines[k:k + 1] = []
    elif damage == "repeat":
        lines[k:k] = [line]
    elif damage == "indent":
        lines[k] = "  " + line
    elif damage == "dedent":
        lines[k] = line[2:] if line.startswith("  ") else line
    elif damage == "odd":
        lines[k] = " " + line
    elif damage == "dash":
        lines[k:k] = [line[: len(line) - len(line.lstrip())] + "-"]
    else:
        lines[k] = line.partition(":")[0] + ": 1/0"
    text = "\n".join(lines) + "\n"
    assert outcome(load_report, text) == outcome(oracle_load, text)


MALFORMED = {
    "empty": "",
    "blank lines only": "\n\n",
    "no header": "command: x\n",
    "bad version": "groupapprox-report one\n",
    "unsupported version": "groupapprox-report 2\n",
    "header with extra word": "groupapprox-report 1 x\n",
    "odd indent": "groupapprox-report 1\na:\n   b: 1\n",
    "odd indent at top": "groupapprox-report 1\n a: 1\n",
    "unexpected indentation": "groupapprox-report 1\na: 1\n  b: 2\n",
    "stray dash": "groupapprox-report 1\n-\n",
    "stray dash item": "groupapprox-report 1\n- 1\n",
    "dash after a key": "groupapprox-report 1\na:\n  b: 1\n  - 2\n",
    "no colon": "groupapprox-report 1\njust words\n",
    "zero denominator": "groupapprox-report 1\nq: 1/0\n",
    "signed zero denominator": "groupapprox-report 1\nq: -3/0\n",
    "decimal-digit zero denominator": "groupapprox-report 1\nq: ٣/٠\n",
    "zero denominator in a list": "groupapprox-report 1\nq:\n  - 2/0\n",
    "unterminated quote": 'groupapprox-report 1\ns: "abc\n',
    "lone quote": 'groupapprox-report 1\ns: "\n',
    "unterminated quote in a list": 'groupapprox-report 1\ns:\n  - "abc\n',
    "string broken over two lines": 'groupapprox-report 1\ns: "a\nb"\n',
    "trailing content": "groupapprox-report 1\na:\n  - 1\n b: 2\n",
    "over-indented list item": "groupapprox-report 1\na:\n  - 1\n    - 2\n",
    "nested block too deep": "groupapprox-report 1\na:\n  -\n      b: 1\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_texts_fail_alike(case):
    text = MALFORMED[case]
    result = outcome(load_report, text)
    assert result == outcome(oracle_load, text)
    assert result[0] == "error", result


def test_cycle_string_matches_the_oracle_on_every_permutation_to_degree_6():
    from itertools import permutations

    for m in range(7):
        for images in permutations(range(m)):
            p = Permutation(images)
            assert cycle_string(p) == oracle_cycle_string(p)


def test_subclasses_render_as_their_first_base():
    class Text(str):
        pass

    class Count(int):
        pass

    class Ratio(Fraction):
        pass

    class Perm(Permutation):
        pass

    data = {
        "t": Text("3"), "u": Text("word"), "c": Count(4), "r": Ratio(2, 3), "p": Perm((1, 0, 2)),
        "o": OrderedDict(a=Text("x"), b=()), "l": [Perm((1, 0)), OrderedDict(b=1), Count(0)],
    }
    assert dump_report(data) == oracle_dump(data)
    for bad in ({"f": 0.5}, {"l": [[1]]}, {"s": {1, 2}}):
        messages = []
        for dump in (dump_report, oracle_dump):
            with pytest.raises(TypeError) as exc:
                dump(bad)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


# Expected divergence: the oracle shares a fault the library mends.  A quoted
# scalar whose closing quote is escaped loads in the oracle as a string that
# ends in a backslash; the library refuses it as unterminated, at its line.
ESCAPED_CLOSING_QUOTE = {  # text, line of the bad scalar, the oracle's value
    "after text": ('groupapprox-report 1\ns: "abc\\"\n', 2, {"s": "abc\\"}),
    "after an escaped backslash": (
        'groupapprox-report 1\na: 1\ns: "a\\\\\\"\n', 3, {"a": 1, "s": "a\\\\"}
    ),
    "in a list": ('groupapprox-report 1\ns:\n  - x\n  - "\\"\n', 4, {"s": ["x", "\\"]}),
}


@pytest.mark.parametrize("case", sorted(ESCAPED_CLOSING_QUOTE))
def test_an_escaped_closing_quote_is_refused_where_the_oracle_loads_it(case):
    text, line, oracle_value = ESCAPED_CLOSING_QUOTE[case]
    scalar = text.splitlines()[line - 1].split()[-1]
    assert outcome(load_report, text) == ("error", f"unterminated string {scalar!r}", line)
    assert outcome(oracle_load, text) == ("value", repr(oracle_value))


def test_oracle_cannot_load_a_line_break_the_library_escapes():
    data = {"system": "dir/a\nb.eqn"}
    with pytest.raises(ParseError, match="unterminated string"):
        oracle_load(oracle_dump(data))
    assert load_report(dump_report(data)) == data

