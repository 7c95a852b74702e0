"""Structured text reports: one self-describing format for every command.

The format is a nested key-value tree with two-space indentation::

    groupapprox-report 1
    command: separate
    params:
      group: A4
      n: 8
    result:
      verdict: separated
      witness: none

Scalars are typed on load: integers, rationals written "p/q", booleans
"true"/"false", "none", everything else a string (double-quoted when it
would otherwise be mistyped or holds a line break, which is escaped).
Lists render as "- item" lines; a bare "-" opens a nested mapping item.
Reports carry no timestamps, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

from fractions import Fraction

from . import store
from .approximation import (
    Certificate,
    ConsequenceMode,
    MetricMode,
    SearchStats,
    SoficCertificate,
    window_from_texts,
)
from .errors import ParseError
from .groups import FiniteGroup
from .lengths import cayley_conjugation_length, from_table, hamming
from .perm import Permutation, cycle_string, parse_cycles
from .words import parse_word, word_str

FORMAT_HEADER = "groupapprox-report"
FORMAT_VERSION = 1


# A value renders by its type; a subclass renders as the first of these it is
# an instance of, so a Permutation is a scalar, not a list, and a bool is no int.
_KINDS = (type(None), bool, int, Fraction, Permutation, str, dict, list, tuple)
_WORDS = {"none": None, "true": True, "false": False}
_NAMES = {None: "none", True: "true", False: "false"}
# escaped inside quotes: the backslash, the quote and each line break of str.splitlines
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"} | {
    c: f"\\u{ord(c):04x}" for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
}
_QUOTE = str.maketrans(_ESCAPES)
_UNESCAPE = [(esc, c) for c, esc in _ESCAPES.items() if c != "\\"]


def format_rational(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str, line=None, source=None) -> Fraction:
    """Exact rational from "p/q" or "p"; anything else is a ParseError."""
    num, sep, den = text.strip().partition("/")
    try:
        return Fraction(int(num), int(den) if sep else 1)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {text!r}", line=line, source=source) from None


def _scalar_str(value, kind, cycles) -> str:
    """A scalar's text; ``cycles`` maps each Permutation this dump has rendered to its text."""
    if kind is str:
        if not value or value[0] == '"' or value[0].isspace() or value[-1].isspace() or (
            value in _WORDS or value == "[]" or value == "{}" or value.splitlines()[0] != value
        ) or (value[0] in "+-" or value[0].isdecimal()) and _number(value) is not None:
            return '"' + value.translate(_QUOTE) + '"'
        return value
    if kind is Permutation:
        text = cycles.get(value)
        if text is None:
            text = cycles[value] = cycle_string(value)
        return text
    if kind is int:
        return str(value)
    if kind is Fraction:
        return format_rational(value)
    if kind is bool or value is None:
        return _NAMES[value]
    raise TypeError(f"cannot serialize {value!r} in a report")


def _number(text: str):
    """text as an int p, or as "p/q" with integer parts the pair (p, q), else None."""
    num, sep, den = text.partition("/")
    try:
        return (int(num), int(den)) if sep else int(num)
    except ValueError:
        return None


def _parse_scalar(t, line, source):
    """A stripped scalar's value, told by its first character: a quote opens a string,
    a sign or a decimal digit a number or a plain string, anything else a keyword or a string."""
    first = t[:1]
    if first == '"':
        if not t.endswith('"') or len(t) < 2:
            raise ParseError(f"unterminated string {t!r}", line=line, source=source)
        # no escape but "\\" holds a second backslash, so once the body is
        # split at each "\\" the other escapes cannot overlap
        parts = t[1:-1].split("\\\\")
        for esc, c in _UNESCAPE:
            parts = [part.replace(esc, c) for part in parts]
        return "\\".join(parts)
    if first == "+" or first == "-" or first.isdecimal():
        number = _number(t)
        if type(number) is not tuple:
            return t if number is None else number
        if not number[1]:
            raise ParseError(f"bad rational {t!r}", line=line, source=source)
        return Fraction(*number)
    return [] if t == "[]" else {} if t == "{}" else _WORDS.get(t, t)


def _dump_into(lines, data, pad, cycles):
    for key, value in data.items():
        kind = type(value)
        if kind not in _KINDS:
            kind = next((k for k in _KINDS if isinstance(value, k)), kind)
        if kind is dict:
            if value:
                lines.append(f"{pad}{key}:")
                _dump_into(lines, value, pad + "  ", cycles)
            else:
                lines.append(f"{pad}{key}: {{}}")
        elif kind is list or kind is tuple:
            if value:
                lines.append(f"{pad}{key}:")
                for item in value:
                    kind = type(item)
                    if kind not in _KINDS:
                        kind = next((k for k in _KINDS if isinstance(item, k)), kind)
                    if kind is dict:
                        lines.append(f"{pad}  -")
                        _dump_into(lines, item, pad + "    ", cycles)
                    else:
                        lines.append(f"{pad}  - {_scalar_str(item, kind, cycles)}")
            else:
                lines.append(f"{pad}{key}: []")
        else:
            lines.append(f"{pad}{key}: {_scalar_str(value, kind, cycles)}")


def dump_report(data: dict) -> str:
    lines = [f"{FORMAT_HEADER} {FORMAT_VERSION}"]
    _dump_into(lines, data, "", {})
    return "\n".join(lines) + "\n"


def load_report(text: str, source=None) -> dict:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty report", line=1, source=source)
    head = lines[0].split()
    if len(head) != 2 or head[0] != FORMAT_HEADER:
        raise ParseError("not a report file", line=1, source=source)
    try:
        version = int(head[1])
    except ValueError:
        raise ParseError("bad report version", line=1, source=source) from None
    if version != FORMAT_VERSION:
        raise ParseError(
            f"report format version {head[1]} unsupported", line=1, source=source
        )
    items = []
    for ln, raw in enumerate(lines[1:], start=2):
        content = raw.strip()
        if not content:
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        if indent % 2:
            raise ParseError("odd indentation", line=ln, source=source)
        items.append((indent // 2, content, ln))
    data, rest = _parse_block(items, 0, 0, source)
    if rest != len(items):
        raise ParseError("trailing content", line=items[rest][2], source=source)
    return data


def _parse_block(items, pos, level, source):
    out = {}
    end = len(items)
    while pos < end:
        depth, content, ln = items[pos]
        if depth < level:
            break
        if depth > level:
            raise ParseError("unexpected indentation", line=ln, source=source)
        if content[0] == "-" and (content == "-" or content[1] == " "):
            raise ParseError("list item outside a list", line=ln, source=source)
        key, sep, rest = content.partition(":")
        if not sep:
            raise ParseError(f"expected 'key:' in {content!r}", line=ln, source=source)
        key = key.rstrip()
        rest = rest.lstrip()
        if rest:
            out[key] = _parse_scalar(rest, ln, source)
            pos += 1
            continue
        # nested block: list when the first child is a dash
        pos += 1
        if pos < end and items[pos][0] == level + 1 and (
            items[pos][1] == "-" or items[pos][1].startswith("- ")
        ):
            value, pos = _parse_list(items, pos, level + 1, source)
        else:
            value, pos = _parse_block(items, pos, level + 1, source)
        out[key] = value
    return out, pos


def _parse_list(items, pos, level, source):
    out = []
    end = len(items)
    while pos < end:
        depth, content, ln = items[pos]
        if depth < level:
            break
        if depth > level:
            raise ParseError("unexpected indentation", line=ln, source=source)
        if content == "-":
            sub, pos = _parse_block(items, pos + 1, level + 1, source)
            out.append(sub)
        elif content.startswith("- "):
            out.append(_parse_scalar(content[2:].lstrip(), ln, source))
            pos += 1
        else:
            break
    return out, pos


# --- domain object serialization ---------------------------------------------


def group_to_data(G: FiniteGroup) -> dict:
    data = {"name": G.name, "kind": G.kind, "degree": G.degree}
    if G.kind == "generated":
        data["generators"] = [cycle_string(g) for g in G.generators]
    if G.kind == "product":
        data["components"] = [group_to_data(c) for c in G.components]
    return data


def group_from_data(data: dict) -> FiniteGroup:
    """The group a report describes, through ``store.share``; a degree or
    generator that the constructor refuses is a ParseError."""
    kind = data["kind"]
    name = _field(data, "name", str) if "name" in data else None
    try:
        if kind == "symmetric":
            G = FiniteGroup.symmetric(_field(data, "degree", int), name=name)
        elif kind == "alternating":
            G = FiniteGroup.alternating(_field(data, "degree", int), name=name)
        elif kind == "generated":
            degree = _field(data, "degree", int)
            texts = _field(data, "generators", list, str) if "generators" in data else []
            G = FiniteGroup.generated(degree, [parse_cycles(t, degree) for t in texts], name=name)
        elif kind == "product":
            components = _field(data, "components", list, dict)
            G = FiniteGroup.direct_product([group_from_data(c) for c in components], name=name)
        else:
            raise ParseError(f"unknown group kind {kind!r}")
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return store.share(G)


_RATIONAL = (int, Fraction)
_TYPE_NAMES = {
    int: "integer", str: "string", bool: "boolean", list: "list", dict: "mapping", _RATIONAL: "rational"
}


def _field(data: dict, key, kind, item=None):
    """``data[key]`` when it is a ``kind`` whose items (list entries or
    mapping values) are each an ``item``, else a ParseError naming the field
    and only the offending value: a container by its type, an item by its
    position or key.  Booleans load as ``bool``, a subclass of ``int``: they
    pass only as bool."""

    def fits(value, want):
        return isinstance(value, want) and (want is bool or not isinstance(value, bool))

    def refuse(shown):
        what = _TYPE_NAMES[kind] + (f" of {_TYPE_NAMES[item]}s" if item is not None else "")
        raise ParseError(f"field {key!r} must be of type {what}, not {shown}")

    value = data[key]
    if not fits(value, kind):
        refuse(f"a {_TYPE_NAMES[type(value)]}" if isinstance(value, (list, dict)) else repr(value))
    if item is not None:
        for where, v in value.items() if isinstance(value, dict) else enumerate(value):
            if not fits(v, item):
                refuse(f"{v!r} at {'key' if isinstance(value, dict) else 'position'} {where!r}")
    return value


def length_table_to_data(ell) -> dict:
    """Standalone serialization of a length function as an explicit table."""
    return {
        "kind": "length-table",
        "group": group_to_data(ell.group),
        "values": {
            cycle_string(x): Fraction(v)
            for x, v in sorted(ell.table().items(), key=lambda kv: kv[0].sort_key())
        },
    }


def length_table_from_data(data: dict, group: FiniteGroup, source=None):
    """Table length function on ``group`` from a loaded length-table report."""
    if data.get("kind") != "length-table":
        raise ParseError("not a length-table report", source=source)
    return _decode(lambda d: _table_length(d, group), data, "length table", source)


def _table_length(data, group):
    values = _field(data, "values", dict, _RATIONAL).items()
    return from_table(group, {parse_cycles(k, group.degree): Fraction(v) for k, v in values})


def certificate_to_data(cert, verdict=None) -> dict:
    """Serialize an approximation certificate for later re-verification.

    When a verdict is supplied it is stored for audit; re-verification
    recomputes it from the rest of the data and flags disagreement.
    """
    assert isinstance(cert, Certificate)
    window = cert.window
    names = window.names
    data = {
        "kind": "approximation-certificate",
        "window": {
            "generators": " ".join(names),
            "words": [word_str(w, names) for w in window.words],
        },
        "target": group_to_data(cert.target),
        "images": [cycle_string(x) for x in cert.images],
    }
    if verdict is not None:
        data["verdict"] = "holds" if verdict else "fails"
    mode = cert.mode
    if isinstance(mode, ConsequenceMode):
        data["mode"] = {"type": "consequence", "depth": mode.depth}
    elif isinstance(mode, MetricMode):
        length = mode.length
        length_data = {"kind": length.kind}
        if length.kind == "cayley-conjugation":
            length_data["base"] = [
                cycle_string(x)
                for x in sorted(length.params["base"], key=lambda p: p.sort_key())
            ]
            length_data["scale"] = length.params["scale"]
        elif length.kind == "table":
            length_data["values"] = length_table_to_data(length)["values"]
        data["mode"] = {
            "type": "metric",
            "epsilon": Fraction(mode.epsilon),
            "alpha": [Fraction(a) for a in mode.alpha],
            "length": length_data,
        }
    else:
        raise TypeError(f"unknown certificate mode {mode!r}")
    return data


def _decode(decode, data, what, source):
    """Run a certificate decoder; a missing or mistyped field, like any
    other ParseError it raises, is reported against the source."""
    try:
        return decode(data)
    except KeyError as exc:
        raise ParseError(f"{what} has no {exc.args[0]!r} field", source=source) from None
    except ParseError as exc:
        if exc.source is not None:
            raise
        raise ParseError(exc.bare_message, exc.line, exc.column, source) from None


def certificate_from_data(data: dict, source=None):
    """Decode a loaded certificate report; a missing or mistyped field is a ParseError."""
    return _decode(_certificate_from_data, data, "certificate", source)


def _certificate_from_data(data):
    if data.get("kind") != "approximation-certificate":
        raise ParseError("not an approximation certificate")
    window_data = _field(data, "window", dict)
    names = tuple(_field(window_data, "generators", str).split())
    window = window_from_texts(names, _field(window_data, "words", list, str))
    target = group_from_data(_field(data, "target", dict))
    degree = target.degree
    images = tuple(parse_cycles(t, degree) for t in _field(data, "images", list, str))
    mode_data = _field(data, "mode", dict)
    if mode_data["type"] == "consequence":
        mode = ConsequenceMode(depth=_field(mode_data, "depth", int))
    elif mode_data["type"] == "metric":
        length_data = _field(mode_data, "length", dict)
        if length_data["kind"] == "hamming":
            ell = hamming(target)
        elif length_data["kind"] == "cayley-conjugation":
            base = [parse_cycles(t, degree) for t in _field(length_data, "base", list, str)]
            ell = cayley_conjugation_length(target, base, _field(length_data, "scale", int))
        elif length_data["kind"] == "table":
            ell = _table_length(length_data, target)
        else:
            raise ParseError(f"unknown length kind {length_data['kind']!r}")
        mode = MetricMode(
            length=ell,
            alpha=tuple(Fraction(a) for a in _field(mode_data, "alpha", list, _RATIONAL)),
            epsilon=Fraction(_field(mode_data, "epsilon", _RATIONAL)),
        )
    else:
        raise ParseError(f"unknown certificate mode {mode_data['type']!r}")
    return Certificate(window=window, target=target, images=images, mode=mode)


def sofic_certificate_to_data(cert) -> dict:
    names = [f"g{i + 1}" for i in range(len(cert.images))]
    return {
        "kind": "sofic-certificate",
        "degree": cert.group_degree,
        "images": [cycle_string(x) for x in cert.images],
        "amplification": cert.amplification,
        "epsilon": cert.epsilon,
        "outside-word": word_str(cert.outside_word, names),
        "inside-words": [word_str(w, names) for w in cert.inside_words],
        "raw-outside-length": cert.raw_outside_length,
        "amplified-outside-length": cert.amplified_outside_length,
        "amplified-inside-lengths": list(cert.amplified_inside_lengths),
        "embedded": cert.embedded,
    }


def sofic_certificate_from_data(data: dict, source=None):
    """Decode a loaded sofic certificate report; a missing or mistyped field is a ParseError."""
    return _decode(_sofic_certificate_from_data, data, "sofic certificate", source)


def _sofic_certificate_from_data(data):
    if data.get("kind") != "sofic-certificate":
        raise ParseError("not a sofic certificate")
    degree = _field(data, "degree", int)
    images = tuple(parse_cycles(t, degree) for t in _field(data, "images", list, str))
    names = [f"g{i + 1}" for i in range(len(images))]
    return SoficCertificate(
        group_degree=degree,
        images=images,
        amplification=_field(data, "amplification", int),
        epsilon=Fraction(_field(data, "epsilon", _RATIONAL)),
        outside_word=parse_word(_field(data, "outside-word", str), names),
        inside_words=tuple(parse_word(t, names) for t in _field(data, "inside-words", list, str)),
        raw_outside_length=Fraction(_field(data, "raw-outside-length", _RATIONAL)),
        amplified_outside_length=Fraction(_field(data, "amplified-outside-length", _RATIONAL)),
        amplified_inside_lengths=tuple(
            Fraction(v) for v in _field(data, "amplified-inside-lengths", list, _RATIONAL)
        ),
        stats=SearchStats(assignments=0, per_group=()),
        embedded=_field(data, "embedded", bool),
    )
