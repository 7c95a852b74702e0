"""The subcommands of the ``groupapprox`` command and the parse of its argv.

``_COMMANDS`` lists every subcommand with its options.  A well-formed
command line is parsed straight from that table; argparse's parser is
built only for help and errors, which it alone words.
"""

from __future__ import annotations

import argparse
from functools import cache

from .approximation import DEFAULT_SEARCH_BUDGET
from .equations import DEFAULT_EQ_BUDGET
from .groups import DEFAULT_ELEMENT_CAP


def _int_at_least(low):
    """An argparse type for integers >= low: 0 is a real cap or budget,
    while a worker count must be positive."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_OUT = (("--out", dict(help="write the report to this file")),)
_GROUP = _OUT + (
    ("--group", dict(required=True)),
    ("--catalog", dict(action="append", default=[])),
)

# Every subcommand: its help line and its arguments, as (flag, keywords of
# add_argument).  Append options share their default list; both parses
# copy it before appending.
_COMMANDS = {
    "length": ("evaluate a length function at a permutation", _GROUP + (
        ("--perm", dict(required=True, help='cycle notation, e.g. "(1 2 3)"')),
        ("--length-kind", dict(choices=["hamming", "cayley"], default="hamming")),
        ("--X", dict(action="append", default=[], help="base elements for cayley")),
        ("--n", dict(type=int, help="scale for the cayley construction")),
    )),
    "consequences": ("exact-depth consequence set of a base set", _GROUP + (
        ("--X", dict(action="append", default=[], required=False)),
        ("--n", dict(type=int, required=True)),
        ("--cap", dict(type=_int_at_least(0), default=DEFAULT_ELEMENT_CAP)),
    )),
    "separate": ("is Y disjoint from the depth-n consequences of X?", _GROUP + (
        ("--X", dict(action="append", default=[])),
        ("--Y", dict(action="append", default=[], required=True)),
        ("--n", dict(type=int, required=True)),
        ("--cap", dict(type=_int_at_least(0), default=DEFAULT_ELEMENT_CAP)),
    )),
    "brenner-verify": ("ball of radius (n-1)*eps/16 inside the depth-n set", _OUT + (
        ("--m", dict(type=int, required=True)),
        ("--X", dict(action="append", default=[], required=True)),
        ("--n", dict(type=int, required=True)),
    )),
    "support-cover": ("fourth class power against the support of x", _OUT + (
        ("--m", dict(type=int, required=True)),
        ("--x", dict(help="one element; default sweeps all class representatives")),
    )),
    "covering-constant": ("empirical covering ratios over class pairs", _OUT + (
        ("--m", dict(type=int, required=True)),
        ("--csv", dict(help="also write the table as CSV")),
    )),
    "axioms-check": ("verify the three length-function axioms exhaustively", _GROUP + (
        ("--length-kind", dict(choices=["hamming", "cayley", "table"], default="hamming")),
        ("--X", dict(action="append", default=[])),
        ("--n", dict(type=int)),
        ("--table", dict(help="length-table report file")),
        ("--cap", dict(type=_int_at_least(0), default=DEFAULT_ELEMENT_CAP)),
    )),
    "approx-check": ("re-verify a stored certificate", _OUT + (
        ("--certificate", dict(required=True)),
    )),
    "approx-search": ("search for a separating homomorphism", _OUT + (
        ("--presentation", dict(required=True)),
        ("--n", dict(type=int, required=True)),
        ("--catalog", dict(action="append", default=[], required=True)),
        ("--budget", dict(type=_int_at_least(0), default=DEFAULT_SEARCH_BUDGET)),
        ("--prune", dict(
            action="store_true", help="reported only: every search skips conjugate image tuples"
        )),
    )),
    "sofic-search": ("search for a long-outside/short-inside homomorphism", _OUT + (
        ("--presentation", dict(required=True)),
        ("--eps", dict(required=True, help="rational threshold p/q")),
        ("--catalog", dict(action="append", default=[], required=True)),
        ("--budget", dict(type=_int_at_least(0), default=DEFAULT_SEARCH_BUDGET)),
    )),
    "eq-solve": ("universal-existential solvability in one group", _GROUP + (
        ("--system", dict(required=True)),
        ("--budget", dict(type=_int_at_least(0), default=DEFAULT_EQ_BUDGET)),
        ("--witnesses", dict(action="store_true")),
        # None, read as 1, lets manifest-replay tell a step that gives none
        ("--jobs", dict(type=_int_at_least(1), default=None)),
        ("--reduce-constants", dict(
            action="store_true", help="scan one constant tuple per conjugation orbit"
        )),
    )),
    "eq-sys": ("solvability across a whole catalog", _OUT + (
        ("--catalog", dict(action="append", default=[], required=True)),
        ("--system", dict(required=True)),
        ("--budget", dict(type=_int_at_least(0), default=DEFAULT_EQ_BUDGET)),
    )),
    "eq-over": ("solvability over a group via supplied overgroup embeddings", _GROUP + (
        ("--system", dict(required=True)),
        ("--diagonal", dict(
            action="append",
            type=int,
            default=[],
            required=True,
            help="diagonal embedding with this many copies (repeatable)",
        )),
        ("--budget", dict(type=_int_at_least(0), default=DEFAULT_EQ_BUDGET)),
        ("--witnesses", dict(action="store_true")),
    )),
    # no --out: replay writes into --out-dir
    "manifest-replay": ("re-run a pinned list of subcommands", (
        ("manifest", dict()),
        ("--out-dir", dict(required=True)),
        ("--jobs", dict(type=_int_at_least(1), default=None)),
    )),
}


@cache
def _build_parser(command=None):
    """The argparse parser, with the subparser of ``command`` only or, for
    None, of every subcommand; each built at most once per process.  With
    one subparser the usage still names every subcommand, as argparse
    writes it; only the full parser words an error about the subcommand
    itself.  ``manifest-replay`` takes no abbreviations, so that ``--out``
    is not read as ``--out-dir``."""
    parser = argparse.ArgumentParser(
        prog="groupapprox",
        description="Finite-group approximation workbench (exact rational arithmetic).",
    )
    every = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name, (help_text, options) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text, allow_abbrev=name != "manifest-replay")
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
    return parser


def parse_args(argv):
    """The namespace of argv, as argparse gives it; argparse itself parses
    only what ``_table_parse`` leaves to it, and exits there on help or an
    error.  A first argument that names a subcommand builds that
    subcommand's parser alone."""
    args = _table_parse(argv)
    if args is None:
        args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    return args


def _table_parse(argv):
    """argparse's namespace for a well-formed argv, read off ``_COMMANDS``,
    or None for any other argv.

    Well-formed is a subcommand, then only exact flags of it, each store or
    append flag followed by its value, a store_true flag alone, and for
    ``manifest-replay`` its one positional.  No value starts with "-",
    each passes its type and choices, no store flag comes twice, and every
    required option is present.  So help, abbreviations, ``--flag=value``,
    ``--``, negative numbers and every error are left to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    args = argparse.Namespace(command=argv[0])
    flags, positionals, required = {}, [], set()
    for flag, kwargs in _COMMANDS[argv[0]][1]:
        dest = flag.lstrip("-").replace("-", "_")
        action = kwargs.get("action", "store")
        default = kwargs.get("default", False if action == "store_true" else None)
        setattr(args, dest, list(default) if isinstance(default, list) else default)
        if flag.startswith("-"):
            flags[flag] = dest, action, kwargs
            if kwargs.get("required"):
                required.add(dest)
        else:
            positionals.append((dest, kwargs))
            required.add(dest)
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token in flags:
            dest, action, kwargs = flags[token]
            if action == "store_true":
                value = True
            elif action == "store" and dest in seen:
                return None
            else:
                value = _value(next(tokens, None), kwargs)
        elif positionals and token[:1] != "-":
            dest, kwargs = positionals.pop(0)
            action, value = "store", _value(token, kwargs)
        else:
            return None
        if value is None:
            return None
        if action == "append":
            getattr(args, dest).append(value)
        else:
            setattr(args, dest, value)
        seen.add(dest)
    return args if required <= seen else None


def _value(text, kwargs):
    """text converted and checked as argparse would for the option of
    kwargs, or None when argparse is to read it.  argparse reads an empty
    string as a value too."""
    if text is None or text[:1] == "-":
        return None
    convert = kwargs.get("type")
    if convert is not None:
        try:
            text = convert(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
    if "choices" in kwargs and text not in kwargs["choices"]:
        return None
    return text
