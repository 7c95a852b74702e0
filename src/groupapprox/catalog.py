"""Group catalog files and name resolution.

A catalog is line-oriented text, one group per record::

    # name  kind        degree  generators (comma-separated cycle notation)
    S5      symmetric   5
    A6      alternating 6
    K4      generated   4       (1 2)(3 4), (1 3)(2 4)
    P       product     S5 K4

Product records reference previously defined names.  Builtin names S<m>,
A<m>, Z<k> resolve without any catalog.  The environment variable
GROUPAPPROX_CATALOG_DIR names a directory whose *.catalog files are
loaded (sorted by filename) when a name is not builtin and no explicit
catalog supplies it.
"""

from __future__ import annotations

import os
import re

from . import store
from .errors import ParseError
from .groups import FiniteGroup, cyclic
from .perm import parse_cycles

CATALOG_DIR_ENV = "GROUPAPPROX_CATALOG_DIR"

_BUILTIN_RE = re.compile(r"^([SAZ])(\d+)$")


def parse_catalog(text: str, source=None) -> dict:
    """Ordered name -> FiniteGroup mapping; each group goes through ``store.share``."""
    groups: dict[str, FiniteGroup] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)
        if len(parts) < 2:
            raise ParseError("expected: name kind ...", line=ln, source=source)
        name, kind = parts[0], parts[1]
        if name in groups:
            raise ParseError(f"duplicate group name {name!r}", line=ln, source=source)
        if kind in ("symmetric", "alternating"):
            if len(parts) != 3 or not parts[2].strip().isdigit():
                raise ParseError(f"{kind} record needs a degree", line=ln, source=source)
            maker = FiniteGroup.symmetric if kind == "symmetric" else FiniteGroup.alternating
            try:
                G = maker(int(parts[2]), name=name)
            except ValueError as exc:
                raise ParseError(str(exc), line=ln, source=source) from None
        elif kind == "generated":
            if len(parts) != 3:
                raise ParseError(
                    "generated record needs: degree generators", line=ln, source=source
                )
            degree_text, _, gens_text = parts[2].partition(" ")
            if not degree_text.isdigit():
                raise ParseError(f"bad degree {degree_text!r}", line=ln, source=source)
            degree = int(degree_text)
            gens = []
            for chunk in gens_text.split(","):
                chunk = chunk.strip()
                if chunk:
                    gens.append(parse_cycles(chunk, degree, line=ln, source=source))
            G = FiniteGroup.generated(degree, gens, name=name)
        elif kind == "product":
            if len(parts) != 3:
                raise ParseError(
                    "product record needs component names", line=ln, source=source
                )
            refs = parts[2].split()
            missing = [r for r in refs if r not in groups]
            if missing:
                raise ParseError(
                    f"product references unknown group {missing[0]!r}",
                    line=ln,
                    source=source,
                )
            G = FiniteGroup.direct_product([groups[r] for r in refs], name=name)
        else:
            raise ParseError(f"unknown group kind {kind!r}", line=ln, source=source)
        groups[name] = store.share(G)
    return groups


def read_text(path) -> str:
    """The text of an input file; a file that cannot be read is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}", source=path) from None


def load_catalog_file(path) -> dict:
    return parse_catalog(read_text(path), source=str(path))


def builtin_group(name: str) -> FiniteGroup | None:
    match = _BUILTIN_RE.match(name)
    if not match:
        return None
    letter, number = match.group(1), int(match.group(2))
    if number < 1:
        return None
    if letter == "S":
        G = FiniteGroup.symmetric(number, name=name)
    elif letter == "A":
        G = FiniteGroup.alternating(number, name=name)
    else:
        G = cyclic(number, name=name)
    return store.share(G)


def resolve_group(name: str, catalogs=()) -> FiniteGroup:
    """Explicit catalogs first, then builtin names, then the env directory;
    so a catalog given on the command line may shadow a builtin name."""
    for cat in catalogs:
        if name in cat:
            return cat[name]
    builtin = builtin_group(name)
    if builtin is not None:
        return builtin
    directory = os.environ.get(CATALOG_DIR_ENV)
    if directory and os.path.isdir(directory):
        for fname in sorted(os.listdir(directory)):
            if fname.endswith(".catalog"):
                cat = load_catalog_file(os.path.join(directory, fname))
                if name in cat:
                    return cat[name]
    raise ParseError(f"unknown group name {name!r}")
