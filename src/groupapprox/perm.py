"""Exact permutation arithmetic with right actions.

A permutation of degree m is a bijection of the points 0..m-1, stored as
the tuple of images: ``p[i]`` is the image of point ``i``.  All products
use the right-action convention, so ``(i)(a*b) == ((i)a)b``: ``a`` acts
first.

Lengths are exact ``fractions.Fraction`` values in [0, 1]; no floating
point anywhere.  Text I/O uses 1-based cycle notation, ``"(1 2 3)(4 5)"``,
with ``"()"`` for the identity (the degree always travels separately,
since fixed points are invisible in cycle notation).
"""

from __future__ import annotations

from fractions import Fraction
from operator import ne

from .errors import CapExceeded, ParseError

DEFAULT_DEGREE_CAP = 10**6


class Permutation(tuple):
    """Tuple of images under a right action; index i holds the image of i.

    Text from user input should go through ``parse_cycles``, which
    validates; arithmetic here assumes the images already form a bijection.
    """

    __slots__ = ()

    def __mul__(self, other) -> "Permutation":
        # self acts first: i -> (i self) other
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError(
                f"degree mismatch: {len(self)} vs {len(other)}"
            )
        return Permutation(other[i] for i in self)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return self == tuple(range(len(self)))

    def support(self) -> tuple[int, ...]:
        """Moved points, ascending, 0-based."""
        return tuple(i for i, j in enumerate(self) if i != j)

    def sort_key(self):
        """Canonical order: identity first, then small support, then images.

        Every "first found" or "least witness" in the workbench uses this
        key, which makes reports reproducible across runs.
        """
        supp = self.support()
        return (len(supp), supp, tuple(self))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, 0-based."""
        seen = set()
        out = []
        for i, j in enumerate(self):
            if j != i and i not in seen:
                cyc = [i]
                while j != i:
                    seen.add(j)
                    cyc.append(j)
                    j = self[j]
                out.append(tuple(cyc))
        return out

    def __repr__(self):
        return f"Permutation[{cycle_string(self)}, deg={len(self)}]"


def check_degree(degree: int) -> None:
    """Refuse a degree past ``DEFAULT_DEGREE_CAP`` before anything that size is allocated."""
    if degree > DEFAULT_DEGREE_CAP:
        raise CapExceeded(f"degree {degree} exceeds cap {DEFAULT_DEGREE_CAP}")


def identity(degree: int) -> Permutation:
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return Permutation(range(degree))


def conjugate(x: Permutation, g: Permutation) -> Permutation:
    """g^-1 * x * g; same cycle type as x."""
    if len(x) != len(g):
        raise ValueError(f"degree mismatch: {len(x)} vs {len(g)}")
    # (g^-1 x g)[i]: write i = g[j]; image is g[x[j]].
    out = [0] * len(x)
    for j in range(len(x)):
        out[g[j]] = g[x[j]]
    return Permutation(out)


def commutes(x: Permutation, g: Permutation) -> bool:
    """x * g == g * x, compared as image tuples."""
    return tuple(map(g.__getitem__, x)) == tuple(map(x.__getitem__, g))


def is_even(h: Permutation) -> bool:
    """Sign +1: with c cycles, fixed points included, h is m - c transpositions."""
    seen = [False] * len(h)
    cycles = 0
    for i in range(len(h)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = h[j]
    return (len(h) - cycles) % 2 == 0


def hamming_length(h: Permutation) -> Fraction:
    """Fraction of points moved: |{x : xh != x}| / m, exact."""
    m = len(h)
    if m == 0:
        return Fraction(0)
    moved = sum(map(ne, h, range(m)))
    return Fraction(moved, m)


def direct_sum(a: Permutation, b: Permutation) -> Permutation:
    """Block-disjoint action: a on the first r points, b shifted after.

    The normalized Hamming length averages with block weights:
    ||a(+)b|| == (r*||a|| + k*||b||) / (r+k).
    """
    r = len(a)
    return Permutation(tuple(a) + tuple(j + r for j in b))


def replicate(p: Permutation, copies: int) -> Permutation:
    """p (+) p (+) ... (+) p with ``copies`` blocks, built in one pass."""
    m = len(p)
    return Permutation([j + k * m for k in range(copies) for j in p])


def embed_sym_in_alt(s: Permutation) -> Permutation:
    """Double each cycle: S_m -> A_2m, even image, Hamming length preserved.

    Acts as s on the first m points and as the shifted copy of s on the
    second m, which repeats every cycle twice and therefore squares the
    sign.  The map is an injective homomorphism.
    """
    return direct_sum(s, s)


# --- cycle-notation text I/O -------------------------------------------------


def cycle_string(h: Permutation) -> str:
    """Canonical 1-based cycle notation, in the order of ``cycles``; "()" for the identity."""
    seen = set()
    out = ""
    for i, j in enumerate(h):
        if j != i and i not in seen:
            out += "(" + str(i + 1)
            while j != i:
                seen.add(j)
                out += " " + str(j + 1)
                j = h[j]
            out += ")"
    return out or "()"


def parse_cycles(text: str, degree: int, line: int | None = None, source=None) -> Permutation:
    """Parse 1-based cycle notation like "(1 2 3)(4 5)" at a given degree.

    Raises ParseError with a column pointer on malformed input.
    """

    def err(msg, col):
        raise ParseError(msg, line=line, column=col, source=source)

    if degree < 0:
        raise ValueError("degree must be nonnegative")
    check_degree(degree)
    images = list(range(degree))
    assigned = [False] * degree
    i = 0
    n = len(text)
    saw_cycle = False
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            err(f"expected '(' in cycle notation, found {ch!r}", i + 1)
        close = text.find(")", i)
        if close < 0:
            err("unclosed cycle", i + 1)
        body = text[i + 1 : close]
        saw_cycle = True
        points = []
        for tok in body.replace(",", " ").split():
            if not tok.isdigit():
                err(f"bad point {tok!r} in cycle", i + 1)
            p = int(tok)
            if not 1 <= p <= degree:
                err(f"point {p} outside 1..{degree}", i + 1)
            points.append(p - 1)
        if len(set(points)) != len(points):
            err("repeated point within a cycle", i + 1)
        for p in points:
            if assigned[p]:
                err(f"point {p + 1} appears in two cycles", i + 1)
            assigned[p] = True
        for k, p in enumerate(points):
            images[p] = points[(k + 1) % len(points)]
        i = close + 1
    if not saw_cycle:
        err("empty permutation text; use \"()\" for the identity", 1)
    return Permutation(images)
