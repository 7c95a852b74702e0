"""Invariant length functions as first-class objects.

A length function on a finite group assigns each element an exact
rational in [0, 1] such that the identity gets 0, products are
subadditive, and conjugate elements get equal values.  Three kinds are
supported: normalized Hamming, the conjugation-closed Cayley-graph
construction (distance from the identity over the alphabet of conjugates
of a base set, scaled by 1/n and clamped at 1), and explicit tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import sub

from .groups import (
    DEFAULT_ELEMENT_CAP,
    FiniteGroup,
    class_first_depths,
    iter_consequence_class_layers,
)
from .perm import Permutation, conjugate, hamming_length


class LengthFunction:
    def __init__(self, group: FiniteGroup, kind: str, values=None, params=None):
        self.group = group
        self.kind = kind  # "hamming" | "cayley-conjugation" | "table"
        self._values = dict(values) if values is not None else None
        self.params = params or {}

    def __call__(self, h: Permutation) -> Fraction:
        h = Permutation(h)
        if self._values is not None:
            try:
                return self._values[h]
            except KeyError:
                raise ValueError(f"{h!r} is not in the domain of this length function")
        if len(h) != self.group.degree:
            raise ValueError(f"{h!r} does not live on {self.group.name}")
        return hamming_length(h)

    def table(self) -> dict:
        """Element -> value map over the whole carrier."""
        if self._values is not None:
            return dict(self._values)
        return {x: hamming_length(x) for x in self.group.elements()}

    def __repr__(self):
        return f"LengthFunction({self.kind} on {self.group.name})"


def hamming(group: FiniteGroup) -> LengthFunction:
    return LengthFunction(group, "hamming")


def from_table(group: FiniteGroup, values, cap: int = DEFAULT_ELEMENT_CAP) -> LengthFunction:
    """Explicit table; must cover the whole carrier with rationals >= 0."""
    table = {}
    for x, v in dict(values).items():
        table[Permutation(x)] = Fraction(v)
    missing = group.element_set(cap) - table.keys()
    if missing:
        raise ValueError(f"table misses {len(missing)} elements of {group.name}")
    return LengthFunction(group, "table", values=table)


def cayley_conjugation_length(
    G: FiniteGroup, X, n: int, cap: int = DEFAULT_ELEMENT_CAP
) -> LengthFunction:
    """Distance-based length: min(d(1, h)/n, 1) over the conjugate alphabet.

    The alphabet is every conjugate of an element of X or of an inverse,
    so it is closed under conjugation and the resulting function is
    invariant by construction.  The words of length j make up C_j(X, G),
    a union of classes, so d(1, h) is the first depth of h's class; the
    identity is at distance 0.  Unreachable elements sit at the clamp
    value 1.  Elements of X themselves get 1/n (they are single letters),
    and anything n-separated from X gets 1.
    """
    if n < 1:
        raise ValueError("scale must be >= 1")
    base = frozenset(Permutation(x) for x in X)
    one = Fraction(1)
    first = class_first_depths(iter_consequence_class_layers(G, base, cap))
    scaled = {ci: min(Fraction(d, n), one) for ci, d in first.items()}
    class_of = G.class_map()
    values = {h: scaled.get(class_of[h], one) for h in G.elements(cap)}
    values[G.identity()] = Fraction(0)
    return LengthFunction(G, "cayley-conjugation", values=values, params={"base": base, "scale": n})


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str  # "identity" | "nonnegative" | "subadditive" | "invariant"
    witness: tuple
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    valid: bool
    violations: tuple[AxiomViolation, ...]
    pairs_checked: int


def verify_axioms(
    ell: LengthFunction, cap: int = DEFAULT_ELEMENT_CAP, max_violations: int = 20
) -> AxiomReport:
    """Exhaustively check the three length-function axioms on the carrier.

    Checks ||1|| == 0, values >= 0, subadditivity over all ordered pairs,
    and conjugation invariance over all ordered pairs.  Collects at most
    max_violations witnesses per axiom but counts every failure toward
    the verdict.

    Every ordered pair (g, h) is evaluated, through element indices rather
    than permutation products: the elements are numbered in canonical
    order, and a parent-first spanning tree of the right Cayley graph
    gives g*h and h^-1 g h from the parent of h by one generator lookup.
    ``pairs_checked`` counts the 2*|G|^2 evaluated pairs.  Values are
    compared as integers over their common denominator, so the check stays
    exact; memory beyond the enumeration is O(|G|).
    """
    G = ell.group
    els = G.elements(cap)
    n = len(els)
    index = {x: i for i, x in enumerate(els)}
    values = [ell(x) for x in els]
    denominator = lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (denominator // v.denominator) for v in values]
    gens = G.generators or (G.identity(),)
    rmul = [[index[x * s] for x in els] for s in gens]  # idx(x s)
    cmap = [[index[conjugate(x, s)] for x in els] for s in gens]  # idx(s^-1 x s)
    root = index[G.identity()]
    tree = _spanning_tree(rmul, root, n)
    violations = []
    total = 0
    per_axiom = {}

    def add(axiom, witness, detail):
        nonlocal total
        total += 1
        seen = per_axiom.get(axiom, 0)
        if seen < max_violations:
            per_axiom[axiom] = seen + 1
            violations.append(AxiomViolation(axiom, witness, detail))

    if values[root] != 0:
        add("identity", (els[root],), f"||1|| = {values[root]} != 0")
    for x, v in zip(els, values):
        if v < 0:
            add("nonnegative", (x,), f"||{x!r}|| = {v} < 0")
    row = [0] * n
    for g in range(n):
        _walk(row, root, g, tree, rmul)  # row[h] = idx(g h)
        sg = scaled[g]
        if max(map(sub, map(scaled.__getitem__, row), scaled)) > sg:
            for h, gh in enumerate(row):
                if scaled[gh] > sg + scaled[h]:
                    add(
                        "subadditive",
                        (els[g], els[h]),
                        f"||gh|| = {values[gh]} > {values[g]} + {values[h]}",
                    )
    for g in range(n):
        _walk(row, root, g, tree, cmap)  # row[h] = idx(h^-1 g h)
        sg = scaled[g]
        if any(map(sg.__ne__, map(scaled.__getitem__, row))):
            for h, c in enumerate(row):
                if scaled[c] != sg:
                    add(
                        "invariant",
                        (els[g], els[h]),
                        f"||h^-1 g h|| = {values[c]} != {values[g]}",
                    )
    return AxiomReport(valid=total == 0, violations=tuple(violations), pairs_checked=2 * n * n)


def _spanning_tree(rmul, root, n):
    """Parent-first (child, parent, generator) triples of a BFS over rmul."""
    reached = [False] * n
    reached[root] = True
    tree = []
    frontier = [root]
    while frontier:
        nxt = []
        for p in frontier:
            for k, step in enumerate(rmul):
                h = step[p]
                if not reached[h]:
                    reached[h] = True
                    tree.append((h, p, k))
                    nxt.append(h)
        frontier = nxt
    if len(tree) + 1 != n:
        raise RuntimeError(f"generators reach {len(tree) + 1} of {n} elements")
    return tree


def _walk(row, root, g, tree, maps):
    """row[h] = maps[k][row[p]] down the tree (h = p s_k), from row[root] = g."""
    row[root] = g
    for h, p, k in tree:
        row[h] = maps[k][row[p]]


def ball(ell: LengthFunction, radius, cap: int = DEFAULT_ELEMENT_CAP) -> frozenset:
    """Open ball {h : ||h|| < radius} in the carrier."""
    r = Fraction(radius)
    return frozenset(h for h in ell.group.elements(cap) if ell(h) < r)
