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
from itertools import compress, islice
from math import lcm
from operator import itemgetter, ne, sub

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
    and conjugation invariance over all ordered pairs.  Lists at most
    max_violations witnesses per axiom, in canonical (g, h) order, but
    any failure makes the report invalid.

    Every ordered pair is evaluated, on element indices rather than
    permutation products.  The elements are numbered in canonical order
    and values are compared as integers over their common denominator, so
    the check stays exact.  Down a spanning tree of the right Cayley graph
    (g = p*s), the row S_g[h] = ||g*h|| is S_p gathered by idx(s*h), and
    the row U_g[x] = ||g*x*g^-1|| is U_p gathered by idx(s*x*s^-1); each
    gather is one ``operator.itemgetter`` call, and each row is tested by
    one C-level scan.  U_g covers the pairs (x, g^-1), so one tree serves
    both axioms.  The tree is walked depth first, so only O(diameter) rows
    are alive at once.  The witnesses of the failing rows are then listed
    by direct lookups.  ``pairs_checked`` counts the 2*|G|^2 pairs.
    """
    G = ell.group
    els = G.elements(cap)
    n = len(els)
    index = {x: i for i, x in enumerate(els)}
    values = [ell(x) for x in els]
    denominator = lcm(*(v.denominator for v in values))
    scaled = tuple(v.numerator * (denominator // v.denominator) for v in values)
    gens = G.generators or (G.identity(),)
    root = index[G.identity()]
    rmul = [[index[x * s] for x in els] for s in gens]  # idx(x s)
    conj = [[index[conjugate(x, t)] for x in els] for t in map(Permutation.inverse, gens)]
    children = _spanning_tree(rmul, root, n)
    # One gather per generator and row kind: idx(s x s^-1), and idx(s x)
    # read as idx((s x s^-1) s).  A one-element group has no tree edge, so
    # the bare item itemgetter returns for n == 1 is never used.
    inner = [itemgetter(*c) for c in conj]
    left = [itemgetter(*map(r.__getitem__, c)) for r, c in zip(rmul, conj)]
    not_subadditive = []  # g with ||g h|| > ||g|| + ||h|| for some h
    not_invariant = set()  # x with ||g x g^-1|| != ||x|| for some g
    stack = [(root, None, scaled, scaled)]
    while stack:
        g, k, srow, urow = stack.pop()
        if k is not None:  # g = p*s_k, and srow, urow are p's rows
            srow, urow = left[k](srow), inner[k](urow)
        if max(map(sub, srow, scaled)) > scaled[g]:
            not_subadditive.append(g)
        if urow != scaled:
            not_invariant.update(compress(range(n), map(ne, urow, scaled)))
        for h, k in children[g]:
            stack.append((h, k, srow, urow))

    identity = []
    if values[root] != 0:
        identity.append(AxiomViolation("identity", (els[root],), f"||1|| = {values[root]} != 0"))
    negative = [
        AxiomViolation("nonnegative", (x,), f"||{x!r}|| = {v} < 0")
        for x, v in zip(els, values)
        if v < 0
    ]
    valid = not (identity or negative or not_subadditive or not_invariant)
    keep = max(max_violations, 0)
    violations = identity[:keep] + negative[:keep]

    def superadditive_pairs():
        for g in sorted(not_subadditive):
            x, sg = els[g], scaled[g]
            for h, y in enumerate(els):
                gh = index[x * y]
                if scaled[gh] > sg + scaled[h]:
                    detail = f"||gh|| = {values[gh]} > {values[g]} + {values[h]}"
                    yield AxiomViolation("subadditive", (x, y), detail)

    def variant_pairs():
        for g in sorted(not_invariant):
            x, sg = els[g], scaled[g]
            for h, y in enumerate(els):
                c = index[conjugate(x, y)]
                if scaled[c] != sg:
                    detail = f"||h^-1 g h|| = {values[c]} != {values[g]}"
                    yield AxiomViolation("invariant", (x, y), detail)

    violations += islice(superadditive_pairs(), keep)
    violations += islice(variant_pairs(), keep)
    return AxiomReport(valid=valid, violations=tuple(violations), pairs_checked=2 * n * n)


def _spanning_tree(rmul, root, n):
    """children[p]: the (h, k) with h = p*s_k that a BFS over rmul first
    reaches from p; breadth first keeps the tree as shallow as the graph."""
    reached = [False] * n
    reached[root] = True
    children = [[] for _ in range(n)]
    frontier = [root]
    count = 1
    while frontier:
        nxt = []
        for p in frontier:
            for k, step in enumerate(rmul):
                h = step[p]
                if not reached[h]:
                    reached[h] = True
                    children[p].append((h, k))
                    nxt.append(h)
        frontier = nxt
        count += len(nxt)
    if count != n:
        raise RuntimeError(f"generators reach {count} of {n} elements")
    return children


def ball(ell: LengthFunction, radius, cap: int = DEFAULT_ELEMENT_CAP) -> frozenset:
    """Open ball {h : ||h|| < radius} in the carrier."""
    r = Fraction(radius)
    return frozenset(h for h in ell.group.elements(cap) if ell(h) < r)
