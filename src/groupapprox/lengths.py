"""Invariant length functions as first-class objects.

A length function on a finite group assigns each element an exact
rational in [0, 1] such that the identity gets 0, products are
subadditive, and conjugate elements get equal values.  Three kinds are
supported: normalized Hamming, the conjugation-closed Cayley-graph
construction (distance from the identity over the alphabet of conjugates
of a base set, scaled by 1/n and clamped at 1), and explicit tables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import lcm
from operator import itemgetter, ne, sub

from .groups import FiniteGroup, class_first_depths, iter_consequence_class_layers
from .perm import Permutation, conjugate, cycle_string, hamming_length
from .records import Record


class LengthFunction:
    def __init__(self, group: FiniteGroup, kind: str, values=None, params=None):
        self.group = group
        self.kind = kind  # "hamming" | "cayley-conjugation" | "table"
        self._values = values  # a table's element -> value, a Cayley length's value per class
        self.params = params or {}

    def __call__(self, h: Permutation) -> Fraction:
        h = Permutation(h)
        if self.kind == "hamming":
            if len(h) != self.group.degree:
                raise ValueError(f"{h!r} does not live on {self.group.name}")
            return hamming_length(h)
        try:
            return self._values[h if self.kind == "table" else self.group.class_index_of(h)]
        except KeyError:
            raise ValueError(f"{h!r} is not in the domain of this length function")

    def table(self) -> dict:
        """Element -> value map over the whole carrier."""
        return {x: self(x) for x in self.group.elements()}

    def __repr__(self):
        return f"LengthFunction({self.kind} on {self.group.name})"


def hamming(group: FiniteGroup) -> LengthFunction:
    return LengthFunction(group, "hamming")


def from_table(group: FiniteGroup, values) -> LengthFunction:
    """Explicit table; must hold exactly the carrier, with rationals >= 0."""
    table = {Permutation(x): Fraction(v) for x, v in dict(values).items()}
    where = group.positions()
    stray = sorted((x for x in table if x not in where), key=Permutation.sort_key)
    if stray:
        first = cycle_string(stray[0])
        raise ValueError(f"table has {len(stray)} elements outside {group.name}, first {first}")
    if len(table) < len(where):
        raise ValueError(f"table misses {len(where) - len(table)} elements of {group.name}")
    return LengthFunction(group, "table", values=table)


def cayley_conjugation_length(G: FiniteGroup, X, n: int) -> LengthFunction:
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
    first = class_first_depths(iter_consequence_class_layers(G, base))
    classes = range(len(G.conjugacy_classes()))
    values = [min(Fraction(first[c], n), one) if c in first else one for c in classes]
    values[G.class_index_of(G.identity())] = Fraction(0)
    return LengthFunction(G, "cayley-conjugation", tuple(values), {"base": base, "scale": n})


class AxiomViolation(Record):
    axiom: str  # "identity" | "nonnegative" | "subadditive" | "invariant"
    witness: tuple
    detail: str


class AxiomReport(Record):
    valid: bool
    violations: tuple[AxiomViolation, ...]
    pairs_checked: int


def verify_axioms(ell: LengthFunction, max_violations: int = 20) -> AxiomReport:
    """Exhaustively check the three length-function axioms on the carrier.

    Checks ||1|| == 0, values >= 0, subadditivity over all ordered pairs,
    and conjugation invariance over all ordered pairs.  Lists at most
    max_violations witnesses per axiom, in canonical (g, h) order, but
    any failure makes the report invalid.

    Every axiom is settled on element indices and the integer row
    ``scaled``, the values over their common denominator D, so the check
    stays exact; a ``Fraction`` is built only for a violation's message.
    For Hamming the row is the moved-point counts, over D = m.
    The classes are the group's own (``FiniteGroup.class_labels``), and x
    fails invariance iff its class is not constant.  If no class fails,
    ||k*r*k^-1 * h|| <= ||r|| + ||h|| is ||r*h'|| <= ||r|| + ||h'|| for
    h' = k^-1*h*k, so one row S_r[h] = ||r*h|| per class, at its first
    element in the tree's order, decides the class; otherwise every row
    is tested.  Down a BFS spanning
    tree of the right Cayley graph (g = p*s), S_g is S_p gathered by
    idx(s*h) in one ``operator.itemgetter`` call and tested by one C-level
    scan, walked depth first into the subtrees that hold a row to test.
    ``pairs_checked`` counts the 2*|G|^2 pairs so settled.
    """
    G = ell.group
    els = G.elements()
    n = len(els)
    index = G.positions()
    if ell.kind == "hamming":
        points = range(G.degree)
        denominator = G.degree or 1
        scaled = tuple(sum(map(ne, x, points)) for x in els)
    else:
        values = [ell(x) for x in els]
        denominator = lcm(*(v.denominator for v in values))
        scaled = tuple(v.numerator * (denominator // v.denominator) for v in values)

    def value(i):
        return Fraction(scaled[i], denominator)

    gens = G.generators if n > 1 else ()  # an itemgetter of one item returns no tuple
    root = index[G.identity()]
    # idx(s x) and idx(x s) from image tuples: (s x)[i] = x[s[i]], (x s)[i] = s[x[i]].
    lmul = [list(map(index.__getitem__, map(itemgetter(*s), els))) for s in gens]
    rmul = [[index[itemgetter(*x)(s)] for x in els] for s in gens]
    order, edge = _search(rmul, root, n)  # the spanning tree
    if len(order) != n:
        raise RuntimeError(f"generators reach {len(order)} of {n} elements")
    labels = G.class_labels()
    rows = {}  # class -> its first element in the tree's order
    for x in order:
        rows.setdefault(labels[x], x)
    variant = {c for c, v in zip(labels, scaled) if v != scaled[rows[c]]}
    not_invariant = [x for x, c in enumerate(labels) if c in variant]
    needed = range(n) if variant else set(rows.values())
    children, walked = {}, {root}  # the tree edges (h, k), h = p*s_k, toward needed rows
    for h in needed:
        while h not in walked:
            walked.add(h)
            p, k = divmod(edge[h], len(gens))
            children.setdefault(p, []).append((h, k))
            h = p
    left = [itemgetter(*l) for l in lmul]  # S_p gathered into S_{p s}
    failing = []  # tested g with ||g h|| > ||g|| + ||h|| for some h
    stack = [(root, None, scaled)]
    while stack:
        g, k, srow = stack.pop()
        if k is not None:  # g = p*s_k, and srow is p's row
            srow = left[k](srow)
        if g in needed and _row_excess(srow, scaled) > scaled[g]:
            failing.append(g)
        stack.extend((h, k, srow) for h, k in children.get(g, ()))
    failed = {labels[g] for g in failing}
    not_subadditive = failing if variant else [x for x, c in enumerate(labels) if c in failed]

    identity = []
    if scaled[root]:
        identity.append(AxiomViolation("identity", (els[root],), f"||1|| = {value(root)} != 0"))
    negative = [
        AxiomViolation("nonnegative", (x,), f"||{x!r}|| = {value(i)} < 0")
        for i, x in enumerate(els)
        if scaled[i] < 0
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
                    detail = f"||gh|| = {value(gh)} > {value(g)} + {value(h)}"
                    yield AxiomViolation("subadditive", (x, y), detail)

    def variant_pairs():
        for g in sorted(not_invariant):
            x, sg = els[g], scaled[g]
            for h, y in enumerate(els):
                c = index[conjugate(x, y)]
                if scaled[c] != sg:
                    detail = f"||h^-1 g h|| = {value(c)} != {value(g)}"
                    yield AxiomViolation("invariant", (x, y), detail)

    violations += islice(superadditive_pairs(), keep)
    violations += islice(variant_pairs(), keep)
    return AxiomReport(valid=valid, violations=tuple(violations), pairs_checked=2 * n * n)


def _row_excess(srow, scaled):
    """max over h of ||g h|| - ||h||, for the row srow[h] = ||g h||."""
    return max(map(sub, srow, scaled))


def _search(maps, root, n):
    """Breadth first along the index maps from root: the visiting order, and
    edge[h] = p*len(maps) + k when h = maps[k][p] was first reached so (-1
    at the root)."""
    edge = [None] * n
    edge[root] = -1
    order = [root]
    for p in order:
        for k, step in enumerate(maps):
            h = step[p]
            if edge[h] is None:
                edge[h] = p * len(maps) + k
                order.append(h)
    return order, edge
