"""Conjugacy-coverage experiments on alternating groups.

How fast do products of a conjugacy class (and its inverse class) cover
the group?  This module measures the least product depth at which a
target element appears, checks the two desk-checkable coverage facts
(the fourth class power covers the support, and the ball of Hamming
radius (n-1)*eps/16 sits inside the depth-n consequence set), and tabulates
empirical covering ratios.  Degrees below 5 are rejected: in A_4 the
double-transposition class generates only the Klein subgroup, so no
coverage statement of this shape can hold there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .characters import alternating_table
from .groups import (
    DEFAULT_ELEMENT_CAP,
    FiniteGroup,
    class_first_depths,
    consequences,
    iter_class_layers,
    iter_consequence_class_layers,
)
from .perm import Permutation, cycle_string, hamming_length


@lru_cache(maxsize=None)
def _alternating(m: int) -> FiniteGroup:
    G = FiniteGroup.alternating(m)
    G.conjugacy_classes()
    return G


def min_consequence_depth(
    G: FiniteGroup, X, y: Permutation, max_n: int, cap: int = DEFAULT_ELEMENT_CAP
) -> int | None:
    """Least depth n <= max_n with y in C_n(X, G); None when not reached.

    Layer growth is eventually periodic with period two, so the scan also
    stops early once no new class can ever appear; a None verdict then
    holds for every depth, not just max_n.
    """
    y = Permutation(y)
    if y not in G:
        raise ValueError(f"{y!r} is not an element of {G.name}")
    target = G.class_index_of(y)
    for depth, layer in iter_consequence_class_layers(G, X, cap):
        if depth > max_n:
            return None
        if target in layer:
            return depth
    return None


def _class_power_indices(G: FiniteGroup, class_index: int, power: int) -> frozenset:
    """Class indices of the exact k-fold product set of one conjugacy class."""
    if power < 1:
        raise ValueError("power must be >= 1")
    layer = frozenset((class_index,))
    for _ in range(power - 1):
        layer = frozenset().union(*(G.class_product(class_index, c) for c in layer))
    return layer


@dataclass(frozen=True)
class SupportCoverReport:
    m: int
    x: Permutation
    power: int
    target_size: int
    holds: bool
    violations: tuple[Permutation, ...]


def verify_support_cover(m: int, x: Permutation) -> SupportCoverReport:
    """Check that the fourth power of the class of x covers its support.

    The target is every nontrivial even permutation supported inside
    supp(x), s!/2 - 1 of them for s = |supp(x)|; each must appear as a
    product of exactly four conjugates of x.  The targets fill exactly the
    nontrivial classes of A_m that move at most s points: relabelling puts
    a member of each inside supp(x), and a class that splits from S_m moves
    m - 1 or m points, so Sym(supp(x)) then holds odd permutations and
    meets both halves.  Only classes missing from the fourth power are
    listed element by element.  Requires m >= 5 (the Klein closure in A_4
    is a genuine counterexample to any such statement).
    """
    if m < 5:
        raise ValueError("support coverage requires degree >= 5")
    x = Permutation(x)
    if x.is_identity():
        raise ValueError("x must be nontrivial")
    G = _alternating(m)
    if x not in G:
        raise ValueError(f"{x!r} is not an element of {G.name}")
    covered = _class_power_indices(G, G.class_index_of(x), 4)
    support = set(x.support())
    classes = G.conjugacy_classes()
    missing = [
        ci for ci in range(len(classes))
        if ci not in covered
        and 0 < len(G.class_representative(ci).support()) <= len(support)
    ]
    violations = tuple(sorted(
        (y for ci in missing for y in classes[ci] if support.issuperset(y.support())),
        key=Permutation.sort_key,
    ))
    return SupportCoverReport(
        m=m,
        x=x,
        power=4,
        target_size=math.factorial(len(support)) // 2 - 1,
        holds=not violations,
        violations=violations,
    )


@dataclass(frozen=True)
class BrennerReport:
    m: int
    base: tuple[Permutation, ...]
    depth: int
    epsilon: Fraction
    threshold: Fraction
    ball_size: int
    holds: bool
    violations: tuple[Permutation, ...]


def verify_brenner_bound(m: int, X, n: int, cap: int = DEFAULT_ELEMENT_CAP) -> BrennerReport:
    """Check ball(Hamming, (n-1)*eps/16) against the depth-n consequence set.

    eps is the largest Hamming length over the base set X; every even
    permutation shorter than the threshold must lie in C_n(X, A_m).
    Hamming length is a class function and C_n(X, A_m) a union of classes,
    so the ball is tested one class representative at a time and only the
    classes missing from C_n are listed element by element.
    """
    if m < 5:
        raise ValueError("coverage bounds require degree >= 5")
    if n < 1:
        raise ValueError("depth must be >= 1")
    base = tuple(sorted((Permutation(x) for x in X), key=lambda p: p.sort_key()))
    if not base:
        raise ValueError("base set must be nonempty")
    G = _alternating(m)
    for x in base:
        if x.is_identity():
            raise ValueError("base set must not contain the identity")
        if x not in G:
            raise ValueError(f"{x!r} is not an element of {G.name}")
    eps = max(hamming_length(x) for x in base)
    threshold = Fraction(n - 1) * eps / 16
    classes = G.conjugacy_classes(cap)
    ball = [
        ci for ci in range(len(classes))
        if hamming_length(G.class_representative(ci)) < threshold
    ]
    depth_n = consequences(G, base, n, cap).class_layers[-1]
    missing = [ci for ci in ball if ci not in depth_n]
    violations = tuple(sorted(
        (h for ci in missing for h in classes[ci]), key=Permutation.sort_key
    ))
    return BrennerReport(
        m=m,
        base=base,
        depth=n,
        epsilon=eps,
        threshold=threshold,
        ball_size=sum(len(classes[ci]) for ci in ball),
        holds=not violations,
        violations=violations,
    )


# --- covering-ratio sweeps ----------------------------------------------------


@dataclass(frozen=True)
class CoveringRow:
    x: Permutation
    y: Permutation
    depth: int | None
    steps: int  # ceil(||y|| / ||x||)
    ratio: Fraction | None  # depth / steps


@dataclass(frozen=True)
class CoveringTable:
    m: int
    rows: tuple[CoveringRow, ...]
    max_ratio: Fraction | None

    def holds_within(self, bound) -> bool:
        """True when every target was reached within bound * steps."""
        return all(
            row.depth is not None and row.ratio <= bound for row in self.rows
        )


def nontrivial_class_representatives(G: FiniteGroup) -> tuple[Permutation, ...]:
    reps = map(G.class_representative, range(len(G.conjugacy_classes())))
    return tuple(r for r in reps if not r.is_identity())


def empirical_covering_constant(m: int) -> CoveringTable:
    """Tabulate depth / ceil(||y||/||x||) over all nontrivial class pairs.

    The maximum ratio is the empirical covering constant for A_m; it is
    measured, never asserted against any conjectured value.  The layers
    come from the character table of ``characters.alternating_table``, so
    A_m is never listed; its classes are numbered as an enumerated A_m's.
    """
    if m < 5:
        raise ValueError("coverage sweeps require degree >= 5")
    table = alternating_table(m)
    reps = table.representatives[1:]  # class 0 is the identity
    moved = [len(r.support()) for r in reps]  # m * Hamming length
    rows = []
    for xi, (x, mx) in enumerate(zip(reps, moved), start=1):
        letters = table.letters(xi)
        first = class_first_depths(iter_class_layers(letters, table.step(letters)))
        for yi, (y, my) in enumerate(zip(reps, moved), start=1):
            steps = -(-my // mx)  # ceil(||y|| / ||x||)
            depth = first.get(yi)
            ratio = Fraction(depth, steps) if depth is not None else None
            rows.append(CoveringRow(x=x, y=y, depth=depth, steps=steps, ratio=ratio))
    ratios = [r.ratio for r in rows if r.ratio is not None]
    return CoveringTable(m=m, rows=tuple(rows), max_ratio=max(ratios) if ratios else None)


def support_cover_sweep(m: int) -> tuple[SupportCoverReport, ...]:
    """Run verify_support_cover for every nontrivial class representative."""
    G = _alternating(m)
    return tuple(verify_support_cover(m, x) for x in nontrivial_class_representatives(G))


def covering_csv(table: CoveringTable) -> str:
    """CSV rendering of a covering table (ratios as p/q strings)."""
    lines = ["m,x,y,depth,steps,ratio"]
    for row in table.rows:
        depth = "" if row.depth is None else str(row.depth)
        ratio = "" if row.ratio is None else f"{row.ratio.numerator}/{row.ratio.denominator}"
        lines.append(
            f"{table.m},\"{cycle_string(row.x)}\",\"{cycle_string(row.y)}\",{depth},{row.steps},{ratio}"
        )
    return "\n".join(lines) + "\n"
