"""Conjugacy-coverage experiments on alternating groups.

How fast do products of a conjugacy class (and its inverse class) cover
the group?  This module measures the least product depth at which a
target element appears, checks the two desk-checkable coverage facts
(the fourth class power covers the support, and the ball of Hamming
radius (n-1)*eps/16 sits inside the depth-n consequence set), and tabulates
empirical covering ratios.  Degrees below 5 are rejected: in A_4 the
double-transposition class generates only the Klein subgroup, so no
coverage statement of this shape can hold there.

Sweeps over class representatives can fan out over processes; results
are merged in representative order, so the output is independent of the
schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .groups import (
    DEFAULT_ELEMENT_CAP,
    FiniteGroup,
    consequences,
    iter_consequence_class_layers,
)
from .parallel import map_tasks
from .perm import Permutation, cycle_string, hamming_length, is_even


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


def class_first_depths(G: FiniteGroup, X, cap: int = DEFAULT_ELEMENT_CAP) -> dict:
    """First depth at which each conjugacy class enters C_n(X, G).

    Runs until the layers stabilize, so absent classes are absent forever.
    """
    first = {}
    for depth, layer in iter_consequence_class_layers(G, X, cap):
        for ci in layer:
            first.setdefault(ci, depth)
    return first


def _class_power_indices(G: FiniteGroup, class_index: int, power: int) -> frozenset:
    """Class indices of the exact k-fold product set of one conjugacy class."""
    if power < 1:
        raise ValueError("power must be >= 1")
    layer = frozenset((class_index,))
    for _ in range(power - 1):
        layer = frozenset().union(*(G.class_product(class_index, c) for c in layer))
    return layer


def _even_support_perms(m: int, support):
    """Nontrivial even permutations of degree m moving only the given points."""
    import itertools

    pts = tuple(sorted(support))
    out = []
    for images in itertools.permutations(pts):
        full = list(range(m))
        for p, q in zip(pts, images):
            full[p] = q
        h = Permutation(full)
        if not h.is_identity() and is_even(h):
            out.append(h)
    return out


@dataclass(frozen=True)
class SupportCoverReport:
    m: int
    x: Permutation
    power: int
    target_size: int
    holds: bool
    violations: tuple[Permutation, ...]


def verify_support_cover(m: int, x: Permutation, cap: int = DEFAULT_ELEMENT_CAP) -> SupportCoverReport:
    """Check that the fourth power of the class of x covers its support.

    The target is every nontrivial even permutation supported inside
    supp(x); each must appear as a product of exactly four conjugates of
    x.  Requires m >= 5 (the Klein closure in A_4 is a genuine
    counterexample to any such statement).
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
    targets = _even_support_perms(m, x.support())
    violations = tuple(
        y for y in sorted(targets, key=lambda p: p.sort_key())
        if G.class_index_of(y) not in covered
    )
    return SupportCoverReport(
        m=m,
        x=x,
        power=4,
        target_size=len(targets),
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
    ball = [h for h in G.elements(cap) if hamming_length(h) < threshold]
    cons = consequences(G, base, n, cap).elements
    violations = tuple(h for h in ball if h not in cons)
    return BrennerReport(
        m=m,
        base=base,
        depth=n,
        epsilon=eps,
        threshold=threshold,
        ball_size=len(ball),
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


def _covering_rows(m: int, x_images) -> list:
    G = _alternating(m)
    x = Permutation(x_images)
    first = class_first_depths(G, (x,))
    lx = hamming_length(x)
    rows = []
    for y in nontrivial_class_representatives(G):
        steps = math.ceil(hamming_length(y) / lx)
        depth = first.get(G.class_index_of(y))
        ratio = Fraction(depth, steps) if depth is not None else None
        rows.append((tuple(x), tuple(y), depth, steps, ratio))
    return rows


def empirical_covering_constant(m: int, jobs: int = 1) -> CoveringTable:
    """Tabulate depth / ceil(||y||/||x||) over all nontrivial class pairs.

    The maximum ratio is the empirical covering constant for A_m; it is
    measured, never asserted against any conjectured value.
    """
    if m < 5:
        raise ValueError("coverage sweeps require degree >= 5")
    G = _alternating(m)
    reps = nontrivial_class_representatives(G)
    chunks = map_tasks(_covering_rows_task, [(m, tuple(x)) for x in reps], jobs)
    rows = []
    for chunk in chunks:
        for x_imgs, y_imgs, depth, steps, ratio in chunk:
            rows.append(
                CoveringRow(
                    x=Permutation(x_imgs),
                    y=Permutation(y_imgs),
                    depth=depth,
                    steps=steps,
                    ratio=ratio,
                )
            )
    ratios = [r.ratio for r in rows if r.ratio is not None]
    return CoveringTable(m=m, rows=tuple(rows), max_ratio=max(ratios) if ratios else None)


def _covering_rows_task(task):
    m, x_images = task
    return _covering_rows(m, x_images)


def support_cover_exhaustive(m: int) -> tuple[int, tuple[Permutation, ...]]:
    """Check the fourth-power support cover for every nontrivial element.

    Class powers are computed once per class; each element then only
    costs the enumeration of its support targets.  Returns (elements
    checked, violating target permutations).
    """
    if m < 5:
        raise ValueError("support coverage requires degree >= 5")
    G = _alternating(m)
    covered_by_class = {
        G.class_index_of(rep): _class_power_indices(G, G.class_index_of(rep), 4)
        for rep in nontrivial_class_representatives(G)
    }
    checked = 0
    violations = []
    for x in G.elements():
        if x.is_identity():
            continue
        checked += 1
        covered = covered_by_class[G.class_index_of(x)]
        for y in _even_support_perms(m, x.support()):
            if G.class_index_of(y) not in covered:
                violations.append(y)
    return checked, tuple(violations)


def support_cover_sweep(m: int, jobs: int = 1) -> tuple[SupportCoverReport, ...]:
    """Run verify_support_cover for every nontrivial class representative."""
    G = _alternating(m)
    reps = nontrivial_class_representatives(G)
    return tuple(map_tasks(_support_cover_task, [(m, tuple(x)) for x in reps], jobs))


def _support_cover_task(task):
    m, x_images = task
    return verify_support_cover(m, Permutation(x_images))


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
