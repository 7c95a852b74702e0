"""Conjugacy-coverage experiments on alternating groups.

How fast do products of a conjugacy class (and its inverse class) cover
A_m?  This module checks the two desk-checkable coverage facts (the fourth
class power covers the support, and the ball of Hamming radius
(n-1)*eps/16 sits inside the depth-n consequence set) and tabulates
empirical covering ratios.  All three read classes, sizes and layers off
the character table of ``characters.alternating_table``, so A_m is never
listed, and the table's own cap (``characters.partitions``) bounds the
degree.  Only a class that a check finds missing has its elements listed,
to report them, and that listing is refused first when the even
permutations it would filter pass ``DEFAULT_ELEMENT_CAP``.  Degrees below
5 are rejected: in A_4 the
double-transposition class generates only the Klein subgroup, so no
coverage statement of this shape can hold there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

from .characters import AlternatingTable, alternating_table
from .errors import CapExceeded
from .groups import (
    DEFAULT_ELEMENT_CAP,
    class_first_depths,
    consequences,  # patched by name in perfbench/tracing.py
    exact_depth_layers,
    iter_class_layers,
    iter_consequence_class_layers,  # patched by name in perfbench/tracing.py
)
from .perm import Permutation, cycle_string, hamming_length, is_even
from .records import Record


def _layer(table: AlternatingTable, letters, n: int) -> frozenset:
    """Class indices of the exact n-fold product set of the letter classes."""
    return exact_depth_layers(iter_class_layers(letters, table.step(letters)), n)[-1]


def _class_members(table: AlternatingTable, classes, points) -> tuple[Permutation, ...]:
    """The elements of ``classes`` that move only ``points``, in canonical
    order: the even permutations of ``points`` filtered by class.  None are
    formed when ``classes`` is empty, or when there are more than
    ``DEFAULT_ELEMENT_CAP`` even permutations of ``points`` to filter."""
    if not classes:
        return ()
    s = len(points)
    if math.factorial(s) // 2 > DEFAULT_ELEMENT_CAP:
        raise CapExceeded(
            f"listing the even permutations of {s} points passes cap {DEFAULT_ELEMENT_CAP}"
        )
    out = []
    for images in permutations(points):
        h = list(range(table.degree))
        for p, q in zip(points, images):
            h[p] = q
        h = Permutation(h)
        if is_even(h) and table.class_index(h) in classes:
            out.append(h)
    return tuple(sorted(out, key=Permutation.sort_key))


class SupportCoverReport(Record):
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
    meets both halves.  So the check is one of class indices, and only the
    classes missing from the fourth power have their members in supp(x)
    listed.  Requires m >= 5 (the Klein closure in A_4 is a genuine
    counterexample to any such statement).
    """
    if m < 5:
        raise ValueError("support coverage requires degree >= 5")
    x = Permutation(x)
    if x.is_identity():
        raise ValueError("x must be nontrivial")
    if len(x) != m or not is_even(x):
        raise ValueError(f"{x!r} is not an element of A{m}")
    table = alternating_table(m)
    covered = _layer(table, (table.class_index(x),), 4)
    support = x.support()
    missing = {
        c for c, rep in enumerate(table.representatives)
        if c not in covered and 0 < len(rep.support()) <= len(support)
    }
    violations = _class_members(table, missing, support)
    return SupportCoverReport(
        m=m,
        x=x,
        power=4,
        target_size=math.factorial(len(support)) // 2 - 1,
        holds=not violations,
        violations=violations,
    )


class BrennerReport(Record):
    m: int
    base: tuple[Permutation, ...]
    depth: int
    epsilon: Fraction
    threshold: Fraction
    ball_size: int
    holds: bool
    violations: tuple[Permutation, ...]


def verify_brenner_bound(m: int, X, n: int) -> BrennerReport:
    """Check ball(Hamming, (n-1)*eps/16) against the depth-n consequence set.

    eps is the largest Hamming length over the base set X; every even
    permutation shorter than the threshold must lie in C_n(X, A_m).
    Hamming length is a class function and C_n(X, A_m) a union of classes,
    so the ball is tested one class representative at a time and only the
    classes missing from C_n have their elements listed.
    """
    if m < 5:
        raise ValueError("coverage bounds require degree >= 5")
    if n < 1:
        raise ValueError("depth must be >= 1")
    base = tuple(sorted((Permutation(x) for x in X), key=lambda p: p.sort_key()))
    if not base:
        raise ValueError("base set must be nonempty")
    for x in base:
        if x.is_identity():
            raise ValueError("base set must not contain the identity")
        if len(x) != m or not is_even(x):
            raise ValueError(f"{x!r} is not an element of A{m}")
    table = alternating_table(m)
    eps = max(hamming_length(x) for x in base)
    threshold = Fraction(n - 1) * eps / 16
    ball = [
        c for c, rep in enumerate(table.representatives) if hamming_length(rep) < threshold
    ]
    letters = sorted({c for x in base for c in table.letters(table.class_index(x))})
    depth_n = _layer(table, letters, n)
    violations = _class_members(table, {c for c in ball if c not in depth_n}, range(m))
    return BrennerReport(
        m=m,
        base=base,
        depth=n,
        epsilon=eps,
        threshold=threshold,
        ball_size=sum(table.sizes[c] for c in ball),
        holds=not violations,
        violations=violations,
    )


# --- covering-ratio sweeps ----------------------------------------------------


class CoveringRow(Record):
    x: Permutation
    y: Permutation
    depth: int | None
    steps: int  # ceil(||y|| / ||x||)
    ratio: Fraction | None  # depth / steps


class CoveringTable(Record):
    m: int
    rows: tuple[CoveringRow, ...]
    max_ratio: Fraction | None


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
    if m < 5:
        raise ValueError("support coverage requires degree >= 5")
    return tuple(verify_support_cover(m, x) for x in alternating_table(m).representatives[1:])


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
