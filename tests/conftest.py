"""Shared brute-force oracles, deliberately independent of the library's
class-level machinery: everything here works element by element."""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product

import pytest

from groupapprox import coverage, groups, store
from groupapprox.approximation import (
    Exhausted,
    FoundHomomorphism,
    SearchStats,
    SoficCertificate,
    amplification_exponent,
)
from groupapprox.errors import BudgetExceeded
from groupapprox.groups import FiniteGroup, SeparationReport, consequences, is_n_separated
from groupapprox.lengths import AxiomReport, AxiomViolation
from groupapprox.perm import Permutation, conjugate, embed_sym_in_alt, hamming_length, is_even
from groupapprox.words import evaluate_word

# Child processes (``python -m groupapprox``, the scripts) import the package
# from this checkout's src/, as this process does, installed or not.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(autouse=True)
def _fresh_store():
    """Each test starts with no stored groups, so a test that patches a
    group method sees the groups it names built afresh."""
    store.clear()


@lru_cache(maxsize=None)
def enumerated_alternating(m):
    """A_m listed and partitioned once per degree, with its nontrivial class
    representatives: the element oracles' own A_m, which the library never
    lists."""
    G = FiniteGroup.alternating(m)
    classes = G.conjugacy_classes()
    return G, tuple(map(G.class_representative, range(1, len(classes))))


def brute_letters(G, X):
    """All conjugates of members of X or their inverses, by double loop."""
    letters = set()
    els = G.elements()
    for x in X:
        for g in els:
            gi = g.inverse()
            letters.add((gi * x) * g)
            letters.add((gi * x.inverse()) * g)
    return letters


def brute_consequences(G, X, n):
    """Exact-depth product set of the letter alphabet, element-level."""
    if not X:
        return frozenset()
    letters = brute_letters(G, X)
    current = set(letters)
    for _ in range(n - 1):
        current = {a * b for a in current for b in letters}
    return frozenset(current)


def brute_min_depth(G, X, y, max_n):
    """Least depth whose brute-force layer contains y, scanning to max_n."""
    if not X:
        return None
    letters = brute_letters(G, X)
    current = set(letters)
    for depth in range(1, max_n + 1):
        if y in current:
            return depth
        current = {a * b for a in current for b in letters}
    return None


def brute_cayley_distances(G, X):
    """Word lengths over the conjugate alphabet by element-level BFS."""
    letters = brute_letters(G, X)
    start = G.identity()
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for h in frontier:
            for a in letters:
                t = h * a
                if t not in dist:
                    dist[t] = d
                    nxt.append(t)
        frontier = nxt
    return dist


def element_is_n_separated(G, Y, X, n):
    """``is_n_separated`` before it worked on class indices: Y is
    intersected with every element layer of the consequence set."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    y_set = frozenset(Permutation(y) for y in Y)
    for y in y_set:
        if y not in G:
            raise ValueError(f"{y!r} is not an element of {G.name}")
    cons = consequences(G, X, n)
    violated = tuple(j for j, layer in enumerate(cons.layers, start=1) if y_set & layer)
    hits = y_set & cons.elements
    witness = min(hits, key=lambda p: p.sort_key()) if hits else None
    return SeparationReport(
        separated=not hits, depth=n, witness=witness, violated_depths=violated
    )


def element_class_product(G, a, c):
    """The element-loop layer kernel: classes of rep(K_a) * y over y in K_c.

    This is the product loop the consequence engine ran for every letter
    class a and layer class c before class products were memoized; the
    representative is recomputed as the least element by sort key.
    """
    classes = G.conjugacy_classes()
    rep = _least_in_class(G, a)
    return frozenset(G.class_index_of(rep * y) for y in classes[c])


@lru_cache(maxsize=None)
def _least_in_class(G, a):
    return min(G.conjugacy_classes()[a], key=lambda p: p.sort_key())


def element_consequence_class_layers(G, X, product=None):
    """Element-loop consequence layers: (depth, class indices) until period two.

    ``product(a, c)`` defaults to ``element_class_product``; pass a cached
    one to reuse pair results across calls on a large group.
    """
    if product is None:
        product = lambda a, c: element_class_product(G, a, c)  # noqa: E731
    letters = sorted({G.class_index_of(x) for x in X} | {G.class_index_of(x.inverse()) for x in X})
    if not letters:
        return
    layer = frozenset(letters)
    prev = None
    depth = 0
    while True:
        depth += 1
        yield depth, layer
        nxt = set()
        for a in letters:
            for c in layer:
                nxt |= product(a, c)
        nxt = frozenset(nxt)
        if prev is not None and nxt == prev:
            yield depth + 1, nxt
            return
        prev = layer
        layer = nxt


def element_class_power(G, class_index, power, product=None):
    """Class indices of the exact power-fold product of one class, element loop."""
    if product is None:
        product = lambda a, c: element_class_product(G, a, c)  # noqa: E731
    layer = frozenset((class_index,))
    for _ in range(power - 1):
        layer = frozenset().union(*(product(class_index, c) for c in layer))
    return layer


def element_verify_axioms(ell, max_violations=20):
    """The element double loop ``verify_axioms`` ran before its index kernel.

    Forms g*h and h^-1 g h as permutation products for every ordered pair
    and compares the Fraction values directly.
    """
    G = ell.group
    els = G.elements()
    values = {x: ell(x) for x in els}
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

    e = G.identity()
    if values[e] != 0:
        add("identity", (e,), f"||1|| = {values[e]} != 0")
    for x, v in values.items():
        if v < 0:
            add("nonnegative", (x,), f"||{x!r}|| = {v} < 0")
    pairs = 0
    for g in els:
        vg = values[g]
        for h in els:
            pairs += 1
            if values[g * h] > vg + values[h]:
                add(
                    "subadditive",
                    (g, h),
                    f"||gh|| = {values[g * h]} > {vg} + {values[h]}",
                )
    for g in els:
        vg = values[g]
        for h in els:
            pairs += 1
            c = (h.inverse() * g) * h
            if values[c] != vg:
                add(
                    "invariant",
                    (g, h),
                    f"||h^-1 g h|| = {values[c]} != {vg}",
                )
    return AxiomReport(valid=total == 0, violations=tuple(violations), pairs_checked=pairs)


def satisfies(system, constants, variables, degree) -> bool:
    """Every word of the system evaluates to the identity, by Permutation products."""
    assignment = tuple(constants) + tuple(variables)
    for w in system.words:
        if not evaluate_word(w, assignment, degree).is_identity():
            return False
    return True


def element_scan_constants(system, constant_tuples, els, degree, want_witnesses, roots=None):
    """The assignment scan ``equations`` ran before its compiled kernel.

    Same contract as ``equations._scan_constants``: the first constant
    tuple no variable tuple satisfies, or None and the first solution of
    each tuple; every assignment is evaluated word by word with
    ``evaluate_word``.  ``roots`` is ignored: the oracle scans every
    system, power words included.
    """
    witnesses = []
    for constants in constant_tuples:
        found = None
        for variables in iter_product(els, repeat=system.variables):
            if satisfies(system, constants, variables, degree):
                found = variables
                break
        if found is None:
            return constants, []
        if want_witnesses:
            witnesses.append((constants, found))
    return None, witnesses


def every_tuple(G, items, r, inner=False):
    """``characters.leader_first`` before orbit leaders: every r-tuple over
    ``items`` in canonical order, each with its 1-based position."""
    return enumerate(iter_product(items, repeat=r), start=1)


def canonical_tuples(els, r, acting):
    """``characters.leader_first`` by brute force: the r-tuples over
    ``els``, in canonical order, that ``is_conjugation_canonical`` keeps
    under conjugation by ``acting``, each with its 1-based position among
    all ``len(els) ** r`` tuples.  Only the extensions of kept tuples are
    tested, as a conjugation that lowers the first k entries of a tuple
    lowers the tuple."""
    kept = [(0, ())]
    for _ in range(r):
        kept = [
            (position * len(els) + i, t + (x,))
            for position, t in kept
            for i, x in enumerate(els)
            if is_conjugation_canonical(t + (x,), acting)
        ]
    return [(position + 1, t) for position, t in kept]


def is_conjugation_canonical(items, elements) -> bool:
    """The conjugation-canonical predicate, by brute force over the acting
    group: no simultaneous conjugate g^-1 x g (g in elements) of the tuple
    has a smaller tuple of sort keys.  The keys are compared entry by entry,
    up to the first that differs."""
    keys = [x.sort_key() for x in items]
    for g in elements:
        for x, key in zip(items, keys):
            other = conjugate(x, g).sort_key()
            if other != key:
                if other < key:
                    return False
                break
    return True


def element_search_separating_hom(p, n, catalog, budget, prune_conjugates=False):
    """The separating-hom search before its raw-tuple kernel and orbit
    leaders: every assignment is tested, evaluates its words with
    ``evaluate_word`` and runs a fresh ``is_n_separated``."""
    rank = len(p.generators)
    count = 0
    per_group = []
    for H in catalog:
        group_count = 0
        els = H.elements()
        for assignment in iter_product(els, repeat=rank):
            count += 1
            group_count += 1
            if count > budget:
                raise BudgetExceeded(
                    f"assignment budget {budget} exhausted",
                    stats={"assignments": count - 1, "group": H.name},
                )
            if prune_conjugates and not is_conjugation_canonical(assignment, els):
                continue
            y_images = frozenset(evaluate_word(w, assignment, H.degree) for w in p.outside)
            phi_images = frozenset(evaluate_word(w, assignment, H.degree) for w in p.inside)
            sep = is_n_separated(H, y_images, phi_images, n)
            if sep.separated:
                per_group.append((H.name, group_count))
                return FoundHomomorphism(
                    group=H,
                    images=tuple(assignment),
                    separation=sep,
                    stats=SearchStats(assignments=count, per_group=tuple(per_group)),
                )
        per_group.append((H.name, group_count))
    return Exhausted(stats=SearchStats(assignments=count, per_group=tuple(per_group)))


def element_search_sofic_instance(p, epsilon, catalog, budget):
    """The sofic search before its raw-tuple kernel and orbit leaders: every
    assignment is tested, symmetric candidates are doubled into the
    alternating group and every length is a Fraction."""
    epsilon = Fraction(epsilon)
    if len(p.outside) != 1:
        raise ValueError("sofic search needs exactly one outside word")
    y_word = p.outside[0]
    for H in catalog:
        if H.kind not in ("symmetric", "alternating"):
            raise ValueError(
                f"sofic search catalogs hold symmetric or alternating groups, "
                f"not {H.kind}: {H.name}"
            )
    rank = len(p.generators)
    count = 0
    per_group = []
    for H in catalog:
        group_count = 0
        els = H.elements()
        embed = H.kind == "symmetric"
        for assignment in iter_product(els, repeat=rank):
            count += 1
            group_count += 1
            if count > budget:
                raise BudgetExceeded(
                    f"assignment budget {budget} exhausted",
                    stats={"assignments": count - 1, "group": H.name},
                )
            if embed:
                images = tuple(embed_sym_in_alt(x) for x in assignment)
                degree = 2 * H.degree
            else:
                images = tuple(assignment)
                degree = H.degree
            raw = hamming_length(evaluate_word(y_word, images, degree))
            if raw == 0:
                continue
            r = amplification_exponent(raw)
            inside_raw = [hamming_length(evaluate_word(w, images, degree)) for w in p.inside]
            inside_amp = [1 - (1 - L) ** r for L in inside_raw]
            if all(L < epsilon for L in inside_amp):
                per_group.append((H.name, group_count))
                return SoficCertificate(
                    group_degree=degree,
                    images=images,
                    amplification=r,
                    epsilon=epsilon,
                    outside_word=y_word,
                    inside_words=p.inside,
                    raw_outside_length=raw,
                    amplified_outside_length=1 - (1 - raw) ** r,
                    amplified_inside_lengths=tuple(inside_amp),
                    stats=SearchStats(assignments=count, per_group=tuple(per_group)),
                    embedded=embed,
                )
        per_group.append((H.name, group_count))
    return Exhausted(stats=SearchStats(assignments=count, per_group=tuple(per_group)))


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


def element_verify_support_cover(m, x):
    """``coverage.verify_support_cover`` before it worked on classes: every
    even permutation supported in supp(x) is listed, sorted and tested
    against the fourth power from ``element_class_power``, read by name."""
    if m < 5:
        raise ValueError("support coverage requires degree >= 5")
    x = Permutation(x)
    if x.is_identity():
        raise ValueError("x must be nontrivial")
    G, _ = enumerated_alternating(m)
    if x not in G:
        raise ValueError(f"{x!r} is not an element of {G.name}")
    covered = element_class_power(G, G.class_index_of(x), 4, G.class_product)
    targets = _even_support_perms(m, x.support())
    violations = tuple(
        y for y in sorted(targets, key=lambda p: p.sort_key())
        if G.class_index_of(y) not in covered
    )
    return coverage.SupportCoverReport(
        m=m,
        x=x,
        power=4,
        target_size=len(targets),
        holds=not violations,
        violations=violations,
    )


def element_verify_brenner_bound(m, X, n):
    """``coverage.verify_brenner_bound`` before it worked on classes: the
    ball is every element shorter than the threshold, each looked up in the
    depth-n set of ``groups.consequences``, read by name."""
    if m < 5:
        raise ValueError("coverage bounds require degree >= 5")
    if n < 1:
        raise ValueError("depth must be >= 1")
    base = tuple(sorted((Permutation(x) for x in X), key=lambda p: p.sort_key()))
    if not base:
        raise ValueError("base set must be nonempty")
    G, _ = enumerated_alternating(m)
    for x in base:
        if x.is_identity():
            raise ValueError("base set must not contain the identity")
        if x not in G:
            raise ValueError(f"{x!r} is not an element of {G.name}")
    eps = max(hamming_length(x) for x in base)
    threshold = Fraction(n - 1) * eps / 16
    ball = [h for h in G.elements() if hamming_length(h) < threshold]
    cons = groups.consequences(G, base, n).elements
    violations = tuple(h for h in ball if h not in cons)
    return coverage.BrennerReport(
        m=m,
        base=base,
        depth=n,
        epsilon=eps,
        threshold=threshold,
        ball_size=len(ball),
        holds=not violations,
        violations=violations,
    )


def support_cover_exhaustive(m: int) -> tuple[int, tuple[Permutation, ...]]:
    """Check the fourth-power support cover for every nontrivial element.

    Class powers are computed once per class; each element then only
    costs the enumeration of its support targets.  Returns (elements
    checked, violating target permutations).
    """
    if m < 5:
        raise ValueError("support coverage requires degree >= 5")
    G, reps = enumerated_alternating(m)
    covered_by_class = {
        G.class_index_of(rep): element_class_power(G, G.class_index_of(rep), 4, G.class_product)
        for rep in reps
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


def element_covering_constant(m: int) -> coverage.CoveringTable:
    """``coverage.empirical_covering_constant`` before it read the character
    table: A_m is listed and partitioned, and each row's layers are unions
    of element-level class products.  Reads ``groups.class_first_depths`` and
    ``groups.iter_consequence_class_layers`` by name."""
    if m < 5:
        raise ValueError("coverage sweeps require degree >= 5")
    G, reps = enumerated_alternating(m)
    rows = []
    for x in reps:
        first = groups.class_first_depths(groups.iter_consequence_class_layers(G, (x,)))
        lx = hamming_length(x)
        for y in reps:
            steps = math.ceil(hamming_length(y) / lx)
            depth = first.get(G.class_index_of(y))
            ratio = Fraction(depth, steps) if depth is not None else None
            rows.append(coverage.CoveringRow(x=x, y=y, depth=depth, steps=steps, ratio=ratio))
    ratios = [r.ratio for r in rows if r.ratio is not None]
    return coverage.CoveringTable(m=m, rows=tuple(rows), max_ratio=max(ratios) if ratios else None)
