"""Almost-homomorphism windows, their certificates, and instance searches.

A window is a finite set of reduced free words containing the identity,
together with its partial multiplication table (the triples g, h, gh that
all lie in the window).  A certificate pins a map from the window into a
finite permutation group and one of two acceptance modes:

* consequence mode: the images of the nontrivial words must be
  n-separated from the defect set {phi(g) phi(h) phi(gh)^-1};
* metric mode: image lengths must clear a floor alpha while every defect
  stays strictly below epsilon, for a chosen invariant length function.

Searches enumerate generator assignments into catalog groups in canonical
order (so "first found" is reproducible), with the budget counted in
candidate assignments, never wall time.  They test only the assignments
least in their orbits under simultaneous conjugation
(``characters.leader_first``), which find the same first map, and count
every assignment by its canonical position.  So ``approx-search --prune``
changes neither the work nor the result; it is still accepted and
reported, as the benchmark's inputs name it.  The searches test each
assignment on raw image tuples (``words.compile_word``) and build
permutations, exact lengths and reports for the one they return.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import ne

from .characters import leader_first
from .errors import BudgetExceeded, ParseError
from .groups import (
    FiniteGroup,
    SeparationReport,
    consequence_class_layers,
    is_n_separated,
)
from .lengths import LengthFunction
from .perm import (
    Permutation,
    cycle_string,
    direct_sum,
    embed_sym_in_alt,
    hamming_length,
    is_even,
    replicate,
)
from .records import Record
from .words import (
    Word,
    compile_word,
    concat,
    evaluate_compiled,
    evaluate_word,
    max_symbol,
    paired_images,
    parse_word,
    reduce_word,
)

DEFAULT_SEARCH_BUDGET = 10**6


class Window(Record):
    """Finite word set with its partial multiplication table."""

    names: tuple[str, ...]
    words: tuple[Word, ...]

    def __post_init__(self):
        if () not in self.words:
            raise ValueError("a window must contain the identity word")
        if len(set(self.words)) != len(self.words):
            raise ValueError("window words must be distinct")
        for w in self.words:
            if w != reduce_word(w):
                raise ValueError(f"window word {w} is not freely reduced")
            if max_symbol(w) > len(self.names):
                raise ValueError(f"word {w} uses symbols beyond the generator list")

    @property
    def identity_index(self) -> int:
        return self.words.index(())

    def products(self) -> tuple[tuple[int, int, int], ...]:
        """Triples (i, j, k) with words[i] * words[j] reducing to words[k],
        formed on the first call and kept by the window."""
        return self._products

    @cached_property
    def _products(self):
        index = {w: i for i, w in enumerate(self.words)}
        out = []
        for i, a in enumerate(self.words):
            for j, b in enumerate(self.words):
                k = index.get(concat(a, b))
                if k is not None:
                    out.append((i, j, k))
        return tuple(out)


def window_from_texts(names, texts) -> Window:
    names = tuple(names)
    return Window(names, tuple(parse_word(t, names) for t in texts))


class ConsequenceMode(Record):
    depth: int


class MetricMode(Record):
    length: LengthFunction
    alpha: tuple  # Fractions aligned with window.words
    epsilon: Fraction


class Certificate(Record):
    """A window map plus everything needed to re-verify the verdict."""

    window: Window
    target: FiniteGroup
    images: tuple  # Permutations aligned with window.words
    mode: object  # ConsequenceMode | MetricMode

    def __post_init__(self):
        if len(self.images) != len(self.window.words):
            raise ValueError("one image per window word is required")
        for x in self.images:
            if Permutation(x) not in self.target:
                raise ValueError(f"image {x!r} lies outside {self.target.name}")

    def defects(self) -> frozenset:
        """Multiplicativity failures phi(g) phi(h) phi(gh)^-1 over the table."""
        out = set()
        for i, j, k in self.window.products():
            out.add(self.images[i] * self.images[j] * self.images[k].inverse())
        return frozenset(out)


class CheckResult(Record):
    holds: bool
    reason: str
    separation: SeparationReport | None = None
    violations: tuple = ()


def check_consequence_instance(cert: Certificate) -> CheckResult:
    """Images of nontrivial words must avoid C_n of the defect set.

    Defect elements equal to the identity are kept in the base set; the
    consequence engine treats the identity letter as padding, which makes
    the depth-n set cumulative in that case.
    """
    if not isinstance(cert.mode, ConsequenceMode):
        raise ValueError("certificate is not in consequence mode")
    e = cert.images[cert.window.identity_index]
    if not e.is_identity():
        return CheckResult(holds=False, reason="identity word does not map to 1")
    targets = frozenset(
        img
        for w, img in zip(cert.window.words, cert.images)
        if w != ()
    )
    sep = is_n_separated(cert.target, targets, cert.defects(), cert.mode.depth)
    reason = "separated from defect consequences" if sep.separated else (
        f"image {cycle_string(sep.witness)} is a depth-{cert.mode.depth} defect consequence"
    )
    return CheckResult(holds=sep.separated, reason=reason, separation=sep)


def check_metric_instance(cert: Certificate) -> CheckResult:
    """Image lengths must clear alpha; defect lengths must stay below epsilon."""
    mode = cert.mode
    if not isinstance(mode, MetricMode):
        raise ValueError("certificate is not in metric mode")
    if len(mode.alpha) != len(cert.window.words):
        raise ValueError("alpha must assign a floor to every window word")
    ell = mode.length
    if ell.group is not cert.target and ell.group.element_set() != cert.target.element_set():
        raise ValueError("length function lives on a different group")
    idx = cert.window.identity_index
    if Fraction(mode.alpha[idx]) != 0:
        raise ValueError("alpha must vanish on the identity word")
    for i, a in enumerate(mode.alpha):
        if i != idx and Fraction(a) <= 0:
            raise ValueError("alpha must be positive on nontrivial words")
    e = cert.images[idx]
    if not e.is_identity():
        return CheckResult(holds=False, reason="identity word does not map to 1")
    violations = []
    for w, img, a in zip(cert.window.words, cert.images, mode.alpha):
        if ell(img) < Fraction(a):
            violations.append(("floor", w, img))
    for d in sorted(cert.defects(), key=lambda p: p.sort_key()):
        if not ell(d) < mode.epsilon:
            violations.append(("defect", None, d))
    if violations:
        return CheckResult(
            holds=False,
            reason="floor or defect constraint failed",
            violations=tuple(violations),
        )
    return CheckResult(holds=True, reason="floors met, defects small")


# --- presentations -----------------------------------------------------------


class Presentation(Record):
    """Free generators, relators, and the declared test word sets.

    ``inside`` words are asserted by the caller to be consequences of the
    relators (products of their conjugates); ``outside`` words are
    asserted not to be.
    """

    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    inside: tuple[Word, ...]
    outside: tuple[Word, ...]


def parse_presentation(text: str, source=None) -> Presentation:
    generators = None
    relators, inside, outside = [], [], []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword = line.split(None, 1)[0]
        rest = line[len(keyword):]
        if keyword == "generators":
            if generators is not None:
                raise ParseError("duplicate generators line", line=ln, source=source)
            generators = tuple(rest.split())
            if not generators:
                raise ParseError("empty generator list", line=ln, source=source)
            if len(set(generators)) != len(generators):
                raise ParseError("repeated generator name", line=ln, source=source)
        elif keyword in ("relator", "inside", "outside"):
            if generators is None:
                raise ParseError(
                    "generators must be declared before words", line=ln, source=source
                )
            column = len(raw) - len(raw.lstrip()) + len(keyword) + 1  # 1-based, of rest in raw
            word = parse_word(rest, generators, line=ln, source=source, column=column)
            {"relator": relators, "inside": inside, "outside": outside}[keyword].append(word)
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line=ln, source=source)
    if generators is None:
        raise ParseError("missing generators line", line=1, source=source)
    return Presentation(
        generators=generators,
        relators=tuple(relators),
        inside=tuple(inside),
        outside=tuple(outside),
    )


# --- searches ----------------------------------------------------------------


class SearchStats(Record):
    assignments: int
    per_group: tuple[tuple[str, int], ...]


class FoundHomomorphism(Record):
    group: FiniteGroup
    images: tuple  # generator images, aligned with presentation generators
    separation: SeparationReport
    stats: SearchStats


class Exhausted(Record):
    stats: SearchStats


def search_separating_hom(
    p: Presentation,
    n: int,
    catalog,
    budget: int = DEFAULT_SEARCH_BUDGET,
):
    """Scan generator assignments for a map separating outside from inside.

    Assignments enumerate lexicographically over canonical element order,
    group by group in catalog order, with only the canonical ones tested
    (``_assignments``); every assignment extends to a homomorphism of the
    free group, so only the separation verdict is checked.  Raises
    BudgetExceeded when the assignment budget runs out before the space is
    exhausted.

    The depth-n consequence layer of the inside images is a union of
    classes that depends only on their classes, so it is formed once per
    class set, and an outside image is tested by its class.
    """
    rank = len(p.generators)
    inside = [compile_word(w) for w in p.inside]
    outside = [compile_word(w) for w in p.outside]
    count = 0
    per_group = []
    for H in catalog:
        points = tuple(range(H.degree))
        class_of = None  # partition H only once its first assignment is in budget
        layers = {}  # classes of the inside images -> classes of the depth-n layer
        for position, combo in _assignments(H, rank, count, budget):
            if class_of is None:
                class_of = H.class_map()
            vals = tuple(chain.from_iterable(combo))
            key = frozenset([class_of[evaluate_compiled(w, vals, points)] for w in inside])
            layer = layers.get(key)
            if layer is None:
                reps = [H.class_representative(ci) for ci in key]
                layer = layers[key] = consequence_class_layers(H, reps, n)[-1]
            for w in outside:
                if class_of[evaluate_compiled(w, vals, points)] in layer:
                    break
            else:
                per_group.append((H.name, position - count))
                assignment = tuple(x for x, _ in combo)
                y_images = frozenset(
                    evaluate_word(w, assignment, H.degree) for w in p.outside
                )
                phi_images = frozenset(
                    evaluate_word(w, assignment, H.degree) for w in p.inside
                )
                return FoundHomomorphism(
                    group=H,
                    images=assignment,
                    separation=is_n_separated(H, y_images, phi_images, n),
                    stats=SearchStats(assignments=position, per_group=tuple(per_group)),
                )
        total = len(H.elements()) ** rank
        count += total
        per_group.append((H.name, total))
    return Exhausted(stats=SearchStats(assignments=count, per_group=tuple(per_group)))


def _assignments(H, rank, count, budget):
    """The generator assignments into H that a search tests, as pairs
    (position, tuple of (image, inverse) pairs), in canonical order.

    A search's successes are closed under simultaneous conjugation, so only
    the assignments least in their orbits are tested (``leader_first``).
    Positions count every assignment, tested or not, across the catalog:
    ``count`` precede H.  BudgetExceeded is raised at the first position
    past ``budget``, tested or not, as a scan of every assignment would:
    after H is listed, and before it is partitioned if that is H's first.
    """
    items = paired_images(H.elements())
    if count >= budget:
        raise _budget_exceeded(budget, H)
    for position, combo in leader_first(H, items, rank):
        if count + position > budget:
            raise _budget_exceeded(budget, H)
        yield count + position, combo
    if count + len(items) ** rank > budget:
        raise _budget_exceeded(budget, H)


def _budget_exceeded(budget, H):
    return BudgetExceeded(
        f"assignment budget {budget} exhausted",
        stats={"assignments": budget, "group": H.name},
    )


class SoficCertificate(Record):
    """Witness that one outside word can be made long while inside words stay short.

    ``images`` are even permutations of the stated degree (symmetric-group
    candidates are doubled into the alternating group first).  The
    amplification exponent never needs materializing: coordinatewise
    powers scale lengths by 1 - (1-L)^r exactly.
    """

    group_degree: int
    images: tuple  # generator images, even permutations
    amplification: int
    epsilon: Fraction
    outside_word: Word
    inside_words: tuple
    raw_outside_length: Fraction
    amplified_outside_length: Fraction
    amplified_inside_lengths: tuple
    stats: SearchStats
    embedded: bool


def amplification_exponent(raw_length: Fraction) -> int:
    """Smallest r with (1 - raw)^r <= 1/2; r = 1 when raw is already >= 1/2."""
    raw = Fraction(raw_length)
    if not 0 < raw <= 1:
        raise ValueError("raw length must be in (0, 1]")
    if raw >= Fraction(1, 2):
        return 1
    r = 1
    rest = 1 - raw
    acc = rest
    while acc > Fraction(1, 2):
        acc *= rest
        r += 1
    return r


def search_sofic_instance(
    p: Presentation,
    epsilon,
    catalog,
    budget: int = DEFAULT_SEARCH_BUDGET,
):
    """Find a map into an alternating group with the outside word long.

    Requires exactly one outside word, a positive epsilon, and a catalog of
    builtin symmetric and alternating groups only, checked before any is
    scanned.  The assignments are those of ``_assignments``.  Candidates
    whose raw outside length is at least 1/2 are taken as they stand;
    shorter nonzero ones are amplified coordinatewise until they clear 1/2,
    provided every inside word still lands strictly below epsilon after the
    same amplification.

    Lengths are tested as moved-point counts on the candidate's own
    degree: doubling a symmetric candidate into the alternating group
    moves twice the points of twice the degree, which leaves every
    normalized length as it is.  The exact work is done once per distinct
    count, and the images are doubled for the map returned.
    """
    epsilon = Fraction(epsilon)
    if len(p.outside) != 1:
        raise ValueError("sofic search needs exactly one outside word")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    catalog = tuple(catalog)
    for H in catalog:
        if H.kind not in ("symmetric", "alternating"):
            raise ValueError(
                f"sofic search catalogs hold symmetric or alternating groups, "
                f"not {H.kind}: {H.name}"
            )
    rank = len(p.generators)
    outside = compile_word(p.outside[0])
    inside = [compile_word(w) for w in p.inside]
    count = 0
    per_group = []
    for H in catalog:
        m = H.degree
        points = tuple(range(m))
        exponents = {}  # points moved by the outside image -> amplification exponent
        short = {}  # (points moved by an inside image, exponent) -> amplified < epsilon
        for position, combo in _assignments(H, rank, count, budget):
            vals = tuple(chain.from_iterable(combo))
            moved = sum(map(ne, evaluate_compiled(outside, vals, points), points))
            if not moved:
                continue
            r = exponents.get(moved)
            if r is None:
                r = exponents[moved] = amplification_exponent(Fraction(moved, m))
            for w in inside:
                key = (sum(map(ne, evaluate_compiled(w, vals, points), points)), r)
                ok = short.get(key)
                if ok is None:
                    ok = short[key] = 1 - (1 - Fraction(key[0], m)) ** r < epsilon
                if not ok:
                    break
            else:
                per_group.append((H.name, position - count))
                embed = H.kind == "symmetric"
                images = tuple(embed_sym_in_alt(x) if embed else x for x, _ in combo)
                degree = 2 * m if embed else m
                raw = Fraction(moved, m)
                inside_amp = tuple(
                    1 - (1 - hamming_length(evaluate_word(w, images, degree))) ** r
                    for w in p.inside
                )
                return SoficCertificate(
                    group_degree=degree,
                    images=images,
                    amplification=r,
                    epsilon=epsilon,
                    outside_word=p.outside[0],
                    inside_words=p.inside,
                    raw_outside_length=raw,
                    amplified_outside_length=1 - (1 - raw) ** r,
                    amplified_inside_lengths=inside_amp,
                    stats=SearchStats(assignments=position, per_group=tuple(per_group)),
                    embedded=embed,
                )
        total = len(H.elements()) ** rank
        count += total
        per_group.append((H.name, total))
    return Exhausted(stats=SearchStats(assignments=count, per_group=tuple(per_group)))


def verify_sofic_certificate(cert: SoficCertificate) -> bool:
    """Recompute every stored quantity of a sofic certificate."""
    degree = cert.group_degree
    for x in cert.images:
        if len(x) != degree or not is_even(x):
            return False
    raw = hamming_length(evaluate_word(cert.outside_word, cert.images, degree))
    if raw != cert.raw_outside_length or raw == 0:
        return False
    r = cert.amplification
    if r != amplification_exponent(raw):
        return False
    amp = 1 - (1 - raw) ** r
    if amp != cert.amplified_outside_length or amp < Fraction(1, 2):
        return False
    if len(cert.inside_words) != len(cert.amplified_inside_lengths):
        return False
    for w, stored in zip(cert.inside_words, cert.amplified_inside_lengths):
        L = hamming_length(evaluate_word(w, cert.images, degree))
        if 1 - (1 - L) ** r != stored or not stored < cert.epsilon:
            return False
    return True


def merge_homomorphisms(homs):
    """Combine per-target maps into one by replication and direct sums.

    Each entry is (degree, images); all image tuples must have the same
    length.  Degrees are replicated up to their least common multiple so
    the blocks match, then summed.  Lengths average with block weights,
    so a word of length at least 1/2 under one input keeps length at
    least 1/(2 * number of inputs) under the result.
    """
    homs = list(homs)
    if not homs:
        raise ValueError("need at least one homomorphism")
    rank = len(homs[0][1])
    for _, images in homs:
        if len(images) != rank:
            raise ValueError("all homomorphisms must share the generator count")
    common = 1
    for degree, _ in homs:
        common = math.lcm(common, degree)
    blocks = [[replicate(x, common // degree) for x in images] for degree, images in homs]
    merged = blocks[0]
    for block in blocks[1:]:
        merged = [direct_sum(a, b) for a, b in zip(merged, block)]
    return common * len(homs), tuple(merged)
