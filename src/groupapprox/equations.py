"""Brute-force solvability of word equation systems over finite groups.

A system is a list of freely reduced words over r constant symbols
a1..ar and k variable symbols x1..xk.  "Solvable in G" is the full
universal-existential check: every constant tuple admits a variable tuple
killing all words.  "Solvable over G" is only ever answered positively
(via explicitly supplied overgroup embeddings) or left unknown: a finite
scan cannot refute an existential over all overgroups.

Text systems use the DSL::

    constants 1; variables 1;
    x1 x1 a1^-1

one word per line after the header.
"""

from __future__ import annotations

import os
import re
from itertools import chain, repeat
from itertools import product as iter_product

from .characters import cycle_type, leader_first, power_types
from .errors import ParseError
from .groups import FiniteGroup
from .perm import Permutation, replicate
from .records import Record
from .words import Word, max_symbol, paired_images, parse_word, reduce_word
from .words import evaluate_word  # patched by name in perfbench/tracing.py

DEFAULT_EQ_BUDGET = 10**7


class EquationSystem(Record):
    """Words over constants 1..r and variables r+1..r+k (signed symbols)."""

    constants: int
    variables: int
    words: tuple[Word, ...]

    def __post_init__(self):
        if self.constants < 0 or self.variables < 0:
            raise ValueError("arities must be nonnegative")
        if not self.words:
            raise ValueError("a system needs at least one word")
        for w in self.words:
            if w != reduce_word(w):
                raise ValueError(f"system word {w} is not freely reduced")
            if max_symbol(w) > self.constants + self.variables:
                raise ValueError(f"word {w} uses symbols beyond the declared arities")

    def symbol_names(self) -> tuple[str, ...]:
        return _symbol_names(self.constants, self.variables)


def _symbol_names(constants: int, variables: int) -> tuple[str, ...]:
    return tuple([f"a{i + 1}" for i in range(constants)] + [f"x{j + 1}" for j in range(variables)])


_HEADER_RE = re.compile(r"^constants\s+(\d+)\s*;\s*variables\s+(\d+)\s*;\s*$")


def parse_equation_system(text: str, source=None) -> EquationSystem:
    lines = text.splitlines()
    header = None
    words = []
    names = None
    for ln, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0]
        line = text.strip()
        if not line:
            continue
        if header is None:
            match = _HEADER_RE.match(line)
            if not match:
                raise ParseError(
                    'expected header "constants r; variables k;"', line=ln, source=source
                )
            header = (int(match.group(1)), int(match.group(2)))
            names = _symbol_names(*header)
            continue
        words.append(parse_word(text, names, line=ln, source=source))
    if header is None:
        raise ParseError("missing system header", line=1, source=source)
    if not words:
        raise ParseError("system has no equations", line=len(lines), source=source)
    return EquationSystem(constants=header[0], variables=header[1], words=tuple(words))


class SolvabilityReport(Record):
    verdict: str  # "solvable" | "unsolvable" | "unknown"
    counterexample: tuple | None = None
    witnesses: tuple = ()  # (constants, variables) pairs, sparse
    reason: str = ""
    constants_domain: int = 0
    variables_domain: int = 0
    budget: int = 0

    @property
    def solvable(self):
        return self.verdict == "solvable"


def solvable_in(
    G: FiniteGroup,
    system: EquationSystem,
    budget: int = DEFAULT_EQ_BUDGET,
    want_witnesses: bool = False,
    jobs: int = 1,
    constants_up_to_conjugacy: bool = False,
) -> SolvabilityReport:
    """Exact universal-existential verdict by exhaustion.

    Constants iterate outermost in canonical order with an early exit per
    tuple, so an unsolvable system surfaces its canonically least failing
    constant tuple.  When the worst-case scan size |G|^r * |G|^k exceeds
    the budget the verdict is unknown.  Without witnesses only the tuples
    least in their conjugation orbits are scanned (``_constant_tuples``);
    with witnesses every tuple is, as each records its first solution.

    constants_up_to_conjugacy scans only the canonically least tuple of
    each orbit under G's own conjugation, with or without witnesses.  So
    it changes the orbits (G's own, not those of ``S_m``, on ``A_m``), the
    ``reason``, which says how many tuples, and the witnesses, recorded for
    the orbit representatives only.  The verdict and the counterexample
    are unchanged (the least failing tuple overall is always canonical).

    A witness-free power word over ``S_m`` or ``A_m`` is decided per
    constant tuple from cycle types (``_root_types``), in process.
    """
    els = G.elements()
    size = len(els)
    r = system.constants
    domains = dict(
        constants_domain=size ** r, variables_domain=size ** system.variables, budget=budget
    )
    worst = size ** r * size ** system.variables
    if worst > budget:
        return SolvabilityReport(
            verdict="unknown", reason=f"worst-case scan {worst} exceeds budget {budget}", **domains
        )
    every = want_witnesses and not constants_up_to_conjugacy
    constant_tuples = list(_constant_tuples(G, els, r, every, inner=constants_up_to_conjugacy))
    reason = ""
    if constants_up_to_conjugacy:
        reason = f"constants reduced to {len(constant_tuples)} orbit representatives"
    workers = worker_count(jobs, len(constant_tuples))
    roots = _root_types(G, system, want_witnesses)
    scan_args = (system, constant_tuples, els, G.degree, want_witnesses)
    if workers > 1 and roots is None:
        failing, witnesses = _scan_parallel(*scan_args, workers)
    else:
        failing, witnesses = _scan_constants(*scan_args, roots)
    return SolvabilityReport(
        verdict="solvable" if failing is None else "unsolvable",
        counterexample=failing,
        witnesses=tuple(witnesses),
        reason=reason,
        **domains,
    )


def _constant_tuples(G, els, r, every, inner=False):
    """The constant r-tuples over ``els`` to scan, in canonical order: all
    of them when ``every`` tuple records a witness, else those least in
    their conjugation orbits (``leader_first``).  Solvability of a tuple
    does not change when the whole tuple is conjugated, by ``S_m`` too when
    G is ``A_m`` unless ``inner``, so the least failing tuple is among them.
    """
    if every:
        return iter_product(els, repeat=r)
    return (t for _, t in leader_first(G, els, r, inner))


def _scan_constants(system, constant_tuples, domain, degree, want_witnesses, roots=None):
    """The assignment scan behind ``solvable_in`` and ``solvable_over_bounded``.

    Returns the first constant tuple that no variable tuple over ``domain``
    (in ``iter_product`` order) satisfies, or None and the first solution
    of every tuple.  The words are bound once per constant tuple
    (``_bind_words``), and each assignment is tested by composing raw image
    tuples with ``map``.  When some variable appears inverted, the domain
    is paired with its inverses (``paired_images``) and an assignment is
    the flattened pairs.  ``domain`` is rescanned for every constant tuple,
    so a streamed domain must be re-iterable, never a one-shot iterator.

    ``roots``, from ``_root_types``, replaces the scan for a power word
    x^k = t: a tuple is solvable iff the cycle type of its target t is in
    it.  No solution is built then and ``domain`` is never read.
    """
    paired = any(s < -system.constants for w in system.words for s in w)
    items = paired_images(domain) if paired and roots is None else domain
    witnesses = []
    for constants in constant_tuples:
        bound = _bind_words(system, constants, paired, degree)
        if roots is not None:
            # x^-k = t has a root iff x^k = t^-1 does, and t^-1 has t's type
            if cycle_type(Permutation(bound[0][0][2])) not in roots:
                return constants, []
            continue
        found = None if bound is None else _first_solution(*bound, items, system.variables, paired)
        if found is None:
            return constants, []
        if want_witnesses:
            witnesses.append((constants, found))
    return None, witnesses


def _root_types(G, system, want_witnesses):
    """The cycle types t such that x^k = t has a root in G, when that
    decides the system; else None, and the system is scanned.

    It decides a witness-free check over builtin ``S_m`` or ``A_m`` of one
    word whose variable letters are one run x^k or x^-k: ``_bind_words``
    rotates the constants before the run to its end, so the word binds to
    x^k = t, or x^-k = t, with t a product of constants.  A freely reduced
    run of one variable never changes sign.
    """
    if want_witnesses or G.kind not in ("symmetric", "alternating"):
        return None
    if system.variables != 1 or len(system.words) != 1:
        return None
    places = [i for i, s in enumerate(system.words[0]) if abs(s) > system.constants]
    if not places or places[-1] - places[0] + 1 != len(places):
        return None
    return power_types(G.degree, len(places), G.kind == "alternating")


def _bind_words(system, constants, paired, degree):
    """Compile the words under one constant tuple, or None if one can never hold.

    A word becomes (first slot, step slots, target): it holds when the
    image tuple at the first slot, composed with those at the step slots,
    equals the target.  Slots index the assignment (variable j at j, or at
    2j and its inverse at 2j + 1 when ``paired``) followed by the returned
    constant blocks.  Each inverted constant is inverted once, adjacent
    constant letters fold into one block, and a leading block is rotated
    to the end (a conjugate of a word is trivial iff the word is), so the
    trailing block moves into the target.  A word without variables is
    decided here: dropped if trivial, otherwise the tuple is unsolvable.
    """
    if degree == 0:
        return (), ()  # the only permutation of no points is the identity
    r = system.constants
    width = system.variables * (2 if paired else 1)
    inverses = {}
    blocks = []
    words = []
    for w in system.words:
        factors = []  # variable slots (int) and constant blocks (Permutation)
        for s in w:
            if abs(s) > r:
                j = abs(s) - r - 1
                factors.append(2 * j + (s < 0) if paired else j)
                continue
            c = constants[abs(s) - 1]
            if s < 0:
                if s not in inverses:
                    inverses[s] = c.inverse()
                c = inverses[s]
            if factors and isinstance(factors[-1], Permutation):
                factors[-1] = factors[-1] * c
            else:
                factors.append(c)
        if all(isinstance(f, Permutation) for f in factors):  # no variables
            if factors and not factors[0].is_identity():
                return None
            continue
        if isinstance(factors[0], Permutation):
            lead = factors.pop(0)
            if isinstance(factors[-1], Permutation):
                factors[-1] = factors[-1] * lead
            else:
                factors.append(lead)
        target = tuple(range(degree))
        if isinstance(factors[-1], Permutation):
            target = tuple(factors.pop().inverse())
        steps = []
        for f in factors[1:]:
            if isinstance(f, Permutation):
                steps.append(width + len(blocks))
                blocks.append(f)
            else:
                steps.append(f)
        words.append((factors[0], tuple(steps), target))
    return tuple(words), tuple(blocks)


def _first_solution(words, blocks, items, variables, paired):
    """First variable tuple over ``items`` satisfying every bound word, or None.

    One variable walks ``items`` itself: ``iter_product`` would first copy a
    streamed domain into a tuple.
    """
    combos = zip(items) if variables == 1 else iter_product(items, repeat=variables)
    for combo in combos:
        vals = (tuple(chain.from_iterable(combo)) if paired else combo) + blocks
        for first, steps, target in words:
            image = vals[first]
            point = image[0]  # most assignments already fail at point 0
            for slot in steps:
                point = vals[slot][point]
            if point != target[0]:
                break
            for slot in steps:
                image = map(vals[slot].__getitem__, image)
            if tuple(image) != target:
                break
        else:
            return tuple(pair[0] for pair in combo) if paired else combo
    return None


def worker_count(jobs: int, tasks: int) -> int:
    """Processes to start for ``tasks`` independent tasks under ``--jobs``.

    Rejects jobs below 1 and clamps to the CPU count and the task count,
    so no worker is started without a task or a CPU to run it.
    """
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    return max(1, min(jobs, os.cpu_count() or 1, tasks))


def _scan_parallel(system, constant_tuples, els, degree, want_witnesses, workers):
    """Scan round-robin slices of the constant tuples in worker processes;
    the least failing tuple wins, so the result does not depend on
    ``workers``.

    Every worker gets the listed elements, so none enumerates the group
    again.  The pool is imported here, so only a scan that starts one pays
    for loading it.
    """
    from concurrent.futures import ProcessPoolExecutor

    slices = [constant_tuples[i::workers] for i in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(
            pool.map(
                _scan_constants,
                repeat(system), slices, repeat(els), repeat(degree), repeat(want_witnesses),
            )
        )
    failing = [f for f, _ in results if f is not None]
    if failing:
        return min(failing, key=lambda t: tuple(p.sort_key() for p in t)), []
    witnesses = [w for _, found in results for w in found]
    witnesses.sort(key=lambda cw: tuple(p.sort_key() for p in cw[0]))
    return None, witnesses


class MembershipTable(Record):
    """Per-group verdict table for one system across a catalog."""

    entries: tuple  # (group name, SolvabilityReport)
    overall: str  # "member" | "non-member" | "unknown"


def sys_membership(
    catalog, system: EquationSystem, budget: int = DEFAULT_EQ_BUDGET
) -> MembershipTable:
    """Solvable in every catalog group = candidate member for that catalog."""
    entries = []
    any_unknown = False
    any_unsolvable = False
    for G in catalog:
        report = solvable_in(G, system, budget=budget)
        entries.append((G.name, report))
        if report.verdict == "unknown":
            any_unknown = True
        elif report.verdict == "unsolvable":
            any_unsolvable = True
    if any_unsolvable:
        overall = "non-member"
    elif any_unknown:
        overall = "unknown"
    else:
        overall = "member"
    return MembershipTable(entries=tuple(entries), overall=overall)


# --- overgroup embeddings -----------------------------------------------------


class Embedding(Record):
    """A verified injective homomorphism between enumerated groups."""

    source: FiniteGroup
    target: FiniteGroup
    pairs: tuple  # (element of source, element of target)

    def mapping(self) -> dict:
        return dict(self.pairs)

    def check(self) -> None:
        """Raise ValueError unless the pairs are an injective homomorphism into the target.

        Membership in a symmetric or alternating target is structural, so
        such a target is not enumerated here; ``solvable_over_bounded``
        checks its element cap and its scan budget against its order m! or
        m!/2 before scanning it.  Any other target is listed by its
        membership test.
        """
        mapping = self.mapping()
        els = self.source.elements()
        if set(mapping) != set(els):
            raise ValueError("embedding must be defined on every source element")
        images = list(mapping.values())
        if len(set(images)) != len(images):
            raise ValueError("embedding is not injective")
        for img in images:
            if img not in self.target:
                raise ValueError("embedding image leaves the target group")
        for g in els:
            for h in els:
                if mapping[g] * mapping[h] != mapping[g * h]:
                    raise ValueError("embedding is not a homomorphism")


def diagonal_embedding(G: FiniteGroup, copies: int) -> Embedding:
    """g -> g (+) g (+) ... (+) g inside the symmetric group of copies * degree."""
    if copies < 1:
        raise ValueError("need at least one copy")
    target = FiniteGroup.symmetric(G.degree * copies)
    pairs = tuple((g, replicate(g, copies)) for g in G.elements())
    return Embedding(source=G, target=target, pairs=pairs)


def solvable_over_bounded(
    G: FiniteGroup,
    system: EquationSystem,
    embeddings,
    budget: int = DEFAULT_EQ_BUDGET,
    want_witnesses: bool = False,
) -> SolvabilityReport:
    """Positive-only check: constants from the embedded copy of G, variables
    from the overgroup.

    A failure here never proves unsolvability over G (some larger
    overgroup could still work), so the fallback verdict is unknown.
    """
    skipped = []
    for emb in embeddings:
        emb.check()
        H = emb.target
        mapping = emb.mapping()
        h_order = H.order()
        source_els = G.elements()
        worst = len(source_els) ** system.constants * h_order ** system.variables
        if worst > budget:
            skipped.append((H.name, worst))
            continue
        # Canonical order only fixes which solution is reported first, so a
        # witness-free scan streams S_m and A_m instead of listing them, and
        # scans only the constant tuples canonical under G's conjugation: each
        # g in G maps to an element of H, so G's own conjugation keeps the
        # verdict, which an outer automorphism of A_m need not.
        domain = H.elements() if want_witnesses else H.iter_elements()
        source_tuples = _constant_tuples(
            G, source_els, system.constants, every=want_witnesses, inner=True
        )
        constant_tuples = (tuple(mapping[c] for c in t) for t in source_tuples)
        failing, witnesses = _scan_constants(
            system, constant_tuples, domain, H.degree, want_witnesses,
            _root_types(H, system, want_witnesses),
        )
        if failing is None:
            return SolvabilityReport(
                verdict="solvable",
                witnesses=tuple(witnesses),
                reason=f"witnessed inside {H.name}",
                constants_domain=len(source_els) ** system.constants,
                variables_domain=h_order ** system.variables,
                budget=budget,
            )
    reason = "no supplied overgroup witnessed solvability"
    if skipped:
        detail = ", ".join(f"{name} (scan {worst})" for name, worst in skipped)
        reason += f"; skipped over budget: {detail}"
    return SolvabilityReport(verdict="unknown", reason=reason, budget=budget)


# --- catalog bridge report ------------------------------------------------------


class BridgeReport(Record):
    """Cross-check: systems solvable across an alternating catalog should be
    solvable over the supplied test groups; misses flag catalog shortfall,
    never a refutation."""

    system_solvable_in_catalog: bool
    entries: tuple  # (group name, verdict str)
    insufficiencies: tuple  # group names whose check came back unknown


def bridge_report(
    alternating_catalog,
    system: EquationSystem,
    test_groups_with_embeddings,
    budget: int = DEFAULT_EQ_BUDGET,
) -> BridgeReport:
    table = sys_membership(alternating_catalog, system, budget=budget)
    if table.overall != "member":
        return BridgeReport(
            system_solvable_in_catalog=False, entries=(), insufficiencies=()
        )
    entries = []
    misses = []
    for G, embeddings in test_groups_with_embeddings:
        report = solvable_over_bounded(G, system, embeddings, budget=budget)
        entries.append((G.name, report.verdict))
        if report.verdict != "solvable":
            misses.append(G.name)
    return BridgeReport(
        system_solvable_in_catalog=True,
        entries=tuple(entries),
        insufficiencies=tuple(misses),
    )
