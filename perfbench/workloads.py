"""Seeded step lists for the benchmark workloads.

Every step is one ``groupapprox`` command line run through ``cli.run``.
The seed picks elements, words, certificates and catalog generators; the
command mix, the group sizes and the step ids never depend on it, so a
step id names the same kind of work under every seed.  Steps whose input
does not depend on the seed at all are marked ``fixed``: their exit code
and report bytes are pinned for every seed, the others only for
``DEFAULT_SEED``.

``build`` writes the seeded input files (systems, catalogs, presentations,
certificates) into a work directory; that writing is part of the
benchmark's set-up time.
"""

from __future__ import annotations

import os
import random
import shlex
from dataclasses import dataclass, field
from fractions import Fraction

from groupapprox.approximation import (
    Certificate,
    ConsequenceMode,
    MetricMode,
    SearchStats,
    SoficCertificate,
    amplification_exponent,
    window_from_texts,
)
from groupapprox.groups import FiniteGroup
from groupapprox.lengths import cayley_conjugation_length, hamming
from groupapprox.perm import Permutation, conjugate, cycle_string, hamming_length, parse_cycles
from groupapprox.report import certificate_to_data, dump_report, sofic_certificate_to_data
from groupapprox.words import evaluate_word, parse_word

DEFAULT_SEED = 1
WORKLOADS = ("replay", "sweep", "scan")

_FILE_FLAGS = {"--system", "--catalog", "--presentation", "--certificate", "--table"}


@dataclass
class Step:
    id: str
    argv: list
    outputs: dict  # role ("out" or "csv") -> path written by the step
    expect_exit: int = 0
    malformed: bool = False  # seeded bad input: the right outcome is exit 1 with a message
    fixed: bool = False  # input does not depend on the seed
    expect: dict = field(default_factory=dict)  # result field -> value, checked on every seed


class _StepList:
    """Accumulates steps and the input files they read."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.steps = []

    def write(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def add(self, argv, fixed=False, malformed=False, expect=None, csv=False):
        sid = f"{len(self.steps):03d}-{argv[0]}"
        outputs = {"out": os.path.join(self.workdir, sid + ".report")}
        argv = list(argv) + ["--out", outputs["out"]]
        if csv:
            outputs["csv"] = os.path.join(self.workdir, sid + ".csv")
            argv += ["--csv", outputs["csv"]]
        self.steps.append(
            Step(
                id=sid,
                argv=argv,
                outputs=outputs,
                expect_exit=1 if malformed else 0,
                malformed=malformed,
                fixed=fixed,
                expect=expect or {},
            )
        )


# --- seeded inputs -------------------------------------------------------------


def _perm(rng, m):
    """Uniformly random permutation of degree m."""
    return Permutation(rng.sample(range(m), m))


def _partitions(m, largest=None):
    if m == 0:
        yield ()
        return
    for k in range(min(m, largest or m), 0, -1):
        for rest in _partitions(m - k, k):
            yield (k,) + rest


def _element(rng, group_name, i, trivial=False):
    """Random element of a builtin S<m> or A<m>, in cycle notation.

    The cycle type is the i-th one of the group, so the step index fixes
    the conjugacy class and the seed picks an element inside it: class-level
    work then costs the same under every seed.
    """
    m = int(group_name[1:])
    types = [t for t in _partitions(m) if trivial or t[0] > 1]
    if group_name[0] == "A":
        types = [t for t in types if sum(k - 1 for k in t) % 2 == 0]
    images, start = list(range(m)), 0
    for k in types[i % len(types)]:
        for j in range(k):
            images[start + j] = start + (j + 1) % k
        start += k
    return cycle_string(conjugate(Permutation(images), _perm(rng, m)))


def _word_form(rng, word):
    """A cyclic rotation of the word, possibly inverted.

    Rotations and inversion of a cyclically reduced word define the same
    equation, the same Hamming length and the same separation problem, so
    the seed varies the text without varying the work.
    """
    tokens = word.split()
    k = rng.randrange(len(tokens))
    tokens = tokens[k:] + tokens[:k]
    if rng.random() < 0.5:
        tokens = [t[:-3] if t.endswith("^-1") else t + "^-1" for t in reversed(tokens)]
    return " ".join(tokens)


def _swap_ab(rng, words):
    """Swap the generator names a and b in every word, or in none.

    Searches enumerate all assignments of (a, b), so the swap permutes the
    search space without changing its cost.
    """
    if rng.random() < 0.5:
        return words
    swap = {"a": "b", "b": "a"}
    return [" ".join(swap[t[0]] + t[1:] for t in w.split()) for w in words]


def _relabelled(rng, degree, generators):
    """Generator list conjugated by a random permutation of the points."""
    g = _perm(rng, degree)
    return ", ".join(
        cycle_string(conjugate(parse_cycles(text, degree), g)) for text in generators
    )


_SYSTEMS = {
    "square": ("constants 1; variables 1;", "x1 x1 a1^-1"),
    "cube": ("constants 1; variables 1;", "x1 x1 x1 a1^-1"),
    "commutator": ("constants 1; variables 2;", "x1 x2 x1^-1 x2^-1 a1^-1"),
    "conjugate": ("constants 2; variables 1;", "x1 a1 x1^-1 a2^-1"),
}


def _system_text(rng, kind):
    header, word = _SYSTEMS[kind]
    return f"{header}\n{_word_form(rng, word)}\n"


def _certificates(rng):
    """Certificate texts: two consequence-mode, two metric-mode, one sofic.

    Mode, depth, lengths, weights, perturbed images and stated verdict are
    fixed per certificate; the seed picks only the images inside fixed
    conjugacy classes, so checking a certificate costs the same under
    every seed.
    """
    window_words = ["1", "a", "b", "a b", "b a", "a^-1"]
    texts = []
    for k, (target_name, mode) in enumerate(
        (("A5", "consequence"), ("A4", "consequence"), ("A5", "metric"), ("A4", "metric"))
    ):
        G = FiniteGroup.alternating(int(target_name[1:]))
        window = window_from_texts(("a", "b"), window_words)
        a, b = (parse_cycles(_element(rng, target_name, k + t), G.degree) for t in (0, 1))
        images = [evaluate_word(w, (a, b), G.degree) for w in window.words]
        # perturb the image of one product, so the defect set is not trivial
        images[3 + k % 2] = parse_cycles(_element(rng, target_name, k + 2), G.degree)
        if mode == "consequence":
            cert = Certificate(window, G, tuple(images), ConsequenceMode(depth=2))
            texts.append(dump_report(certificate_to_data(cert)))
            continue
        if target_name == "A5":
            length = hamming(G)
        else:
            length = cayley_conjugation_length(G, [parse_cycles(_element(rng, "A4", k), 4)], 3)
        alpha = tuple([Fraction(0)] + [Fraction(1, 6)] * (len(window_words) - 1))
        cert = Certificate(
            window, G, tuple(images), MetricMode(length=length, alpha=alpha, epsilon=Fraction(1, 2))
        )
        texts.append(dump_report(certificate_to_data(cert, verdict=k % 2 == 0)))
    texts.append(dump_report(sofic_certificate_to_data(_sofic_certificate(rng))))
    return texts


def _sofic_certificate(rng):
    """Sofic certificate on images of fixed cycle types and fixed word shapes."""
    degree = 6
    names = ("g1", "g2")
    while True:
        images = tuple(parse_cycles(_element(rng, "A6", t), degree) for t in (0, 1))
        outside = parse_word(_word_form(rng, "g1 g2 g1 g2^-1"), names)
        raw = hamming_length(evaluate_word(outside, images, degree))
        if raw:
            break
    r = amplification_exponent(raw)
    inside = tuple(parse_word(_word_form(rng, w), names) for w in ("g1 g1 g2", "g2 g1 g2 g2"))
    inside_amp = tuple(
        1 - (1 - hamming_length(evaluate_word(w, images, degree))) ** r for w in inside
    )
    return SoficCertificate(
        group_degree=degree,
        images=images,
        amplification=r,
        epsilon=Fraction(1, 2),
        outside_word=outside,
        inside_words=inside,
        raw_outside_length=raw,
        amplified_outside_length=1 - (1 - raw) ** r,
        amplified_inside_lengths=inside_amp,
        stats=SearchStats(assignments=0, per_group=()),
        embedded=False,
    )


# --- workloads -----------------------------------------------------------------


def _acceptance(b, root, toy):
    """The steps of manifests/acceptance.manifest, paths rewritten."""
    manifest_dir = os.path.join(root, "manifests")
    with open(os.path.join(manifest_dir, "acceptance.manifest"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        argv = shlex.split(line)
        csv = "--csv" in argv
        for flag in ("--out", "--csv"):
            if flag in argv:
                i = argv.index(flag)
                del argv[i : i + 2]
        for i, arg in enumerate(argv[:-1]):
            if arg in _FILE_FLAGS:
                argv[i + 1] = os.path.join(manifest_dir, argv[i + 1])
        b.add(argv, fixed=True, csv=csv)
        if toy and len(b.steps) == 5:
            return


def _replay(b, rng, root, toy):
    _acceptance(b, root, toy)
    certs = [b.write(f"cert{i}.report", t) for i, t in enumerate(_certificates(rng))]
    systems = {}
    for kind in _SYSTEMS:
        systems[kind] = b.write(f"{kind}.eqn", _system_text(rng, kind))
    kinds = {
        "length": 20,
        "cayley": 10,
        "consequences": 15,
        "separate": 15,
        "axioms": 10,
        "brenner": 10,
        "support": 10,
        "eq-solve": 15,
        "approx-check": 15,
    }
    if toy:
        kinds = {kind: 1 for kind in ("length", "consequences", "eq-solve", "approx-check")}
    batch = []
    for kind, count in kinds.items():
        batch.extend((i, kind) for i in range(count))
    # interleave the kinds: step i of every kind, then step i + 1, ...
    batch.sort(key=lambda item: item[0])
    malformed = _MALFORMED if not toy else _MALFORMED[:1]
    every = max(1, len(batch) // len(malformed))
    for pos, (i, kind) in enumerate(batch):
        _small_step(b, rng, kind, i, certs, systems)
        if pos % every == every - 1 and pos // every < len(malformed):
            malformed[pos // every](b, rng, root, certs)


def _small_step(b, rng, kind, i, certs, systems):
    # i picks the group, and i // (number of groups) the cycle types
    if kind == "length":
        group = ("S4", "A5", "S5", "A6")[i % 4]
        perm = parse_cycles(_element(rng, group, i // 4, trivial=True), int(group[1:]))
        value = Fraction(len(perm.support()), len(perm))
        b.add(["length", "--group", group, "--perm", cycle_string(perm)], expect={"value": value})
    elif kind == "cayley":
        group = ("A5", "S4")[i % 2]
        b.add(
            ["length", "--group", group, "--perm", _element(rng, group, i // 2, trivial=True),
             "--length-kind", "cayley", "--X", _element(rng, group, i // 2 + 1), "--n", str(2 + i % 3)]
        )
    elif kind == "consequences":
        group = ("S3", "S4", "A4", "A5")[i % 4]
        b.add(["consequences", "--group", group, "--X", _element(rng, group, i // 4), "--n", str(1 + i % 4)])
    elif kind == "separate":
        group = ("A4", "A5", "S4")[i % 3]
        b.add(
            ["separate", "--group", group, "--X", _element(rng, group, i // 3),
             "--Y", _element(rng, group, i // 3 + 1), "--Y", _element(rng, group, i // 3 + 2),
             "--n", str(1 + i % 6)]
        )
    elif kind == "axioms":
        group = "S5" if i % 5 == 4 else "S4"
        b.add(
            ["axioms-check", "--group", group, "--length-kind", "cayley",
             "--X", _element(rng, group, i), "--n", str(2 + i % 3)],
            expect={"valid": True},
        )
    elif kind == "brenner":
        m = 5 + i % 2
        b.add(["brenner-verify", "--m", str(m), "--X", _element(rng, f"A{m}", i // 2),
               "--n", str((9, 17, 25)[i % 3])])
    elif kind == "support":
        m = 5 + i % 2
        b.add(["support-cover", "--m", str(m), "--x", _element(rng, f"A{m}", i // 2)])
    elif kind == "eq-solve":
        group, system = (("S3", "square"), ("Z4", "cube"), ("A4", "commutator"), ("S3", "conjugate"), ("S4", "square"))[i % 5]
        b.add(["eq-solve", "--group", group, "--system", systems[system]])
    elif kind == "approx-check":
        b.add(["approx-check", "--certificate", certs[i % len(certs)]])
    else:
        raise ValueError(kind)


# Malformed inputs, one per kind per pass; the seed picks the detail.  The
# right outcome of each is exit 1 with a message.


def _bad_cert_rational(b, rng, root, certs):
    with open(certs[2], encoding="utf-8") as fh:
        text = fh.read()
    field = rng.choice(["epsilon: 1/2", "    - 1/"])
    at = text.index(field)
    end = text.index("\n", at)
    text = text[:at] + text[at:end].rsplit("/", 1)[0] + "/0" + text[end:]
    b.add(["approx-check", "--certificate", b.write("bad_rational.report", text)], malformed=True)


def _bad_cert_truncated(b, rng, root, certs):
    with open(certs[rng.randrange(4)], encoding="utf-8") as fh:
        text = fh.read()
    text = text[: text.index("mode:")]
    b.add(["approx-check", "--certificate", b.write("bad_truncated.report", text)], malformed=True)


def _bad_cert_cycle(b, rng, root, certs):
    with open(certs[rng.randrange(4)], encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    start = lines.index("images:") + 2  # keep the identity image
    k = start + rng.randrange(5)
    lines[k] = f"  - (1 {rng.randint(6, 9)})"
    text = "\n".join(lines)
    b.add(["approx-check", "--certificate", b.write("bad_cycle.report", text)], malformed=True)


def _bad_system_header(b, rng, root, certs):
    header = rng.choice(["constants 1 variables 1;", "constant 1; variables 1;", "constants one; variables 1;"])
    path = b.write("bad_header.eqn", f"{header}\nx1 x1 a1^-1\n")
    b.add(["eq-solve", "--group", "S3", "--system", path], malformed=True)


def _bad_system_symbol(b, rng, root, certs):
    symbol = rng.choice(["y1", "b1", "x7", "a3"])
    path = b.write("bad_symbol.eqn", f"constants 1; variables 1;\nx1 {symbol} a1^-1\n")
    b.add(["eq-solve", "--group", "S3", "--system", path], malformed=True)


def _bad_catalog_kind(b, rng, root, certs):
    kind = rng.choice(["quaternion", "dihedral", "cyclic", "Symmetric"])
    path = b.write("bad_kind.catalog", f"Z3 generated 3 (1 2 3)\nQ {kind} 4\n")
    b.add(["eq-sys", "--catalog", path, "--system", os.path.join(root, "manifests", "sq.eqn")], malformed=True)


def _bad_catalog_cycle(b, rng, root, certs):
    point = rng.randint(5, 9)
    path = b.write("bad_cycle.catalog", f"Z3 generated 3 (1 2 3)\nK4 generated 4 (1 2)(3 {point}), (1 3)(2 4)\n")
    b.add(["eq-sys", "--catalog", path, "--system", os.path.join(root, "manifests", "sq.eqn")], malformed=True)


def _bad_perm_text(b, rng, root, certs):
    text = rng.choice(["(1 2", "(1 a)", "(1 1)", "1 2)", ""])
    b.add(["length", "--group", "A5", "--perm", text], malformed=True)


def _bad_eps(b, rng, root, certs):
    manifests = os.path.join(root, "manifests")
    b.add(
        ["sofic-search", "--presentation", os.path.join(manifests, "free1.pres"),
         "--eps", f"{rng.randint(1, 9)}/0", "--catalog", os.path.join(manifests, "alt.catalog")],
        malformed=True,
    )


_MALFORMED = [
    _bad_cert_rational,
    _bad_system_header,
    _bad_catalog_kind,
    _bad_cert_truncated,
    _bad_perm_text,
    _bad_system_symbol,
    _bad_cert_cycle,
    _bad_catalog_cycle,
    _bad_eps,
]


def _sweep(b, rng, root, toy):
    m_cover, m = (5, 5) if toy else (8, 7)
    b.add(["covering-constant", "--m", str(m_cover)], fixed=True,
          expect={"max-ratio": Fraction(3 if toy else 4)})
    b.add(["support-cover", "--m", str(m)], fixed=True)
    base = []
    for t in (0, 2):
        base += ["--X", _element(rng, f"A{m}", t)]
    b.add(["brenner-verify", "--m", str(m), *base, "--n", "17"])


def _scan(b, rng, root, toy):
    manifests = os.path.join(root, "manifests")
    b.add(["axioms-check", "--group", "S4" if toy else "S6"], fixed=True, expect={"valid": True})
    b.add(
        ["eq-over", "--group", "S3", "--system", os.path.join(manifests, "sq.eqn"),
         "--diagonal", "2" if toy else "3"],
        fixed=True,
    )
    # The small exhaustive steps run on several seeded inputs of the same cost
    # (3 eq-solve, 2 x 2 approx-search, 3 sofic-search), so that op_p50_ms,
    # which falls among them, rests on more than the two or three timings a
    # run gets of any one step.
    copies, catalogs = (1, 1) if toy else (3, 2)
    for k in range(copies):
        # every element of A5 is a commutator (Ore), so the system is solvable
        system = b.write(f"commutator{k}.eqn", _system_text(rng, "commutator"))
        b.add(["eq-solve", "--group", "A4" if toy else "A5", "--system", system],
              expect={} if toy else {"verdict": "solvable"})
    catalog = [
        ("D4", 4, ["(1 2 3 4)", "(1 3)"]),
        ("S3", 4, ["(1 2 3)", "(1 2)"]),
        ("Z5", 5, ["(1 2 3 4 5)"]),
        ("A4", 5, ["(1 2 3)", "(2 3 4)"]),
        ("S4", 5, ["(1 2 3 4)", "(1 2)"]),
        ("S4b", 6, ["(2 3 4 5)", "(2 3)"]),
    ]
    if toy:
        catalog = catalog[:2]
    for k in range(catalogs):
        # the outside word is the square of a conjugate of the inside word, so it
        # lies in C_2 of the inside images and every assignment fails: exhausted
        rotated = _word_form(rng, "a a b^-1")
        words = _swap_ab(rng, [_word_form(rng, "a a b^-1"), f"{rotated} {rotated}"])
        pres = b.write(f"separate{k}.pres", "generators a b\ninside {}\noutside {}\n".format(*words))
        lines = [f"{name} generated {deg} {_relabelled(rng, deg, gens)}" for name, deg, gens in catalog]
        cat = b.write(f"scan{k}.catalog", "\n".join(lines) + "\n")
        for prune in ([], ["--prune"]):
            b.add(["approx-search", "--presentation", pres, "--n", "2", "--catalog", cat, *prune],
                  expect={"status": "exhausted"})
    groups = ["S3 symmetric 3"] if toy else ["S4 symmetric 4", "A5 alternating 5"]
    cat = b.write("sofic.catalog", "\n".join(groups) + "\n")
    for k in range(copies):
        # inside and outside words are conjugate or inverse, so they have the same
        # Hamming length and amplification never separates them: exhausted
        words = _swap_ab(rng, [_word_form(rng, "a b a b^-1"), _word_form(rng, "a b a b^-1")])
        pres = b.write(f"sofic{k}.pres", "generators a b\ninside {}\noutside {}\n".format(*words))
        b.add(["sofic-search", "--presentation", pres, "--eps", "1/2", "--catalog", cat],
              expect={"status": "exhausted"})


def build(workload, seed, workdir, root, toy=False):
    """Write the seeded inputs of one workload into workdir; return its steps."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    b = _StepList(workdir)
    {"replay": _replay, "sweep": _sweep, "scan": _scan}[workload](b, rng, root, toy)
    return b.steps
