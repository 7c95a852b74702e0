"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance here is exact rational equality or an explicit
wall-clock bound; nothing is calibrated after the fact.
"""

import filecmp
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path

from conftest import (
    clear_store,
    length_of_tensor_power,
    quotient,
    support_cover_exhaustive,
    tensor_power,
)

from groupapprox import cli
from groupapprox.approximation import (
    Certificate,
    ConsequenceMode,
    MetricMode,
    check_consequence_instance,
    check_metric_instance,
    window_from_texts,
)
from groupapprox.coverage import empirical_covering_constant
from groupapprox.equations import (
    diagonal_embedding,
    parse_equation_system,
    solvable_in,
    solvable_over_bounded,
    sys_membership,
)
from groupapprox.groups import (
    FiniteGroup,
    class_first_depths,
    cyclic,
    is_n_separated,
    iter_consequence_class_layers,
)
from groupapprox.lengths import cayley_conjugation_length, hamming, verify_axioms
from groupapprox.perm import (
    direct_sum,
    embed_sym_in_alt,
    hamming_length,
    identity,
    is_even,
    parse_cycles,
)

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def _line(num, ok, desc):
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}  {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def s(text, degree):
    return parse_cycles(text, degree)


def test_criterion_01_hamming_axioms_on_s5():
    start = time.monotonic()
    report = verify_axioms(hamming(FiniteGroup.symmetric(5)))
    elapsed = time.monotonic() - start
    ok = report.valid and report.pairs_checked == 2 * 120 * 120 and elapsed < 10
    _line(
        1,
        ok,
        f"Hamming axioms exhaustive on S5: {report.pairs_checked} pairs, "
        f"0 violations, {elapsed:.2f}s",
    )


def test_criterion_02_amplification_identity():
    S4 = FiniteGroup.symmetric(4)
    checked = 0
    ok = True
    for h in S4.elements():
        for r in (1, 2, 3):
            materialized = hamming_length(tensor_power(h, r))
            formula = length_of_tensor_power(hamming_length(h), r)
            checked += 1
            ok = ok and materialized == formula
    _line(2, ok, f"amplification identity exact on S4 x r in {{1,2,3}}: {checked} cases")


def test_criterion_03_direct_sum_formula():
    S3 = FiniteGroup.symmetric(3)
    S4 = FiniteGroup.symmetric(4)
    ok = True
    for a in S3.elements():
        for b in S4.elements():
            expected = (3 * hamming_length(a) + 4 * hamming_length(b)) / Fraction(7)
            ok = ok and hamming_length(direct_sum(a, b)) == expected
    _line(3, ok, "direct-sum length formula exact over S3 x S4 (144 pairs)")


def test_criterion_04_embedding_into_alternating():
    S4 = FiniteGroup.symmetric(4)
    els = S4.elements()
    images = {a: embed_sym_in_alt(a) for a in els}
    ok = len(set(images.values())) == 24
    for a in els:
        ok = ok and is_even(images[a]) and hamming_length(images[a]) == hamming_length(a)
        for b in els:
            ok = ok and images[a * b] == images[a] * images[b]
    _line(4, ok, "doubling embedding on S4: homomorphism, even, length-preserving")


def test_criterion_05_chaining_bound():
    details = []
    ok = True
    start = time.monotonic()
    for m in (5, 6):
        table = empirical_covering_constant(m)
        ok = ok and all(row.depth is not None and row.ratio <= 16 for row in table.rows)
        details.append(f"m={m} max ratio {table.max_ratio}")
    elapsed = time.monotonic() - start
    _line(
        5,
        ok,
        "depth <= 16*ceil(|y|/|x|) for all nontrivial class pairs; "
        + ", ".join(details)
        + f"; sharper constant 4 recorded, not asserted; {elapsed:.1f}s",
    )


def test_criterion_06_support_cover_and_klein_counterexample():
    ok = True
    counts = []
    for m in (5, 6):
        checked, violations = support_cover_exhaustive(m)
        ok = ok and not violations
        counts.append(f"m={m}: {checked} elements")
    A4 = FiniteGroup.alternating(4)
    x = s("(1 2)(3 4)", 4)
    y = s("(1 2 3)", 4)
    first = class_first_depths(iter_consequence_class_layers(A4, [x]))
    ok = ok and A4.class_index_of(y) not in first
    _line(
        6,
        ok,
        "4th class power covers supports (" + ", ".join(counts) + "); "
        "A4 Klein instance stays NotReached at every depth",
    )


def test_criterion_07_cayley_conjugation_length():
    A5 = FiniteGroup.alternating(5)
    X = [s("(1 2 3)", 5)]
    n = 4
    ell = cayley_conjugation_length(A5, X, n)
    axioms = verify_axioms(ell)
    ok = axioms.valid and ell(X[0]) == Fraction(1, 4)
    separated = 0
    for y in A5.elements():
        if is_n_separated(A5, [y], X, n).separated:
            separated += 1
            ok = ok and ell(y) == 1
    _line(
        7,
        ok,
        f"graph length on A5: axioms pass, value 1/4 on the base 3-cycle, "
        f"value 1 on all {separated} elements the consequence engine "
        f"verifies 4-separated",
    )


def test_criterion_08_metric_consequence_bridge():
    S4 = FiniteGroup.symmetric(4)
    els = S4.elements()
    e = identity(4)
    windows = [
        window_from_texts(["a"], ["1", "a"]),
        window_from_texts(["a"], ["1", "a", "a^2"]),
        window_from_texts(["a", "b"], ["1", "a", "b", "a b"]),
    ]
    ham = hamming(S4)
    passing = 0
    ok = True
    for eps in (Fraction(1, 4), Fraction(1, 2)):
        for n in (2, 3):
            alpha_value = n * eps
            for window in windows:
                free = len(window.words) - 1
                alpha = tuple(
                    Fraction(0) if w == () else alpha_value for w in window.words
                )
                for combo in iter_product(els, repeat=free):
                    images_iter = iter(combo)
                    images = tuple(
                        e if w == () else next(images_iter) for w in window.words
                    )
                    cert = Certificate(
                        window=window,
                        target=S4,
                        images=images,
                        mode=MetricMode(length=ham, alpha=alpha, epsilon=eps),
                    )
                    if check_metric_instance(cert).holds:
                        passing += 1
                        cons = Certificate(
                            window=window,
                            target=S4,
                            images=images,
                            mode=ConsequenceMode(depth=n),
                        )
                        ok = ok and check_consequence_instance(cons).holds
    ok = ok and passing > 0
    _line(
        8,
        ok,
        f"every metric pass (alpha = n*eps) implies a consequence pass at "
        f"depth n: {passing} passing certificates across windows into S4, "
        f"eps in {{1/4, 1/2}}, n in {{2, 3}}",
    )


def test_criterion_09_equation_suite():
    start = time.monotonic()
    square = parse_equation_system("constants 1; variables 1;\nx1 x1 a1^-1\n")
    single = parse_equation_system("constants 0; variables 1;\nx1\n")
    commute = parse_equation_system("constants 1; variables 1;\na1^-1 x1^-1 a1 x1\n")
    cube = parse_equation_system("constants 1; variables 1;\nx1 x1 x1 a1^-1\n")
    catalog = [
        cyclic(2),
        cyclic(3),
        cyclic(4),
        cyclic(5),
        cyclic(6),
        FiniteGroup.generated(
            4, [s("(1 2)(3 4)", 4), s("(1 3)(2 4)", 4)], name="K4"
        ),
        FiniteGroup.generated(4, [s("(1 2 3 4)", 4), s("(1 3)", 4)], name="D4"),
        FiniteGroup.symmetric(3),
        FiniteGroup.alternating(4),
        FiniteGroup.symmetric(4),
    ]
    ok = len(catalog) == 10
    ok = ok and sys_membership(catalog, single).overall == "member"
    ok = ok and sys_membership(catalog, commute).overall == "member"
    ok = ok and solvable_in(cyclic(3), square).verdict == "solvable"
    ok = ok and solvable_in(cyclic(5), square).verdict == "solvable"
    s3_report = solvable_in(FiniteGroup.symmetric(3), square)
    ok = ok and s3_report.verdict == "unsolvable"
    ok = ok and s3_report.counterexample == (s("(1 2)", 3),)
    # product closure spot checks
    for G1, G2 in [(cyclic(3), cyclic(5)), (cyclic(2), FiniteGroup.symmetric(3))]:
        P = FiniteGroup.direct_product([G1, G2])
        for system in (single, square, commute, cube):
            if (
                solvable_in(G1, system).verdict == "solvable"
                and solvable_in(G2, system).verdict == "solvable"
            ):
                ok = ok and solvable_in(P, system).verdict == "solvable"
    # quotient monotonicity spot checks
    S3 = FiniteGroup.symmetric(3)
    A4 = FiniteGroup.alternating(4)
    evens = [x for x in S3.elements() if is_even(x)]
    klein = FiniteGroup.generated(
        4, [s("(1 2)(3 4)", 4), s("(1 3)(2 4)", 4)]
    ).elements()
    for G, N in [(S3, evens), (A4, list(klein))]:
        Q, _ = quotient(G, N)
        for system in (single, square, commute, cube):
            if solvable_in(G, system).verdict == "solvable":
                ok = ok and solvable_in(Q, system).verdict == "solvable"
    # full sweep over the catalog for every system
    for system in (single, square, commute, cube):
        sys_membership(catalog, system)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    _line(
        9,
        ok,
        f"equation verdicts, product closure and quotient monotonicity on a "
        f"10-group catalog in {elapsed:.1f}s",
    )


def test_criterion_10_solvable_over_via_diagonal():
    S3 = FiniteGroup.symmetric(3)
    square = parse_equation_system("constants 1; variables 1;\nx1 x1 a1^-1\n")
    embedding = diagonal_embedding(S3, 2)
    report = solvable_over_bounded(S3, square, [embedding], want_witnesses=True)
    ok = report.verdict == "solvable" and len(report.witnesses) == 6
    for constants, variables in report.witnesses:
        ok = ok and variables[0] * variables[0] == constants[0]
    _line(
        10,
        ok,
        "x^2 = a over S3 via the diagonal copy in S6: every constant got an "
        "exhaustively-found square root",
    )


def test_criterion_11_manifest_replay_bytes(tmp_path, monkeypatch):
    manifest = MANIFESTS / "acceptance.manifest"
    replay = tmp_path / "replay"
    proc = subprocess.run(
        [sys.executable, "-m", "groupapprox", "manifest-replay", str(manifest),
         "--out-dir", str(replay)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # each step again, typed alone from the manifest's directory into a fresh store
    alone = tmp_path / "alone"
    alone.mkdir()
    monkeypatch.chdir(MANIFESTS)
    for line in manifest.read_text().splitlines()[1:]:
        argv = shlex.split(line, comments=True)
        for k, flag in enumerate(argv[:-1]):
            if flag in ("--out", "--csv"):
                argv[k + 1] = str(alone / argv[k + 1])
        if argv:
            clear_store()
            assert cli.run(argv) == 0, line
    names = sorted(p.name for p in replay.iterdir())
    ok = len(names) == 21 and names == sorted(p.name for p in alone.iterdir())
    for name in names:
        ok = ok and filecmp.cmp(replay / name, alone / name, shallow=False)
    _line(
        11,
        ok,
        f"each of the {len(names)} files of the acceptance replay equals its "
        "step run alone after clearing the store",
    )
