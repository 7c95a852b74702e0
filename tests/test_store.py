"""The process-wide group store: commands in one process share the groups
they name, and every report, stderr line and exit code stays what a
process that built every group afresh gives."""

from __future__ import annotations

import contextlib
import io
import random
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import clear_store, stored

from groupapprox import cli, store
from groupapprox.approximation import Certificate, MetricMode, window_from_texts
from groupapprox.catalog import builtin_group, parse_catalog
from groupapprox.errors import CapExceeded
from groupapprox.groups import DEFAULT_ELEMENT_CAP, FiniteGroup
from groupapprox.lengths import hamming
from groupapprox.perm import cycle_string, parse_cycles
from groupapprox.report import certificate_to_data, dump_report, group_from_data, group_to_data

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"

CATALOG = """\
S3 symmetric 3
A4 alternating 4
S5 symmetric 5
K4 generated 4 (1 2)(3 4), (1 3)(2 4)
D4 generated 4 (1 2 3 4), (1 3)
P product S3 S3
Q product K4 A4
"""


def _manifest_steps(out_dir):
    """The steps of the acceptance manifest, their input paths resolved
    and their outputs written under ``out_dir``."""
    inputs = ("--system", "--catalog", "--presentation", "--certificate", "--table")
    bases = dict.fromkeys(inputs, MANIFESTS) | dict.fromkeys(("--out", "--csv"), out_dir)
    lines = (MANIFESTS / "acceptance.manifest").read_text().splitlines()[1:]
    steps = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line:
            argv = shlex.split(line)
            pairs = zip(argv, argv[1:])  # each token after the one before it
            steps.append([argv[0], *(str(bases[f] / t) if f in bases else t for f, t in pairs)])
    return steps


def _certificate(path, G, images):
    c = tuple(parse_cycles(t, G.degree) for t in images)
    mode = MetricMode(length=hamming(G), alpha=(Fraction(0),) * 3, epsilon=Fraction(1, 8))
    window = window_from_texts(["a"], ["1", "a", "a^2"])
    cert = Certificate(window=window, target=G, images=c, mode=mode)
    path.write_text(dump_report(certificate_to_data(cert)))
    return str(path)


def _seeded_steps(seed, tmp_path):
    """Commands over the groups of ``CATALOG`` and builtin names, with caps
    at, just below and well below each group's order, so that groups
    listed by one step meet lower caps in later ones."""
    rng = random.Random(seed)
    catalog = tmp_path / "store.catalog"
    catalog.write_text(CATALOG)
    fresh = parse_catalog(CATALOG)
    for name in ("A5", "S4", "Z4"):
        fresh[name] = builtin_group(name)
    clear_store()
    certs = [
        _certificate(tmp_path / "a4.report", fresh["A4"], ["()", "(1 2 3)", "(1 3 2)"]),
        _certificate(tmp_path / "q.report", fresh["Q"], ["()", "(1 2)(3 4)", "()"]),
    ]
    system = str(MANIFESTS / "sq.eqn")
    names = sorted(fresh)
    steps = [
        # S5, listed by the first step, meets a lower cap in the second
        ["consequences", "--group", "S5", "--X", "(1 2)", "--n", "1"],
        ["consequences", "--group", "S5", "--X", "(1 2)", "--n", "1", "--cap", "100"],
        ["consequences", "--group", "A4", "--X", "(1 2)", "--n", "1"],
    ]
    for _ in range(80):
        name = rng.choice(names)
        G = fresh[name]
        where = ["--group", name, "--catalog", str(catalog)]
        els = G.elements()
        x = cycle_string(rng.choice(els))
        order = len(els)
        cap = ["--cap", str(rng.choice([order, order - 1, order // 2, 0, DEFAULT_ELEMENT_CAP]))]
        kind = rng.randrange(7)
        n = str(rng.randint(1, 3))
        cayley = ["--length-kind", "cayley", "--X", x, "--n", n]
        if kind == 0:
            steps.append(["consequences", *where, "--X", x, "--n", n, *cap])
        elif kind == 1:
            y = cycle_string(rng.choice(els))
            steps.append(["separate", *where, "--X", x, "--Y", y, "--n", n, *cap])
        elif kind == 2:
            steps.append(["axioms-check", *where, *cayley, *cap])
        elif kind == 3:
            steps.append(["length", *where, "--perm", x, *cayley])
        elif kind == 4:
            steps.append(["eq-solve", *where, "--system", system])
        elif kind == 5:
            steps.append(["eq-sys", "--catalog", str(catalog), "--system", system])
        else:
            steps.append(["approx-check", "--certificate", rng.choice(certs)])
    return steps


def _replay(steps, out_dir, fresh_each_step):
    """(exit code, stdout, stderr, --out file) of each step, in order."""
    results = []
    for i, argv in enumerate(steps):
        if fresh_each_step:
            clear_store()
        out_path = out_dir / f"{i}.report"
        if "--out" not in argv:
            argv = [*argv, "--out", str(out_path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        text = out_path.read_text() if out_path.exists() else None
        results.append((code, out.getvalue(), err.getvalue(), text))
    return results


@pytest.mark.parametrize("seed", [1, 2])
def test_shared_groups_give_the_bytes_of_fresh_ones(seed, tmp_path):
    steps = _seeded_steps(seed, tmp_path)
    runs = {}
    for fresh in (False, True):
        out_dir = tmp_path / f"fresh{fresh}"
        out_dir.mkdir()
        clear_store()
        manifest = _manifest_steps(out_dir)
        runs[fresh] = _replay(manifest + steps, out_dir, fresh)
        runs[fresh].extend(sorted((p.name, p.read_text()) for p in out_dir.iterdir()))
    assert runs[False][len(_manifest_steps(tmp_path)) + 1][:3] == (
        2, "", "cap exceeded: S5 has more than 100 elements\n"
    )
    assert runs[False] == runs[True]
    codes = {r[0] for r in runs[False] if isinstance(r[0], int)}
    assert codes == {0, 1, 2}


def test_two_commands_on_s5_partition_it_once(monkeypatch, tmp_path):
    built = []
    partition = FiniteGroup.conjugacy_classes

    def counted(self):
        if self._classes is None:
            built.append(self.name)
        return partition(self)

    monkeypatch.setattr(FiniteGroup, "conjugacy_classes", counted)
    for n in ("1", "2"):
        argv = ["consequences", "--group", "S5", "--X", "(1 2)", "--n", n]
        assert cli.run([*argv, "--out", str(tmp_path / f"{n}.report")]) == 0
    assert built == ["S5"]


def test_resolvers_share_a_group_by_its_description():
    S5 = builtin_group("S5")
    catalog = parse_catalog("S5 symmetric 5\nT5 symmetric 5\nP product S5 S5\n")
    assert builtin_group("S5") is S5 and catalog["S5"] is S5
    assert catalog["T5"] is not S5
    assert parse_catalog("S5 symmetric 5\nP product S5 S5\n")["P"] is catalog["P"]
    assert group_from_data(group_to_data(catalog["P"])) is catalog["P"]
    assert parse_catalog("T5 symmetric 5\nP product T5 T5\n")["P"] is not catalog["P"]
    K = parse_catalog("K generated 4 (1 2)(3 4), (1 3)(2 4)\n")["K"]
    assert parse_catalog("K generated 4 (1 3)(2 4), (1 2)(3 4)\n")["K"] is not K


def test_a_listed_group_refuses_a_lower_cap_as_a_fresh_one_does():
    text = "S3 symmetric 3\nA5 alternating 5\nK generated 4 (1 2)(3 4), (1 3)(2 4)\nP product S3 A5\n"
    listed = parse_catalog(text)
    for G in listed.values():
        G.conjugacy_classes()
    for name, G in listed.items():
        els = G.elements()
        for cap in (len(els) - 1, 3, 0):
            clear_store()
            messages = []
            for H in (G, parse_catalog(text)[name]):
                with pytest.raises(CapExceeded) as refused:
                    H.elements(cap)
                messages.append(str(refused.value))
            assert messages[0] == messages[1]
        assert G.elements() is els  # the refusals leave the listed elements


def test_trim_evicts_the_least_recently_used_past_the_bound(monkeypatch):
    monkeypatch.setattr(store, "STORE_ELEMENTS", 150)
    S5, A5, S4 = builtin_group("S5"), builtin_group("A5"), builtin_group("S4")
    for G in (S5, A5, S4):
        G.elements()
    assert builtin_group("S5") is S5  # now the most recently used
    store.trim()  # 204 listed: A5 goes, then 144 remain
    assert stored(S5) and stored(S4) and not stored(A5)
    store.trim()
    assert stored(S5) and stored(S4)


def test_a_command_leaves_at_most_the_bound_stored(monkeypatch, tmp_path):
    monkeypatch.setattr(store, "STORE_ELEMENTS", 150)
    for name in ("S5", "A5", "S4"):
        argv = ["consequences", "--group", name, "--X", "()", "--n", "1"]
        assert cli.run([*argv, "--out", str(tmp_path / f"{name}.report")]) == 0
    assert builtin_group("S5")._elements is None  # evicted, built afresh
    assert builtin_group("A5")._elements is not None
    assert builtin_group("S4")._elements is not None
