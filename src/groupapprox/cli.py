"""Command-line front door.

Every subcommand reads groups/systems from text files (or builtin names),
computes one verdict, and writes one structured report (stdout or --out).
Exit codes: 0 verdict computed, 1 input error or a file that cannot be
read or written, 2 cap or budget exceeded.
Reports never contain timestamps; identical inputs give identical bytes.
"""

from __future__ import annotations

import os
import shlex
import sys

from . import approximation as approx
from . import coverage, equations, lengths, store
from .catalog import load_catalog_file, read_text, resolve_group
from .commands import parse_args
from .errors import BudgetExceeded, CapExceeded, ParseError
from .groups import consequences, is_n_separated
from .perm import Permutation, hamming_length, parse_cycles
from .report import (
    certificate_from_data,
    dump_report,
    length_table_from_data,
    load_report,
    parse_rational,
    sofic_certificate_from_data,
    sofic_certificate_to_data,
)
from .words import word_str

MANIFEST_HEADER = "groupapprox-manifest"
MANIFEST_VERSION = 1

# The namespace attributes of a manifest step that name files: inputs,
# read against the manifest's directory, and outputs, written under --out-dir.
_INPUTS = ("system", "catalog", "presentation", "certificate", "table")
_OUTPUTS = ("out", "csv")


def _get_group(args):
    return resolve_group(args.group, [load_catalog_file(p) for p in args.catalog])


def _catalog_groups(paths):
    """The groups of the catalog files, in file then record order."""
    return [g for p in paths for g in load_catalog_file(p).values()]


def _parse_elements(texts, group, flag):
    out = []
    for t in texts:
        x = parse_cycles(t, group.degree)
        if x not in group:
            raise ParseError(f"{flag} element {t!r} is not in {group.name}")
        out.append(x)
    return out


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}", source=path) from None


def _cayley_base(G, args):
    """The base of a Cayley conjugation length: --X, parsed once --n is known to be given."""
    if args.n is None:
        raise ParseError("cayley length needs --n")
    return _parse_elements(args.X, G, "--X")


def _list_under_cap(G, args, n=1):
    """List G under --cap, so that every later read of G holds to it.  For a
    depth or scale n below 1 nothing is listed: the library refuses it first."""
    if n >= 1:
        G.elements(args.cap)


def _exhausted(outcome):
    """The result of a search that tried every assignment within its budget."""
    return {
        "status": "exhausted",
        "assignments": outcome.stats.assignments,
        "per-group": [{"group": name, "assignments": n} for name, n in outcome.stats.per_group],
    }


# --- command handlers ----------------------------------------------------------
#
# Each handler returns its report's params and result, plus an exit code
# when that can be other than 0; ``run`` writes the report.


def _cmd_length(args):
    G = _get_group(args)
    h = parse_cycles(args.perm, G.degree)
    if h not in G:
        raise ParseError(f"--perm element is not in {G.name}")
    if args.length_kind == "cayley":
        value = lengths.cayley_conjugation_length(G, _cayley_base(G, args), args.n)(h)
    else:
        value = hamming_length(h)
    params = {
        "group": G.name,
        "perm": h,
        "length-kind": args.length_kind,
        "X": [parse_cycles(t, G.degree) for t in args.X],
        "n": args.n,
    }
    return params, {"value": value}


def _cmd_consequences(args):
    G = _get_group(args)
    base = _parse_elements(args.X, G, "--X")
    _list_under_cap(G, args, args.n)
    cons = consequences(G, base, args.n)
    sizes = cons.layer_sizes
    params = {"group": G.name, "X": base, "n": args.n, "cap": args.cap}
    return params, {
        "layer-sizes": list(sizes),
        "depth-size": sizes[-1],
        "cumulative-size": len(cons.cumulative),
        "elements": sorted(cons.elements, key=Permutation.sort_key) if sizes[-1] <= 1000 else [],
    }


def _cmd_separate(args):
    G = _get_group(args)
    base = _parse_elements(args.X, G, "--X")
    targets = _parse_elements(args.Y, G, "--Y")
    _list_under_cap(G, args, args.n)
    rep = is_n_separated(G, targets, base, args.n)
    params = {"group": G.name, "X": base, "Y": targets, "n": args.n, "cap": args.cap}
    return params, {
        "verdict": rep.verdict,
        "witness": rep.witness,
        "violated-depths": list(rep.violated_depths),
        "cumulative-separated": rep.cumulative_separated,
    }


def _cmd_brenner_verify(args):
    base = [parse_cycles(t, args.m) for t in args.X]
    rep = coverage.verify_brenner_bound(args.m, base, args.n)
    return {"m": args.m, "X": rep.base, "n": args.n}, {
        "epsilon": rep.epsilon,
        "threshold": rep.threshold,
        "ball-size": rep.ball_size,
        "holds": rep.holds,
        "violations": rep.violations,
    }


def _cmd_support_cover(args):
    if args.x is None:
        x, reports = None, coverage.support_cover_sweep(args.m)
    else:
        x = parse_cycles(args.x, args.m)
        reports = [coverage.verify_support_cover(args.m, x)]
    return {"m": args.m, "x": x}, {
        "all-hold": all(r.holds for r in reports),
        "cases": [
            {"x": r.x, "targets": r.target_size, "holds": r.holds, "violations": r.violations}
            for r in reports
        ],
    }


def _cmd_covering_constant(args):
    table = coverage.empirical_covering_constant(args.m)
    if args.csv:
        _write(args.csv, coverage.covering_csv(table))
    return {"m": args.m}, {
        "max-ratio": table.max_ratio,
        "rows": [
            {"x": row.x, "y": row.y, "depth": row.depth, "steps": row.steps, "ratio": row.ratio}
            for row in table.rows
        ],
    }


def _cmd_axioms_check(args):
    G = _get_group(args)
    if args.length_kind == "hamming":
        _list_under_cap(G, args)
        ell = lengths.hamming(G)
    elif args.length_kind == "cayley":
        base = _cayley_base(G, args)
        _list_under_cap(G, args, args.n)
        ell = lengths.cayley_conjugation_length(G, base, args.n)
    else:
        if not args.table:
            raise ParseError("table length needs --table FILE")
        table_data = load_report(read_text(args.table), source=args.table)
        _list_under_cap(G, args)
        ell = length_table_from_data(table_data, G, source=args.table)
    rep = lengths.verify_axioms(ell)
    params = {
        "group": G.name,
        "length-kind": args.length_kind,
        "X": [parse_cycles(t, G.degree) for t in args.X],
        "n": args.n,
        "cap": args.cap,
    }
    return params, {
        "valid": rep.valid,
        "pairs-checked": rep.pairs_checked,
        "violations": [
            {"axiom": v.axiom, "witness": v.witness, "detail": v.detail} for v in rep.violations
        ],
    }


def _cmd_approx_check(args):
    data_in = load_report(read_text(args.certificate), source=args.certificate)
    kind = data_in.get("kind")
    if kind == "approximation-certificate":
        cert = certificate_from_data(data_in, source=args.certificate)
        if data_in["mode"]["type"] == "consequence":
            result = approx.check_consequence_instance(cert)
        else:
            result = approx.check_metric_instance(cert)
        body = {"holds": result.holds, "reason": result.reason}
        stored = data_in.get("verdict")
        if stored is not None:
            body["stored-verdict"] = stored
            body["matches-stored"] = stored == ("holds" if result.holds else "fails")
    elif kind == "sofic-certificate":
        cert = sofic_certificate_from_data(data_in, source=args.certificate)
        ok = approx.verify_sofic_certificate(cert)
        body = {"holds": ok, "reason": "recomputed all certificate quantities"}
    else:
        raise ParseError(f"unknown certificate kind {kind!r}", source=args.certificate)
    return {"certificate": os.path.basename(args.certificate)}, body


def _cmd_approx_search(args):
    p = approx.parse_presentation(read_text(args.presentation), source=args.presentation)
    groups = _catalog_groups(args.catalog)
    outcome = approx.search_separating_hom(p, args.n, groups, budget=args.budget)
    params = {
        "presentation": os.path.basename(args.presentation),
        "n": args.n,
        "budget": args.budget,
        "prune": args.prune,
        "catalog-order": [g.name for g in groups],
    }
    if not isinstance(outcome, approx.FoundHomomorphism):
        return params, _exhausted(outcome)
    return params, {
        "status": "found",
        "group": outcome.group.name,
        "images": outcome.images,
        "assignments": outcome.stats.assignments,
        "separation": {
            "verdict": outcome.separation.verdict,
            "violated-depths": list(outcome.separation.violated_depths),
        },
    }


def _cmd_sofic_search(args):
    p = approx.parse_presentation(read_text(args.presentation), source=args.presentation)
    groups = _catalog_groups(args.catalog)
    eps = parse_rational(args.eps, source="--eps")
    outcome = approx.search_sofic_instance(p, eps, groups, budget=args.budget)
    params = {
        "presentation": os.path.basename(args.presentation),
        "eps": eps,
        "budget": args.budget,
        "catalog-order": [g.name for g in groups],
    }
    if not isinstance(outcome, approx.SoficCertificate):
        return params, _exhausted(outcome)
    certificate = sofic_certificate_to_data(outcome)
    certificate["assignments"] = outcome.stats.assignments
    return params, {"status": "found", "certificate": certificate}


def _eq_report_body(report):
    body = {
        "verdict": report.verdict,
        "counterexample": report.counterexample or None,
        "reason": report.reason or None,
        "constants-domain": report.constants_domain,
        "variables-domain": report.variables_domain,
        "budget": report.budget,
    }
    if report.witnesses:
        body["witnesses"] = [{"constants": c, "variables": v} for c, v in report.witnesses]
    return body


def _cmd_eq_solve(args):
    G = _get_group(args)
    system = equations.parse_equation_system(read_text(args.system), source=args.system)
    report = equations.solvable_in(
        G,
        system,
        budget=args.budget,
        want_witnesses=args.witnesses,
        constants_up_to_conjugacy=args.reduce_constants,
    )
    params = {
        "group": G.name,
        "system": os.path.basename(args.system),
        "words": [word_str(w, system.symbol_names()) for w in system.words],
        "budget": args.budget,
        "reduce-constants": args.reduce_constants,
    }
    return params, _eq_report_body(report), 2 if report.verdict == "unknown" else 0


def _cmd_eq_sys(args):
    groups = _catalog_groups(args.catalog)
    system = equations.parse_equation_system(read_text(args.system), source=args.system)
    table = equations.sys_membership(groups, system, budget=args.budget)
    params = {
        "system": os.path.basename(args.system),
        "catalog-order": [g.name for g in groups],
        "budget": args.budget,
    }
    result = {
        "overall": table.overall,
        "per-group": [{"group": name, "verdict": rep.verdict} for name, rep in table.entries],
    }
    return params, result, 2 if table.overall == "unknown" else 0


def _cmd_eq_over(args):
    G = _get_group(args)
    system = equations.parse_equation_system(read_text(args.system), source=args.system)
    embeddings = [equations.diagonal_embedding(G, k) for k in args.diagonal]
    report = equations.solvable_over_bounded(
        G, system, embeddings, budget=args.budget, want_witnesses=args.witnesses
    )
    params = {
        "group": G.name,
        "system": os.path.basename(args.system),
        "diagonal-copies": list(args.diagonal),
        "overgroups": [e.target.name for e in embeddings],
        "budget": args.budget,
    }
    budget_limited = report.verdict == "unknown" and "skipped over budget" in report.reason
    return params, _eq_report_body(report), 2 if budget_limited else 0


def _cmd_manifest_replay(args):
    text = read_text(args.manifest)
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty manifest", line=1, source=args.manifest)
    head = lines[0].split()
    if len(head) != 2 or head[0] != MANIFEST_HEADER:
        raise ParseError("not a manifest file", line=1, source=args.manifest)
    try:
        version = int(head[1])
    except ValueError:
        raise ParseError("bad manifest version", line=1, source=args.manifest) from None
    if version != MANIFEST_VERSION:
        sys.stderr.write(
            f"manifest version mismatch: file says {head[1]}, tool speaks "
            f"{MANIFEST_VERSION}; replay aborted\n"
        )
        return 1
    manifest_dir = os.path.dirname(os.path.abspath(args.manifest))
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise ParseError(
            f"cannot create {args.out_dir}: {exc.strerror}", source=args.out_dir
        ) from None
    worst = 0
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            step = parse_args(shlex.split(line))
        except SystemExit:
            code = 1  # a parse error, or a help that writes no report
        else:
            if getattr(step, "out", None) is None:
                raise ParseError(
                    "every manifest step needs --out", line=ln, source=args.manifest
                )
            _rebase(step, manifest_dir, args.out_dir)
            code = _execute(step)
        if code == 1:
            sys.stderr.write(f"{args.manifest}:{ln}: step failed with input error\n")
            return 1
        worst = max(worst, code)
    return worst


def _rebase(step, manifest_dir, out_dir):
    """Join each relative path of a parsed manifest step to its directory:
    input files to the manifest's, outputs to out_dir."""
    fields = vars(step)
    for names, directory in ((_INPUTS, manifest_dir), (_OUTPUTS, out_dir)):
        for name in names:
            value = fields.get(name)
            if isinstance(value, list):
                fields[name] = [os.path.join(directory, path) for path in value]
            elif value is not None:
                fields[name] = os.path.join(directory, value)


_HANDLERS = {
    "length": _cmd_length,
    "consequences": _cmd_consequences,
    "separate": _cmd_separate,
    "brenner-verify": _cmd_brenner_verify,
    "support-cover": _cmd_support_cover,
    "covering-constant": _cmd_covering_constant,
    "axioms-check": _cmd_axioms_check,
    "approx-check": _cmd_approx_check,
    "approx-search": _cmd_approx_search,
    "sofic-search": _cmd_sofic_search,
    "eq-solve": _cmd_eq_solve,
    "eq-sys": _cmd_eq_sys,
    "eq-over": _cmd_eq_over,
}


def run(argv) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return _exit_code(exc)
    return _execute(args)


def _exit_code(exc):
    """The exit code of argparse's exit: 0 after help, 1 after an error."""
    return 1 if exc.code not in (0, None) else 0


def _execute(args) -> int:
    """Run the command of a parsed namespace, write its report, and map
    its errors to exit codes."""
    try:
        if args.command == "manifest-replay":
            return _cmd_manifest_replay(args)
        params, result, *code = _HANDLERS[args.command](args)
        text = dump_report({"command": args.command, "params": params, "result": result})
        if args.out:
            _write(args.out, text)
        else:
            sys.stdout.write(text)
        return code[0] if code else 0
    except (ParseError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 2
    except CapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return 2
    finally:
        store.trim()


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
