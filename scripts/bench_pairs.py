#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, for a before/after claim.

    python scripts/bench_pairs.py PARENT CHANGE --workload scan --seed 4 --pairs 10 --seconds 40 \
        [--json BENCH.json]

Runs ``perfbench/run.py`` once in each checkout per pair, with the side
that runs first alternating from pair to pair, so that a drift of the
host's speed falls on both sides alike.  For each end-to-end metric of
BENCHMARK.json it prints both sides' median and quartiles, the median of
the change minus the median of the parent, the parent's interquartile
range, and the number of pairs the change wins (a strictly better value,
lower or higher as the metric says).

``--json PATH`` also records that summary, per metric, under the
workload's name in the JSON file PATH, with every run's value, the seed,
the pair count and the host; the other workloads already in PATH are
kept, so one file can hold the pairs of several workloads.  A workload
already recorded there on another seed keeps that record, and this run
goes under ``repeats`` by the workload's name, so that one file holds a
claim and its repetition on a fresh seed.

The two checkout paths must have the same length: ``peak_rss_mb`` moves
by about 0.2 MB with the length of the path the benchmark runs from, so
unequal paths would show a difference that the code does not make.

Exits 0 when every run reports ``correct`` true and no failed step, 1
when one does not or a run fails, and 2 on bad arguments.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_once(checkout, args):
    """The JSON line of one ``perfbench/run.py`` run in ``checkout``."""
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    if args.toy:
        cmd.append("--toy")
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def host():
    """What the runs' times depend on, besides the code."""
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def write_json(path, args, summary, bad):
    """Record this workload's pairs in ``path``, beside the workloads already
    there, or as its repeat when it is there on another seed."""
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {"workloads": {}}
    first = record["workloads"].get(args.workload)
    section = "workloads" if first is None or first.get("seed") == args.seed else "repeats"
    record.setdefault(section, {})[args.workload] = {
        "host": host(),
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "toy": args.toy,
        "metrics": summary,
        "runs-not-correct-or-failed": bad,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=("replay", "sweep", "scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--toy", action="store_true", help="toy-size workloads, for a quick check")
    parser.add_argument("--json", metavar="PATH", help="also record the summary in this JSON file")
    args = parser.parse_args(argv)

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if len(sides["parent"]) != len(sides["change"]):
        sys.stderr.write(
            f"checkout paths differ in length ({len(sides['parent'])} and "
            f"{len(sides['change'])} characters), which moves peak_rss_mb; "
            "use paths of the same length\n"
        )
        return 2
    if args.pairs < 1:
        sys.stderr.write("--pairs must be at least 1\n")
        return 2
    with open(os.path.join(sides["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["end_to_end"]

    runs = {"parent": [], "change": []}
    healthy = True
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                result = run_once(sides[side], args)
            except RuntimeError as exc:
                sys.stderr.write(f"{exc}\n")
                return 1
            healthy &= result["correct"] and result["failed"] == 0
            runs[side].append(result)
        print(f"pair {k + 1}, {order[0]} first: " + ", ".join(
            f"{m['name']} {runs['parent'][-1]['metrics'][m['name']]['value']:.4g}"
            f"/{runs['change'][-1]['metrics'][m['name']]['value']:.4g}"
            for m in spec
        ) + " (parent/change)")

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs at --seconds {args.seconds}:")
    summary = {}
    for m in spec:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        print(
            f"  {name}: parent {parent[1]:.4g} [{parent[0]:.4g}, {parent[2]:.4g}], "
            f"change {change[1]:.4g} [{change[0]:.4g}, {change[2]:.4g}] {m['unit']}; "
            f"median diff {change[1] - parent[1]:+.4g}, parent IQR {parent[2] - parent[0]:.4g}, "
            f"change wins {wins}/{args.pairs}"
        )
        summary[name] = {
            "unit": m["unit"],
            "better": m["better"],
            **{
                side: {"q1": q[0], "median": q[1], "q3": q[2], "runs": values[side]}
                for side, q in (("parent", parent), ("change", change))
            },
            "median-diff": change[1] - parent[1],
            "parent-iqr": parent[2] - parent[0],
            "change-wins": wins,
        }
    bad = {side: sum(not r["correct"] or r["failed"] > 0 for r in runs[side]) for side in runs}
    for side in runs:
        print(f"  {side}: {bad[side]} of {args.pairs} runs not correct or with failed steps")
    if args.json:
        write_json(args.json, args, summary, bad)
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
