#!/usr/bin/env python3
"""The groupapprox benchmark.

    python3 perfbench/run.py --workload replay|sweep|scan --seed N --seconds S --trace 0|1

Run it from the root of a groupapprox checkout; it uses the sources
under src/ as they are.  Each pass over a workload runs in a fresh
process (worker.py), so every pass pays for interpreter start, import and
cold group enumeration, as a command-line user does.  Passes repeat until
the next one would end after ``--seconds``.

With ``--trace 0`` the passes run untraced and the last line of stdout is
a JSON object whose metrics are the end-to-end metrics of BENCHMARK.json.
Their times are rescaled to a nominal machine speed by the probe of
speed.py, because the shared host's speed drifts by more than the bounds
between runs; the times as measured are printed on the line before.
With ``--trace 1`` untraced and traced passes alternate, and the metrics
are the per-layer ones: module times and counts from the spans of
tracing.py, the perm microbenchmarks of micro.py, and the tracing
overhead.  Every pass has its outputs checked, in both modes:

* each step's exit code, and for a malformed input a message;
* each report loads, and round-trips through load_report/dump_report
  byte for byte;
* stated result fields, such as max-ratio 4 for covering-constant --m 8;
* report digests equal the ones pinned in expected.json, for every step
  of the default seed and for the steps that do not depend on the seed;
* every pass of a run writes the same bytes as the first.

A traced run also writes the spans of its median traced pass to
.perfbench_out/spans-<workload>-<seed>.json.

``failed`` counts steps with any problem.  ``correct`` is false when a
step gave a wrong answer; an uncaught exception on a malformed input is a
failed step, but not a wrong answer, so it leaves ``correct`` true.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SPANS = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 7
MIN_PASSES = 2
CHILD_TIMEOUT = 170


class BenchError(Exception):
    pass


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_child(workload, seed, workdir, *flags):
    """Run worker.py once; return (set-up seconds, nominal set-up seconds, result or None)."""
    os.makedirs(workdir)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
        "--workload", workload, "--seed", str(seed), "--workdir", workdir, *flags,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    fields = line.split()
    if fields[:1] != ["ready"] or len(fields) != 3 or code != 0:
        raise BenchError(f"worker for {workload} seed {seed} failed (exit {code})")
    probe_s, scale_ms = float(fields[1]), float(fields[2])
    setup -= probe_s
    nominal = setup * speed.NOMINAL_MS / scale_ms
    if "--setup-only" in flags:
        return setup, nominal, None
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    result["workdir"] = workdir
    return setup, nominal, result


def measure(workload, seed, seconds, trace, toy, workdir):
    """Run passes until the budget is spent; return (setup samples, passes).

    A pass is (traced, result).  With trace, untraced and traced passes
    alternate; the first traced pass also runs the perm microbenchmarks,
    in its fresh process before the pass.
    """
    deadline = time.perf_counter() + seconds
    setups, passes, durations = [], [], []  # setups: (seconds, nominal seconds)
    extra = ["--toy"] if toy else []
    while True:
        traced = trace and len(passes) % 2 == 1
        flags = list(extra)
        if traced:
            flags.append("--trace")
            if not any(t for t, _ in passes):
                flags.append("--micro")
        start = time.perf_counter()
        *setup, result = run_child(workload, seed, os.path.join(workdir, f"pass{len(passes)}"), *flags)
        durations.append(time.perf_counter() - start)
        setups.append(setup)
        passes.append((traced, result))
        if len(passes) >= MIN_PASSES and time.perf_counter() + max(durations) > deadline:
            break
    while not trace and len(setups) < SETUP_SAMPLES:
        *setup, _ = run_child(workload, seed, os.path.join(workdir, f"setup{len(setups)}"), "--setup-only", *extra)
        setups.append(setup)
    return setups, passes


def load_pins(workload, seed, toy):
    """Pinned exit codes and digests by step id, and whether all apply.

    Toy workloads have no pins: (None, False).
    """
    if toy:
        return None, False
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    return pins["workloads"][workload], seed == pins["default_seed"]


def check(passes, pins, all_pinned):
    """Count attempted, failed and wrong steps over every pass.

    Returns (attempted, failed, wrong, problems) where problems lists
    (pass index, step id, problem) for the failed steps.
    """
    first = passes[0]["steps"]
    attempted = failed = wrong = 0
    problems = []
    for k, result in enumerate(passes):
        if [s["id"] for s in result["steps"]] != [s["id"] for s in first]:
            raise BenchError("passes ran different step lists")
        for step, step0 in zip(result["steps"], first):
            found = list(step["problems"])
            if pins is not None and (step["fixed"] or all_pinned):
                pin = pins.get(step["id"])
                if pin is None:
                    found.append("no pinned output for this step")
                else:
                    if step["exc"] is None and step["exit"] != pin["exit"]:
                        found.append(f"exit {step['exit']}, pinned {pin['exit']}")
                    if step["sha256"] != pin["sha256"]:
                        found.append("output bytes differ from the pinned digest")
            if k and (step["sha256"] != step0["sha256"] or step["exit"] != step0["exit"]):
                found.append("output differs from the first pass")
            attempted += 1
            if not found:
                continue
            failed += 1
            escaped = step["malformed"] and step["exc"] is not None and len(found) == 1
            if not escaped:
                wrong += 1
            problems.extend((k, step["id"], p) for p in found)
    return attempted, failed, wrong, problems


def end_to_end(setups, passes, nominal=True):
    """End-to-end metrics over the untraced passes; times at nominal speed.

    With ``nominal`` false, the times as measured (less the probing)
    instead, which run.py prints beside the metrics.  The op percentiles
    are taken over the steps of a pass, each step's latency being its
    median over the passes.  Taking the step medians first keeps a
    percentile from jumping between two kinds of step when a pass has only
    a few steps (3 on sweep).
    """
    key = "nominal_" if nominal else ""
    walls = [r[key + "wall_s"] for r in passes]
    latencies = zip(*([s[key + "ms"] for s in r["steps"]] for r in passes))
    per_step = [statistics.median(ms) for ms in latencies]
    return {
        "setup_s": statistics.median(s[1] if nominal else s[0] for s in setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(per_step),
        "op_p90_ms": statistics.quantiles(per_step, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }, len(per_step) * len(passes)


def per_layer(untraced, traced):
    """Layer metrics of the traced pass with the median wall time.

    All module figures come from one pass, so its module self times and
    unattributed_s add up to its trace.wall_s exactly.
    """
    ranked = sorted(traced, key=lambda r: r["wall_s"])
    chosen = ranked[(len(ranked) - 1) // 2]
    layers = dict(chosen["layers"])
    layers.update(next(r["micro"] for r in traced if "micro" in r))
    # passes alternate untraced, traced: compare each traced pass with the
    # untraced one just before it, so that slow drift of the CPU cancels
    ratios = [t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)]
    layers["trace.overhead_frac"] = statistics.median(ratios) - 1
    return layers, os.path.join(chosen["workdir"], "spans.json")


def main(argv=None):
    p = argparse.ArgumentParser(description="groupapprox benchmark")
    p.add_argument("--workload", required=True, choices=("replay", "sweep", "scan"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy-size workloads, for selftest.py")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "groupapprox", "cli.py")):
        sys.stderr.write(f"no groupapprox sources under {ROOT}/src; run from a checkout\n")
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        spec = _spec()
        setups, passes = measure(args.workload, args.seed, args.seconds, args.trace, args.toy, workdir)
        pins, all_pinned = load_pins(args.workload, args.seed, args.toy)
        results = [r for _, r in passes]
        attempted, failed, wrong, problems = check(results, pins, all_pinned)
        untraced = [r for t, r in passes if not t]
        traced = [r for t, r in passes if t]
        if args.trace:
            values, spans = per_layer(untraced, traced)
            wanted = spec["per_layer"]
            os.makedirs(SPANS, exist_ok=True)
            shutil.copy(spans, os.path.join(SPANS, f"spans-{args.workload}-{args.seed}.json"))
        else:
            values, samples = end_to_end(setups, untraced)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    steps = len(results[0]["steps"])
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {steps} steps")
    if not args.trace:
        print(f"  setup_s over {len(setups)} process starts; op latencies over {samples} step runs, "
              f"as per-step medians over {len(untraced)} passes")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        measured, _ = end_to_end(setups, untraced, nominal=False)
        print("  as measured, before rescaling to the nominal speed: " + ", ".join(
            f"{name} = {measured[name]:.6g} {metrics[name]['unit']}" for name in measured))
        probe = statistics.median(r["probe_ms"] for r in untraced)
        print(f"  speed probe: median {probe:.4g} ms per probe in a pass, nominal {speed.NOMINAL_MS} ms")
    print(f"  failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} steps, {wrong} wrong)")
    passes_with = {}
    for k, sid, problem in problems:
        passes_with.setdefault((sid, problem), []).append(k)
    for (sid, problem), ks in passes_with.items():
        print(f"  failed: step {sid} in {len(ks)} of {len(results)} passes: {problem}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
