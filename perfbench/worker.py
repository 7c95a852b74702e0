"""One benchmark process: set up a workload, signal ready, run one pass.

Started by run.py, one process per pass, so every pass starts with cold
caches, as a command-line user's process does.  After set-up (interpreter
start, the groupapprox import, writing the seeded inputs) it prints
``ready`` on stdout; run.py times set-up up to that line.  With
``--micro`` the perm microbenchmarks run next, before the pass.  The pass runs
every step through ``cli.run`` and reads each report back with
``load_report``.  Checking the outputs happens after the pass clock
stops.  The result goes to ``<workdir>/result.json``.

An untraced worker keeps a ``speed.Speedometer`` running from its start to
the end of the pass, and reports each time both with the probing taken out
and rescaled to the nominal speed (see speed.py).  A traced worker stops it
at ``ready``, so the microbenchmarks and spans see no probes.

    python3 perfbench/worker.py --root . --workload sweep --seed 1 --workdir DIR [--trace] [--micro]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

from speed import Speedometer


def _parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--micro", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--toy", action="store_true")
    return p.parse_args(argv)


def run_pass(steps, tracer=None, speed=None):
    """Run the steps once; return (wall seconds, nominal seconds, per-step records).

    Times leave out the probing of ``speed``; nominal times are rescaled
    by it, and are None without it.
    """
    from groupapprox import cli, report

    records = []
    err = io.StringIO()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        for step in steps:
            err.seek(0)
            err.truncate()
            exc = None
            t0 = time.perf_counter()
            try:
                code = cli.run(step.argv)
            except Exception as e:  # an escaped exception is the failure being counted
                code, exc = None, f"{type(e).__name__}: {e}"
            t1 = time.perf_counter()
            texts = {}
            for role, path in step.outputs.items():
                if os.path.exists(path):
                    with open(path, encoding="utf-8") as fh:
                        texts[role] = fh.read()
            loaded = None
            if code == 0 and "out" in texts:
                try:
                    loaded = report.load_report(texts["out"], source=step.outputs["out"])
                except Exception as e:
                    loaded = e
            records.append(
                {"step": step, "exit": code, "exc": exc, "message": err.getvalue().strip(),
                 "span": (t0, t1), "end": time.perf_counter(), "texts": texts, "loaded": loaded}
            )
    end = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    # each step with the reading back that follows it, so the pieces cover the pass
    bounds = [start] + [rec.pop("end") for rec in records][:-1] + [end]
    for rec in records:
        t0, t1 = rec.pop("span")
        rec["ms"] = (t1 - t0 - (speed.probe_s(t0, t1) if speed else 0)) * 1000
        rec["nominal_ms"] = speed.normalize(t0, t1) * 1000 if speed else None
    if speed is None:
        return end - start, None, records
    nominal = sum(speed.normalize(a, b) for a, b in zip(bounds, bounds[1:]))
    return end - start - speed.probe_s(start, end), nominal, records


def check_record(rec):
    """Problems found in one step's outputs, without reference to pins.

    A report must load, round-trip through dump_report byte for byte and
    carry the step's expected result fields; a malformed input must exit
    1 with a message.
    """
    from groupapprox.report import dump_report

    step = rec["step"]
    problems = []
    if rec["exc"] is not None:
        problems.append(f"uncaught {rec['exc']}")
    elif rec["exit"] != step.expect_exit:
        problems.append(f"exit {rec['exit']}, expected {step.expect_exit}")
    elif step.malformed and not rec["message"]:
        problems.append("exit 1 without a message")
    if rec["exit"] == 0:
        loaded = rec["loaded"]
        if "out" not in rec["texts"]:
            problems.append("no report written")
        elif isinstance(loaded, Exception):
            problems.append(f"report does not load: {loaded}")
        else:
            if dump_report(loaded) != rec["texts"]["out"]:
                problems.append("report does not round-trip through load_report/dump_report")
            for key, want in step.expect.items():
                got = loaded.get("result", {}).get(key)
                if got != want:
                    problems.append(f"result {key} is {got!r}, expected {want!r}")
    return problems


def summarize(records):
    """JSON-ready per-step results: exit code, digests, problems, latency."""
    out = []
    for rec in records:
        step = rec["step"]
        out.append(
            {
                "id": step.id,
                "exit": rec["exit"],
                "exc": rec["exc"],
                "malformed": step.malformed,
                "fixed": step.fixed,
                "ms": rec["ms"],
                "nominal_ms": rec["nominal_ms"],
                "sha256": {
                    role: hashlib.sha256(text.encode("utf-8")).hexdigest()
                    for role, text in sorted(rec["texts"].items())
                },
                "problems": check_record(rec),
            }
        )
    return out


def main(argv=None):
    started = time.perf_counter()
    speed = Speedometer()
    speed.start()
    args = _parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    steps = workloads.build(args.workload, args.seed, args.workdir, args.root, toy=args.toy)
    speed.sample()  # so that at least one probe falls in set-up
    ready = time.perf_counter()
    if args.trace or args.setup_only:
        speed.stop()
    # run.py rescales the set-up time it measures by these two figures
    print(f"ready {speed.probe_s(started, ready)} {speed.scale_ms(started, ready)}", flush=True)
    if args.setup_only:
        return 0

    micro_ns = None
    if args.micro:
        # before the pass, so nothing the pass leaves in memory skews the figures
        import micro

        micro_ns = micro.run(args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    wall, nominal, records = run_pass(steps, tracer, None if args.trace else speed)
    speed.stop()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"wall_s": wall, "nominal_wall_s": nominal, "peak_rss_mb": peak_mb,
              "probe_ms": statistics.median(speed.ms), "steps": summarize(records)}
    if tracer is not None:
        result["layers"] = tracer.summary(wall)
        tracer.dump(os.path.join(args.workdir, "spans.json"))
    if micro_ns is not None:
        result["micro"] = micro_ns
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
