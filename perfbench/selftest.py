#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy size.

    python3 perfbench/selftest.py

Checks that
* run.py emits every metric BENCHMARK.json names, with its unit, on a toy
  sweep (m = 5) and a toy 10-step replay, with tracing off and on, and that
  the traced module self times and unattributed_s add up to trace.wall_s;
* the output check fails on a corrupted report, on a digest that differs
  from its pin, and on a pass whose bytes differ from the first pass, and
  that an escaped exception on a malformed input counts as failed but not
  as a wrong answer;
* the tracing wrappers and the speed probe leave every report byte
  unchanged, and the probe rescales a timed interval as speed.py says.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from groupapprox.report import load_report  # noqa: E402

FAILURES = []


def expect(condition, what):
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    if proc.returncode:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def check_emitted(spec):
    for workload in ("sweep", "replay"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = bench(workload, trace)
            what = f"{workload} --trace {trace}"
            expect(out is not None, f"{what} exits 0 with a result line")
            if out is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            expect(got == want, f"{what} emits every {key} metric with its unit")
            expect(
                all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                    for m in out["metrics"].values()),
                f"{what} metric values are finite numbers",
            )
            expect(out["correct"] and out["attempted"] >= 1, f"{what} is correct")
            if trace:
                values = {name: m["value"] for name, m in out["metrics"].items()}
                total = sum(values[f"{m}.self_s"] for m in tracing.MODULES) + values["unattributed_s"]
                expect(math.isclose(total, values["trace.wall_s"], rel_tol=1e-9),
                       f"{what} self times plus unattributed_s sum to trace.wall_s")


def toy_pass(workload, workdir, traced=False, probed=False):
    os.makedirs(workdir)
    steps = workloads.build(workload, 3, workdir, run.ROOT, toy=True)
    tracer = tracing.Tracer() if traced else None
    probes = speed.Speedometer() if probed else None
    if probes is not None:
        probes.start()
        probes.sample()  # a toy pass can end before the timer fires
    try:
        wall, _, records = worker.run_pass(steps, tracer, probes)
    finally:
        if probes is not None:
            probes.stop()
    if tracer is not None:
        layers = tracer.summary(wall)
        total = sum(layers[f"{m}.self_s"] for m in tracing.MODULES) + layers["unattributed_s"]
        expect(math.isclose(total, wall, rel_tol=1e-9), f"{workload}: traced self times sum to the pass wall time")
    return records


def check_output_check(tmp):
    records = toy_pass("sweep", os.path.join(tmp, "sweep"))
    steps = worker.summarize(records)
    expect(all(not s["problems"] for s in steps), "toy sweep outputs pass the check")

    cover = next(r for r in records if r["step"].argv[0] == "covering-constant")
    for old, new, what in (
        ("max-ratio: 3/1", "max-ratio: 2/1", "a wrong max-ratio"),
        ("depth: 1\n", "depth: 01\n", "a report that does not round-trip"),
    ):
        bad = copy.copy(cover)
        bad["texts"] = {"out": cover["texts"]["out"].replace(old, new, 1)}
        bad["loaded"] = load_report(bad["texts"]["out"])
        expect(bad["texts"]["out"] != cover["texts"]["out"] and worker.check_record(bad),
               f"the output check fails on {what}")

    result = {"steps": steps}
    pins = {s["id"]: {"exit": s["exit"], "sha256": s["sha256"]} for s in steps}
    expect(run.check([result, result], pins, True)[1] == 0, "matching pins pass")
    wrong_pins = copy.deepcopy(pins)
    wrong_pins[steps[0]["id"]]["sha256"]["out"] = "0" * 64
    _, failed, wrong, _ = run.check([result], wrong_pins, True)
    expect(failed == 1 and wrong == 1, "a digest that differs from its pin fails")
    second = copy.deepcopy(result)
    second["steps"][1]["sha256"]["out"] = "0" * 64
    _, failed, wrong, _ = run.check([result, second], None, False)
    expect(failed == 1 and wrong == 1, "a pass whose bytes differ from the first fails")

    replay = worker.summarize(toy_pass("replay", os.path.join(tmp, "replay")))
    escapes = [s for s in replay if s["malformed"] and s["exc"]]
    attempted, failed, wrong, _ = run.check([{"steps": replay}], None, False)
    expect(attempted == 10, "the toy replay has 10 steps")
    expect(failed == len(escapes) and wrong == 0,
           "an escaped exception on malformed input is failed, not wrong")


def check_tracing_bytes(tmp):
    def outputs(records):
        return [(s["id"], s["exit"], s["sha256"]) for s in worker.summarize(records)]

    for workload in ("sweep", "replay", "scan"):
        plain = outputs(toy_pass(workload, os.path.join(tmp, f"{workload}-plain")))
        traced = outputs(toy_pass(workload, os.path.join(tmp, f"{workload}-traced"), traced=True))
        probed = outputs(toy_pass(workload, os.path.join(tmp, f"{workload}-probed"), probed=True))
        expect(plain == traced, f"{workload}: tracing leaves exit codes and report bytes unchanged")
        expect(plain == probed, f"{workload}: the speed probe leaves exit codes and report bytes unchanged")


def check_speedometer():
    meter = speed.Speedometer()
    meter.starts = [k * 0.1 for k in range(20)]
    meter.ms = [2 * speed.NOMINAL_MS] * 20
    # [0.25, 1.05] holds 8 probes of 2 * NOMINAL_MS each
    got = meter.normalize(0.25, 1.05)
    want = (0.8 - 8 * 2 * speed.NOMINAL_MS / 1000) / 2
    expect(math.isclose(got, want), "an interval probed at half the nominal speed is halved, probing left out")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_emitted(spec)
    check_speedometer()
    tmp = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    try:
        check_output_check(tmp)
        check_tracing_bytes(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"selftest: {len(FAILURES)} failed" if FAILURES else "selftest: all checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
