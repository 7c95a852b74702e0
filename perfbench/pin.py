#!/usr/bin/env python3
"""Regenerate expected.json: exit codes and report digests to check against.

    python3 perfbench/pin.py

Runs one untraced pass of every workload at the default seed and records,
per step, the expected exit code (0, or 1 for a malformed input) and the
SHA-256 of each file the step writes.  It refuses to pin a pass in which a
step gave a wrong answer.  Malformed inputs that escape with an uncaught
exception are listed under ``known_escapes``: that is the program's
behaviour at the time of pinning, not the expected one.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))
import workloads  # noqa: E402


def main():
    pinned = {"default_seed": workloads.DEFAULT_SEED, "workloads": {}, "known_escapes": {}}
    for workload in workloads.WORKLOADS:
        workdir = os.path.join(run.WORK, f"pin-{workload}-{os.getpid()}")
        try:
            *_, result = run.run_child(workload, workloads.DEFAULT_SEED, os.path.join(workdir, "pass0"))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        steps = {}
        escapes = []
        for step in result["steps"]:
            if step["malformed"] and step["exc"] is not None:
                escapes.append(f"{step['id']}: {step['exc']}")
            elif step["problems"]:
                sys.exit(f"{workload} step {step['id']}: {step['problems']}; not pinning")
            steps[step["id"]] = {"exit": 1 if step["malformed"] else 0, "sha256": step["sha256"]}
        pinned["workloads"][workload] = steps
        pinned["known_escapes"][workload] = escapes
        print(f"{workload}: {len(steps)} steps pinned, {len(escapes)} known escapes")
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
