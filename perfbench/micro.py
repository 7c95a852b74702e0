"""Microbenchmarks of groupapprox.perm on seeded degree-8 permutations.

Each figure is the median over ROUNDS timed loops of the per-call time.
Every result is consumed inside the timed loop, so the loop cannot skip
work; the cost of the loop itself is included.
"""

from __future__ import annotations

import random
import statistics
import time

from groupapprox.perm import Permutation, conjugate, cycle_string, parse_cycles

DEGREE = 8
COUNT = 2000
ROUNDS = 7


def _per_call(loop, calls):
    samples = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        loop()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def run(seed):
    rng = random.Random(f"perm/{seed}")
    perms = [Permutation(rng.sample(range(DEGREE), DEGREE)) for _ in range(COUNT + 1)]
    pairs = list(zip(perms, perms[1:]))
    texts = [cycle_string(p) for p in perms[:COUNT]]

    def mul():
        s = 0
        for a, b in pairs:
            s += (a * b)[0]
        return s

    def inverse():
        s = 0
        for a, _ in pairs:
            s += a.inverse()[0]
        return s

    def conj():
        s = 0
        for a, b in pairs:
            s += conjugate(a, b)[0]
        return s

    def sort_key():
        s = 0
        for a, _ in pairs:
            s += a.sort_key()[0]
        return s

    def parse():
        s = 0
        for t in texts:
            s += parse_cycles(t, DEGREE)[0]
        return s

    return {
        "perm.mul_ns": _per_call(mul, COUNT) * 1e9,
        "perm.inverse_ns": _per_call(inverse, COUNT) * 1e9,
        "perm.conjugate_ns": _per_call(conj, COUNT) * 1e9,
        "perm.sort_key_ns": _per_call(sort_key, COUNT) * 1e9,
        "perm.parse_cycles_us": _per_call(parse, COUNT) * 1e6,
    }
