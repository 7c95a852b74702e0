#!/usr/bin/env python3
"""Sweep empirical covering ratios of alternating groups.

For each degree m, tabulates the least product depth at which every
nontrivial class is reached from every nontrivial class, normalized by
the length quotient ceil(|y|/|x|).  The printed maximum is the measured
covering constant; the conventional proof technique guarantees 16, the
sweep shows what actually happens.

The tables come from the character table of S_m, so A_m is never listed
and degrees past the element cap work: degree 14 takes well under a
second.  A degree whose S_m character table would pass 10^6 entries
(m >= 22) is refused.

    python scripts/covering_sweep.py --degrees 5 6 10 12 --csv out.csv
"""

import argparse
import sys

from groupapprox.coverage import covering_csv, empirical_covering_constant
from groupapprox.perm import cycle_string


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degrees", type=int, nargs="+", default=[5, 6])
    parser.add_argument("--csv", help="append all rows to this CSV file")
    args = parser.parse_args()

    csv_chunks = []
    for m in args.degrees:
        table = empirical_covering_constant(m)
        print(f"A_{m}: {len(table.rows)} class pairs, max ratio {table.max_ratio}")
        worst = max(table.rows, key=lambda r: (r.ratio is None, r.ratio or 0))
        print(
            f"  worst pair: x = {cycle_string(worst.x)}, y = {cycle_string(worst.y)}, "
            f"depth {worst.depth}, steps {worst.steps}"
        )
        if args.csv:
            csv_chunks.append(covering_csv(table))
    if args.csv:
        header, *_ = csv_chunks[0].splitlines()
        body = []
        for chunk in csv_chunks:
            body.extend(chunk.splitlines()[1:])
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(header + "\n" + "\n".join(body) + "\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
