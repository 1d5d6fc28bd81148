#!/usr/bin/env python3
"""Scan stable H^2_d dimensions of the Witt algebra over weights and windows.

Prints one row per weight with the stable dimension on each window; every
reported number is an exact integer.  The all-zero table is the desk-scale
form of formal rigidity.

Usage: python scripts/rigidity_scan.py [max_weight] [margin]

Exits 0 when every stable dimension is 0, 1 when some is not, and 2 with one
`error: ...` line on standard error for a malformed argument or a margin the
windows refuse.
"""

import sys
import time

from wittcoh import Window, cohomology_dim, make_witt
from wittcoh.errors import ConfigError


def main(argv):
    windows = [Window(-8, 8), Window(-10, 10), Window(-12, 12)]
    witt = make_witt()
    start = time.perf_counter()
    try:
        max_weight = int(argv[0]) if argv else 6
        margin = int(argv[1]) if len(argv) > 1 else 4
        table = [(d, [cohomology_dim(witt, 2, d, window, margin).dim_stable for window in windows])
                 for d in range(-max_weight, max_weight + 1)]
    except (ConfigError, ValueError) as exc:  # a malformed argument, or a margin the windows refuse
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    header = "    d | " + " | ".join(f"{w}" for w in windows)
    print(header)
    print("-" * len(header))
    for d, dims in table:
        print(f"  {d:+3d} | " + " | ".join(f"{n:^8d}" for n in dims))
    print("-" * len(header))
    grand_total = sum(sum(dims) for _, dims in table)
    verdict = "rigid (every stable dimension is 0)" if grand_total == 0 else "NONZERO CLASSES FOUND"
    print(f"{verdict}; scan took {elapsed:.1f}s")
    return 0 if grand_total == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
