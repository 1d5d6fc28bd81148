#!/usr/bin/env python3
"""Scan stable H^2_d dimensions of the Witt algebra over weights and windows.

Prints one row per weight with the stable dimension on each window; every
reported number is an exact integer.  The all-zero table is the desk-scale
form of formal rigidity.

Usage: python scripts/rigidity_scan.py [max_weight] [margin]
"""

import sys
import time

from wittcoh import Window, cohomology_dim, make_witt


def main():
    max_weight = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    margin = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    windows = [Window(-8, 8), Window(-10, 10), Window(-12, 12)]
    witt = make_witt()

    header = "    d | " + " | ".join(f"{w}" for w in windows)
    print(header)
    print("-" * len(header))
    grand_total = 0
    start = time.perf_counter()
    for d in range(-max_weight, max_weight + 1):
        dims = []
        for window in windows:
            report = cohomology_dim(witt, 2, d, window, margin)
            dims.append(report.dim_stable)
            grand_total += report.dim_stable
        print(f"  {d:+3d} | " + " | ".join(f"{n:^8d}" for n in dims))
    elapsed = time.perf_counter() - start
    print("-" * len(header))
    verdict = "rigid (every stable dimension is 0)" if grand_total == 0 else "NONZERO CLASSES FOUND"
    print(f"{verdict}; scan took {elapsed:.1f}s")
    return 0 if grand_total == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
