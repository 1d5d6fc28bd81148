#!/usr/bin/env python3
"""Run the full symbolic replay and print its artifacts.

Emits the fact table at the pre-recurrence stage, the derivation log, the
solved diagonal relations, and the final verdict.

Usage: python scripts/replay_proof.py [K]

Exits 0 when every unknown is forced to zero, 1 otherwise, and 2 with one
`error: ...` line on standard error for a malformed K or one below 6.
"""

import sys

from wittcoh import RelationSet, run_replay
from wittcoh.errors import ConfigError


def main(argv):
    try:
        result = run_replay(K=int(argv[0]) if argv else 12)
    except (ConfigError, ValueError) as exc:  # a malformed K, or one the table refuses
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("fact table after the nonpositive fill:\n")
    print(result.section5_table)

    print("solved diagonal relations:")
    diag = RelationSet([r for r in result.relations.relations if r.tag == "Diag"])
    solved = diag.solve()
    for k in sorted(solved):
        print(f"  a_{k} = {solved[k]}")

    print(f"\nrelations accumulated: {len(result.relations)}")
    print(f"derivation log: {len(result.table.log)} entries "
          f"(rerun with --emit-log on the CLI for the full text)")
    print()
    print(result.verdict)
    return 0 if result.verdict.all_zero else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
