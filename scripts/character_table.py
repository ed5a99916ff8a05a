"""Print a CSV table of normalized characters computed three ways.

Columns are lambda,pi,method,value; methods are the closed form of the
cycle-diagram state sum, the Gelfand-Tsetlin trace, and (for one-row
partitions) the Frobenius residue integral.  The values come from
``ypa.cli.character_values``, the routine behind ``ypa character``.

Usage: python scripts/character_table.py [--max-lambda L] [--max-pi P]
"""

from __future__ import annotations

import argparse
import sys

from ypa.cli import character_values
from ypa.young import diagrams_up_to, format_diagram


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-lambda", type=int, default=6)
    ap.add_argument("--max-pi", type=int, default=4)
    args = ap.parse_args()
    lams = diagrams_up_to(args.max_lambda)
    pis = diagrams_up_to(args.max_pi)[1:]
    if not (lams and pis):
        ap.error("no (lambda, pi) pair to compare: need --max-lambda >= 0 and --max-pi >= 1")
    print("lambda,pi,method,value")
    disagreements = 0
    for lam in lams:
        for pi in pis:
            values = character_values(lam, pi)
            if len(set(values.values())) != 1:
                disagreements += 1
            for method, value in values.items():
                print(
                    f"{format_diagram(lam)},{format_diagram(pi)},{method},{value}"
                )
    if disagreements:
        print(f"{disagreements} disagreements", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
