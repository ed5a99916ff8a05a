"""Print a CSV table of normalized characters computed three ways.

Columns are lambda,pi,method,value; methods are the closed form of the
cycle-diagram state sum, the Gelfand-Tsetlin trace, and (for one-row
partitions) the Frobenius residue integral.

Usage: python scripts/character_table.py [--max-lambda L] [--max-pi P]
"""

from __future__ import annotations

import argparse
import sys

import ypa.frobenius as fr
import ypa.heisenberg as hs
import ypa.sym_oracle as so
from ypa.young import diagrams_up_to, format_diagram, weight


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-lambda", type=int, default=6)
    ap.add_argument("--max-pi", type=int, default=4)
    args = ap.parse_args()
    print("lambda,pi,method,value")
    disagreements = 0
    for lam in diagrams_up_to(args.max_lambda):
        for pi in diagrams_up_to(args.max_pi)[1:]:
            values = {
                "diagram": hs.character_diagram(lam, pi),
                "oracle": so.normalized_character(lam, pi),
            }
            if len(pi) == 1 and weight(lam) >= pi[0]:
                values["frobenius"] = fr.frobenius_sigma(lam, pi[0])
            if len(set(values.values())) != 1:
                disagreements += 1
            for method, value in sorted(values.items()):
                print(
                    f"{format_diagram(lam)},{format_diagram(pi)},{method},{value}"
                )
    if disagreements:
        print(f"{disagreements} disagreements", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
