"""Search for layered presentations of the double-crossing relation sides.

The crossing relations determine their two sides as functions of loops, but
a side must be *presented* as a layered tangle program before the evaluator
can check it.  Most presentations were found by hand from the state-sum
structure; this script searches the space of small programs (cup rows, a
crossing box row, cap rows) for one whose values agree with a target
function on all loops up to a weight bound.  Each candidate is written as
``.tng`` rows and read by ``ypa.tangle.parse``, so a match prints the very
rows that were checked.  Run it to re-derive the presentations pinned in
the one ``.tng`` source of ypa.heisenberg, whose sides it reads through
``relation_sides``.
"""

from __future__ import annotations

import argparse
import sys

from ypa import tangle
from ypa.heisenberg import CROSS, relation_sides
from ypa.plancherel import PLANCHEREL
from ypa.tangle import evaluate, parse
from ypa.young import enumerate_loops, diagrams_up_to

UP, DOWN = tangle.UP, tangle.DOWN


def tiling_row(pos: int, atom: str, arity: int, n: int) -> str:
    """A row of ``n`` strands with ``atom`` at strands ``pos..pos+arity-1``."""
    return "row " + "| " * (pos - 1) + atom + " |" * (n - (pos + arity - 1)) + ";"


def candidates(signature, n_cups: int, n_boxes: int, n_caps: int):
    """Yield (rows, parsed program) pairs with the given atom-row counts."""
    legs = CROSS.legs()
    header = "tangle cand : (" + ",".join("+" if e > 0 else "-" for e in signature) + ")"

    def extend(orient, rows, counts):
        n_c, n_b, n_k = counts
        n = len(orient)
        if not (n_c or n_b or n_k):
            if n == 0:  # every row kept its orientation checks, so it parses
                yield rows, parse(f"{header} {{ {' '.join(rows)} }}", {"cross": CROSS})
            return
        if n_c:
            for kind in ("du", "ud"):
                for gap in range(n + 1):
                    new = list(orient)
                    new[gap:gap] = [DOWN, UP] if kind == "du" else [UP, DOWN]
                    yield from extend(
                        tuple(new), rows + [f"row cup_{kind}@{gap};"], (n_c - 1, n_b, n_k)
                    )
        if n_b:
            for pos in range(1, n - 2):
                if tuple(orient[pos - 1 : pos + 3]) != legs:
                    continue
                new = orient[: pos - 1] + orient[pos + 3 :]
                yield from extend(
                    new, rows + [tiling_row(pos, "box cross", 4, n)], (n_c, n_b - 1, n_k)
                )
        if n_k:
            for pos in range(1, n):
                if orient[pos - 1] == orient[pos]:
                    continue
                new = orient[: pos - 1] + orient[pos + 1 :]
                yield from extend(
                    new, rows + [tiling_row(pos, "cap", 2, n)], (n_c, n_b, n_k - 1)
                )

    orient0 = tangle.signature_orientations(signature)
    yield from extend(orient0, [], (n_cups, n_boxes, n_caps))


def loops_up_to(signature, max_weight):
    out = []
    for base in diagrams_up_to(max_weight):
        out.extend(enumerate_loops(base, signature))
    return out


def search(sides, quick, confirm):
    """Programs matching the right side on the quick loops, then on confirm."""
    target = sides.rhs_values(quick)
    found = []
    for n_cups, n_boxes, n_caps in [(2, 2, 0), (3, 2, 1), (4, 2, 2)]:
        print(f"-- structure: {n_cups} cups, {n_boxes} boxes, {n_caps} caps")
        count = 0
        for rows, prog in candidates(sides.signature, n_cups, n_boxes, n_caps):
            count += 1
            if evaluate(prog, quick, PLANCHEREL) == target:
                if evaluate(prog, confirm, PLANCHEREL) == sides.rhs_values(confirm):
                    print("   MATCH:")
                    for row in rows:
                        print("     ", row)
                    found.append(prog)
                    if len(found) >= 4:
                        return found
        print(f"   ({count} candidates)")
    return found


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--relation", default="res_ind")
    ap.add_argument("--check-weight", type=int, default=2)
    ap.add_argument("--confirm-weight", type=int, default=4)
    args = ap.parse_args()
    sides = relation_sides(args.relation)
    quick = loops_up_to(sides.signature, args.check_weight)
    confirm = loops_up_to(sides.signature, args.confirm_weight)
    if not (quick and confirm):
        ap.error(
            f"--check-weight {args.check_weight} and --confirm-weight"
            f" {args.confirm_weight} must each admit a loop of {args.relation} to compare"
        )
    found = search(sides, quick, confirm)
    if not found:
        print("no presentation found in the searched space")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
