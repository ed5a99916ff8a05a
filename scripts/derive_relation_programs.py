"""Search for layered presentations of the double-crossing relation sides.

The crossing relations determine their two sides as functions of loops, but
a side must be *presented* as a layered tangle program before the evaluator
can check it.  Most presentations were found by hand from the state-sum
structure; this script searches the space of small programs (cup rows, a
crossing box row, cap rows) for one whose values agree with a target
function on all loops up to a weight bound.  Run it to re-derive the
presentations pinned in ypa.heisenberg.
"""

from __future__ import annotations

import argparse
import sys

from ypa import tangle
from ypa.heisenberg import CROSS, relation_sides
from ypa.plancherel import PLANCHEREL
from ypa.tangle import Atom, TangleError, compile_program, evaluate
from ypa.young import enumerate_loops, diagrams_up_to

UP, DOWN = tangle.UP, tangle.DOWN


def cup_row(kind: str, gap: int) -> tuple[Atom, ...]:
    return (Atom("cup", cup_kind=kind, gap=gap),)


def box_row(pos: int, n: int) -> tuple[Atom, ...]:
    atoms = [Atom("pass")] * (pos - 1) + [Atom("box", box_name="cross")]
    atoms += [Atom("pass")] * (n - (pos + 3))
    return tuple(atoms)


def cap_row(pos: int, n: int) -> tuple[Atom, ...]:
    atoms = [Atom("pass")] * (pos - 1) + [Atom("cap")]
    atoms += [Atom("pass")] * (n - (pos + 1))
    return tuple(atoms)


def candidates(signature, n_cups: int, n_boxes: int, n_caps: int):
    """Yield (rows, compiled program) pairs with the given atom-row counts."""
    legs = (UP, UP, DOWN, DOWN)

    def extend(orient, rows, counts):
        n_c, n_b, n_k = counts
        n = len(orient)
        if not (n_c or n_b or n_k):
            if n == 0:
                try:
                    yield rows, compile_program("cand", signature, tuple(rows), {"cross": CROSS})
                except TangleError:
                    pass
            return
        if n_c:
            for kind in ("du", "ud"):
                for gap in range(n + 1):
                    new = list(orient)
                    pair = [DOWN, UP] if kind == "du" else [UP, DOWN]
                    new[gap:gap] = pair
                    yield from extend(
                        tuple(new), rows + [cup_row(kind, gap)], (n_c - 1, n_b, n_k)
                    )
        if n_b:
            for pos in range(1, n - 2):
                if tuple(orient[pos - 1 : pos + 3]) != legs:
                    continue
                new = orient[: pos - 1] + orient[pos + 3 :]
                yield from extend(
                    new, rows + [box_row(pos, n)], (n_c, n_b - 1, n_k)
                )
        if n_k:
            for pos in range(1, n):
                if orient[pos - 1] == orient[pos]:
                    continue
                new = orient[: pos - 1] + orient[pos + 1 :]
                yield from extend(
                    new, rows + [cap_row(pos, n)], (n_c, n_b, n_k - 1)
                )

    orient0 = tangle.signature_orientations(signature)
    yield from extend(orient0, [], (n_cups, n_boxes, n_caps))


def loops_up_to(signature, max_weight):
    out = []
    for base in diagrams_up_to(max_weight):
        out.extend(enumerate_loops(base, signature))
    return out


def search(relation: str, check_weight: int, confirm_weight: int):
    sides = relation_sides(relation)
    signature = sides.signature
    target = {}
    quick = loops_up_to(signature, check_weight)
    for loop in quick:
        target[loop.diagrams] = sides.rhs_value(loop)
    confirm = loops_up_to(signature, confirm_weight)
    found = []
    for n_cups, n_boxes, n_caps in [(2, 2, 0), (3, 2, 1), (4, 2, 2)]:
        print(f"-- structure: {n_cups} cups, {n_boxes} boxes, {n_caps} caps")
        count = 0
        for rows, prog in candidates(signature, n_cups, n_boxes, n_caps):
            count += 1
            if all(
                evaluate(prog, lp, PLANCHEREL) == target[lp.diagrams] for lp in quick
            ):
                if all(
                    evaluate(prog, lp, PLANCHEREL) == sides.rhs_value(lp)
                    for lp in confirm
                ):
                    print("   MATCH:")
                    for row in rows:
                        print("     ", render_row(row))
                    found.append(prog)
                    if len(found) >= 4:
                        return found
        print(f"   ({count} candidates)")
    return found


def render_row(row) -> str:
    parts = []
    for a in row:
        if a.kind == "pass":
            parts.append("|")
        elif a.kind == "dot":
            parts.append("*")
        elif a.kind == "cap":
            parts.append("cap")
        elif a.kind == "cup":
            parts.append(f"cup_{a.cup_kind}@{a.gap}")
        else:
            parts.append(f"box {a.box_name}")
    return "row " + " ".join(parts) + ";"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--relation", default="res_ind")
    ap.add_argument("--check-weight", type=int, default=2)
    ap.add_argument("--confirm-weight", type=int, default=4)
    args = ap.parse_args()
    found = search(args.relation, args.check_weight, args.confirm_weight)
    if not found:
        print("no presentation found in the searched space")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
