"""The four benchmark workloads: one pass each, with its correctness gate.

A pass calls the same public ``ypa`` functions the CLI commands call, in one
closed loop with one client, and compares every item's independent results
inside the pass.  Each workload's item count is pinned: a pass that checks
more or fewer items than pinned counts the whole missing group as failed, so
a resized workload, or one that silently skips items, fails instead of
getting faster.

Only ``contours`` draws random inputs from the seed (sample points and lemma
seeds); the other workloads cover fixed exhaustive sets and ignore it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import ypa.frobenius as fr
import ypa.heisenberg as hs
import ypa.plancherel as pl
import ypa.sym_oracle as so
import ypa.young as yg


@dataclass
class Size:
    """The sizes of every workload and their pinned item counts."""

    relation_weight: int = 8
    char_lambda: int = 9
    char_pi: int = 6
    moment_lambda: int = 8
    moment_k: int = 6
    kerov_pi: int = 4
    kerov_sample_weight: int = 8
    contour_lambda: int = 6
    contour_n: int = 4
    # Expected item counts, by group.
    pinned: dict[str, int] = field(default_factory=dict)


FULL = Size(
    pinned={
        "left_turn": 120,
        "ind_ind": 342,
        "ind_res": 462,
        "res_ind": 769,
        "ybe": 1128,
        "left_circle": 67,
        "character": 2468,
        "moment": 402,
        "kerov": 11,
        "contour": 600,
    }
)

TINY = Size(
    relation_weight=3,
    char_lambda=4,
    char_pi=3,
    moment_lambda=3,
    moment_k=3,
    kerov_pi=2,
    kerov_sample_weight=6,
    contour_lambda=2,
    contour_n=3,
    pinned={
        "left_turn": 7,
        "ind_ind": 8,
        "ind_res": 15,
        "res_ind": 36,
        "ybe": 6,
        "left_circle": 7,
        "character": 55,
        "moment": 21,
        "kerov": 3,
        "contour": 56,
    },
)

# The closed forms criterion 7 of the acceptance suite pins.
KNOWN_P_POLYNOMIALS = {
    (2,): {((3, 1),): Fraction(1)},
    (3,): {((2, 1),): Fraction(1), ((2, 2),): Fraction(1), ((4, 1),): Fraction(1)},
}


class Tally:
    """Items attempted and failed, per group, checked against the pins."""

    def __init__(self, size: Size):
        self.size = size
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.notes: list[str] = []

    def item(self, group: str, ok: bool, n: int = 1) -> None:
        self.attempted[group] = self.attempted.get(group, 0) + n
        if not ok:
            self.failed[group] = self.failed.get(group, 0) + n

    def raised(self, group: str, exc: BaseException) -> None:
        self.notes.append(f"{group}: {type(exc).__name__}: {exc}")

    def totals(self, groups) -> tuple[int, int]:
        """(attempted, failed) with every group held to its pinned count.

        A group whose count differs from its pin fails in full: its pinned
        count is added to the failures.
        """
        attempted = failed = 0
        for group in groups:
            pin = self.size.pinned[group]
            got = self.attempted.get(group, 0)
            bad = self.failed.get(group, 0)
            if got != pin:
                self.notes.append(f"{group}: {got} items, pinned {pin}")
                bad = max(bad, pin)
            attempted += max(got, pin)
            failed += min(bad, max(got, pin))
        return attempted, failed


def partitions_up_to(n: int) -> list[yg.Diagram]:
    """The nonempty partitions of size at most n."""
    return [p for p in yg.diagrams_up_to(n) if p]


# -- relations ------------------------------------------------------------------


def _relations(size: Size, tally: Tally, jobs: int) -> None:
    for name in hs.RELATION_IDS:
        try:
            report = hs.verify_relation(name, size.relation_weight, jobs)
        except Exception as exc:  # a raising relation fails all its loops
            tally.raised(name, exc)
            tally.item(name, False, size.pinned[name])
            continue
        # A sweep that checked nothing is a failure, never "verified".
        if report.loops_checked == 0:
            tally.notes.append(f"{name}: no loops checked")
            tally.item(name, False, size.pinned[name])
            continue
        bad = len(report.failures)
        tally.item(name, True, report.loops_checked - bad)
        tally.item(name, False, bad)


def relations(size: Size, seed: int, tally: Tally) -> tuple[str, ...]:
    _relations(size, tally, jobs=1)
    return hs.RELATION_IDS


def relations_jobs2(size: Size, seed: int, tally: Tally) -> tuple[str, ...]:
    _relations(size, tally, jobs=2)
    return hs.RELATION_IDS


# -- characters ---------------------------------------------------------------


def _character_item(lam, pi) -> bool:
    values = {
        hs.character_diagram(lam, pi),
        so.normalized_character(lam, pi),
    }
    if len(pi) == 1:
        values.add(fr.frobenius_sigma(lam, pi[0]))
    return len(values) == 1


def _kerov_item(pi, sample_weight: int) -> bool:
    expansion = hs.kerov_boolean_expansion(pi, sample_weight)
    p = hs.kerov_p_polynomial(pi, expansion)
    if pi in KNOWN_P_POLYNOMIALS and p != KNOWN_P_POLYNOMIALS[pi]:
        return False
    return all(c.denominator == 1 and c >= 0 for c in p.values())


def characters(size: Size, seed: int, tally: Tally) -> tuple[str, ...]:
    # Three-way table: the diagram path sum, the GZ trace and, for one-row
    # pi, the Frobenius residue integral, on every |pi| <= |lambda|.
    for lam in yg.diagrams_up_to(size.char_lambda):
        for pi in partitions_up_to(min(size.char_pi, yg.weight(lam))):
            _guarded(tally, "character", _character_item, lam, pi)
    # Moments and Boolean cumulants: dotted circles against the series.
    for lam in yg.diagrams_up_to(size.moment_lambda):
        for k in range(1, size.moment_k + 1):
            _guarded(
                tally,
                "moment",
                lambda lam, k: hs.moment_diagram(lam, k) == pl.moment(lam, k)
                and hs.cumulant_diagram(lam, k) == pl.boolean_cumulant(lam, k + 2),
                lam,
                k,
            )
    for pi in partitions_up_to(size.kerov_pi):
        _guarded(tally, "kerov", _kerov_item, pi, size.kerov_sample_weight)
    return ("character", "moment", "kerov")


# -- contours -----------------------------------------------------------------


def _contour_items(lam, max_n: int, rng: random.Random, tally: Tally) -> None:
    for n in range(1, max_n + 1):
        sigma = hs.character_diagram(lam, (n,))
        _guarded(tally, "contour", lambda: -fr.satellite_I(lam, n) == n * sigma)
        _guarded(tally, "contour", lambda: fr.radial_I(lam, n) == (-1) ** n * sigma)
        for k in range(n - 1):
            samples = [fr.sample_points(lam, n - k - 1, rng) for _ in range(10)]
            _guarded(
                tally, "contour", lambda: fr.satellite_step_check(lam, n, k, samples)
            )
    if max_n >= 2:
        _guarded(
            tally,
            "contour",
            lambda: fr.radial_I(lam, 2, (2, 1)) - fr.radial_I(lam, 2)
            == fr.satellite_I(lam, 2),
        )
    if max_n >= 3:
        _guarded(
            tally,
            "contour",
            lambda: fr.radial_I(lam, 3, (2, 1, 3)) == fr.radial_I(lam, 3, (2, 3, 1)),
        )
        _guarded(
            tally, "contour", lambda: fr.satellite_I(lam, 3) == 3 * fr.radial_I(lam, 3)
        )
    for n in range(2, max_n + 1):
        lemma_seed = rng.randint(0, 10**6)

        def lemmas():
            checks = fr.lemma_checks(lam, n, sample_count=20, seed=lemma_seed)
            return checks["cyclic_sum"] and checks["inversion"]

        _guarded(tally, "contour", lemmas)


def contours(size: Size, seed: int, tally: Tally) -> tuple[str, ...]:
    rng = random.Random(seed)
    for lam in yg.diagrams_up_to(size.contour_lambda):
        _contour_items(lam, size.contour_n, rng, tally)
    return ("contour",)


def _guarded(tally: Tally, group: str, check, *args) -> None:
    """Run one item's comparison; an item that raises counts as failed."""
    try:
        ok = bool(check(*args))
    except Exception as exc:
        tally.raised(group, exc)
        ok = False
    tally.item(group, ok)


WORKLOADS = {
    "relations": relations,
    "relations-jobs2": relations_jobs2,
    "characters": characters,
    "contours": contours,
}


def run_pass(name: str, seed: int, size: Size = FULL) -> tuple[int, int, list[str]]:
    """One pass of a workload: (attempted, failed, notes)."""
    tally = Tally(size)
    groups = WORKLOADS[name](size, seed, tally)
    attempted, failed = tally.totals(groups)
    return attempted, failed, tally.notes
