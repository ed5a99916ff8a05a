"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (tolerance zero); the two runtime targets are asserted
with generous margins on top of correctness.
"""

import random
import time
from fractions import Fraction as F

import ypa.frobenius as fr
import ypa.heisenberg as hs
import ypa.sym_oracle as so
from ypa.plancherel import (
    PLANCHEREL,
    boolean_cumulant,
    cauchy_g,
    f_pl,
    moment,
    p_down,
    p_up,
)
from ypa.ratfun import FactoredRatFun
from ypa.surd import Surd
from ypa.tangle import evaluate
from ypa.young import (
    LoopPath,
    diagrams_up_to,
    down_covers,
    up_covers,
    weight,
)

ONE = Surd.from_rational(1)


def _report(n: int, description: str, ok: bool, started: float):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {n} {state} ({time.monotonic() - started:.1f}s): {description}")
    assert ok, f"criterion {n} failed: {description}"


def test_criterion_1_left_circle():
    t0 = time.monotonic()
    ok = all(
        evaluate(hs.programs()["left_circle"], LoopPath((lam,), ()), PLANCHEREL) == ONE
        for lam in diagrams_up_to(8)
    )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _report(1, "left circle evaluates to 1 for all |lam| <= 8 in under 5s", ok, t0)


def test_criterion_2_relation_sweep():
    t0 = time.monotonic()
    ok = True
    for name in ("left_turn", "ind_ind", "ind_res", "res_ind", "ybe"):
        report = hs.verify_relation(name, 6, jobs=4)
        ok &= report.verified and report.loops_checked > 0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    _report(
        2,
        "all five local relations hold on every loop of base weight <= 6",
        ok,
        t0,
    )


def test_criterion_3_dot():
    t0 = time.monotonic()
    ok = True
    for lam in diagrams_up_to(8):
        for mu, _ in down_covers(lam):
            loop = LoopPath((lam, mu, lam), (-1, 1))
            right_turn = evaluate(hs.programs()["right_turn"], loop, PLANCHEREL)
            ok &= hs.dot_value(loop, PLANCHEREL) == right_turn
    _report(
        3, "dot closed form equals the composed tangle on all edges, |lam| <= 8", ok, t0
    )


def test_criterion_4_moments_cumulants():
    t0 = time.monotonic()
    ok = True
    for lam in diagrams_up_to(8):
        for k in range(1, 7):
            ok &= hs.moment_diagram(lam, k) == moment(lam, k)
            ok &= hs.cumulant_diagram(lam, k) == boolean_cumulant(lam, k + 2)
    for lam in diagrams_up_to(10):
        ok &= moment(lam, 1) == 0
        ok &= boolean_cumulant(lam, 1) == 0
        ok &= boolean_cumulant(lam, 2) == weight(lam)
    _report(
        4,
        "diagram moments/cumulants match the series for k <= 6, |lam| <= 8; "
        "M1 = B1 = 0 and B2 = |lam|",
        ok,
        t0,
    )


def test_criterion_5_characters_three_ways():
    t0 = time.monotonic()
    ok = True
    for lam in diagrams_up_to(7):
        for pi in diagrams_up_to(5)[1:]:
            ok &= hs.character_diagram(lam, pi) == so.normalized_character(lam, pi)
    for lam in diagrams_up_to(6):
        for k in range(1, 5):
            sigma = so.normalized_character(lam, (k,))
            ok &= hs.character_diagram(lam, (k,)) == sigma
            ok &= fr.frobenius_sigma(lam, k) == sigma
    for lam in diagrams_up_to(6):
        for pi in diagrams_up_to(5)[1:]:
            ok &= hs.character_tangle(lam, pi) == hs.character_diagram(lam, pi)
    ok &= hs.character_diagram((2,), (2,)) == 2
    ok &= hs.character_diagram((1, 1), (2,)) == -2
    ok &= hs.character_diagram((3,), (3,)) == 6
    ok &= hs.character_diagram((2, 1), (3,)) == -3
    _report(
        5,
        "diagram = GZ oracle for |pi| <= 5, |lam| <= 7; both = Frobenius for "
        "single rows k <= 4, |lam| <= 6; closed tangle = diagram for |pi| <= 5, "
        "|lam| <= 6; spot values 2, -2, 6, -3",
        ok,
        t0,
    )


def test_criterion_6_appendix_b():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(0)
    for lam in diagrams_up_to(6):
        for n in range(1, 5):
            sigma = hs.character_diagram(lam, (n,))
            ok &= -fr.satellite_I(lam, n) == n * sigma
            ok &= fr.radial_I(lam, n) == (-1) ** n * sigma
            for k in range(n - 1):
                samples = [fr.sample_points(lam, n - k - 1, rng) for _ in range(10)]
                ok &= fr.satellite_step_check(lam, n, k, samples)
        ok &= fr.radial_I(lam, 2, (2, 1)) - fr.radial_I(lam, 2) == fr.satellite_I(lam, 2)
        ok &= fr.radial_I(lam, 3, (2, 1, 3)) == fr.radial_I(lam, 3, (2, 3, 1))
        ok &= fr.satellite_I(lam, 3) == 3 * fr.radial_I(lam, 3)
        for n in (2, 3, 4):
            checks = fr.lemma_checks(lam, n, sample_count=20, seed=rng.randint(0, 10**6))
            ok &= checks["cyclic_sum"] and checks["inversion"]
    _report(
        6,
        "satellite/radial integrals, induction steps, n=2/n=3 contour "
        "identities, and the cyclic/inversion lemmas, |lam| <= 6",
        ok,
        t0,
    )


def test_criterion_7_kerov_expansions():
    t0 = time.monotonic()
    ok = True
    exp2 = hs.kerov_boolean_expansion((2,), 8)
    ok &= hs.kerov_p_polynomial((2,), exp2) == {((3, 1),): F(1)}
    exp3 = hs.kerov_boolean_expansion((3,), 8)
    ok &= hs.kerov_p_polynomial((3,), exp3) == {
        ((2, 1),): F(1),
        ((2, 2),): F(1),
        ((4, 1),): F(1),
    }
    for pi in diagrams_up_to(4)[1:]:
        expansion = hs.kerov_boolean_expansion(pi, 8)
        p = hs.kerov_p_polynomial(pi, expansion)
        ok &= all(c.denominator == 1 and c >= 0 for c in p.values())
    _report(
        7,
        "P_(2) = x3 and P_(3) = x4 + x2^2 + x2; all |pi| <= 4 expansions have "
        "nonnegative integer P-coefficients",
        ok,
        t0,
    )


def test_criterion_8_measure_lemmas():
    t0 = time.monotonic()
    ok = True
    for lam in diagrams_up_to(10):
        ok &= f_pl(lam) == sum(f_pl(mu) for mu, _ in up_covers(lam))
        ok &= sum(p_up(lam, mu) for mu, _ in up_covers(lam)) == 1
        if lam:
            ok &= sum(p_down(lam, mu) for mu, _ in down_covers(lam)) == 1
        for mu, _ in down_covers(lam):
            ok &= f_pl(lam) / f_pl(mu) == p_up(mu, lam)
            ok &= f_pl(mu) / f_pl(lam) == weight(lam) * p_down(lam, mu)
    for lam in diagrams_up_to(8):
        for mu, y in down_covers(lam):
            s = sum(p_up(lam, nu) / F(c - y) ** 2 for nu, c in up_covers(lam))
            ok &= s == 1 / (weight(lam) * p_down(lam, mu))
        for mu, x in up_covers(lam):
            if lam:
                s = weight(lam) * sum(
                    p_down(lam, nu) / F(x - c) ** 2 for nu, c in down_covers(lam)
                )
                ok &= s == 1 / p_up(lam, mu) - 1
        for mu, c in up_covers(lam):
            factor = FactoredRatFun.from_roots([F(c), F(c)], [F(c + 1), F(c - 1)])
            ok &= factor * cauchy_g(lam) == cauchy_g(mu)
        for mu, c1 in up_covers(lam):
            for nu, c2 in up_covers(mu):
                for rho, _ in up_covers(lam):
                    if rho == mu or not any(x == nu for x, _ in up_covers(rho)):
                        continue
                    gap = F(c2 - c1)
                    ok &= gap**2 / ((gap - 1) * (gap + 1)) * p_up(lam, rho) == p_up(
                        mu, nu
                    )
    _report(
        8,
        "harmonicity, stochasticity, ratio identities (|lam| <= 10) and the "
        "second-order-pole lemmas, diamond ratio, adding-box identity "
        "(|lam| <= 8)",
        ok,
        t0,
    )


def test_criterion_9_gz_oracle_consistency():
    t0 = time.monotonic()
    ok = True
    for lam in diagrams_up_to(7):
        n = weight(lam)
        d = so.dim(lam)
        mats = {i: so.matrix_dict(lam, i) for i in range(1, n)}
        ident = so.sparse_identity(d)
        for i, m in mats.items():
            ok &= m == so.sparse_transpose(m)
            ok &= so.sparse_mul(so.sparse_transpose(m), m) == ident
            ok &= so.sparse_mul(m, m) == ident
        for i in mats:
            for j in mats:
                if j >= i + 2:
                    ok &= so.sparse_mul(mats[i], mats[j]) == so.sparse_mul(
                        mats[j], mats[i]
                    )
            if i + 1 in mats:
                lhs = so.sparse_mul(so.sparse_mul(mats[i], mats[i + 1]), mats[i])
                rhs = so.sparse_mul(so.sparse_mul(mats[i + 1], mats[i]), mats[i + 1])
                ok &= lhs == rhs
        for pi in diagrams_up_to(5)[1:]:
            if sum(pi) <= n:
                ok &= so.character(lam, pi) == so.path_sum_character(lam, pi)
    _report(
        9,
        "GZ matrices are symmetric orthogonal involutions obeying the braid "
        "and commutation relations; traces match the path sum (|lam| <= 7)",
        ok,
        t0,
    )
