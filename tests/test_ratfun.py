import random
from collections import Counter
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from ypa.plancherel import cauchy_g, inv_h
from ypa.ratfun import (
    ONE_POLY, FactoredRatFun, PoleEvaluationError, Poly, residue_at, residue_pair,
    residue_sum,
)
from ypa.young import diagrams_up_to


def test_series_examples():
    # z/((z-1)(z+1)) = z^-1 + z^-3 + O(z^-5)
    R = FactoredRatFun.from_roots([F(0)], [F(1), F(-1)])
    assert R.series_at_infinity(4) == [1, 0, 1, 0, 1]
    # H of the empty diagram is plain z
    Z = FactoredRatFun.from_poly(Poly([0, 1]))
    assert Z.series_at_infinity(2) == [1, 0, 0]
    # (z+1)(z-1)/z = z - z^-1
    R2 = FactoredRatFun.from_roots([F(1), F(-1)], [F(0)])
    assert R2.series_at_infinity(2) == [1, 0, -1]


def test_residue_examples():
    assert FactoredRatFun.from_roots([], [F(2)]).residue_at(F(2)) == 1
    R = FactoredRatFun.from_roots([F(-1), F(0), F(3)], [F(1)])
    assert R.residue_at(F(1)) == -4
    assert FactoredRatFun.from_roots([], [F(2)]).residue_at(F(5)) == 0


def test_shift_examples():
    h1 = inv_h((1,))
    shifted = h1.shift(F(-1))
    assert shifted(F(3)) == h1(F(2))
    assert h1.shift(F(0)) == h1
    assert h1.shift(F(5, 2)).shift(F(-5, 2)) == h1


def test_eval_at_pole_raises():
    with pytest.raises(PoleEvaluationError):
        FactoredRatFun.from_roots([], [F(2)])(F(2))


def test_reduction_cancels_common_roots():
    # (z-1)(z-2) / (z-2) reduces to z-1
    R = FactoredRatFun.from_roots([F(1), F(2)], [F(2)])
    assert R.denom == ()
    assert R.numer == Poly([-1, 1])


def test_product_cancellation_spec_case():
    # H_(2)(z) * H_(2)(z-1) = (z+1)z(z-3)/(z-1): the (z-2) factors cancel
    h = inv_h((2,))
    prod = h * h.shift(F(-1))
    assert prod == FactoredRatFun.from_roots([F(-1), F(0), F(3)], [F(1)])


def _oracle_residue(R: FactoredRatFun, p: F) -> F:
    """Brute-force Laurent coefficient via polynomial long division at p."""
    m = R.denom_dict.get(p, 0)
    if m == 0:
        return F(0)
    cof = ONE_POLY
    for r, mr in R.denom:
        if r != p:
            for _ in range(mr):
                cof = cof * Poly.from_roots([r])
    num = R.numer.shift(p).coeffs
    den = cof.shift(p).coeffs
    q = []
    for j in range(m):
        acc = num[j] if j < len(num) else F(0)
        for t in range(j):
            acc -= q[t] * (den[j - t] if j - t < len(den) else F(0))
        q.append(acc / den[0])
    return q[m - 1]


def test_residue_matches_brute_force_laurent():
    rng = random.Random(7)
    for _ in range(60):
        roots = rng.sample(range(-6, 7), rng.randint(1, 3))
        den = {F(r): rng.randint(1, 3) for r in roots}
        numer = Poly([F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))])
        if numer.is_zero():
            continue
        R = FactoredRatFun.make(numer, den)
        for r in R.poles():
            assert R.residue_at(r) == _oracle_residue(R, r)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    st.dictionaries(
        st.fractions(min_value=-5, max_value=5, max_denominator=3),
        st.integers(1, 3),
        max_size=4,
    ),
)
def test_global_residue_theorem(numer, den):
    # The finite residues and the residue at infinity sum to zero: the sum of
    # all residues is the coefficient of z^-1 at infinity, a_(g+1) of the
    # series for a degree gap g >= -1 and zero for g <= -2.
    assume(any(numer))
    R = FactoredRatFun.make(Poly(numer), den)
    gap = R.numer.degree - sum(m for _, m in R.denom)
    at_infinity = R.series_at_infinity(gap + 1)[gap + 1] if gap >= -1 else 0
    assert R.sum_of_residues() == at_infinity


def test_g_times_h_is_one_up_to_weight_10():
    one = FactoredRatFun.from_poly(ONE_POLY)
    for lam in diagrams_up_to(10):
        assert cauchy_g(lam) * inv_h(lam) == one


def test_addition():
    # 1/(z-1) + 1/(z+1) = 2z/((z-1)(z+1))
    a = FactoredRatFun.from_roots([], [F(1)])
    b = FactoredRatFun.from_roots([], [F(-1)])
    s = a + b
    assert s == FactoredRatFun.make(Poly([0, 2]), {F(1): 1, F(-1): 1})


# Few, small roots, so that numerator and denominator roots collide often.
SMALL_ROOTS = st.sampled_from([F(k, 2) for k in range(-4, 5)])
ROOT_LISTS = st.lists(SMALL_ROOTS, max_size=6)


def _linear_product(roots):
    p = ONE_POLY
    for r in roots:
        p = p * Poly.from_roots([r])
    return p


@st.composite
def reduced_ratfuns(draw):
    """make() of a numerator with many small roots, times a small polynomial
    with any leading coefficient (zero included), over a small root multiset."""
    extra = Poly(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)))
    numer = _linear_product(draw(ROOT_LISTS)) * extra
    return FactoredRatFun.make(numer, Counter(draw(ROOT_LISTS)))


@settings(deadline=None, max_examples=300)
@given(ROOT_LISTS, ROOT_LISTS)
def test_from_roots_is_the_reduced_form(numer_roots, denom_roots):
    expected = FactoredRatFun.make(_linear_product(numer_roots), Counter(denom_roots))
    assert FactoredRatFun.from_roots(numer_roots, denom_roots) == expected


@settings(deadline=None, max_examples=200)
@given(ROOT_LISTS, ROOT_LISTS, ROOT_LISTS, st.integers(1, 3))
def test_make_cancels_repeated_common_roots(numer_roots, denom_roots, common, times):
    # Each common root appears `times` more times on both sides.
    num = Counter(numer_roots + common * times)
    den = Counter(denom_roots + common * times)
    shared = num & den
    reduced = FactoredRatFun.from_roots((num - shared).elements(), (den - shared).elements())
    assert FactoredRatFun.make(_linear_product(num.elements()), den) == reduced
    assert reduced.denom == tuple(sorted((den - shared).items()))


@settings(deadline=None, max_examples=300)
@given(reduced_ratfuns(), reduced_ratfuns(), st.fractions(-3, 3, max_denominator=4))
def test_product_is_the_reduced_form(a, b, c):
    merged = Counter(a.denom_dict) + Counter(b.denom_dict)
    assert a * b == FactoredRatFun.make(a.numer * b.numer, merged)
    assert a * c == FactoredRatFun.make(a.numer * c, a.denom_dict)


@settings(deadline=None, max_examples=300)
@given(
    reduced_ratfuns(),
    reduced_ratfuns(),
    SMALL_ROOTS,
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(-6, 6),
)
def test_sum_is_the_reduced_sum(a, b, r, m, extra, k):
    # Give both sides the pole r, of different orders (unless a numerator
    # root cancels some of it); other poles may be shared too.
    a = a * FactoredRatFun.from_roots([], [r] * m)
    b = b * FactoredRatFun.from_roots([], [r] * (m + extra))
    x = k + F(1, 3)  # never one of the halves that roots are drawn from
    total = a + b
    assert total(x) == a(x) + b(x)
    assert all(total.numer(p) != 0 for p in total.poles())


def _value(coeffs, x):
    """sum c_i x^i, term by term, apart from Poly."""
    return sum((c * x**i for i, c in enumerate(coeffs)), F(0))


COEFFS = st.lists(st.fractions(-5, 5, max_denominator=3), max_size=7)
POINTS = st.fractions(-4, 4, max_denominator=3)


@settings(deadline=None, max_examples=300)
@given(COEFFS, POINTS, st.integers(0, 9), st.lists(POINTS, min_size=1, max_size=4))
def test_taylor_at_is_the_head_of_the_shift(coeffs, p, order, ts):
    # Every expected value is a plain sum: Poly.__call__, taylor_at and shift
    # share one division, so none of them can be the oracle of another.
    poly = Poly(coeffs)
    full = poly.taylor_at(p, max(order, poly.degree))
    assert all(c == 0 for c in full[poly.degree + 1:])
    assert poly.taylor_at(p, order) == full[: order + 1]
    for t in ts:
        assert poly(p + t) == _value(coeffs, p + t)
        assert _value(full, t) == _value(coeffs, p + t)
        assert _value(poly.shift(p).coeffs, t) == _value(coeffs, p + t)


NUMBERS = st.one_of(st.integers(-6, 6), st.fractions(-5, 5, max_denominator=4))


# A small pool, so that roots repeat and zeros meet poles often.
POOL = st.sampled_from([*range(-3, 4), F(-1, 2), F(1, 2), F(5, 3)])


@st.composite
def point_and_roots(draw):
    """A point, and zeros and poles that may hold it: a pole of order up to
    4 at the point, or none, and roots repeated and shared with the other
    side."""
    p = draw(NUMBERS)
    pool = st.one_of(NUMBERS, st.just(p), POOL)
    shared = draw(st.lists(pool, max_size=2))
    zeros = draw(st.lists(pool, max_size=4)) + shared
    poles = draw(st.lists(pool, max_size=4)) + shared + [p] * draw(st.integers(0, 4))
    return p, draw(st.permutations(zeros)), draw(st.permutations(poles))


@settings(deadline=None, max_examples=200)
@given(point_and_roots())
def test_residue_at_is_the_reduced_residue(case):
    p, zeros, poles = case
    got = residue_at(p, zeros, poles)
    assert type(got) is F
    assert got == FactoredRatFun.from_roots(zeros, poles).residue_at(p)
    if poles.count(p) <= zeros.count(p):
        assert got == 0


@settings(deadline=None, max_examples=100)
@given(point_and_roots(), st.integers(1, 6))
def test_scaled_residue_at_is_the_reduced_residue(case, m):
    # Scaled by a multiple s of the denominators' lcm, the point and the
    # roots are ints; residue_at folds s^(#poles - #zeros - 1) back in.
    p, zeros, poles = case
    s = m * lcm(*(F(v).denominator for v in (p, *zeros, *poles)))
    sp, *roots = (s * F(v) for v in (p, *zeros, *poles))
    assert all(v.denominator == 1 for v in (sp, *roots))
    roots = [int(v) for v in roots]
    got = residue_at(int(sp), roots[: len(zeros)], roots[len(zeros):], s)
    assert type(got) is F
    assert got == FactoredRatFun.from_roots(zeros, poles).residue_at(p)


@settings(deadline=None, max_examples=200)
@given(point_and_roots())
def test_residue_pair_is_the_reduced_residue(case):
    p, zeros, poles = case
    num, den = residue_pair(p, zeros, poles)
    assert den != 0
    if all(type(v) is int for v in (p, *zeros, *poles)):
        assert type(num) is int and type(den) is int
    assert F(num, den) == FactoredRatFun.from_roots(zeros, poles).residue_at(p)
    if poles.count(p) <= zeros.count(p):
        assert (num, den) == (0, 1)


@settings(deadline=None, max_examples=100)
@given(point_and_roots(), st.integers(1, 6))
def test_scaled_residue_pair_is_an_int_pair(case, m):
    # Over roots times a multiple of their lcm, both entries are ints, with
    # s^(#poles - #zeros - 1) folded in.
    p, zeros, poles = case
    s = m * lcm(*(F(v).denominator for v in (p, *zeros, *poles)))
    sp, *roots = (int(s * F(v)) for v in (p, *zeros, *poles))
    num, den = residue_pair(sp, roots[: len(zeros)], roots[len(zeros):], s)
    assert type(num) is int and type(den) is int and den != 0
    assert F(num, den) == FactoredRatFun.from_roots(zeros, poles).residue_at(p)


def test_residue_at_examples():
    # 1/(z - 1)^2 (z - 3): the Taylor coefficient of 1/(z - 3) at 1 is -1/4.
    assert residue_at(1, [], [1, 1, 3]) == F(-1, 4)
    assert residue_at(3, [], [1, 1, 3]) == F(1, 4)
    # A shared root cancels: (z - 2)/(z - 2)^2 has a simple pole at 2.
    assert residue_at(2, [2], [2, 2]) == 1
    assert residue_at(2, [2, 2], [2, 2]) == 0
    # The same at scale 2: 1/(z - 1/2)^2 (z - 3/2) at 1/2.
    assert residue_at(1, [], [1, 1, 3], 2) == -1


@st.composite
def residue_roots(draw):
    """Zeros and poles over ints and Fractions, with repeats, sharing some
    roots; the degree gap runs from -8 to 8, so gaps <= -2 come up often."""
    roots = st.lists(st.one_of(POOL, NUMBERS), max_size=5)
    shared = draw(st.lists(POOL, max_size=3))
    zeros = draw(st.permutations(draw(roots) + shared))
    poles = draw(st.permutations(draw(roots) + shared))
    return zeros, poles


@settings(deadline=None, max_examples=300)
@given(residue_roots())
def test_residue_sum_is_the_sum_of_the_reduced_residues(case):
    zeros, poles = case
    got = residue_sum(zeros, poles)
    assert type(got) is F
    assert got == FactoredRatFun.from_roots(zeros, poles).sum_of_residues()
    if len(zeros) - len(poles) <= -2:
        assert got == 0
