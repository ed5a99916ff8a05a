from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import ypa.heisenberg as hs
import ypa.plancherel as pl
from ypa.plancherel import (
    PLANCHEREL,
    boolean_cumulant,
    boolean_cumulant_by_measure,
    cauchy_g,
    f_pl,
    inv_h,
    moment,
    moment_by_measure,
    p_down,
    p_up,
)
from ypa.ratfun import ONE_POLY, FactoredRatFun, Poly, extend_series, monic_coeffs
from ypa.young import (
    diagrams_up_to,
    dim,
    down_covers,
    profile,
    up_covers,
    weight,
)


def test_f_pl_examples():
    assert f_pl(()) == 1
    assert f_pl((2,)) == F(1, 2)
    assert f_pl((2, 1)) == F(1, 3)


def test_harmonicity_up_to_weight_10():
    for lam in diagrams_up_to(10):
        assert f_pl(lam) == sum(f_pl(mu) for mu, _ in up_covers(lam))


def test_p_up_examples():
    assert p_up((), (1,)) == 1
    assert p_up((1,), (2,)) == F(1, 2)
    assert p_up((2, 1), (2, 2)) == F(1, 4)
    with pytest.raises(ValueError):
        p_up((2,), (2, 2))


def test_p_down_examples():
    assert p_down((2,), (1,)) == 1
    assert p_down((2, 1), (2,)) == F(1, 2)
    assert p_down((3, 1), (3,)) == F(1, 3)
    with pytest.raises(ValueError):
        p_down((2, 2), (2,))


def test_stochasticity_up_to_weight_10():
    for lam in diagrams_up_to(10):
        assert sum(p_up(lam, mu) for mu, _ in up_covers(lam)) == 1
        if lam:
            assert sum(p_down(lam, mu) for mu, _ in down_covers(lam)) == 1
        assert all(p_up(lam, mu) > 0 for mu, _ in up_covers(lam))
        assert all(p_down(lam, mu) > 0 for mu, _ in down_covers(lam))


def test_ratio_identities_up_to_weight_10():
    # f(lam)/f(mu) = p_up(mu, lam) and f(mu)/f(lam) = |lam| p_down(lam, mu)
    for lam in diagrams_up_to(10):
        for mu, _ in down_covers(lam):
            assert f_pl(lam) / f_pl(mu) == p_up(mu, lam)
            assert f_pl(mu) / f_pl(lam) == weight(lam) * p_down(lam, mu)


def test_p_down_equals_dim_ratio():
    for lam in diagrams_up_to(9):
        for mu, _ in down_covers(lam):
            assert p_down(lam, mu) == F(dim(mu), dim(lam))


def test_cauchy_examples():
    assert cauchy_g(()) == FactoredRatFun.from_roots([], [F(0)])
    assert cauchy_g((1,)) == FactoredRatFun.from_roots([F(0)], [F(-1), F(1)])
    assert inv_h((1,)) == FactoredRatFun.from_roots([F(-1), F(1)], [F(0)])


def test_second_order_pole_transition_lemma():
    # sum_nu p_up(lam,nu)/(c(nu/lam)-c(lam/mu))^2 = 1/(|lam| p_down(lam,mu))
    for lam in diagrams_up_to(8):
        for mu, y in down_covers(lam):
            s = sum(
                p_up(lam, nu) / F(c - y) ** 2 for nu, c in up_covers(lam)
            )
            assert s == 1 / (weight(lam) * p_down(lam, mu))


def test_second_order_pole_cotransition_lemma():
    # |lam| sum_nu p_down(lam,nu)/(c(mu/lam)-c(lam/nu))^2 = 1/p_up(lam,mu) - 1
    for lam in diagrams_up_to(8):
        if not lam:
            continue
        for mu, x in up_covers(lam):
            s = weight(lam) * sum(
                p_down(lam, nu) / F(x - c) ** 2 for nu, c in down_covers(lam)
            )
            assert s == 1 / p_up(lam, mu) - 1


def test_cauchy_transform_adding_box_identity():
    # (z-c)^2 / ((z-c-1)(z-c+1)) * G_lam = G_mu for lam -> mu, as rational
    # functions in reduced factored form.
    for lam in diagrams_up_to(8):
        for mu, c in up_covers(lam):
            factor = FactoredRatFun.from_roots(
                [F(c), F(c)], [F(c + 1), F(c - 1)]
            )
            assert factor * cauchy_g(lam) == cauchy_g(mu)


def test_transition_prob_ratio_corollary():
    # On diamonds lam -> mu -> nu, lam -> rho -> nu with mu != rho.
    for lam in diagrams_up_to(8):
        for mu, c1 in up_covers(lam):
            for nu, c2 in up_covers(mu):
                for rho, _ in up_covers(lam):
                    if rho == mu:
                        continue
                    if not any(x == nu for x, _ in up_covers(rho)):
                        continue
                    gap = F(c2 - c1)
                    lhs = gap**2 / ((gap - 1) * (gap + 1)) * p_up(lam, rho)
                    assert lhs == p_up(mu, nu)


def test_moment_examples():
    for k in range(1, 5):
        assert moment((), k) == 0
    assert moment((1,), 2) == 1
    assert boolean_cumulant((1, 1), 3) == -2


def test_moments_and_cumulants_against_measure_sums():
    for lam in diagrams_up_to(7):
        for n in range(1, 7):
            assert moment(lam, n) == moment_by_measure(lam, n)
            if n >= 2:
                assert boolean_cumulant(lam, n) == boolean_cumulant_by_measure(lam, n)


def test_first_cumulants():
    for lam in diagrams_up_to(10):
        assert moment(lam, 1) == 0
        assert boolean_cumulant(lam, 1) == 0
        assert boolean_cumulant(lam, 2) == weight(lam)


def test_harmonic_function_wrapper():
    assert PLANCHEREL((2, 1)) == F(1, 3)
    assert PLANCHEREL.name == "plancherel"


def test_the_measure_oracles_take_int_indices_only():
    # At n = 2.0 both used to return a float: 3.0 for M_2 of (2, 1).
    assert moment_by_measure((2, 1), 2) == moment((2, 1), 2) == 3
    for fn in (moment_by_measure, boolean_cumulant_by_measure):
        with pytest.raises(ValueError, match=r"^n must be an int, got 2\.0$"):
            fn((2, 1), 2.0)


def test_moment_by_measure_has_the_domain_of_moment():
    # n = -1 used to raise a bare ZeroDivisionError and n = 0 to return 1.
    for lam in ((), (2, 1)):
        for n in (0, -1):
            for fn in (moment, moment_by_measure):
                with pytest.raises(ValueError, match=r"must be >= 1$"):
                    fn(lam, n)



# -- the integer Laurent expansion at infinity ----------------------------------

def _poly_product(roots):
    p = ONE_POLY
    for r in roots:
        p = p * Poly([-r, 1])
    return p


def _reference_series(numer_roots, denom_roots, K):
    """Laurent coefficients a_0..a_K at infinity of prod (z - a) / prod (z - b):
    the Fraction loop over every t < j that series_at_infinity ran before
    the kernel, on polynomials built by Poly multiplication."""
    num = list(reversed(_poly_product(numer_roots).coeffs)) + [F(0)] * (K + 1)
    den = list(reversed(_poly_product(denom_roots).coeffs)) + [F(0)] * (K + 1)
    out = []
    for j in range(K + 1):
        acc = num[j]
        for t in range(j):
            acc -= out[t] * den[j - t]
        out.append(acc / den[0])
    return out


@pytest.mark.parametrize("order", [range(12, 0, -1), range(1, 13)], ids=["down", "up"])
def test_moments_and_cumulants_against_the_reference_loop_to_weight_8(monkeypatch, order):
    # From an empty table, in either order of n, every value is the same.
    K, lams = 12, diagrams_up_to(8)
    ref = {}
    for lam in lams:
        xs, ys = profile(lam)
        ref[lam] = g, h = _reference_series(ys, xs, K), _reference_series(xs, ys, K)
        assert cauchy_g(lam).series_at_infinity(K) == g
        assert inv_h(lam).series_at_infinity(K) == h
    monkeypatch.setattr(pl, "_SERIES", {})
    for n in order:
        for lam in lams:
            (g, h), m, b = ref[lam], moment(lam, n), boolean_cumulant(lam, n)
            assert type(m) is F and type(b) is F
            assert m == g[n] == moment_by_measure(lam, n)
            assert b == -h[n]
            if n >= 2:
                assert b == boolean_cumulant_by_measure(lam, n)
    assert set(pl._SERIES) == {(lam, w) for lam in lams for w in "GH"}
    assert all(len(out) == K + 1 for _, _, out in pl._SERIES.values())


_root = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)


@given(
    st.lists(_root, max_size=5),
    st.lists(_root, max_size=5),
    st.integers(0, 12),
    st.integers(0, 12),
)
def test_extend_series_equals_the_reference_loop(zeros, poles, K, first):
    expected = _reference_series(zeros, poles, K)
    num, den = monic_coeffs(zeros), monic_coeffs(poles)
    out = extend_series(num, den, [], min(first, K))
    assert extend_series(num, den, out, K) is out and out == expected
    if all(type(r) is int for r in zeros + poles):
        assert all(type(a) is int for a in out)
    got = FactoredRatFun.from_roots(zeros, poles).series_at_infinity(K)
    assert got == expected and all(type(a) is F for a in got)


def test_extend_series_needs_a_monic_denominator():
    with pytest.raises(ValueError, match="monic"):
        extend_series([1], [2, 1], [], 3)


@pytest.mark.parametrize("fn, n", [
    (moment, 2), (boolean_cumulant, 2), (moment_by_measure, 2),
    (boolean_cumulant_by_measure, 2), (hs.moment_diagram, 2), (hs.cumulant_diagram, 0),
    (hs.character_tangle, (1,)),
])
def test_closed_diagram_routes_take_any_sequence_of_parts(fn, n):
    # A list used to raise TypeError: unhashable type: 'list'.  Each value
    # here is 3: M_2 = B_2 = |lam| and Sigma_1 = |lam| on (2, 1).
    assert fn([2, 1], n) == fn((2, 1), n) == 3
    before = set(pl._SERIES)
    for bad in ([1, 2], (2, 0), (2.0, 1)):
        with pytest.raises(ValueError, match="not a partition"):
            fn(bad, n)
    assert set(pl._SERIES) == before


@pytest.mark.parametrize(
    "fn, lam, mu",
    [
        (p_up, (1, 1), (2, 1)),
        (p_up, (1,), (1, 1)),
        (p_down, (2, 1), (1, 1)),
        (p_down, (1, 1), (1,)),
    ],
)
def test_measures_check_both_diagrams_before_any_cache(fn, lam, mu):
    # A list is read as its partition; (True, 1) equals and hashes as the
    # cached (1, 1), and is still rejected, as lambda or as mu.
    value = fn(lam, mu)
    for args in ((list(lam), list(mu)), (list(lam), mu), (lam, list(mu)), (lam, mu)):
        got = fn(*args)
        assert got == value and type(got) is F
    with pytest.raises(ValueError, match=r"not a partition: \(True, 1\)"):
        fn(*(((True, 1) if d == (1, 1) else d) for d in (lam, mu)))
