from fractions import Fraction as F

import pytest

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
from ypa.ratfun import FactoredRatFun
from ypa.young import (
    diagrams_up_to,
    dim,
    down_covers,
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
