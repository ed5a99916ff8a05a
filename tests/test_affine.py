from fractions import Fraction as F

from ypa import affine
from ypa.affine import diff_factor


def _term(factors):
    return affine.term_product(F(1), factors)


def test_simple_pole_substitution():
    # 1/((z1-z2)(z1-3)), residue in z1 over {3} -> 1/(3-z2)
    t = _term([(1, 2, F(0), -1), (1, None, F(3), -1)])
    out = affine.residue_in([t], 1)
    assert len(out) == 1
    got = affine.evaluate(out, {2: F(10)})
    assert got == F(1, 3 - 10)


def test_residue_of_h_like_sum():
    # H_(1)(z1) = z1 - 1/z1 has a single pole at 0 with residue -1.
    t1 = _term([(1, None, F(0), 1)])
    t2 = affine.term_product(F(-1), [(1, None, F(0), -1)])
    out = affine.residue_in([t1, t2], 1)
    assert affine.constant_value(out) == -1


def test_nothing_enclosed():
    # 1/(z1-z2)^2 integrated in z1 with only-constant rule encloses nothing.
    t = _term([(1, 2, F(0), -2)])
    assert affine.residue_in([t], 1) == []


def test_higher_order_constant_pole():
    # z2 / (z1 - 1)^2 d z1: residue = d/dz1 [z2] = 0;
    # z1*z2/(z1-1)^2: residue = z2.
    t = _term([(2, None, F(0), 1), (1, None, F(1), -2)])
    assert affine.residue_in([t], 1) == [] or affine.evaluate(
        affine.residue_in([t], 1), {2: F(5)}
    ) == 0
    t2 = _term([(1, None, F(0), 1), (2, None, F(0), 1), (1, None, F(1), -2)])
    out = affine.residue_in([t2], 1)
    assert affine.evaluate(out, {2: F(5)}) == 5


def test_cancelling_exponents_not_a_pole():
    # (z1 - 2) * 1/(z1 - 2) carries no pole at 2.
    t = _term([(1, None, F(2), 1), (1, None, F(2), -1)])
    assert t.factors == {}  # combined away at construction


def test_derivative_product_rule():
    # d/dz1 [(z1-1)(z1-z2)] = (z1-z2) + (z1-1)
    t = _term([(1, None, F(1), 1), (1, 2, F(0), 1)])
    d = affine.derivative(t, 1)
    vals = {1: F(7), 2: F(3)}
    assert sum(affine.evaluate([x], vals) for x in d) == (7 - 3) + (7 - 1)


def test_normalization_of_reversed_difference():
    # (z2 - z1 - c) == -(z1 - z2 + c) under the canonical key
    key1, sign1 = diff_factor(2, 1, F(5))
    key2, sign2 = diff_factor(1, 2, F(-5))
    assert key1 == key2 and sign1 == -sign2
