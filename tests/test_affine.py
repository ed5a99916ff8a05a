import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ypa import affine
from ypa.affine import AffinePoleError, PoleHit, diff_factor


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
    # z1*z2/(z1-1)^2: a double pole at a constant is outside the class's
    # residue rule (every pole a supported radial integral meets is simple).
    t = _term([(1, None, F(0), 1), (2, None, F(0), 1), (1, None, F(1), -2)])
    with pytest.raises(AffinePoleError, match="order 2 in z_1 at 1"):
        affine.residue_in([t], 1)


def test_cancelling_exponents_not_a_pole():
    # (z1 - 2) * 1/(z1 - 2) carries no pole at 2.
    t = _term([(1, None, F(2), 1), (1, None, F(2), -1)])
    assert t.factors == {}  # combined away at construction


def test_normalization_of_reversed_difference():
    # (z2 - z1 - c) == -(z1 - z2 + c) under the canonical key
    key1, sign1 = diff_factor(2, 1, F(5))
    key2, sign2 = diff_factor(1, 2, F(-5))
    assert key1 == key2 and sign1 == -sign2


def _fraction_product(terms, values):
    # The reference: one Fraction product per term, acc *= v**e.
    total = F(0)
    for t in terms:
        acc = t.coef
        for key, e in t.factors.items():
            if key[0] == "c":
                v = values[key[1]] - key[2]
            else:
                v = values[key[1]] - values[key[2]] - key[3]
            if not v and e < 0:
                raise PoleHit(f"sample hit pole of {key}")
            acc *= v**e
        total += acc
    return total


# Few distinct values, so factors often vanish: zeros and poles in one term.
_small = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(1, 2)]),
    st.builds(F, st.integers(-6, 6), st.integers(1, 3)),
)
_factor = st.tuples(
    st.integers(1, 3), st.one_of(st.none(), st.integers(1, 3)), _small, st.integers(-3, 3)
).filter(lambda f: f[0] != f[1])
_terms = st.lists(st.builds(affine.term_product, _small, st.lists(_factor, max_size=8)),
                  min_size=1, max_size=3)


@settings(deadline=None, max_examples=300)
@given(_terms, st.fixed_dictionaries({i: _small for i in (1, 2, 3)}))
def test_integer_evaluate_equals_the_fraction_product(terms, values):
    try:
        expected = _fraction_product(terms, values)
    except PoleHit as exc:
        with pytest.raises(PoleHit, match=re.escape(str(exc))):
            affine.evaluate(terms, values)
        return
    assert affine.evaluate(terms, values) == expected


def test_a_pole_after_a_vanishing_factor_is_still_a_pole_hit():
    # z1 = 0 zeroes the term before the pole factor 1/z2 is read.
    t = _term([(1, None, F(0), 1), (2, None, F(0), -1)])
    with pytest.raises(PoleHit):
        affine.evaluate([t], {1: F(0), 2: F(0)})
