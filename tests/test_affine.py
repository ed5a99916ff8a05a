import re
from fractions import Fraction as F
from math import lcm

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


@settings(deadline=None, max_examples=200)
@given(_terms, st.fixed_dictionaries({i: _small for i in (1, 2, 3)}), st.integers(1, 4))
def test_the_integer_body_at_any_multiple_of_the_lcm_is_evaluate(terms, values, k):
    cds = [t.int_form[2] for t in terms]
    d = k * lcm(*(v.denominator for v in values.values()), *cds)
    scaled = {i: int(v * d) for i, v in values.items()}
    try:
        expected = affine.evaluate(terms, values)
    except PoleHit as exc:
        with pytest.raises(PoleHit, match=f"^{re.escape(str(exc))}$"):
            affine.evaluate_pair(terms, scaled, d)
    else:
        num, den = affine.evaluate_pair(terms, scaled, d)
        assert type(num) is type(den) is int and den != 0
        assert F(num, den) == expected
    # d + 1 is a multiple of no denominator above 1.
    if max(cds) > 1:
        with pytest.raises(ValueError, match="not a multiple of the constant denominator"):
            affine.evaluate_pair(terms, scaled, d + 1)


@pytest.mark.parametrize("d", [0, -2, True, 2.0])
def test_the_integer_body_takes_a_positive_int_scale_only(d):
    with pytest.raises(ValueError, match="scale must be"):
        affine.evaluate_pair([_term([(1, None, F(0), 1)])], {1: 2}, d)


def test_a_pole_after_a_vanishing_factor_is_still_a_pole_hit():
    # z1 = 0 zeroes the term before the pole factor 1/z2 is read.
    t = _term([(1, None, F(0), 1), (2, None, F(0), -1)])
    with pytest.raises(PoleHit):
        affine.evaluate([t], {1: F(0), 2: F(0)})


def test_an_int_and_an_equal_fraction_constant_share_one_key():
    a = affine.term_product(F(1), [(1, None, 2, 1), (1, 2, 2, -1)])
    b = affine.term_product(F(1), [(1, None, F(2), 1), (1, 2, F(2), -1)])
    assert list(a.factors) == list(b.factors)
    for ka, kb in zip(a.factors, b.factors):
        assert hash(ka) == hash(kb) and type(ka[-1]) is type(kb[-1]) is int
    merged = {}
    for t in (a, b):
        for key, e in t.factors.items():
            merged[key] = merged.get(key, 0) + e
    assert merged == {("c", 1, 2): 2, ("d", 1, 2, 2): -2}
    # Mixed in one term, the two constants merge into one factor.
    assert affine.term_product(F(1), [(1, None, 2, 1), (1, None, F(2), 1)]).factors == {
        ("c", 1, 2): 2
    }


@pytest.mark.parametrize(
    "call",
    [
        lambda: affine.term_product(0.5, [(1, None, 0, 1)]),
        lambda: affine.term_product(True, [(1, None, 0, 1)]),
        lambda: affine.term_product(1, [(1, None, 0.5, 1)]),
        lambda: affine.term_product(1, [(1, 2, True, 1)]),
        lambda: affine.const_factor(1, 2.0),
        lambda: affine.diff_factor(1, 2, 1.0),
        lambda: affine.evaluate([_term([(1, None, F(0), 1)])], {1: 0.1}),
        lambda: affine.evaluate([_term([(1, None, F(0), 1)])], {1: True}),
        lambda: affine.substitute(_term([(1, None, F(0), 1)]), 1, 0.5),
        lambda: affine.substitute(_term([(1, None, F(0), 1)]), 1, True),
    ],
)
def test_no_float_or_bool_enters_the_class(call):
    with pytest.raises(ValueError, match="must be an int or a Fraction"):
        call()


def _key_fraction(key):
    return key[:-1] + (F(key[-1]),)


def _reference_substitute(term, v, value):
    # The plain-Fraction rule: every constant, value and base a Fraction.
    value, coef, factors = F(value), F(term.coef), {}
    for key, e in term.factors.items():
        key = _key_fraction(key)
        if key[0] == "c" and key[1] == v:
            base = value - key[2]
            if not base:
                if e < 0:
                    raise AffinePoleError("substitution at a pole")
                return None
            coef *= base**e
        elif key[0] == "d" and v in (key[1], key[2]):
            i, j, c = key[1:]
            if v == i:
                nk, coef = ("c", j, value - c), coef * (-1) ** (e % 2)
            else:
                nk = ("c", i, value + c)
            factors[nk] = factors.get(nk, 0) + e
            if not factors[nk]:
                del factors[nk]
        else:
            factors[key] = factors.get(key, 0) + e
    return affine.Term(coef, factors)


def _reference_residue_in(terms, v):
    out = []
    for term in terms:
        for key, e in term.factors.items():
            if e < 0 and key[0] == "c" and key[1] == v:
                if e < -1:
                    raise AffinePoleError(f"pole of order {-e} in z_{v} at {key[2]}")
                rest = affine.Term(term.coef, {k: x for k, x in term.factors.items() if k != key})
                sub = _reference_substitute(rest, v, key[2])
                if sub is not None:
                    out.append(sub)
    return out


def _assert_same_terms(got, expected):
    # Equal in value; the coefficient a Fraction, each constant an int when
    # it is integral and a Fraction otherwise.
    assert got == expected
    for t in got:
        assert type(t.coef) is F
        for key in t.factors:
            c = key[-1]
            assert type(c) is (int if F(c).denominator == 1 else F)


# Int-valued constants and values beside Fraction ones: an int base with a
# negative exponent is where int ** -e would have become a float.
_rational = st.one_of(st.integers(-4, 4), _small)
_int_factor = st.tuples(
    st.integers(1, 3), st.one_of(st.none(), st.integers(1, 3)), _rational, st.integers(-3, 3)
).filter(lambda f: f[0] != f[1])
_int_terms = st.lists(
    st.builds(affine.term_product, _rational, st.lists(_int_factor, max_size=8)),
    min_size=1, max_size=3,
)


@settings(deadline=None)
@given(_int_terms, st.fixed_dictionaries({i: _rational for i in (1, 2, 3)}))
def test_evaluate_with_int_constants_equals_the_fraction_product(terms, values):
    for t in terms:
        fraction_keys = {_key_fraction(k): e for k, e in t.factors.items()}
        _assert_same_terms([t], [affine.Term(t.coef, fraction_keys)])
    try:
        expected = _fraction_product(terms, {i: F(v) for i, v in values.items()})
    except PoleHit as exc:
        with pytest.raises(PoleHit, match=re.escape(str(exc))):
            affine.evaluate(terms, values)
        return
    got = affine.evaluate(terms, values)
    assert got == expected and type(got) is F


@settings(deadline=None)
@given(_int_terms, st.integers(1, 3), _rational)
def test_substitute_and_residue_with_int_constants_equal_the_fraction_rule(terms, v, value):
    for t in terms:
        try:
            expected = _reference_substitute(t, v, value)
        except AffinePoleError:
            with pytest.raises(AffinePoleError):
                affine.substitute(t, v, value)
            continue
        got = affine.substitute(t, v, value)
        assert (got is None) == (expected is None)
        if got is not None:
            _assert_same_terms([got], [expected])
    try:
        expected = _reference_residue_in(terms, v)
    except AffinePoleError as exc:
        with pytest.raises(AffinePoleError, match=re.escape(str(exc))):
            affine.residue_in(terms, v)
        return
    _assert_same_terms(affine.residue_in(terms, v), expected)


def test_substitute_at_an_int_pole_distance_keeps_a_fraction():
    # (z1 - 1)^-2 at z1 = 3 is 1/4, not the float 0.25.
    t = affine.substitute(_term([(1, None, 1, -2)]), 1, 3)
    assert t.coef == F(1, 4) and type(t.coef) is F
