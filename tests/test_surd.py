from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from ypa.surd import Surd, SurdDivisionError, sqrt_fraction, squarefree_split


def test_squarefree_split_examples():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(72) == (6, 2)
    assert squarefree_split(2) == (1, 2)
    assert squarefree_split(360) == (6, 10)


def test_squarefree_split_rejects_nonpositive():
    with pytest.raises(ValueError):
        squarefree_split(0)
    with pytest.raises(ValueError):
        squarefree_split(-4)


def test_sqrt_examples():
    assert sqrt_fraction(F(1, 2)).render() == "1/2*sqrt(2)"
    assert sqrt_fraction(F(4)).render() == "2"
    assert sqrt_fraction(F(8)).render() == "2*sqrt(2)"
    with pytest.raises(ValueError):
        sqrt_fraction(F(-1))
    with pytest.raises(ValueError):
        sqrt_fraction(F(0))


def test_arith_examples():
    r2, r3 = sqrt_fraction(F(2)), sqrt_fraction(F(3))
    assert r2 * r3 == sqrt_fraction(F(6))
    assert (r3 / 2) * r3 == Surd.from_rational(F(3, 2))
    assert r2 + r2 == sqrt_fraction(F(8))
    assert (r2 - r2).is_zero()


def test_division_rules():
    r2 = sqrt_fraction(F(2))
    assert r2 / r2 == Surd.from_rational(1)
    assert (Surd.from_rational(3) / F(2)).as_fraction() == F(3, 2)
    mixed = Surd.from_rational(1) + r2
    with pytest.raises(SurdDivisionError):
        _ = Surd.from_rational(1) / mixed
    with pytest.raises(SurdDivisionError):
        _ = r2 / Surd.from_rational(0)


def test_is_rational():
    assert Surd.from_rational(F(5, 3)).is_rational()
    assert Surd().is_rational()
    assert not sqrt_fraction(F(3)).is_rational()
    with pytest.raises(ValueError):
        sqrt_fraction(F(3)).as_fraction()


def test_render_canonical():
    s = Surd.from_rational(F(1, 2)) + sqrt_fraction(F(6)) * 3
    assert s.render() == "1/2 + 3*sqrt(6)"
    assert Surd().render() == "0"
    assert (-sqrt_fraction(F(2))).render() == "-sqrt(2)"
    assert (Surd.from_rational(1) - sqrt_fraction(F(2))).render() == "1 - sqrt(2)"


positive_fractions = st.fractions(
    min_value=F(1, 40), max_value=F(40), max_denominator=40
)


@given(positive_fractions, positive_fractions)
def test_sqrt_multiplicative(p, q):
    assert sqrt_fraction(p) * sqrt_fraction(q) == sqrt_fraction(p * q)


@given(positive_fractions)
def test_sqrt_squares_back(q):
    s = sqrt_fraction(q)
    assert (s * s).as_fraction() == q


small_surds = st.builds(
    lambda pairs: sum(
        (sqrt_fraction(F(d)) * c for d, c in pairs), Surd.from_rational(0)
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=30),
            st.fractions(min_value=F(-5), max_value=F(5), max_denominator=12),
        ),
        max_size=4,
    ),
)


@given(small_surds, small_surds, small_surds)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_surds)
def test_canonical_uniqueness(a):
    # Rebuilding the same value term by term in another order gives the
    # identical term map.
    rebuilt = Surd.from_rational(0)
    for d, coef in sorted(a.terms.items(), reverse=True):
        rebuilt = rebuilt + sqrt_fraction(F(d * d * d, d * d)) * coef  # sqrt(d)
    assert rebuilt == a and rebuilt.terms == a.terms


def test_rational_surd_hashes_like_its_fraction():
    assert Surd.from_rational(1) == 1
    assert len({Surd.from_rational(1): "surd", 1: "int"}) == 1
    assert hash(Surd()) == hash(0) == hash(F(0))


@given(
    st.one_of(
        small_surds,
        st.fractions(max_denominator=50).map(Surd.from_rational),
    )
)
def test_hash_agrees_with_equality(a):
    twin = (a + sqrt_fraction(F(2))) - sqrt_fraction(F(2))
    assert twin == a and hash(twin) == hash(a)
    if a.is_rational():
        q = a.as_fraction()
        assert a == q and hash(a) == hash(q)
        if q.denominator == 1:
            assert a == int(q) and hash(a) == hash(int(q))
