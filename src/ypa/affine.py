"""Sums of products of affine factors, closed under residue extraction.

A term is ``coef * prod_k F_k^(e_k)`` where each factor ``F_k`` is either
``z_i - c`` or ``z_i - z_j - c`` with rational ``c`` and integer exponent
``e_k`` (possibly negative).  This class carries the multivariate integrands
of the nested contour integrals: it is closed under substituting a rational
for a variable, and hence under taking residues at simple poles located at
rational constants.

Residues are computed per term (residue extraction is linear); within one
term, factors at the same pole location share a dict key, so the pole order
is always the net exponent.  Only poles at constant locations are taken:
poles whose location still involves another, not-yet-integrated variable
are left out (including one would leave the class).  A higher-order
constant pole, or a value substituted at a pole, raises AffinePoleError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# Factor keys:  ("c", i, c)        for  z_i - c
#               ("d", i, j, c)     for  z_i - z_j - c   (normalized: i < j)
FactorKey = tuple


class AffinePoleError(ValueError):
    """A requested pole cannot be handled inside the affine class."""


class PoleHit(ZeroDivisionError):
    """A sample point landed on a pole of the evaluated terms."""


def diff_factor(i: int, j: int, c) -> tuple[FactorKey, int]:
    """Normalized key and sign for the factor z_i - z_j - c."""
    c = Fraction(c)
    if i == j:
        raise ValueError("diff factor needs distinct variables")
    if i < j:
        return ("d", i, j, c), 1
    return ("d", j, i, -c), -1


def const_factor(i: int, c) -> FactorKey:
    return ("c", i, Fraction(c))


@dataclass
class Term:
    coef: Fraction
    factors: dict[FactorKey, int]


TermSum = list  # list of Term


def term_product(coef: Fraction, factors: list[tuple[int, int | None, Fraction, int]]) -> Term:
    """Build a term from (i, j, c, exp) tuples; j=None means z_i - c."""
    coef, exps = Fraction(coef), {}
    for i, j, c, e in factors:
        if j is None:
            key = const_factor(i, c)
        else:
            key, sign = diff_factor(i, j, c)
            if sign < 0 and e % 2:
                coef = -coef
        exps[key] = exps.get(key, 0) + e
    return Term(coef, {key: e for key, e in exps.items() if e})


def evaluate(terms: TermSum, values: dict[int, Fraction]) -> Fraction:
    """The term sum at rational values: each value becomes an integer pair
    once, each term one integer numerator and denominator, then one Fraction.
    Raises PoleHit at any zero factor with a negative exponent, even in a
    term that an earlier zero factor already made vanish."""
    pairs = {i: (v.numerator, v.denominator) for i, v in values.items()}
    total = Fraction(0)
    for t in terms:
        num, den = t.coef.numerator, t.coef.denominator
        for key, e in t.factors.items():
            c = key[-1]
            vn, vd = pairs[key[1]]
            if key[0] == "d":
                jn, jd = pairs[key[2]]
                vn, vd = vn * jd - jn * vd, vd * jd
            vn, vd = vn * c.denominator - c.numerator * vd, vd * c.denominator
            if e < 0:
                if not vn:
                    raise PoleHit(f"sample hit pole of {key}")
                vn, vd, e = vd, vn, -e
            num *= vn**e
            den *= vd**e
        total += Fraction(num, den)
    return total


def substitute(term: Term, v: int, value: Fraction) -> Term | None:
    """Set z_v = value; returns None when the term vanishes."""
    coef = term.coef
    factors: dict[FactorKey, int] = {}
    for key, e in term.factors.items():
        if key[0] == "c" and key[1] == v:
            base = value - key[2]
            if not base:
                if e < 0:
                    raise AffinePoleError("substitution at a pole")
                return None
            coef *= base**e
        elif key[0] == "d" and v in (key[1], key[2]):
            i, j, c = key[1], key[2], key[3]
            if v == i:
                # (value - z_j - c) = -(z_j - (value - c))
                nk = const_factor(j, value - c)
                coef *= (-1) ** (e % 2)
            else:
                # (z_i - value - c) = z_i - (value + c)
                nk = const_factor(i, value + c)
            ne = factors.get(nk, 0) + e
            if ne:
                factors[nk] = ne
            else:
                factors.pop(nk, None)
        else:
            factors[key] = factors.get(key, 0) + e
    return Term(coef, factors)


def _constant_poles(term: Term, v: int) -> list[tuple[FactorKey, int, Fraction]]:
    """Factors z_v - c of the term with a pole: (key, order, c)."""
    return [
        (key, -e, key[2])
        for key, e in term.factors.items()
        if e < 0 and key[0] == "c" and key[1] == v
    ]


def residue_in(terms: TermSum, v: int) -> TermSum:
    """Sum of residues of the term sum in z_v at its constant-located poles.

    This is the radial-contour rule: poles at locations involving another
    variable lie outside and are left out.  The result no longer mentions
    z_v.  Each pole z_v = c must be simple: its residue is the rest of the
    term at z_v = c.  A higher order raises AffinePoleError.
    """
    out: TermSum = []
    for term in terms:
        for key, order, p in _constant_poles(term, v):
            if order > 1:
                raise AffinePoleError(f"pole of order {order} in z_{v} at {p}")
            rest = Term(term.coef, {k: e for k, e in term.factors.items() if k != key})
            sub = substitute(rest, v, p)
            if sub is not None:
                out.append(sub)
    return out


def constant_value(terms: TermSum) -> Fraction:
    """Total of a term sum that mentions no variables."""
    total = Fraction(0)
    for t in terms:
        if t.factors:
            raise ValueError(f"term still mentions variables: {t.factors}")
        total += t.coef
    return total
