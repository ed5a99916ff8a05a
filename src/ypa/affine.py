"""Sums of products of affine factors, closed under residue extraction.

A term is ``coef * prod_k F_k^(e_k)`` where each factor ``F_k`` is either
``z_i - c`` or ``z_i - z_j - c`` with a rational constant ``c`` and integer
exponent ``e_k`` (possibly negative).  A key stores an integral ``c`` as an
``int`` and any other ``c`` as a ``Fraction``; the two are equal and hash
alike, so keys merge exactly as they would with ``Fraction`` constants.
Every constant of F is a content or +-1, so F's keys hold ints, and so do
the keys the radial scheme builds, since it substitutes only at constant
poles.  This class carries the multivariate integrands of the nested
contour integrals: it is closed under substituting a rational for a
variable, and hence under taking residues at simple poles located at
rational constants.

Evaluation works in integers, in two layers.  ``evaluate_pair`` is the one
body: at values already scaled to ints by a d that clears the terms'
constant denominators, d times every factor is one int subtraction, a term
is coef * prod b^e / d^(sum e) over those ints b, and the sum is an
unreduced int numerator and denominator.  ``evaluate`` checks rational
values, scales them by the lcm of all denominators and makes that pair one
``Fraction``; a caller that evaluates many times at one set of points (the
lemma checks' rotations of F) scales them once and keeps the pairs.  Each
term's integer form is built once, on its first evaluation.

Residues are computed per term (residue extraction is linear); within one
term, factors at the same pole location share a dict key, so the pole order
is always the net exponent.  Only poles at constant locations are taken:
poles whose location still involves another, not-yet-integrated variable
are left out (including one would leave the class).  A higher-order
constant pole, or a value substituted at a pole, raises AffinePoleError.

Coefficients, constants and values are ints (not ``bool``) or
``Fraction``s; anything else raises ValueError (``young.check_rational``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .young import check_int, check_rational

# Factor keys:  ("c", i, c)        for  z_i - c
#               ("d", i, j, c)     for  z_i - z_j - c   (normalized: i < j)
FactorKey = tuple


class AffinePoleError(ValueError):
    """A requested pole cannot be handled inside the affine class."""


class PoleHit(ZeroDivisionError):
    """A sample point landed on a pole of the evaluated terms."""


def _const(c, name: str = "constant"):
    """c as an int when it is integral, else as a Fraction."""
    c = check_rational(name, c)
    return c.numerator if c.denominator == 1 else c


def diff_factor(i: int, j: int, c) -> tuple[FactorKey, int]:
    """Normalized key and sign for the factor z_i - z_j - c."""
    c = _const(c)
    if i == j:
        raise ValueError("diff factor needs distinct variables")
    if i < j:
        return ("d", i, j, c), 1
    return ("d", j, i, -c), -1


def const_factor(i: int, c) -> FactorKey:
    return ("c", i, _const(c))


@dataclass
class Term:
    """coef * prod over factors of key^e, coef a Fraction.  A term is never
    changed after it is built, so its integer form is cached."""

    coef: Fraction
    factors: dict[FactorKey, int]

    @cached_property
    def int_form(self) -> tuple:
        """(num, den, cd, sum of e, poles, zeros): coef = num/den, cd is the
        lcm of the constants' denominators, and each factor is
        (i, j, c * cd, |e|, key), j = None for z_i - c; poles (e < 0) and
        zeros each keep dict order."""
        cd = lcm(*(key[-1].denominator for key in self.factors))
        poles, zeros = [], []
        for key, e in self.factors.items():
            c = key[-1]
            i, j = key[1], (key[2] if key[0] == "d" else None)
            (poles if e < 0 else zeros).append(
                (i, j, c.numerator * (cd // c.denominator), abs(e), key)
            )
        coef = self.coef
        return coef.numerator, coef.denominator, cd, sum(self.factors.values()), poles, zeros


TermSum = list  # list of Term


def term_product(coef: Fraction, factors: list[tuple[int, int | None, Fraction, int]]) -> Term:
    """Build a term from (i, j, c, exp) tuples; j=None means z_i - c."""
    coef, exps = Fraction(check_rational("coefficient", coef)), {}
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
    """The term sum at rational values, as one Fraction: d is the lcm of
    all denominators, and :func:`evaluate_pair` sums the terms at the
    values times d.  Raises ValueError for a value that is not an int or a
    Fraction, and PoleHit as :func:`evaluate_pair` does."""
    forms = [t.int_form for t in terms]
    for v in values.values():
        check_rational("value", v)
    d = lcm(*(v.denominator for v in values.values()), *(f[2] for f in forms))
    scaled = {i: v.numerator * (d // v.denominator) for i, v in values.items()}
    return Fraction(*evaluate_pair(terms, scaled, d))


def evaluate_pair(terms: TermSum, scaled: dict[int, int], d: int) -> tuple[int, int]:
    """The term sum where z_i = scaled[i] / d, as an unreduced int numerator
    and nonzero denominator.  Each factor times d is an int b, and each term
    adds coef * prod b^e / d^(sum e) to the pair.  d must be a multiple of
    every term's constant denominators, else ValueError.  Raises PoleHit at
    the first zero factor with a negative exponent, in dict order, even in
    a term that a zero factor already made vanish."""
    forms = [t.int_form for t in terms]
    check_int("scale", d, 1)
    for f in forms:
        if d % f[2]:
            raise ValueError(f"scale {d} is not a multiple of the constant denominator {f[2]}")
    scaled = {**scaled, None: 0}  # the missing z_j of a z_i - c factor
    total_num, total_den = 0, 1
    for num, den, cd, e_sum, poles, zeros in forms:
        m = d // cd
        for i, j, c, e, key in poles:
            b = scaled[i] - scaled[j] - c * m
            if not b:
                raise PoleHit(f"sample hit pole of {key}")
            den *= b if e == 1 else b**e
        for i, j, c, e, _ in zeros:
            b = scaled[i] - scaled[j] - c * m
            num *= b if e == 1 else b**e
        if e_sum > 0:
            den *= d**e_sum
        elif e_sum < 0:
            num *= d**-e_sum
        total_num, total_den = total_num * den + num * total_den, total_den * den
    return total_num, total_den


def substitute(term: Term, v: int, value: Fraction) -> Term | None:
    """Set z_v = value; returns None when the term vanishes."""
    value = _const(value, "value")
    num, den = term.coef.numerator, term.coef.denominator
    factors: dict[FactorKey, int] = {}
    for key, e in term.factors.items():
        if key[0] == "c" and key[1] == v:
            base = value - key[2]
            if not base:
                if e < 0:
                    raise AffinePoleError("substitution at a pole")
                return None
            if e > 0:
                num, den = num * base.numerator**e, den * base.denominator**e
            else:
                num, den = num * base.denominator**-e, den * base.numerator**-e
        elif key[0] == "d" and v in (key[1], key[2]):
            i, j, c = key[1], key[2], key[3]
            if v == i:
                # (value - z_j - c) = -(z_j - (value - c))
                nk = const_factor(j, value - c)
                if e % 2:
                    num = -num
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
    return Term(Fraction(num, den), factors)


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
            rest = dict(term.factors)
            del rest[key]
            sub = substitute(Term(term.coef, rest), v, p)
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
