"""Exact arithmetic in Q extended by square roots of squarefree integers.

A :class:`Surd` is a finite sum ``sum_d c_d * sqrt(d)`` with rational
coefficients ``c_d`` indexed by squarefree positive integers ``d`` (``d = 1``
is the rational part).  The canonical form is unique: two surds are equal as
numbers iff their term maps are equal, which makes exact equality testing a
dict comparison.  All local weights of the planar-algebra state sum live in
this ring (they are square roots of positive rationals), so addition,
subtraction and multiplication suffice; division is only ever needed by a
rational or by a single-term surd and is restricted accordingly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class SurdDivisionError(ZeroDivisionError):
    """Division by zero, or by a surd with more than one term."""


@lru_cache(maxsize=None)
def squarefree_split(n: int) -> tuple[int, int]:
    """Write ``n = s**2 * f`` with ``f`` squarefree; return ``(s, f)``.

    Trial division only: every radicand in scope is a product of small hook
    lengths, so no serious factoring is ever required.
    """
    if n <= 0:
        raise ValueError(f"squarefree_split requires n >= 1, got {n}")
    s, f = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1 if d == 2 else 2
    return s, f * n


def signed_sum(terms: list[tuple[str, bool]]) -> str:
    """Text of a sum of (magnitude text, positive) terms: the first takes a
    bare ``-`` when negative, the rest ``+ `` or ``- ``; ``"0"`` for none."""
    parts = []
    for body, positive in terms:
        if not parts:
            parts.append(body if positive else f"-{body}")
        else:
            parts.append(f"+ {body}" if positive else f"- {body}")
    return " ".join(parts) if parts else "0"


class Surd:
    """An element of Q(sqrt(d) : d squarefree), in canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        # Callers must pass canonical maps: squarefree keys, no zero values.
        self.terms = terms or {}

    @staticmethod
    def from_rational(q: Fraction | int) -> "Surd":
        q = Fraction(q)
        return Surd({1: q} if q else {})

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return set(self.terms) <= {1}

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational number: {self}")
        return self.terms.get(1, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Surd.from_rational(other)
        if not isinstance(other, Surd):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # A rational surd equals its Fraction, so it must hash like one.
        if self.is_rational():
            return hash(self.terms.get(1, 0))
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "Surd":
        return Surd({d: -c for d, c in self.terms.items()})

    def __add__(self, other: "Surd | Fraction | int") -> "Surd":
        if isinstance(other, (int, Fraction)):
            other = Surd.from_rational(other)
        if not isinstance(other, Surd):
            return NotImplemented
        terms = dict(self.terms)
        for d, c in other.terms.items():
            s = terms.get(d, 0) + c
            if s:
                terms[d] = s
            else:
                terms.pop(d, None)
        return Surd(terms)

    __radd__ = __add__

    def __sub__(self, other: "Surd | Fraction | int") -> "Surd":
        if isinstance(other, (int, Fraction)):
            other = Surd.from_rational(other)
        if not isinstance(other, Surd):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Surd | Fraction | int") -> "Surd":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return Surd()
            return Surd({d: c * q for d, c in self.terms.items()})
        if not isinstance(other, Surd):
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                s, f = squarefree_split(d1 * d2)
                c = c1 * c2 * s
                t = terms.get(f, 0) + c
                if t:
                    terms[f] = t
                else:
                    terms.pop(f, None)
        return Surd(terms)

    __rmul__ = __mul__

    def __truediv__(self, other: "Surd | Fraction | int") -> "Surd":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                raise SurdDivisionError("division by zero")
            return self * (1 / q)
        if not isinstance(other, Surd):
            return NotImplemented
        if len(other.terms) != 1:
            raise SurdDivisionError(
                "division restricted to rationals and single-term surds"
            )
        ((d, c),) = other.terms.items()
        # 1 / (c sqrt(d)) = sqrt(d) / (c d)
        return self * Surd({d: Fraction(1, c * d)})

    def render(self) -> str:
        """Canonical text: rational part first, radicands ascending."""
        terms = []
        for d in sorted(self.terms):
            c = self.terms[d]
            if d == 1:
                body = str(c if c > 0 else -c)
            elif abs(c) == 1:
                body = f"sqrt({d})"
            else:
                body = f"{c if c > 0 else -c}*sqrt({d})"
            terms.append((body, c > 0))
        return signed_sum(terms)

    def __repr__(self) -> str:
        return f"Surd({self.render()})"


@lru_cache(maxsize=None)
def sqrt_fraction(q: Fraction) -> Surd:
    """The canonical surd with value ``sqrt(q)`` for rational ``q > 0``."""
    if q <= 0:
        raise ValueError(f"sqrt_fraction requires q > 0, got {q}")
    a, b = q.numerator, q.denominator
    sa, fa = squarefree_split(a)
    sb, fb = squarefree_split(b)
    # sqrt(a/b) = (sa/(sb*fb)) * sqrt(fa*fb); fa*fb need not be squarefree.
    s, f = squarefree_split(fa * fb)
    return Surd({f: Fraction(sa * s, sb * fb)})
