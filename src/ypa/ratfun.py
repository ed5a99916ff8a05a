"""Exact univariate rational functions with factored-linear denominators.

Every rational function in scope is prod (z - a) / prod (z - b) over known
rational roots (contents of boxes, possibly shifted by integers), so it is
handled as its two lists of roots, unreduced, and no root-finding ever
happens.  The two workhorses are Laurent expansion at infinity (moments,
cumulants and every sum of all finite residues) and exact residue
extraction at a point, for poles of any order.

``monic_coeffs`` is the one expansion of prod (z - r) into coefficients, and
``extend_series`` the one Laurent expansion at infinity: with a monic
denominator, a_j = p_j - sum_t a_t q_(j-t) needs no division, its inner loop
runs over the deg q nonzero q_(j-t) only, and it extends a coefficient list
in place, so a caller can keep the list and grow it on demand.  Over integer
roots every coefficient is an int.

``residue_sum`` is the one global residue rule: the sum of all finite
residues of prod (z - a) / prod (z - b) is its z^(-1) coefficient at
infinity, read through ``extend_series`` from the unreduced roots.

``residue_pair`` is the one residue at a point of prod (z - a) / prod (z - b),
read from the unreduced roots for a pole of any order: the product of the
other factors at a simple pole, and their Taylor coefficient through
``monic_coeffs`` and ``extend_series`` at a higher one.  Its caller passes
the point and the roots times a common ``scale`` that makes them integers,
so every step runs in ints, and it returns the residue as an unreduced
numerator and denominator with the scale folded in.  ``residue_at`` is that
pair as one ``Fraction``, for the transition measures; the satellite step
checks add up the pairs in ints and make one ``Fraction`` per side.

``Poly`` and the reduced ``FactoredRatFun`` are the tests' reference: no
engine route builds one.  ``_divide`` is their one synthetic division by
(z - r), behind ``Poly.__call__``, ``taylor_at``, ``shift`` and the root
cancellation of ``FactoredRatFun.make`` (one division per cancelled root).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from operator import mul


class PoleEvaluationError(ZeroDivisionError):
    """Evaluation at a pole of the function."""


def monic_coeffs(roots) -> list:
    """Coefficients of prod (z - r) over the roots, with repeats, from the
    leading 1 down: ints for int roots."""
    cs = [1]
    for r in roots:
        # Times (z - r): c_i z^(m-i) stays, and -r c_i joins the next lower degree.
        cs.append(0)
        for i in range(len(cs) - 1, 0, -1):
            cs[i] -= r * cs[i - 1]
    return cs


def extend_series(num, den, out: list, K: int) -> list:
    """Extend ``out`` in place to the Laurent coefficients a_0..a_K at infinity
    of sum_j num[j] z^(-j) / sum_j den[j] z^(-j), and return it.

    ``num`` and ``den`` are coefficients from the leading one down, ``den``
    monic, so a_j = num[j] - sum_(t<j) a_t den[j-t] with no division; only
    the deg den terms with j - t <= deg den are summed.  ``out`` holds the
    a_j found so far, for the same num and den.
    """
    if den[0] != 1:
        raise ValueError("the denominator must be monic")
    top = len(den) - 1
    for j in range(len(out), K + 1):
        lo = max(0, j - top)
        acc = num[j] if j < len(num) else 0
        out.append(acc - sum(map(mul, out[lo:j], den[j - lo:0:-1])))
    return out


def _divide(cs, r) -> tuple[list[Fraction], Fraction]:
    """(quotient by ascending degree, remainder) of sum cs[i] z^i by (z - r)."""
    carry, top_down = Fraction(0), []
    for c in reversed(cs):
        carry = c + r * carry
        top_down.append(carry)
    # top_down is the quotient from its leading coefficient, then the remainder.
    return top_down[-2::-1], carry


class Poly:
    """Dense univariate polynomial over Q, coefficients by ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def from_roots(roots) -> "Poly":
        """The monic polynomial prod (z - r) over the roots, with repeats."""
        return Poly(monic_coeffs(roots)[::-1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly | Fraction | int") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __call__(self, x: Fraction) -> Fraction:
        return _divide(self.coeffs, x)[1]

    def shift(self, a: Fraction) -> "Poly":
        """Return p(z + a): its coefficients are the Taylor coefficients at a."""
        return Poly(self.taylor_at(a, self.degree)) if a else self

    def taylor_at(self, p: Fraction, order: int) -> list[Fraction]:
        """Coefficients of (z - p)^0 .. (z - p)^order in the expansion at p:
        the remainders of order + 1 divisions by (z - p), each of the last
        quotient."""
        cs, out = self.coeffs, []
        for _ in range(order + 1):
            cs, remainder = _divide(cs, p)
            out.append(remainder)
        return out

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"


ONE_POLY = Poly([1])


@dataclass(frozen=True)
class FactoredRatFun:
    """numer(z) / prod_r (z - r)^m, reduced (no denominator root of numer)."""

    numer: Poly
    denom: tuple[tuple[Fraction, int], ...]  # sorted ((root, multiplicity), ...)

    @staticmethod
    def make(numer: Poly, denom: dict[Fraction, int]) -> "FactoredRatFun":
        dd = {Fraction(r): m for r, m in denom.items() if m}
        if any(m < 0 for m in dd.values()):
            raise ValueError("denominator multiplicities must be positive")
        # Reduce: cancel denominator roots that are numerator roots.
        if numer.is_zero():
            return FactoredRatFun(numer, ())
        for r in list(dd):
            while dd[r]:
                quotient, remainder = _divide(numer.coeffs, r)
                if remainder:
                    break
                numer = Poly(quotient)
                dd[r] -= 1
            if not dd[r]:
                del dd[r]
        return FactoredRatFun(numer, tuple(sorted(dd.items())))

    @staticmethod
    def from_poly(p: Poly) -> "FactoredRatFun":
        return FactoredRatFun(p, ())

    @staticmethod
    def from_roots(numer_roots, denom_roots) -> "FactoredRatFun":
        """prod (z - a) / prod (z - b), reduced by cancelling roots as multisets.

        Every numerator root is known, so no polynomial is evaluated.
        """
        num = Counter(Fraction(r) for r in numer_roots)
        den = Counter(Fraction(r) for r in denom_roots)
        common = num & den
        num -= common
        den -= common
        return FactoredRatFun(
            Poly.from_roots(num.elements()), tuple(sorted(den.items()))
        )

    @property
    def denom_dict(self) -> dict[Fraction, int]:
        return dict(self.denom)

    def poles(self) -> list[Fraction]:
        return [r for r, _ in self.denom]

    def is_zero(self) -> bool:
        return self.numer.is_zero()

    def __call__(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        den = Fraction(1)
        for r, m in self.denom:
            if x == r:
                raise PoleEvaluationError(f"evaluation at pole z = {x}")
            den *= (x - r) ** m
        return self.numer(x) / den

    def __mul__(self, other: "FactoredRatFun | Fraction | int") -> "FactoredRatFun":
        if isinstance(other, (int, Fraction)):
            if other:
                return FactoredRatFun(self.numer * other, self.denom)
            return FactoredRatFun.make(Poly([]), {})
        den = self.denom_dict
        for r, m in other.denom:
            den[r] = den.get(r, 0) + m
        return FactoredRatFun.make(self.numer * other.numer, den)

    __rmul__ = __mul__

    def __neg__(self) -> "FactoredRatFun":
        return FactoredRatFun(-self.numer, self.denom)

    def __add__(self, other: "FactoredRatFun") -> "FactoredRatFun":
        sd = self.denom_dict
        den = dict(sd)
        for r, m in other.denom:
            den[r] = max(den.get(r, 0), m)
        # Lift each numerator by the factors of den that its side lacks.
        od = other.denom_dict
        a = self.numer * Poly.from_roots(
            r for r, m in den.items() for _ in range(m - sd.get(r, 0))
        )
        b = other.numer * Poly.from_roots(
            r for r, m in den.items() for _ in range(m - od.get(r, 0))
        )
        return FactoredRatFun.make(a + b, den)

    def __sub__(self, other: "FactoredRatFun") -> "FactoredRatFun":
        return self + (-other)

    def shift(self, a: Fraction) -> "FactoredRatFun":
        """Return R(z + a); denominator roots translate by -a."""
        a = Fraction(a)
        return FactoredRatFun(
            self.numer.shift(a), tuple(sorted((r - a, m) for r, m in self.denom))
        )

    def series_at_infinity(self, K: int) -> list[Fraction]:
        """Laurent coefficients at infinity.

        Returns ``[a_0, ..., a_K]`` where ``R(z) = sum_j a_j z^(g - j)`` with
        ``g = deg(numer) - deg(denom)``.
        """
        if K < 0:
            raise ValueError("K must be >= 0")
        den = monic_coeffs(r for r, m in self.denom for _ in range(m))
        return [Fraction(a) for a in extend_series(self.numer.coeffs[::-1], den, [], K)]

    def residue_at(self, p: Fraction) -> Fraction:
        """Coefficient of (z - p)^(-1) in the Laurent expansion at p.

        Works for poles of any order via exact Taylor expansion of the
        numerator and of the co-factor denominator around p; returns 0 when
        p is not a pole (the reduced form guarantees the order is genuine).
        """
        p = Fraction(p)
        dd = self.denom_dict
        m = dd.get(p, 0)
        if m == 0:
            return Fraction(0)
        order = m - 1
        num_taylor = self.numer.taylor_at(p, order)
        # Taylor series of prod_{r != p} (z - r)^(-mr) around p.
        cof = [Fraction(1)] + [Fraction(0)] * order
        for r, mr in self.denom:
            if r == p:
                continue
            base = p - r  # nonzero
            # (z - r)^(-mr) = (base + (z-p))^(-mr)
            fac = [
                Fraction(comb(mr + t - 1, t) * (-1) ** t, 1) / base ** (mr + t)
                for t in range(order + 1)
            ]
            cof = _convolve(cof, fac, order)
        full = _convolve(num_taylor, cof, order)
        return full[order]

    def sum_of_residues(self) -> Fraction:
        return sum((self.residue_at(r) for r, _ in self.denom), Fraction(0))


def _convolve(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if not x:
            continue
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def residue_pair(p, zeros, poles, scale: int = 1) -> tuple:
    """The residue at p of prod (z - a) / prod (z - b), repeated and shared
    roots allowed, as an unreduced numerator and a nonzero denominator.

    With m the poles at p less the zeros at p, it is 0 for m <= 0, the
    product of the other factors at p for m = 1, and their (m-1)-th Taylor
    coefficient at p for m >= 2.  p and the roots are the true values times
    ``scale``, so integers when ``scale`` clears their denominators: every
    step, and both entries, are ints, with scale^(#poles - #zeros - 1)
    folded in.
    """
    m = poles.count(p) - zeros.count(p)
    if m <= 0:
        return 0, 1
    nums = [p - a for a in zeros if a != p]
    dens = [p - b for b in poles if b != p]
    num, den = prod(nums), prod(dens)
    if m > 1:
        # The other factors at z = p + t are prod (t + v) over the differences
        # v, with constant terms num and den.  Over t = den s they read
        # sum_j c_j s^j / den, the denominator's constant term 1 and every
        # coefficient an int, so the coefficient of t^(m-1) is c_(m-1) / den^m.
        ns, ds = (monic_coeffs([-v for v in vs])[: -m - 1 : -1] for vs in (nums, dens))
        ns = [v * den**i for i, v in enumerate(ns)]
        ds = [1, *(v * den ** (i - 1) for i, v in enumerate(ds) if i)]
        num, den = extend_series(ns, ds, [], m - 1)[m - 1], den**m
    e = len(poles) - len(zeros) - 1
    return (num * scale**e, den) if e > 0 else (num, den * scale**-e)


def residue_at(p, zeros, poles, scale: int = 1) -> Fraction:
    """The residue of :func:`residue_pair`, as one ``Fraction``."""
    return Fraction(*residue_pair(p, zeros, poles, scale))


def residue_sum(zeros, poles) -> Fraction:
    """The sum of all finite residues of prod (z - a) / prod (z - b), its
    z^(-1) coefficient at infinity; repeated and shared roots need no
    cancelling, and over int roots every step is an int."""
    j = len(zeros) - len(poles) + 1
    if j < 0:
        return Fraction(0)
    return Fraction(extend_series(monic_coeffs(zeros), monic_coeffs(poles), [], j)[j])
