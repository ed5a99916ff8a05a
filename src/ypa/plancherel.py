"""The Plancherel harmonic function and its transition/cotransition measures.

``f_pl(lam) = dim(lam) / |lam|!`` is harmonic on the Young graph:
``f(mu) = sum_{mu -> lam} f(lam)``.  The Cauchy transform ``G`` and its
reciprocal ``H`` are the rational functions with zeros at removable and
poles at addable contents (and vice versa).  The transition measure
``p_up`` is the residue of G at the added box's content, and the
cotransition measure ``p_down`` is -1/|lam| times the residue of H at the
removed box's content, each one ``ratfun.residue_at`` of the profile
contents; the dim-ratio forms appear in the tests as independent oracles
only.  The expansions of G and H at infinity generate moments and Boolean
cumulants.  Both are ratios of monic integer polynomials, so every Laurent
coefficient at infinity is an int:
:func:`moment` and :func:`boolean_cumulant` read them from ``_SERIES``, a
per-process table that keeps, for each (lam, "G" or "H"), the integer
coefficients of both polynomials and the expansion found so far, and
extends it with ``ratfun.extend_series`` only when a larger n is asked for.
``cauchy_g`` and ``inv_h``, uncached, stay as the ``FactoredRatFun`` forms
that tests compare with, and the measure sums ``moment_by_measure`` and
``boolean_cumulant_by_measure`` are independent oracles.  These two,
:func:`moment`, :func:`boolean_cumulant`, :func:`p_up` and :func:`p_down`
pass each diagram through ``young.as_partition`` first, so a list of parts
answers as its tuple and a non-partition raises ``ValueError`` before any
table lookup.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import cache
from math import factorial

from .ratfun import FactoredRatFun, extend_series, monic_coeffs, residue_at
from .young import (
    Diagram, Record, as_partition, box_content, check_int, dim, down_covers, profile,
    up_covers, weight,
)


class HarmonicFunction(Record):
    """A positive rational-valued harmonic function on the Young graph."""

    __slots__ = ("name", "value")
    name: str
    value: Callable[[Diagram], Fraction]

    def __hash__(self) -> int:  # direct: the state sum hashes it per box state
        return hash((self.name, self.value))

    def __call__(self, lam: Diagram) -> Fraction:
        return self.value(lam)


@cache
def f_pl(lam: Diagram) -> Fraction:
    """dim(lam) / |lam|!, the harmonic function of the Plancherel family."""
    return Fraction(dim(lam), factorial(weight(lam)))


PLANCHEREL = HarmonicFunction("plancherel", f_pl)


def p_up(lam: Diagram, mu: Diagram) -> Fraction:
    """Transition probability from lam to a cover mu: the residue of G at
    the added box's content; G's zeros and poles are profile(lam) reversed."""
    lam, mu = as_partition(lam), as_partition(mu)
    return residue_at(box_content(mu, lam), *profile(lam)[::-1])


def p_down(lam: Diagram, mu: Diagram) -> Fraction:
    """Cotransition probability from lam to a diagram mu it covers: -1/|lam|
    times the residue of H at the removed box's content; H's zeros and
    poles are profile(lam)."""
    lam, mu = as_partition(lam), as_partition(mu)
    return -residue_at(box_content(lam, mu), *profile(lam)) / weight(lam)


def cauchy_g(lam: Diagram) -> FactoredRatFun:
    """G(z) = prod(z - y_i) / prod(z - x_i), the Cauchy transform."""
    xs, ys = profile(lam)
    return FactoredRatFun.from_roots(ys, xs)


def inv_h(lam: Diagram) -> FactoredRatFun:
    """H(z) = 1/G(z) = prod(z - x_i) / prod(z - y_i)."""
    xs, ys = profile(lam)
    return FactoredRatFun.from_roots(xs, ys)


# (lam, "G" | "H") -> (numerator, denominator, a_0..a_K so far), all ints.
_SERIES: dict[tuple[Diagram, str], tuple[list[int], list[int], list[int]]] = {}


def _series_at_infinity(lam: Diagram, which: str, n: int) -> int:
    """a_n of G(z) = sum a_j z^(-1-j) or H(z) = sum a_j z^(1-j)."""
    entry = _SERIES.get((lam, which))
    if entry is None:
        xs, ys = profile(lam)
        num, den = (ys, xs) if which == "G" else (xs, ys)
        entry = _SERIES[lam, which] = (monic_coeffs(num), monic_coeffs(den), [])
    return extend_series(*entry, n)[n]


def moment(lam: Diagram, n: int) -> Fraction:
    """n-th moment of the transition measure, read off the expansion of G."""
    lam = as_partition(lam)
    check_int("moment index", n, 1)
    return Fraction(_series_at_infinity(lam, "G", n))


def boolean_cumulant(lam: Diagram, n: int) -> Fraction:
    """n-th Boolean cumulant, read off the expansion of H."""
    lam = as_partition(lam)
    check_int("cumulant index", n, 1)
    return Fraction(-_series_at_infinity(lam, "H", n))


def moment_by_measure(lam: Diagram, n: int) -> Fraction:
    """Oracle: sum of c(mu/lam)^n over the transition measure, for n >= 1
    as :func:`moment`."""
    lam = as_partition(lam)
    check_int("n", n, 1)
    return sum(
        (Fraction(c) ** n * p_up(lam, mu) for mu, c in up_covers(lam)), Fraction(0)
    )


def boolean_cumulant_by_measure(lam: Diagram, n: int) -> Fraction:
    """Oracle: |lam| * sum of c(lam/mu)^(n-2) over the cotransition measure."""
    lam = as_partition(lam)
    if check_int("n", n) < 2:
        raise ValueError("measure form defined for n >= 2")
    return weight(lam) * sum(
        (Fraction(c) ** (n - 2) * p_down(lam, mu) for mu, c in down_covers(lam)),
        Fraction(0),
    )
