"""Single-cycle characters by exact contour integration, two contour schemes.

Everything here integrates the same multivariate function

    F(z_1..z_n) = prod 1/(z_i - z_(i+1))
                  * prod_(i<j) (z_i-z_j)^2 / ((z_i-z_j-1)(z_i-z_j+1))
                  * prod H(z_i)

by summing exact residues; there is no numeric quadrature anywhere.  A
contour around every finite pole (``frobenius_sigma``, ``satellite_I``) is
read at infinity by ``ratfun.residue_sum``, with no ``FactoredRatFun``.  The
satellite scheme integrates variable by variable along small contours around
z +- k and z +- 1 and collapses to the univariate Frobenius integrand
H(z) H(z-1) ... H(z-k+1); the radial scheme nests the contours by radius so
that, at each step, poles at already-known rational locations are enclosed
and poles at locations still involving an outer variable are not.  Both
reproduce the normalized character on one-cycle partitions.  The satellite
steps are checked pointwise at rational samples.  Profile contents and
shifts are integers, so with d the lcm of a tail's denominators, d times
every root of both signs' level forms and d times every contour point
w +- 1, w +- (k+1) are integers, and every residue and value is one
``ratfun.residue_pair`` of those roots with ``scale=d``, for a pole of any
order: an int numerator and denominator.  The trailing F is an int pair
too, ``affine.evaluate_pair`` of F's one term at the tail already times d.
Each side of a step check adds up its pairs by cross-multiplication and
folds in the trailing F / 2, so it makes one ``Fraction``, and
``sample_points`` makes one per coordinate.  The lemma checks scale each
draw once and take F at its rotations and its reversal as int pairs over
that one d.
The reduced ``FactoredRatFun`` forms (``h_product``,
``satellite_level_form`` and the rest) stay as the tests' reference only.
Every n, k, entry of sigma, ``sample_count`` and ``seed`` goes through
``young.check_int``, so ``True`` and ``2.0`` raise ``ValueError``, and so
does a negative n (F of no variables, n = 0, is 1); every sample
coordinate and point of F goes through ``young.check_rational``, so a
float or ``True`` raises it too; every public function that takes lam
passes it through ``young.as_partition`` once, before any cache.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import affine
from .affine import Term
from .ratfun import FactoredRatFun, PoleEvaluationError, residue_pair, residue_sum
from .young import Diagram, as_partition, check_int, check_rational, profile


def _h_roots(lam: Diagram, shifts, d: int = 1) -> tuple[list, list]:
    """Zeros x - s and poles y - s of prod_s H(z + s), over the profile
    minima x and maxima y of lam, times d; the shifts come already times d."""
    xs, ys = profile(lam)
    if d != 1:
        xs, ys = [d * x for x in xs], [d * y for y in ys]
    shifts = tuple(shifts)
    return [x - s for s in shifts for x in xs], [y - s for s in shifts for y in ys]


def h_shifted(lam: Diagram, a: int | Fraction) -> FactoredRatFun:
    """H(z + a)."""
    return h_product(lam, (a,))


def h_product(lam: Diagram, shifts) -> FactoredRatFun:
    """prod_s H(z + s), for any iterable of shifts, built from its roots."""
    return FactoredRatFun.from_roots(*_h_roots(lam, shifts))


def frobenius_sigma(lam: Diagram, k: int) -> Fraction:
    """Sigma_(k)(lam) = -(1/k) * contour integral of H(z) H(z-1) .. H(z-k+1)."""
    lam = as_partition(lam)
    check_int("k", k, 1)
    return -residue_sum(*_h_roots(lam, [-j for j in range(k)])) / k


# -- satellite scheme -----------------------------------------------------------

def satellite_final_form(lam: Diagram, n: int) -> FactoredRatFun:
    """The level form at k = n - 1: (prod H(z+j) + prod H(z-j)) / 2 over j < n."""
    return satellite_level_form(lam, n, n - 1, ())


def satellite_I(lam: Diagram, n: int) -> Fraction:
    """The satellite integral, Sigma_(n) = -satellite_I / n: the mean of the
    final form's two signs' residue sums (F of no variables is 1)."""
    lam = as_partition(lam)
    check_int("n", n, 1)
    return sum(residue_sum(*_level_roots(lam, n - 1, (), s)) for s in (1, -1)) / 2


@lru_cache(maxsize=None)
def _level_h_roots(lam: Diagram, k: int, sgn: int, d: int) -> tuple[tuple, tuple]:
    """The roots of prod_(j<=k) H(z + sgn j) times d, as tuples: the step
    checks ask for the same (lam, k, sgn, d) at every sample of one tail
    length, since d is then the same product of primes."""
    return tuple(map(tuple, _h_roots(lam, [sgn * d * j for j in range(k + 1)], d)))


def _level_roots(lam: Diagram, k: int, tail, sgn: int, d: int = 1) -> tuple[list, list]:
    """Unreduced zeros and poles of one sign's term of the level-k form:
    prod_(j<=k) H(z + sgn j) / (z - w) times prod over the tail of
    (z - zj)(z - zj + sgn k) / ((z - zj - sgn)(z - zj + sgn (k+1))), where
    w = tail[0]; an empty tail leaves the H product alone.  The tail comes
    times d, and so do the roots: integers when d clears the denominators."""
    s = sgn * d
    zeros, poles = _level_h_roots(lam, k, sgn, d)
    zeros = [*zeros, *(r for zj in tail for r in (zj, zj - s * k))]
    poles = [*poles, *tail[:1], *(r for zj in tail for r in (zj + s, zj - s * (k + 1)))]
    return zeros, poles


def _over_lcm(values) -> tuple[list[int], int]:
    """The rationals times d, the lcm of their denominators, and d."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def satellite_level_form(
    lam: Diagram, n: int, k: int, tail: tuple[Fraction, ...]
) -> FactoredRatFun:
    """The closed form of the k-th partial satellite integral.

    Univariate in the next variable to integrate; ``tail`` holds rational
    values for the n - k - 1 remaining outer variables (the first entry is
    the one whose contour comes next).  Valid for 0 <= k <= n - 1; at
    k = n - 1 the tail is empty and this is the final form.
    """
    lam = as_partition(lam)
    check_int("n", n)
    check_int("k", k)
    if not 0 <= k <= n - 1:
        raise ValueError("level k must satisfy 0 <= k <= n-1")
    if len(tail) != n - k - 1:
        raise ValueError(f"need {n - k - 1} outer values, got {len(tail)}")
    plus, minus = (FactoredRatFun.from_roots(*_level_roots(lam, k, tail, s)) for s in (1, -1))
    # Trailing factor F^(n-k-1) over the outer variables, a constant here.
    return (plus + minus) * (Fraction(1, 2) * f_eval(lam, n - k - 1, tail))


def _pair_sum(pairs) -> tuple[int, int]:
    """The sum of (numerator, denominator) pairs, cross-multiplied and
    unreduced; a pair with a zero numerator is skipped."""
    num, den = 0, 1
    for a, b in pairs:
        if a:
            num, den = num * b + a * den, den * b
    return num, den


def _contour_sum(lam: Diagram, n: int, k: int, scaled: list[int], d: int) -> Fraction:
    """The level-k form's residues at w +- 1 and w +- (k+1), w = tail[0],
    from the tail times d (``_over_lcm``), so the roots and the contour
    points are ints too: their int pairs summed, times the trailing F / 2,
    as one Fraction."""
    f_num, f_den = _f_pair(lam, n - k - 1, scaled, d)
    roots = [_level_roots(lam, k, scaled, sgn, d) for sgn in (1, -1)]
    points = {scaled[0] + e * d for e in (1, -1, k + 1, -k - 1)}
    num, den = _pair_sum(residue_pair(p, *r, d) for p in points for r in roots)
    return Fraction(f_num * num, 2 * f_den * den)


def _level_value(lam: Diagram, n: int, k: int, scaled: list[int], d: int) -> Fraction:
    """The level-k form at x, the residue at x of the form over (z - x),
    from (x, *tail) times d and the roots times d; PoleEvaluationError at a
    pole of the form."""
    sx, *scaled = scaled
    f_num, f_den = _f_pair(lam, n - k - 1, scaled, d)
    roots = [_level_roots(lam, k, scaled, sgn, d) for sgn in (1, -1)]
    # The form's Laurent coefficients of (z - x)^-j at x, j from 0 to the
    # terms' highest pole order there: each is the residue of the two terms
    # times (z - x)^(j-1), an int pair.  A pole of one term may cancel the
    # other's, so a coefficient is polar when its pair's numerator is not 0.
    (num, den), *polar = (
        _pair_sum(residue_pair(sx, [*zeros, *[sx] * j], [*poles, sx], d) for zeros, poles in roots)
        for j in range(1 + max(0, *(poles.count(sx) - zeros.count(sx) for zeros, poles in roots)))
    )
    if f_num and any(a for a, _ in polar):
        raise PoleEvaluationError(f"evaluation at pole z = {Fraction(sx, d)}")
    return Fraction(f_num * num, 2 * f_den * den)


def satellite_step_check(lam: Diagram, n: int, k: int, samples) -> bool:
    """Check one induction step of the satellite recursion at rational samples.

    Integrating the level-k closed form in its first variable along the
    contour around w +- 1 and w +- (k+1) (all other poles excluded) must
    reproduce the level-(k+1) closed form at w, which at k + 1 = n - 1 is
    the final form.  Each sign's term stays a list of roots, times d, the
    lcm of the tail's denominators, so the roots and the contour points
    are integers: the left side is the sum of ``ratfun.residue_pair`` over
    the contour points and both signs, with ``scale=d``, whatever the pole
    orders; the right side is the level-(k+1) form's residue pair at w
    over (z - w), or PoleEvaluationError at a pole.  Each side sums its
    int pairs and is one ``Fraction`` times the trailing F / 2, F's int
    pair at the tail times d.  Each coordinate goes through
    ``check_rational`` and is kept as given, an int or a Fraction.  On
    ``sample_points`` tails the coordinates have distinct prime
    denominators, so every contour pole is simple.  Raises ValueError when
    ``samples`` is empty.
    """
    lam = as_partition(lam)
    check_int("n", n)
    check_int("k", k)
    if not 0 <= k <= n - 2:
        raise ValueError("step k must satisfy 0 <= k <= n-2")
    checked = 0
    for tail in samples:
        checked += 1
        tail = tuple(check_rational("sample coordinate", z) for z in tail)
        if len(tail) != n - k - 1:
            raise ValueError(f"sample needs {n - k - 1} values")
        scaled, d = _over_lcm(tail)  # both sides read the tail times this one d
        if _contour_sum(lam, n, k, scaled, d) != _level_value(lam, n, k + 1, scaled, d):
            return False
    if not checked:
        raise ValueError("no samples to check")
    return True


# -- the multivariate integrand and the radial scheme ---------------------------

def f_term(lam: Diagram, n: int) -> Term:
    """F as a single product of affine factors in variables 1..n."""
    return _f_term(as_partition(lam), check_int("n", n, 0))


@lru_cache(maxsize=None)
def _f_term(lam: Diagram, n: int) -> Term:
    """The Term of :func:`f_term`, on checked input."""
    xs, ys = profile(lam)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return affine.term_product(1, [
        *((i, i + 1, 0, -1) for i in range(1, n)),
        *((i, j, c, e) for i, j in pairs for c, e in ((0, 2), (1, -1), (-1, -1))),
        *((i, None, c, e)
          for i in range(1, n + 1) for cs, e in ((xs, 1), (ys, -1)) for c in cs),
    ])


def f_eval(lam: Diagram, n: int, points) -> Fraction:
    """Evaluate F at rational points, each an int or a Fraction (else
    ValueError); raises PoleHit on a pole."""
    lam, points = as_partition(lam), list(points)
    if len(points) != check_int("n", n, 0):
        raise ValueError(f"need {n} points")
    return affine.evaluate([_f_term(lam, n)], dict(enumerate(points, 1)))


def _f_pair(lam: Diagram, n: int, scaled, d: int) -> tuple[int, int]:
    """F at the points scaled[i] / d, the points already times d (ints), as
    an unreduced int pair, on a checked lam and n."""
    return affine.evaluate_pair([_f_term(lam, n)], dict(enumerate(scaled, 1)), d)


def radial_I(lam: Diagram, n: int, sigma: tuple[int, ...] | None = None) -> Fraction:
    """The radial integral I^(n)[sigma]; sigma lists the nesting order.

    Variable z_sigma(1) runs along the innermost contour (enclosing all
    poles of H), each later one at larger radius.  At every step, residues
    are taken at all poles with constant rational locations; poles at
    locations involving a not-yet-integrated variable lie outside by the
    radius ordering.  sigma = id is supported for n <= 5, general sigma for
    n <= 3: every pole those meet is simple, while some sigma != id at n = 4
    meet a double constant pole, which affine.residue_in rejects.
    """
    lam = as_partition(lam)
    check_int("n", n, 1)
    if sigma is None:
        sigma = tuple(range(1, n + 1))
    sigma = tuple(check_int("sigma entry", v) for v in sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"sigma must permute 1..{n}")
    is_id = sigma == tuple(range(1, n + 1))
    if (is_id and n > MAX_RADIAL_N) or (not is_id and n > 3):
        raise ValueError(
            f"radial integrals supported for sigma=id up to n={MAX_RADIAL_N}, else n<=3"
        )
    terms = [_f_term(lam, n)]
    for v in sigma:
        terms = affine.residue_in(terms, v)
    return affine.constant_value(terms)


# -- sampling and the cyclic/inversion lemmas ------------------------------------

_SAMPLE_DENOMS = (7, 11, 13, 17, 19, 23, 29)

# The largest n each check supports: radial_I with sigma = id, the satellite
# step checks (their first step samples n - 1 outer variables) and the lemma
# checks (which sample all n).
MAX_RADIAL_N = 5
MAX_CONTOUR_N = len(_SAMPLE_DENOMS) + 1
MAX_LEMMA_N = len(_SAMPLE_DENOMS)


def sample_points(lam: Diagram, n: int, rng: random.Random) -> tuple[Fraction, ...]:
    """n random rationals with |z| > max content + 2n, never on a pole.

    Coordinate i gets denominator p_i from a list of distinct primes, so
    every coordinate is a non-integer (missing the poles of the shifted H
    factors) and every pairwise difference is a non-integer (missing the
    z_i - z_j = 0, +-1, +-k poles).
    """
    check_int("n", n, 0)
    if n > len(_SAMPLE_DENOMS):
        raise ValueError("too many variables for the sampling scheme")
    xs, ys = profile(lam)
    bound = max([abs(c) for c in xs + ys] + [1]) + 2 * n + 1
    out: list[Fraction] = []
    for i in range(n):
        p = _SAMPLE_DENOMS[i]
        num = rng.randint(bound * p, 4 * bound * p)
        if num % p == 0:
            num += 1
        out.append(Fraction(num * rng.choice((1, -1)), p))
    return tuple(out)


def lemma_checks(
    lam: Diagram, n: int, sample_count: int = 20, seed: int = 0
) -> dict[str, bool]:
    """Exact checks of the cyclic-sum and inversion laws at random rational
    sample points.  Each draw is scaled once to ints over the lcm d of its
    denominators; F at its n rotations and at its reversal are int pairs
    over that d, the rotations' pairs are summed by cross-multiplication,
    and the inversion law compares two pairs cross-multiplied."""
    lam = as_partition(lam)
    check_int("n", n, 2)
    check_int("sample_count", sample_count, 1)
    rng = random.Random(check_int("seed", seed))
    cyclic_ok = inversion_ok = True
    for _ in range(sample_count):
        pts = [check_rational("sample point", z) for z in sample_points(lam, n, rng)]
        scaled, d = _over_lcm(pts)
        rotated = [_f_pair(lam, n, scaled[p:] + scaled[:p], d) for p in range(n)]
        if _pair_sum(rotated)[0]:
            cyclic_ok = False
        (num, den), (rev_num, rev_den) = rotated[0], _f_pair(lam, n, scaled[::-1], d)
        if (-1) ** (n - 1) * num * rev_den != rev_num * den:
            inversion_ok = False
    return {"cyclic_sum": cyclic_ok, "inversion": inversion_ok}
