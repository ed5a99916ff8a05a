"""Characters of symmetric groups via the Gelfand-Tsetlin basis.

Basis vectors of the irreducible module labelled by lam are the saturated
paths empty = d0 < d1 < ... < dn = lam (equivalently standard tableaux),
ordered lexicographically by their diagram sequences.  The adjacent
transposition t_i acts by 1x1 blocks +-1 when the i-th and (i+1)-th boxes
sit in the same row or column, and otherwise by the 2x2 block

    [[1/r, sqrt(1 - 1/r^2)], [sqrt(1 - 1/r^2), -1/r]]

pairing a path with the one whose middle diagram is exchanged, where r is
the content gap.  Characters are traces of products of these matrices; this
gives an oracle for the normalized characters that never touches the tangle
evaluator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import perm

from .surd import Surd, sqrt_fraction
from .young import Diagram, box_content, dim, down_covers, up_covers, weight

TableauPath = tuple[Diagram, ...]
SparseMatrix = dict[tuple[int, int], Surd]


@cache
def standard_tableaux(lam: Diagram) -> tuple[TableauPath, ...]:
    """All saturated paths from empty to lam, in lexicographic order."""
    if not lam:
        return (((),),)
    paths: list[TableauPath] = []

    def build(d: Diagram, suffix: tuple[Diagram, ...]):
        if not d:
            paths.append(((),) + suffix)
            return
        for mu, _ in down_covers(d):
            build(mu, (d,) + suffix)

    build(lam, ())
    paths.sort()
    return tuple(paths)


def _alternative_middle(prev: Diagram, mid: Diagram, nxt: Diagram) -> Diagram | None:
    """The other diagram between prev and nxt, when the boxes commute."""
    for mu, _ in up_covers(prev):
        if mu != mid and any(nu == nxt for nu, _ in up_covers(mu)):
            return mu
    return None


@cache
def adjacent_transposition_matrix(lam: Diagram, i: int) -> tuple[tuple[tuple[int, int], Surd], ...]:
    """Sparse matrix of t_i = (i, i+1) on V^lam in the GZ basis.

    Returned as a tuple of ((row, col), value) entries; rows and columns are
    indices into :func:`standard_tableaux`.
    """
    n = weight(lam)
    if not 1 <= i <= n - 1:
        raise IndexError(f"transposition index {i} out of range 1..{n - 1}")
    paths = standard_tableaux(lam)
    index = {p: k for k, p in enumerate(paths)}
    entries: dict[tuple[int, int], Surd] = {}
    for k, path in enumerate(paths):
        prev, mid, nxt = path[i - 1], path[i], path[i + 1]
        r = box_content(nxt, mid) - box_content(mid, prev)
        entries[(k, k)] = Surd.from_rational(Fraction(1, r))
        if abs(r) != 1:
            other = _alternative_middle(prev, mid, nxt)
            other_path = path[:i] + (other,) + path[i + 1 :]
            entries[(k, index[other_path])] = sqrt_fraction(
                Fraction(r * r - 1, r * r)
            )
    return tuple(sorted(entries.items()))


def matrix_dict(lam: Diagram, i: int) -> SparseMatrix:
    return dict(adjacent_transposition_matrix(lam, i))


def sparse_mul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    rows: dict[int, list[tuple[int, Surd]]] = {}
    for (r, c), v in b.items():
        rows.setdefault(r, []).append((c, v))
    out: SparseMatrix = {}
    for (r, c), v in a.items():
        for c2, v2 in rows.get(c, ()):
            key = (r, c2)
            acc = out.get(key)
            prod = v * v2
            out[key] = prod if acc is None else acc + prod
    return {k: v for k, v in out.items() if not v.is_zero()}


def sparse_transpose(a: SparseMatrix) -> SparseMatrix:
    return {(c, r): v for (r, c), v in a.items()}


def sparse_identity(n: int) -> SparseMatrix:
    one = Surd.from_rational(1)
    return {(k, k): one for k in range(n)}


def sparse_trace(a: SparseMatrix) -> Surd:
    total = Surd()
    for (r, c), v in a.items():
        if r == c:
            total = total + v
    return total


def cycle_type_representative(pi: tuple[int, ...], n: int) -> list[list[int]]:
    """Disjoint cycles of full type pi + (1^(n-|pi|)), acting on the last
    |pi| letters: ((n, n-1, ..), (..), ...)."""
    cycles = []
    top = n
    for part in pi:
        cycles.append(list(range(top, top - part, -1)))
        top -= part
    return cycles


def cycle_transpositions(cycle: list[int], reverse_word: bool = False) -> list[int]:
    """Adjacent-transposition word for the descending cycle (a, a-1, ..., b).

    The default word t_(a-1) t_(a-2) ... t_b (rightmost acting first)
    realizes the cycle itself; the reversed word realizes its inverse, which
    has the same cycle type and so serves as an independent representative.
    """
    a, b = cycle[0], cycle[-1]
    word = list(range(a - 1, b - 1, -1))
    return list(reversed(word)) if reverse_word else word


def character(lam: Diagram, pi: tuple[int, ...], reverse_word: bool = False) -> Fraction:
    """chi^lam on the class pi + (1^(n-|pi|)), as a trace of GZ matrices."""
    pi = tuple(pi)
    n = weight(lam)
    k = sum(pi)
    if k > n:
        raise ValueError(f"|pi| = {k} exceeds |lam| = {n}")
    d = dim(lam)
    product: SparseMatrix | None = None
    for cyc in cycle_type_representative(pi, n):
        for i in cycle_transpositions(cyc, reverse_word):
            m = matrix_dict(lam, i)
            product = m if product is None else sparse_mul(product, m)
    if product is None:  # identity class
        return Fraction(d)
    return sparse_trace(product).as_fraction()


def path_sum_character(lam: Diagram, pi: tuple[int, ...]) -> Fraction:
    """The descending-path sum for the same character, independent of the trace.

    chi = sum over lam = d0 > d1 > ... > dk of dim(dk) times the product of
    1/(content gap) over the non-final index of each cycle block.  This is
    the only copy; :func:`ypa.heisenberg.character_diagram` rescales it.
    """
    pi = tuple(pi)
    k = sum(pi)
    if k > weight(lam):
        raise ValueError("pi too large")
    if k == 0:
        return Fraction(dim(lam))
    skip = set()
    acc = 0
    for part in pi:
        acc += part
        skip.add(acc)
    total = Fraction(0)

    def descend(d: Diagram, j: int, last_c: int | None, coeff: Fraction):
        nonlocal total
        if j == k:
            total += coeff * dim(d)
            return
        for mu, c in down_covers(d):
            if j and (j not in skip):
                descend(mu, j + 1, c, coeff / (last_c - c))
            else:
                descend(mu, j + 1, c, coeff)

    descend(lam, 0, None, Fraction(1))
    return total


def normalized_character(lam: Diagram, pi: tuple[int, ...]) -> Fraction:
    """Sigma_pi(lam) = (n falling |pi|) * chi^lam_(pi cup 1s) / dim lam."""
    pi = tuple(pi)
    n = weight(lam)
    k = sum(pi)
    if n < k:
        return Fraction(0)
    return perm(n, k) * character(lam, pi) / dim(lam)
