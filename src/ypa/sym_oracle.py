"""Characters of symmetric groups via the Gelfand-Tsetlin basis.

Basis vectors of the irreducible module labelled by lam are the saturated
paths empty = d0 < d1 < ... < dn = lam (equivalently standard tableaux),
ordered lexicographically by their diagram sequences.  Let r be the content
gap of the i-th and (i+1)-th boxes.  The adjacent transposition t_i acts by
1x1 blocks 1/r = +-1 when the boxes sit in the same row or column, and
otherwise by a 2x2 block pairing a path with the one whose middle diagram
is exchanged.  In Young's seminormal form that block is

    [[1/r, 1], [1 - 1/r^2, -1/r]]

(the 1 above the diagonal), and :func:`seminormal_matrix` scales it to
integers.  The orthogonal form, with sqrt(1 - 1/r^2) on both sides, is
derived from it: the two differ by the diagonal change of basis that
normalizes each path vector, so every trace agrees.

A character is a trace of a product of these matrices.  The basis is
adapted to the chain S_1 < S_2 < ... < S_n (Okounkov-Vershik), so once the
cycles of pi sit on the letters 1..k, k = |pi|, the word acts only on the
first k levels of each path: V^lam splits into f^(lam/mu) copies of V^mu for
each mu of weight k, and chi^lam(pi) = sum over mu of f^(lam/mu) chi^mu(pi).
The path counts f^(lam/mu) come from :func:`ypa.young.skew_dims`; each
chi^mu(pi) is one trace on V^mu, cached, so no matrix is built above k boxes.
The transposition word is split in two halves, each multiplied out in
integers, and trace(AB) = sum A_rc B_cr pairs them without forming AB; one
exact division by the scales gives the int chi^mu(pi).  This
gives an oracle for the normalized characters that never touches the tangle
evaluator, and takes neither the path sum's content-gap weights nor a residue.

:func:`path_sum_character` computes the same character as a sum over
descending paths in the Young graph, reading no matrix.  Each cycle of pi
removes its own block of boxes and weights only its own steps, so the sum
factors block by block: one table per (diagram, block length) of the
diagrams that block reaches and their summed weights, and one value per
(diagram, tail of pi).  Both are cached, so a table or a tail built for
one character serves every later one, and so is each checked (lam, pi), so
a repeated character walks no table.  A table holds int numerators over
one common denominator, so each tail value is an int, with one exact
division per block.

Both routes run in integers and build one ``Fraction`` per public result;
a remainder where an integer character is due raises ``ArithmeticError``.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import zip_longest
from math import gcd, lcm, perm, prod
from types import MappingProxyType

from .surd import Surd, sqrt_fraction
from .young import (
    Diagram,
    _skew_dims,
    as_partition,
    box_content,
    check_int,
    dim,
    down_covers,
    weight,
)

TableauPath = tuple[Diagram, ...]
# Entries are int (the seminormal form) or Surd (the orthogonal form).
SparseMatrix = Mapping[tuple[int, int], "int | Surd"]


def standard_tableaux(lam: Diagram) -> tuple[TableauPath, ...]:
    """All saturated paths from empty to lam, in lexicographic order, built
    level by level down the cover maps, with no recursion."""
    return _standard_tableaux(as_partition(lam))


@cache
def _standard_tableaux(lam: Diagram) -> tuple[TableauPath, ...]:
    paths: list[TableauPath] = [(lam,)]  # each path from k boxes below lam up
    while paths[0][0]:
        paths = [(mu, *path) for path in paths for mu, _ in down_covers(path[0])]
    paths.sort()
    return tuple(paths)


def _alternative_middle(prev: Diagram, mid: Diagram, nxt: Diagram) -> Diagram:
    """The other diagram between prev and nxt, which adds the same two boxes
    in the other order: prev + nxt - mid, part by part, zero (trailing) parts
    dropped.  It is a diagram when the two boxes share no row or column."""
    parts = (a + c - b for a, b, c in zip_longest(prev, mid, nxt, fillvalue=0))
    return tuple(p for p in parts if p)


def seminormal_matrix(lam: Diagram, i: int) -> tuple[SparseMatrix, int]:
    """Young's seminormal form of t_i = (i, i+1) on V^lam, times scale.

    Returns (entries, scale) with scale the lcm of r^2 over the paths.  The
    entries are integers: scale/r on the diagonal and, in each 2x2 block,
    scale at (k, j) for k < j and scale (1 - 1/r^2) at (k, j) for k > j.
    Rows and columns are indices into :func:`standard_tableaux`.  lam goes
    through ``young.as_partition`` and i through ``young.check_int`` before
    the cache, so ``(2, True)``, ``True`` or ``1.0`` raises ValueError.
    """
    lam = as_partition(lam)
    n = weight(lam)
    if not 1 <= check_int("i", i) <= n - 1:
        raise IndexError(f"transposition index {i} out of range 1..{n - 1}")
    return _seminormal_matrix(lam, i)


@cache
def _seminormal_matrix(lam: Diagram, i: int) -> tuple[SparseMatrix, int]:
    paths = _standard_tableaux(lam)
    index = {p: k for k, p in enumerate(paths)}
    gaps = [box_content(p[i + 1], p[i]) - box_content(p[i], p[i - 1]) for p in paths]
    scale = lcm(*(r * r for r in gaps))
    entries: dict[tuple[int, int], int] = {}
    for k, (path, r) in enumerate(zip(paths, gaps)):
        entries[(k, k)] = scale // r
        if abs(r) != 1:
            other = _alternative_middle(*path[i - 1 : i + 2])
            j = index[path[:i] + (other,) + path[i + 1 :]]
            entries[(k, j)] = scale if k < j else scale // (r * r) * (r * r - 1)
    return MappingProxyType(entries), scale


@lru_cache(maxsize=None, typed=True)  # typed: True misses the i = 1 entry
def adjacent_transposition_matrix(lam: Diagram, i: int) -> tuple[tuple[tuple[int, int], Surd], ...]:
    """Sparse orthogonal matrix of t_i on V^lam in the GZ basis.

    Derived from :func:`seminormal_matrix` S with scale s: S_kk/s on the
    diagonal and sqrt(S_kj S_jk)/s off it.  Returned as a tuple of
    ((row, col), value) entries in sorted order.
    """
    semi, scale = seminormal_matrix(lam, i)
    return tuple(
        (
            (k, j),
            Surd.from_rational(Fraction(v, scale))
            if k == j
            else sqrt_fraction(Fraction(v * semi[(j, k)], scale * scale)),
        )
        for (k, j), v in sorted(semi.items())
    )


def matrix_dict(lam: Diagram, i: int) -> SparseMatrix:
    return dict(adjacent_transposition_matrix(lam, i))


def sparse_mul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """The product ab, without zero entries; int or Surd entries alike."""
    rows: dict[int, list] = {}
    for (r, c), v in b.items():
        rows.setdefault(r, []).append((c, v))
    out: dict[tuple[int, int], int | Surd] = {}
    for (r, c), v in a.items():
        for c2, v2 in rows.get(c, ()):
            key = (r, c2)
            acc = out.get(key)
            out[key] = v * v2 if acc is None else acc + v * v2
    return {k: v for k, v in out.items() if v}


def sparse_transpose(a: SparseMatrix) -> SparseMatrix:
    return {(c, r): v for (r, c), v in a.items()}


def sparse_identity(n: int) -> SparseMatrix:
    return {(k, k): 1 for k in range(n)}


def sparse_trace(a: SparseMatrix, b: SparseMatrix) -> int | Surd:
    """trace(ab) = sum of a_rc b_cr, without forming ab."""
    total = 0
    for (r, c), v in a.items():
        w = b.get((c, r))
        if w is not None:
            total += v * w
    return total


def _word_product(lam: Diagram, word: list[int]) -> tuple[SparseMatrix, int]:
    """The integer seminormal product of t_w over the word, and its scale."""
    if not word:
        return sparse_identity(dim(lam)), 1
    mats = [_seminormal_matrix(lam, i) for i in word]
    return reduce(sparse_mul, (m for m, _ in mats)), prod(s for _, s in mats)


def cycle_type_representative(pi: tuple[int, ...], n: int) -> list[list[int]]:
    """Disjoint descending cycles of type pi + (1^(n-|pi|)) on the last |pi|
    of the letters 1..n: ((n, n-1, ..), (..), ...).  :func:`character` takes
    n = |pi|, so the cycles fill the letters 1..|pi| of S_|pi|."""
    cycles = []
    top = check_int("n", n)
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
    """chi^lam on the class pi + (1^(n-|pi|)), as a sum of GZ traces on S_|pi|.

    The cycles of pi fill the letters 1..k, k = |pi|, where V^lam splits into
    f^(lam/mu) copies of V^mu for each mu of weight k, so
    chi^lam(pi) = sum over mu of f^(lam/mu) chi^mu(pi), with the path counts
    of :func:`ypa.young.skew_dims` and each chi^mu(pi) a trace on V^mu.
    """
    lam, pi = as_partition(lam), as_partition(pi)
    n = weight(lam)
    k = sum(pi)
    if k > n:
        raise ValueError(f"|pi| = {k} exceeds |lam| = {n}")
    return Fraction(_character(lam, pi, reverse_word))


def _character(lam: Diagram, pi: tuple[int, ...], reverse_word: bool = False) -> int:
    """The int chi^lam(pi) of :func:`character`, on checked input."""
    return sum(f * _trace(mu, pi, reverse_word) for mu, f in _skew_dims(lam, sum(pi)).items())


def _exact_quotient(total: int, denominator: int, what: str) -> int:
    """total / denominator, which must be an int; ArithmeticError otherwise."""
    quotient, remainder = divmod(total, denominator)
    if remainder:
        raise ArithmeticError(f"{what} is not an integer: {total}/{denominator}")
    return quotient


@cache
def _trace(mu: Diagram, pi: tuple[int, ...], reverse_word: bool) -> int:
    """chi^mu(pi) for |mu| = |pi|, as the trace of the cycle word on V^mu.

    The word of adjacent transpositions is split in two halves; each is
    multiplied out in the integer seminormal form, and the trace pairs them,
    divided exactly, once, by the product of the scales.
    """
    word = [
        i
        for cyc in cycle_type_representative(pi, weight(mu))
        for i in cycle_transpositions(cyc, reverse_word)
    ]
    half = len(word) // 2
    a, scale_a = _word_product(mu, word[:half])
    b, scale_b = _word_product(mu, word[half:])
    return _exact_quotient(sparse_trace(a, b), scale_a * scale_b, f"the trace of {pi} on {mu}")


def path_sum_character(lam: Diagram, pi: tuple[int, ...]) -> Fraction:
    """The descending-path sum for the same character, independent of the trace.

    chi = sum over lam = d0 > d1 > ... > dk of dim(dk) times the product of
    1/(content gap) over consecutive boxes of each cycle block.  The factor
    of a block depends only on its own steps, so the sum is a product of
    block tables, Sum_mu B(lam, pi_1)[mu] * chi(mu, pi_2, ...), each table
    built once and shared across calls.  This is the only copy;
    :func:`ypa.heisenberg.character_diagram` checks lam and pi itself and
    rescales the unchecked body ``_path_sum_character``.
    """
    lam, pi = as_partition(lam), as_partition(pi)
    n, k = weight(lam), sum(pi)
    if k > n:
        raise ValueError(f"|pi| = {k} exceeds |lam| = {n}")
    return Fraction(_path_sum_character(lam, pi))


@cache
def _path_sum_character(lam: Diagram, pi: tuple[int, ...]) -> int:
    """:func:`path_sum_character` as an int, for checked lam and pi with
    |pi| <= |lam|; cached, so a repeated pair walks no block table."""
    # Fill the tail sums shortest first, over the diagrams each block boundary
    # reaches, so that no call nests more than one block deep: pi may have as
    # many parts as lam has boxes.
    reached = [(lam,)]
    for m in pi[:-1]:
        reached.append(tuple({mu: None for d in reached[-1] for mu, _ in _block_sums(d, m)[0]}))
    for j in range(len(pi) - 1, 0, -1):
        for d in reached[j]:
            _path_sum(d, pi[j:])
    return _path_sum(lam, pi)


@cache
def _block_sums(lam: Diagram, m: int) -> tuple[tuple[tuple[Diagram, int], ...], int]:
    """Each mu reached by removing m >= 1 boxes from lam, with the sum over
    those descents of the product of 1/(c_i - c_(i+1)) over consecutive
    contents (mu whose sum cancels to zero are left out), built level by
    level over states keyed by (diagram, last content).

    Returns ((mu, numerator), ...) and one common denominator: each level
    multiplies the denominator by the lcm of that level's content gaps, so
    every step is an int, and then divides out the gcd of the denominator
    and the numerators; the sums per mu are reduced the same way.
    """
    states = {(mu, c): 1 for mu, c in down_covers(lam)}
    denominator = 1
    for _ in range(m - 1):
        steps = [(last, num, down_covers(d)) for (d, last), num in states.items()]
        gaps = lcm(*(last - c for last, _, covers in steps for _, c in covers))
        nxt: dict[tuple[Diagram, int], int] = {}
        for last, num, covers in steps:
            for mu, c in covers:
                nxt[(mu, c)] = nxt.get((mu, c), 0) + num * (gaps // (last - c))
        denominator *= gaps
        g = gcd(denominator, *nxt.values())
        states = {key: num // g for key, num in nxt.items()}
        denominator //= g
    sums: dict[Diagram, int] = {}
    for (mu, _), num in states.items():
        sums[mu] = sums.get(mu, 0) + num
    g = gcd(denominator, *sums.values())
    return tuple((mu, num // g) for mu, num in sums.items() if num), denominator // g


@cache
def _path_sum(lam: Diagram, pi: tuple[int, ...]) -> int:
    """The int path sum of :func:`path_sum_character`, on checked input:
    one exact division per block."""
    if not pi:
        return dim(lam)
    sums, denominator = _block_sums(lam, pi[0])
    total = sum(num * _path_sum(mu, pi[1:]) for mu, num in sums)
    return _exact_quotient(total, denominator, f"the path sum of {pi} on {lam}")


def normalized_character(lam: Diagram, pi: tuple[int, ...]) -> Fraction:
    """Sigma_pi(lam) = (n falling |pi|) * chi^lam_(pi cup 1s) / dim lam."""
    lam, pi = as_partition(lam), as_partition(pi)
    n = weight(lam)
    k = sum(pi)
    if n < k:
        return Fraction(0)
    return Fraction(perm(n, k) * _character(lam, pi), dim(lam))
