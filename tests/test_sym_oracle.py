from fractions import Fraction as F
from math import gcd, perm

import pytest

import ypa.frobenius as fr
import ypa.heisenberg as hs
import ypa.sym_oracle as so
from ypa.surd import Surd, sqrt_fraction
from ypa.young import as_partition, diagrams_of_weight, diagrams_up_to, dim, down_covers, weight


def test_standard_tableaux_counts():
    assert len(so.standard_tableaux((2, 1))) == 2
    assert len(so.standard_tableaux((4,))) == 1
    assert so.standard_tableaux(()) == (((),),)
    for lam in diagrams_up_to(7):
        assert len(so.standard_tableaux(lam)) == dim(lam)


def test_standard_tableaux_of_a_long_row_need_no_recursion():
    (path,) = so.standard_tableaux((1000,))
    assert path == ((),) + tuple((k,) for k in range(1, 1001))


def test_tableaux_lexicographic_order():
    paths = so.standard_tableaux((2, 1))
    assert paths == tuple(sorted(paths))


def test_matrix_examples_for_2_1():
    m1 = so.matrix_dict((2, 1), 1)
    # index 0 is the column-first path, eigenvalue -1; index 1 the row path.
    assert m1[(0, 0)] == Surd.from_rational(-1)
    assert m1[(1, 1)] == Surd.from_rational(1)
    assert (0, 1) not in m1
    m2 = so.matrix_dict((2, 1), 2)
    assert m2[(0, 0)] == Surd.from_rational(F(1, 2))
    assert m2[(1, 1)] == Surd.from_rational(F(-1, 2))
    assert m2[(0, 1)] == sqrt_fraction(F(3, 4))


def test_single_row_matrices_trivial():
    for i in (1, 2):
        assert so.matrix_dict((3,), i) == {(0, 0): Surd.from_rational(1)}


def test_matrix_index_range():
    with pytest.raises(IndexError):
        so.adjacent_transposition_matrix((2, 1), 3)
    with pytest.raises(IndexError):
        so.adjacent_transposition_matrix((2, 1), 0)


def test_seminormal_examples_for_2_1():
    # Paths 0 and 1 have content gaps 2 and -2 at i = 2, so scale = 4.
    assert so.seminormal_matrix((2, 1), 2) == (
        {(0, 0): 2, (0, 1): 4, (1, 0): 3, (1, 1): -2},
        4,
    )
    assert so.seminormal_matrix((2, 1), 1) == ({(0, 0): -1, (1, 1): 1}, 1)


def test_seminormal_index_range():
    for i in (0, 3):
        with pytest.raises(IndexError):
            so.seminormal_matrix((2, 1), i)


# The int index goes through young.check_int before seminormal_matrix's
# cache, and adjacent_transposition_matrix's typed cache sends True and 1.0
# to a miss: before, each of these answered for i = 1 or n = 1.
def test_seminormal_matrix_takes_an_int_index_only():
    so.seminormal_matrix((2, 1), 1)
    with pytest.raises(ValueError, match=r"^i must be an int, got True$"):
        so.seminormal_matrix((2, 1), True)


def test_tableaux_and_seminormal_matrices_check_lambda_before_their_caches():
    # (2, True) equals and hashes as the cached (2, 1).
    assert len(so.standard_tableaux((2, 1))) == 2
    so.seminormal_matrix((2, 1), 1)
    with pytest.raises(ValueError, match=r"not a partition: \(2, True\)"):
        so.standard_tableaux((2, True))
    with pytest.raises(ValueError, match=r"not a partition: \(2, True\)"):
        so.seminormal_matrix((2, True), 1)
    assert so.standard_tableaux([2, 1]) == so.standard_tableaux((2, 1))


def test_matrix_dict_takes_an_int_index_only():
    so.matrix_dict((2, 1), 1)
    with pytest.raises(ValueError, match=r"^i must be an int, got 1\.0$"):
        so.matrix_dict((2, 1), 1.0)


def test_cycle_type_representative_takes_an_int_n_only():
    assert so.cycle_type_representative((2,), 2) == [[2, 1]]
    with pytest.raises(ValueError, match=r"^n must be an int, got True$"):
        so.cycle_type_representative((2,), True)


def test_seminormal_involution_commutation_and_braid_in_integers():
    for lam in diagrams_up_to(6):
        n = weight(lam)
        mats = {i: so.seminormal_matrix(lam, i) for i in range(1, n)}
        for i, (m, scale) in mats.items():
            assert all(type(v) is int for v in m.values())
            assert so.sparse_mul(m, m) == {
                (k, k): scale * scale for k in range(dim(lam))
            }
        for i in range(1, n):
            for j in range(i + 2, n):
                a, b = mats[i][0], mats[j][0]
                assert so.sparse_mul(a, b) == so.sparse_mul(b, a)
        for i in range(1, n - 1):
            (a, sa), (b, sb) = mats[i], mats[i + 1]
            # aba carries scale sa^2 sb and bab carries sb^2 sa.
            lhs = so.sparse_mul(so.sparse_mul(a, b), a)
            rhs = so.sparse_mul(so.sparse_mul(b, a), b)
            assert {k: v * sb for k, v in lhs.items()} == {
                k: v * sa for k, v in rhs.items()
            }


def test_orthogonal_form_derived_from_seminormal():
    for lam in diagrams_up_to(7):
        for i in range(1, weight(lam)):
            semi, scale = so.seminormal_matrix(lam, i)
            orth = so.matrix_dict(lam, i)
            assert orth.keys() == semi.keys()
            for (k, j), v in semi.items():
                if k == j:
                    assert v == scale * orth[(k, k)]
                else:
                    assert v * semi[(j, k)] == scale * scale * orth[(k, j)] * orth[(k, j)]


def _is_identity(m, n):
    ident = so.sparse_identity(n)
    return m == ident


def test_gz_matrices_symmetric_orthogonal_involutive():
    for lam in diagrams_up_to(6):
        n = weight(lam)
        d = dim(lam)
        for i in range(1, n):
            m = so.matrix_dict(lam, i)
            assert m == so.sparse_transpose(m)
            assert _is_identity(so.sparse_mul(m, m), d)


def test_commutation_and_braid_relations():
    for lam in diagrams_up_to(6):
        n = weight(lam)
        mats = {i: so.matrix_dict(lam, i) for i in range(1, n)}
        for i in range(1, n):
            for j in range(i + 2, n):
                assert so.sparse_mul(mats[i], mats[j]) == so.sparse_mul(
                    mats[j], mats[i]
                )
        for i in range(1, n - 1):
            lhs = so.sparse_mul(so.sparse_mul(mats[i], mats[i + 1]), mats[i])
            rhs = so.sparse_mul(so.sparse_mul(mats[i + 1], mats[i]), mats[i + 1])
            assert lhs == rhs


def test_character_spot_values():
    assert so.character((2, 1), (1, 1, 1)) == 2
    assert so.character((2, 1), (3,)) == -1
    assert so.character((2,), (2,)) == 1
    with pytest.raises(ValueError):
        so.character((1,), (2,))


def test_character_independent_of_reduced_word():
    for lam in diagrams_up_to(7):
        for pi in diagrams_up_to(5)[1:]:
            if sum(pi) > weight(lam):
                continue
            assert so.character(lam, pi) == so.character(lam, pi, reverse_word=True)


def test_trace_equals_path_sum():
    for lam in diagrams_up_to(8):
        for pi in diagrams_up_to(6)[1:]:
            if sum(pi) > weight(lam):
                continue
            assert so.character(lam, pi) == so.path_sum_character(lam, pi)


def _full_trace_character(lam, pi, reverse_word=False):
    """The trace on all of V^lam that the block sum replaced, kept verbatim
    as a reference: its cycles sit on the last |pi| of the letters 1..|lam|."""
    lam, pi = as_partition(lam), as_partition(pi)
    n = weight(lam)
    k = sum(pi)
    if k > n:
        raise ValueError(f"|pi| = {k} exceeds |lam| = {n}")
    word = [
        i
        for cyc in so.cycle_type_representative(pi, n)
        for i in so.cycle_transpositions(cyc, reverse_word)
    ]
    half = len(word) // 2
    a, scale_a = so._word_product(lam, word[:half])
    b, scale_b = so._word_product(lam, word[half:])
    return F(so.sparse_trace(a, b), scale_a * scale_b)


def test_block_sum_equals_the_full_trace():
    for lam in diagrams_up_to(8):
        for pi in diagrams_up_to(weight(lam))[1:]:
            for reverse_word in (False, True):
                assert so.character(lam, pi, reverse_word) == _full_trace_character(
                    lam, pi, reverse_word
                ), (lam, pi, reverse_word)


def test_oracle_builds_no_matrix_above_pi(monkeypatch):
    # lam = (5,4,2,1) has dimension 5,632; pi = (3,1) needs traces on S_4 only.
    so._trace.cache_clear()
    so._seminormal_matrix.cache_clear()
    original = so._seminormal_matrix
    built = []

    def recording(lam, i):
        built.append((lam, i))
        return original(lam, i)

    monkeypatch.setattr(so, "_seminormal_matrix", recording)
    value = so.normalized_character((5, 4, 2, 1), (3, 1))
    assert value == hs.character_diagram((5, 4, 2, 1), (3, 1))
    # Every cache entry was recorded, and none has more than |pi| boxes.
    assert original.cache_info().currsize == len(set(built)) > 0
    assert max(weight(lam) for lam, _ in built) == 4


def test_oracle_agrees_with_the_diagram_at_weight_12():
    for lam in diagrams_of_weight(12):
        for pi in diagrams_up_to(5)[1:]:
            assert so.normalized_character(lam, pi) == hs.character_diagram(lam, pi), (
                lam,
                pi,
            )


def _descending_path_sum(lam, pi):
    """The recursive path sum that the block tables replaced, kept verbatim
    as a reference."""
    k = sum(pi)
    if k == 0:
        return F(dim(lam))
    skip = set()
    acc = 0
    for part in pi:
        acc += part
        skip.add(acc)
    total = F(0)

    def descend(d, j, last_c, coeff):
        nonlocal total
        if j == k:
            total += coeff * dim(d)
            return
        for mu, c in down_covers(d):
            if j and (j not in skip):
                descend(mu, j + 1, c, coeff / (last_c - c))
            else:
                descend(mu, j + 1, c, coeff)

    descend(lam, 0, None, F(1))
    return total


def test_path_sum_equals_the_recursive_descent():
    for lam in diagrams_up_to(9):
        for pi in diagrams_up_to(7)[1:]:
            if sum(pi) <= weight(lam):
                assert so.path_sum_character(lam, pi) == _descending_path_sum(lam, pi)
    for lam, pi in [
        ((4, 4, 4), (3, 2, 2)),
        ((6, 4, 2, 1), (4, 3)),
        ((5, 4, 3, 2, 1), (3, 3, 2)),
        ((7, 5, 3), (6,)),
        ((3, 3, 3, 3, 2, 1), (2, 2, 2, 1)),
    ]:
        assert so.path_sum_character(lam, pi) == _descending_path_sum(lam, pi)


def _fraction_block_sums(lam, m):
    """The block table as Fraction sums, step by step, kept as a reference."""
    states = {(lam, None): F(1)}
    for _ in range(m):
        nxt = {}
        for (d, last), coeff in states.items():
            for mu, c in down_covers(d):
                step = coeff if last is None else coeff / (last - c)
                nxt[(mu, c)] = nxt.get((mu, c), 0) + step
        states = nxt
    sums = {}
    for (mu, _), coeff in states.items():
        sums[mu] = sums.get(mu, 0) + coeff
    return {mu: coeff for mu, coeff in sums.items() if coeff}


def test_block_sums_are_ints_over_one_reduced_denominator():
    for lam in diagrams_up_to(8):
        for m in range(1, weight(lam) + 1):
            sums, denominator = so._block_sums(lam, m)
            assert type(denominator) is int and denominator > 0
            assert all(type(num) is int and num for _, num in sums)
            assert gcd(denominator, *(num for _, num in sums)) == 1
            assert {mu: F(num, denominator) for mu, num in sums} == _fraction_block_sums(
                lam, m
            ), (lam, m)


def test_a_character_that_is_not_an_integer_raises():
    assert so._exact_quotient(-12, 4, "chi") == -3
    with pytest.raises(ArithmeticError, match="chi is not an integer: 7/2"):
        so._exact_quotient(7, 2, "chi")


def test_character_routes_return_fractions():
    # Every value is an integer or a ratio of integers; int / int would give
    # a float, and a bare int would change the public type.
    for lam in diagrams_up_to(7):
        for pi in diagrams_up_to(7)[1:]:
            values = [so.normalized_character(lam, pi), hs.character_diagram(lam, pi)]
            if sum(pi) <= weight(lam):
                values += [
                    so.character(lam, pi),
                    so.character(lam, pi, reverse_word=True),
                    so.path_sum_character(lam, pi),
                ]
            assert all(type(v) is F for v in values), (lam, pi, values)


def test_path_sum_is_independent_of_cache_order():
    items = [
        (lam, pi)
        for lam in diagrams_up_to(7)
        for pi in diagrams_up_to(5)[1:]
        if sum(pi) <= weight(lam)
    ]
    so._block_sums.cache_clear()
    so._path_sum.cache_clear()
    so._path_sum_character.cache_clear()
    first = {item: so.path_sum_character(*item) for item in items}
    so._block_sums.cache_clear()
    so._path_sum.cache_clear()
    so._path_sum_character.cache_clear()
    for lam, pi in items:
        if pi[1:]:
            so.path_sum_character(lam, pi[1:])
    assert {item: so.path_sum_character(*item) for item in reversed(items)} == first


def test_a_repeated_path_sum_walks_no_block_table():
    # A repeated (lam, pi), as the Kerov samples of a characters pass ask,
    # is answered from its own cache and reads no block table.
    lam, pi = (5, 3, 2), (3, 2, 1)
    first = so.path_sum_character(lam, pi)
    blocks = so._block_sums.cache_info()
    assert so.path_sum_character(list(lam), pi) == first
    assert hs.character_diagram(lam, pi) == F(perm(10, 6) * first, dim(lam))
    assert so._block_sums.cache_info() == blocks


def test_path_sum_of_many_one_cycles_needs_no_recursion():
    # pi = (1^k) on a row: dim(lam - k boxes) = 1 at every k.
    assert so.path_sum_character((1000,), (1,) * 990) == 1


def test_path_sum_rejects_pi_above_lam_before_caching():
    so._path_sum.cache_clear()
    blocks = so._block_sums.cache_info().currsize
    with pytest.raises(ValueError, match=r"\|pi\| = 2 exceeds \|lam\| = 1"):
        so.path_sum_character((1,), (2,))
    assert so._path_sum.cache_info().currsize == 0
    assert so._block_sums.cache_info().currsize == blocks


def test_normalized_character_values():
    assert so.normalized_character((2, 1), (1,)) == 3
    assert so.normalized_character((2, 1), (2,)) == 0
    assert so.normalized_character((1,), (3,)) == 0
    for lam in diagrams_up_to(6):
        assert so.normalized_character(lam, (1,)) == weight(lam)


def test_normalized_character_zero_branch():
    for lam in diagrams_up_to(3):
        for pi in diagrams_up_to(5)[1:]:
            if sum(pi) > weight(lam):
                assert so.normalized_character(lam, pi) == 0


@pytest.mark.parametrize(
    "fn, args",
    [
        (so.normalized_character, ((3,), (0,))),
        (so.normalized_character, ((3,), (1, 2))),
        (so.normalized_character, ((1, 2), (1,))),
        (so.normalized_character, ((1,), (1, 2))),
        (so.character, ((3,), (0,))),
        (so.character, ((2, 0), (1,))),
        (so.path_sum_character, ((3,), (0,))),
        (so.path_sum_character, ((3,), (-1,))),
        (so.path_sum_character, ((1, 2), (1,))),
        (fr.frobenius_sigma, ((1, 2), 2)),
        (hs.character_diagram, ((3,), (1, 2))),
        (hs.character_diagram, ((1, 2), (4,))),
        (so.path_sum_character, ((2,), (True,))),
        (hs.character_diagram, ((2, True), (True,))),
    ],
)
def test_character_entry_points_reject_non_partitions(fn, args):
    with pytest.raises(ValueError, match="not a partition"):
        fn(*args)
