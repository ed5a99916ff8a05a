import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import ypa.frobenius as fr
import ypa.heisenberg as hs
import ypa.plancherel as pl
import ypa.sym_oracle as so
from ypa import affine, ratfun
from ypa.affine import AffinePoleError, PoleHit
from ypa.plancherel import inv_h
from ypa.ratfun import FactoredRatFun, PoleEvaluationError
from ypa.young import diagrams_up_to, profile


def test_f_eval_examples():
    assert fr.f_eval((1,), 1, [F(3)]) == F(8, 3)
    assert fr.f_eval((), 1, [F(5)]) == 5
    a = fr.f_eval((2, 1), 2, [F(9), F(17)])
    b = fr.f_eval((2, 1), 2, [F(17), F(9)])
    assert a + b == 0


def test_f_eval_pole_hit():
    with pytest.raises((PoleHit, ZeroDivisionError)):
        fr.f_eval((1,), 1, [F(0)])  # H_(1) has its pole at 0


def test_f_eval_raises_at_a_pole_after_a_zero_factor():
    # A zero factor with a positive exponent comes before the pole; the term
    # vanishing must not hide the pole.
    with pytest.raises(PoleHit):
        fr.f_eval((1, 1), 2, [F(1), F(-1)])


def test_satellite_examples():
    assert fr.satellite_I((2,), 2) == -4
    assert fr.satellite_I((2, 1), 1) == -3
    for n in (1, 2, 3):
        assert fr.satellite_I((), n) == 0


def test_frobenius_sigma_examples():
    assert fr.frobenius_sigma((1,), 1) == 1
    assert fr.frobenius_sigma((2,), 2) == 2
    assert fr.frobenius_sigma((2, 1), 3) == -3


def test_radial_examples():
    assert fr.radial_I((2,), 2) == 2
    assert fr.radial_I((2, 1), 1) == -3
    assert fr.radial_I((2,), 2, (2, 1)) == -2


def test_radial_preconditions():
    with pytest.raises(ValueError):
        fr.radial_I((1,), 4, (2, 1, 3, 4))
    with pytest.raises(ValueError):
        fr.radial_I((1,), 2, (1, 1))


@pytest.mark.parametrize(
    "fn, args",
    [
        (fr.radial_I, ((2, 1), 2, (1.0, 2.0))),
        (fr.radial_I, ((2, 1), 2, (2, True))),
        (fr.radial_I, ((2, 1), True)),
        (fr.satellite_I, ((2, 1), True)),
        (fr.frobenius_sigma, ((2, 1), True)),
        (fr.radial_I, ((2, 1), 2.0)),
        (fr.satellite_I, ((2, 1), 2.0)),
        (fr.frobenius_sigma, ((2, 1), F(2))),
        (fr.sample_points, ((2, 1), True, random.Random(0))),
        (fr.f_eval, ((2, 1), True, [F(7, 3)])),
        (fr.satellite_level_form, ((2, 1), True, 0, ())),
        (fr.satellite_step_check, ((2, 1), 3, True, [(F(36, 7),)])),
        (fr.lemma_checks, ((2, 1), 2.0, 2)),
        (fr.lemma_checks, ((2, 1), 2, 2.0)),
        (fr.satellite_final_form, ((2, 1), True)),
        (fr.f_term, ((2, 1), True)),
    ],
)
def test_frobenius_routes_take_ints_only(fn, args):
    # Nothing is coerced: True is not 1, and 2.0 is not 2.
    # A cached n = 1 must not answer for True.
    fr.f_term((2, 1), 1)
    with pytest.raises(ValueError):
        fn(*args)


def test_frobenius_routes_keep_their_range_messages():
    for fn, name in ((fr.radial_I, "n"), (fr.satellite_I, "n"), (fr.frobenius_sigma, "k")):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            fn((2, 1), 0)


@pytest.mark.parametrize("fn", [fr.satellite_I, fr.radial_I])
def test_contour_integrals_check_lambda_before_their_caches(fn):
    # A list is read as its partition; (True, 1) equals and hashes as the
    # cached (1, 1), and is still rejected.
    for n in (1, 2, 3):
        assert fn([2, 1], n) == fn((2, 1), n)
    fn((1, 1), 2)
    with pytest.raises(ValueError, match=r"not a partition: \(True, 1\)"):
        fn((True, 1), 2)


@pytest.mark.parametrize(
    "fn, args",
    [
        (fr.satellite_step_check, (2, 0, [(F(36, 7),)])),
        (fr.f_eval, (1, [F(1, 7)])),
        (fr.f_term, (2,)),
        (fr.lemma_checks, (2, 2)),
        (fr.satellite_level_form, (2, 0, (F(36, 7),))),
    ],
)
def test_step_checks_and_f_check_lambda_before_their_caches(fn, args):
    fn((1, 1), *args)
    assert fn([1, 1], *args) == fn((1, 1), *args)
    with pytest.raises(ValueError, match=r"not a partition: \(True, 1\)"):
        fn((True, 1), *args)


@pytest.mark.parametrize("seed", [True, 1.0, None, "1"])
def test_lemma_checks_take_an_int_seed_only(seed):
    # True and 1.0 would run as seed 1, and None would draw from the OS.
    with pytest.raises(ValueError, match="^seed must be an int"):
        fr.lemma_checks((2, 1), 2, 2, seed)


def test_all_schemes_agree():
    for lam in diagrams_up_to(5):
        for n in range(1, 5):
            sigma = so.normalized_character(lam, (n,))
            assert fr.frobenius_sigma(lam, n) == sigma
            assert -fr.satellite_I(lam, n) == n * sigma
            assert fr.radial_I(lam, n) == (-1) ** n * hs.character_diagram(lam, (n,))


def test_radial_over_every_supported_input():
    # Every pole these radial integrals meet is simple: affine.residue_in
    # raises on any other, so each call returning is that evidence.
    for lam in diagrams_up_to(8):
        for n in range(1, fr.MAX_RADIAL_N + 1):
            assert fr.radial_I(lam, n) == (-1) ** n * hs.character_diagram(lam, (n,))
        for n in range(1, 4):
            for sigma in itertools.permutations(range(1, n + 1)):
                fr.radial_I(lam, n, sigma)


def test_a_non_identity_nesting_at_n4_meets_a_double_pole():
    # Why radial_I stops general sigma at n = 3 (test_radial_preconditions).
    terms = [fr.f_term((2, 2), 4)]
    with pytest.raises(AffinePoleError, match="order 2 in z_4 at -1"):
        for v in (2, 1, 3, 4):
            terms = affine.residue_in(terms, v)


def test_final_form_is_the_last_level_form():
    for lam in diagrams_up_to(5):
        for n in range(1, 6):
            half_sum = (
                fr.h_product(lam, range(n)) + fr.h_product(lam, [-j for j in range(n)])
            ) * F(1, 2)
            assert fr.satellite_final_form(lam, n) == half_sum


def test_closed_contours_are_the_reduced_forms_residue_sums():
    # frobenius_sigma and satellite_I read the z^-1 coefficient at infinity;
    # the reference sums the reduced form's residues pole by pole.
    for lam in diagrams_up_to(8):
        for k in range(1, 9):
            sigma = fr.frobenius_sigma(lam, k)
            reduced = fr.h_product(lam, [-j for j in range(k)]).sum_of_residues()
            assert type(sigma) is F and sigma == -reduced / k
        for n in range(1, 8):
            value = fr.satellite_I(lam, n)
            assert type(value) is F
            assert value == fr.satellite_final_form(lam, n).sum_of_residues()


def test_workload_routes_build_no_reduced_form(monkeypatch):
    # The benchmark's contour and series routes run on roots alone: building
    # a FactoredRatFun anywhere on them fails this test.
    def refuse(self, *args, **kwargs):
        raise AssertionError("a FactoredRatFun was built")

    monkeypatch.setattr(FactoredRatFun, "__init__", refuse)
    rng = random.Random(25)
    for lam in diagrams_up_to(4):
        for n in range(1, 5):
            sigma = fr.frobenius_sigma(lam, n)
            assert -fr.satellite_I(lam, n) == n * sigma
            assert fr.radial_I(lam, n) == (-1) ** n * hs.character_diagram(lam, (n,))
            assert type(pl.moment(lam, n)) is type(pl.boolean_cumulant(lam, n)) is F
            for k in range(n - 1):
                samples = [fr.sample_points(lam, n - k - 1, rng) for _ in range(3)]
                assert fr.satellite_step_check(lam, n, k, samples)
            if n >= 2:
                checks = fr.lemma_checks(lam, n, sample_count=3, seed=n)
                assert checks == {"cyclic_sum": True, "inversion": True}
    with pytest.raises(AssertionError, match="FactoredRatFun was built"):
        fr.satellite_final_form((2, 1), 2)


def test_satellite_step_checks():
    rng = random.Random(5)
    for lam in [(2,), (2, 1), (2, 2)]:
        for n in (2, 3, 4):
            for k in range(n - 1):
                samples = [fr.sample_points(lam, n - k - 1, rng) for _ in range(10)]
                assert fr.satellite_step_check(lam, n, k, samples)


def test_step_check_rejects_bad_level():
    with pytest.raises(ValueError):
        fr.satellite_step_check((1,), 2, 1, [])


def test_step_check_with_no_samples_raises():
    with pytest.raises(ValueError):
        fr.satellite_step_check((2, 1), 3, 0, [])
    with pytest.raises(ValueError):
        fr.satellite_step_check((2, 1), 3, 0, iter(()))


def test_sample_points_avoid_poles():
    rng = random.Random(3)
    for _ in range(50):
        pts = fr.sample_points((3, 1), 4, rng)
        assert len(set(pts)) == 4
        for p in pts:
            assert p.denominator > 1
        for i in range(4):
            for j in range(i + 1, 4):
                assert (pts[i] - pts[j]).denominator > 1


def _parent_sample_points(lam, n, rng):
    # The sampler before it built each coordinate as one Fraction: the same
    # draws, randint then choice, with the sign applied by a Fraction product.
    xs, ys = profile(lam)
    bound = max([abs(c) for c in xs + ys] + [1]) + 2 * n + 1
    out = []
    for i in range(n):
        p = fr._SAMPLE_DENOMS[i]
        num = rng.randint(bound * p, 4 * bound * p)
        if num % p == 0:
            num += 1
        out.append(F(num, p) * rng.choice((1, -1)))
    return tuple(out)


def test_sample_points_draw_as_the_fraction_product():
    # The contours bench draws its inputs here: every point and the rng
    # state after it must be those of the Fraction product.
    for lam in diagrams_up_to(4):
        for n in range(fr.MAX_LEMMA_N + 1):
            got, want = random.Random(n * 31 + len(lam)), random.Random(n * 31 + len(lam))
            for _ in range(5):
                pts = fr.sample_points(lam, n, got)
                assert pts == _parent_sample_points(lam, n, want)
                assert all(type(p) is F for p in pts)
            assert got.getstate() == want.getstate()


@pytest.mark.parametrize(
    "fn, args",
    [
        (fr.sample_points, ((2, 1), -1, random.Random(0))),
        (fr.f_term, ((2, 1), -2)),
        (fr.f_eval, ((2, 1), -1, [])),
    ],
)
def test_f_and_the_sampler_reject_a_negative_n(fn, args):
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        fn(*args)


def test_f_of_no_variables_is_one():
    # n = 0 stays valid: the final level form's trailing factor is F of no
    # variables.
    assert fr.sample_points((2, 1), 0, random.Random(0)) == ()
    assert fr.f_eval((2, 1), 0, []) == 1
    assert fr.f_term((2, 1), 0).factors == {}


def test_lemma_checks():
    for lam in [(1,), (2, 1)]:
        for n in (2, 3):
            res = fr.lemma_checks(lam, n, sample_count=8, seed=1)
            assert res == {"cyclic_sum": True, "inversion": True}, (lam, n, res)
    res = fr.lemma_checks((2,), 4, sample_count=5, seed=1)
    assert res["cyclic_sum"] and res["inversion"]


def test_lemma_checks_evaluate_f_n_plus_one_times_per_draw(monkeypatch):
    # The n rotations of each draw include the unrotated sample, which is
    # also the left side of the inversion law; only the reversal is extra.
    # They call the integer body of F's evaluation at points scaled once per
    # draw, over one d, lambda being checked once.
    calls, scalings = [], []
    evaluate_pair, over_lcm = affine.evaluate_pair, fr._over_lcm

    def counted(terms, scaled, d):
        calls.append((tuple(scaled.values()), d))
        return evaluate_pair(terms, scaled, d)

    def counted_lcm(values):
        scalings.append(tuple(values))
        return over_lcm(values)

    monkeypatch.setattr(affine, "evaluate_pair", counted)
    monkeypatch.setattr(fr, "_over_lcm", counted_lcm)
    for n in (2, 3, 4):
        calls.clear()
        scalings.clear()
        res = fr.lemma_checks((2, 1), n, sample_count=3, seed=4)
        assert res == {"cyclic_sum": True, "inversion": True}
        assert len(calls) == 3 * (n + 1)
        assert len(scalings) == 3
        for draw, pts in enumerate(scalings):
            d = over_lcm(pts)[1]
            assert {c[1] for c in calls[draw * (n + 1):(draw + 1) * (n + 1)]} == {d}


def _without_first_chain_factor(f_term):
    # F with its chain factor 1/(z_1 - z_2) dropped, for n >= 2: that key
    # also carries (z_1 - z_2)^2, so its exponent goes from 1 to 2.
    def corrupted(lam, n):
        term = f_term(lam, n)
        if n < 2:
            return term
        key = ("d", 1, 2, 0)
        return affine.Term(term.coef, {**term.factors, key: term.factors[key] + 1})

    return corrupted


def test_the_lemma_and_step_checks_fail_on_a_corrupted_f(monkeypatch):
    # The checks must be able to fail: the intact F passes both laws at
    # every n, and an F without one chain factor fails both; a step check
    # whose trailing F (over two variables) is corrupted fails.
    rng = random.Random(30)
    tails = [fr.sample_points((2, 1), 2, rng) for _ in range(3)]
    for n in (2, 3, 4):
        assert fr.lemma_checks((2, 1), n, sample_count=3, seed=5) == {
            "cyclic_sum": True, "inversion": True
        }
    assert fr.satellite_step_check((2, 1), 3, 0, tails)
    monkeypatch.setattr(fr, "_f_term", _without_first_chain_factor(fr._f_term))
    for n in (2, 3, 4):
        assert fr.lemma_checks((2, 1), n, sample_count=3, seed=5) == {
            "cyclic_sum": False, "inversion": False
        }
    for tail in tails:
        assert not fr.satellite_step_check((2, 1), 3, 0, [tail])


def test_a_float_lemma_draw_raises_value_error(monkeypatch):
    monkeypatch.setattr(fr, "sample_points", lambda lam, n, rng: (0.5, F(7, 3)))
    with pytest.raises(ValueError, match="must be an int or a Fraction"):
        fr.lemma_checks((1,), 2, sample_count=1, seed=0)


def test_lemma_checks_with_no_samples_raise():
    with pytest.raises(ValueError):
        fr.lemma_checks((2, 1), 3, sample_count=0)


def test_lemma_checks_raise_on_a_sample_at_a_pole(monkeypatch):
    # The sampler never lands on a pole; if it did, the checks must not
    # quietly draw again.  H_(1) has its pole at z = 0.
    valid = fr.sample_points
    draws = [(F(0), F(7, 3))]  # z_1 = 0 first, then the sampler's own points

    def sample(lam, n, rng):
        return draws.pop() if draws else valid(lam, n, rng)

    monkeypatch.setattr(fr, "sample_points", sample)
    with pytest.raises(PoleHit):
        fr.lemma_checks((1,), 2, sample_count=3, seed=0)


def test_n2_n3_contour_identities():
    for lam in diagrams_up_to(5):
        assert fr.radial_I(lam, 2, (2, 1)) == -fr.radial_I(lam, 2)
        assert fr.radial_I(lam, 2, (2, 1)) - fr.radial_I(lam, 2) == fr.satellite_I(
            lam, 2
        )
        assert fr.radial_I(lam, 3, (2, 1, 3)) == fr.radial_I(lam, 3, (2, 3, 1))
        assert fr.satellite_I(lam, 3) == 3 * fr.radial_I(lam, 3)


def test_h_product_shifts():
    h = fr.h_product((2,), [0, -1])
    assert h == FactoredRatFun.from_roots([F(-1), F(0), F(3)], [F(1)])


def test_step_check_fails_against_a_wrong_final_form(monkeypatch):
    # The last step compares with the final form, the level-(n - 1) form;
    # doubling its value must be seen, so the check cannot pass vacuously.
    lam, n = (2, 1), 3
    rng = random.Random(2)
    samples = [fr.sample_points(lam, 1, rng) for _ in range(5)]
    assert fr.satellite_step_check(lam, n, n - 2, samples)
    true_value = fr._level_value
    monkeypatch.setattr(fr, "_level_value", lambda *args: true_value(*args) * 2)
    assert not fr.satellite_step_check(lam, n, n - 2, samples)


def test_h_product_reads_the_shifts_not_their_container():
    lam = (3, 1)
    assert (
        fr.h_product(lam, range(3))
        == fr.h_product(lam, [0, 1, 2])
        == fr.h_product(lam, (0, 1, 2))
    )
    assert fr.h_product(lam, [0, 1, 2]) != fr.h_product(lam, [0, 1])


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(diagrams_up_to(6)), st.lists(st.integers(-4, 4), max_size=5))
def test_h_product_is_the_product_of_shifted_h(lam, shifts):
    # The reference multiplies shifted copies of H pairwise and reduces.
    expected = FactoredRatFun.from_roots([], [])
    for s in shifts:
        expected = expected * inv_h(lam).shift(s)
        assert fr.h_shifted(lam, s) == inv_h(lam).shift(s)
    got = fr.h_product(lam, shifts)
    assert got == expected and repr(got) == repr(expected)


def _contour_sum(lam, n, k, tail):
    # The step check's left side at one tail, scaled as satellite_step_check scales it.
    return fr._contour_sum(lam, n, k, *fr._over_lcm(tail))


def _level_value(lam, n, k, tail, x):
    # The level-k form at x, from (x, *tail) scaled as satellite_step_check scales it.
    return fr._level_value(lam, n, k, *fr._over_lcm((x, *tail)))


def _reduced_contour_sum(lam, n, k, tail):
    # The reduced-form algorithm: residues of the summed level-k form.
    w = tail[0]
    form = fr.satellite_level_form(lam, n, k, tail)
    return sum((form.residue_at(p) for p in {w + 1, w - 1, w + k + 1, w - k - 1}), F(0))


def _reduced_right_side(lam, n, k, tail):
    # The level-(k+1) form, or the final form, evaluated at w.
    if k + 1 <= n - 2:
        return fr.satellite_level_form(lam, n, k + 1, tail[1:])(tail[0])
    return fr.satellite_final_form(lam, n)(tail[0])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError as exc:  # PoleHit or PoleEvaluationError
        return type(exc)


@st.composite
def _step_cases(draw):
    lam = draw(st.sampled_from(diagrams_up_to(5)))
    n = draw(st.integers(2, 6))
    k = draw(st.integers(0, n - 2))
    tail = fr.sample_points(lam, n - k - 1, random.Random(draw(st.integers(0, 10**6))))
    if draw(st.booleans()):
        # Outer variables at w plus an integer: contour poles can collide
        # (tail[j] = w + k + 2 doubles the pole at w + 1 for sgn = +1), and
        # the right side can have a root or a pole at w.
        offsets = draw(st.lists(st.integers(-k - 3, k + 3), min_size=len(tail) - 1,
                                max_size=len(tail) - 1))
        tail = (tail[0],) + tuple(tail[0] + d for d in offsets)
    return lam, n, k, tail


@settings(deadline=None, max_examples=300)
@given(_step_cases())
def test_pointwise_step_checks_equal_the_reduced_form_algorithm(case):
    lam, n, k, tail = case
    lhs = _outcome(_reduced_contour_sum, lam, n, k, tail)
    rhs = _outcome(_reduced_right_side, lam, n, k, tail)
    assert _outcome(_contour_sum, lam, n, k, tail) == lhs
    if k + 1 <= n - 2:
        assert _outcome(_level_value, lam, n, k + 1, tail[1:], tail[0]) == rhs
    if isinstance(lhs, type) or isinstance(rhs, type):
        expected = lhs if isinstance(lhs, type) else rhs
    else:
        expected = lhs == rhs
    assert _outcome(fr.satellite_step_check, lam, n, k, iter([tail])) == expected


def test_a_double_contour_pole_is_a_root_list_residue(monkeypatch):
    # tail[1] = w + k + 2 puts a second pole at w + 1 in the sgn = +1 term.
    lam, n, k = (2, 1), 3, 0
    w = F(38, 7)
    tail = (w, w + k + 2)
    expected = _reduced_contour_sum(lam, n, k, tail)
    forms = []
    level_form = fr.satellite_level_form
    monkeypatch.setattr(
        fr, "satellite_level_form", lambda *a: forms.append(a) or level_form(*a)
    )
    assert _contour_sum(lam, n, k, tail) == expected
    assert forms == []


def _colliding_tails():
    # Every remaining coordinate at w plus an integer offset, for w a half,
    # a third and an integer: double contour poles, roots of the right side
    # at w, poles of F on the tail and signs whose poles at w cancel.
    for lam in diagrams_up_to(3):
        for n in (2, 3, 4):
            for k in range(n - 1):
                for w in (F(1, 2), F(-5, 3), F(2)):
                    offsets = range(-k - 3, k + 4)
                    for rest in itertools.product(offsets, repeat=n - k - 2):
                        yield lam, n, k, (w, *(w + o for o in rest))


def test_colliding_tails_equal_the_reduced_form_algorithm(monkeypatch):
    cases = list(_colliding_tails())
    expected = []
    for lam, n, k, tail in cases:
        lhs = _outcome(_reduced_contour_sum, lam, n, k, tail)
        rhs = _outcome(_reduced_right_side, lam, n, k, tail)
        if isinstance(lhs, type) or isinstance(rhs, type):
            verdict = lhs if isinstance(lhs, type) else rhs
        else:
            verdict = lhs == rhs
        expected.append((lhs, rhs, verdict))

    def refuse(self, *args, **kwargs):
        raise AssertionError("a FactoredRatFun was built")

    monkeypatch.setattr(FactoredRatFun, "__init__", refuse)
    for (lam, n, k, tail), (lhs, rhs, verdict) in zip(cases, expected):
        assert _outcome(_contour_sum, lam, n, k, tail) == lhs
        assert _outcome(_level_value, lam, n, k + 1, tail[1:], tail[0]) == rhs
        assert _outcome(fr.satellite_step_check, lam, n, k, [tail]) == verdict
    seen = {v if isinstance(v, type) else type(v) for e in expected for v in e}
    assert seen == {F, PoleHit, PoleEvaluationError, bool}
    assert len(cases) == 1428


def test_step_checks_sum_residue_pairs_not_fractions(monkeypatch):
    # The step checks add up residue_pair's int pairs and make one Fraction
    # per side; a per-residue Fraction through residue_at must not come back.
    cases = list(_colliding_tails())[::7]
    expected = []
    for lam, n, k, tail in cases:
        lhs = _outcome(_reduced_contour_sum, lam, n, k, tail)
        rhs = _outcome(_reduced_right_side, lam, n, k, tail)
        if isinstance(lhs, type) or isinstance(rhs, type):
            verdict = lhs if isinstance(lhs, type) else rhs
        else:
            verdict = lhs == rhs
        expected.append((lhs, rhs, verdict))

    def refuse(*args, **kwargs):
        raise AssertionError("residue_at was called")

    monkeypatch.setattr(fr, "residue_at", refuse, raising=False)
    monkeypatch.setattr(ratfun, "residue_at", refuse)
    for (lam, n, k, tail), (lhs, rhs, verdict) in zip(cases, expected):
        got = _outcome(_contour_sum, lam, n, k, tail)
        assert got == lhs and type(got) is type(lhs)
        got = _outcome(_level_value, lam, n, k + 1, tail[1:], tail[0])
        assert got == rhs and type(got) is type(rhs)
        assert _outcome(fr.satellite_step_check, lam, n, k, [tail]) == verdict
    seen = {v if isinstance(v, type) else type(v) for e in expected for v in e}
    assert seen == {F, PoleHit, PoleEvaluationError, bool}


# Tails of each kind of common denominator d: an lcm below the product of the
# denominators (4 and 6 and 10 give 60, not 240), integers (d = 1) and one
# shared denominator (d = 7).
_SCALED_TAILS = [
    ((F(41, 4), F(-37, 6), F(53, 10)), 60),
    ((F(19), F(-23), F(31)), 1),
    ((F(38, 7), F(-45, 7), F(61, 7)), 7),
]


@pytest.mark.parametrize("tail, d", _SCALED_TAILS)
def test_scaled_step_checks_equal_the_reduced_form_on_any_denominator(tail, d):
    assert fr._over_lcm(tail)[1] == d
    values = 0
    for lam in [(), (1,), (2, 1), (3, 1, 1)]:
        for n in (2, 3, 4):
            for k in range(n - 1):
                t = tail[: n - k - 1]
                lhs = _outcome(_reduced_contour_sum, lam, n, k, t)
                rhs = _outcome(_reduced_right_side, lam, n, k, t)
                assert _outcome(_contour_sum, lam, n, k, t) == lhs
                assert _outcome(_level_value, lam, n, k + 1, t[1:], t[0]) == rhs
                values += not isinstance(lhs, type) and not isinstance(rhs, type)
    assert values > 0


def test_step_checks_on_sampled_tails_never_use_the_reduced_form(monkeypatch):
    # The bench's step checks take every residue and value from the roots;
    # a call to satellite_level_form would be a detour through the reduced form.
    calls = []
    level_form = fr.satellite_level_form
    monkeypatch.setattr(
        fr, "satellite_level_form", lambda *a: calls.append(a) or level_form(*a)
    )
    rng = random.Random(22)
    for lam in diagrams_up_to(4):
        for n in (2, 3, 4):
            for k in range(n - 1):
                samples = [fr.sample_points(lam, n - k - 1, rng) for _ in range(3)]
                assert fr.satellite_step_check(lam, n, k, samples)
    assert calls == []


def test_the_step_check_scales_each_tail_once(monkeypatch):
    # Both sides read the tail times one d, so each sample is scaled once.
    calls = []
    over_lcm = fr._over_lcm
    monkeypatch.setattr(fr, "_over_lcm", lambda values: calls.append(values) or over_lcm(values))
    rng = random.Random(31)
    for k in (0, 1):
        samples = [fr.sample_points((2, 1), 3 - k - 1, rng) for _ in range(3)]
        calls.clear()
        assert fr.satellite_step_check((2, 1), 3, k, samples)
        assert calls == [tuple(s) for s in samples]


def test_level_roots_share_the_cached_h_roots_but_not_their_lists():
    # The H part of each sign's roots is cached per (lam, k, sign, d); each
    # call still returns fresh lists, so appending to one changes no other.
    lam, tail = (3, 1), [11, -4]
    fr._level_h_roots.cache_clear()
    first = fr._level_roots(lam, 2, tail, 1, 5)
    first[0].append("changed")
    second = fr._level_roots(lam, 2, tail, 1, 5)
    assert "changed" not in second[0]
    assert fr._level_h_roots.cache_info().hits == 1
    zeros, poles = fr._h_roots(lam, (0, 5, 10), 5)
    assert second == ([*zeros, 11, 1, -4, -14], [*poles, 11, 16, -4, 1, -19])


def test_radial_values_are_fractions_on_every_supported_input():
    # A key constant is an int, and int ** -e would be a float.
    for lam in diagrams_up_to(6):
        for n in range(1, fr.MAX_RADIAL_N + 1):
            assert type(fr.radial_I(lam, n)) is F
        for n in range(1, 4):
            for sigma in itertools.permutations(range(1, n + 1)):
                assert type(fr.radial_I(lam, n, sigma)) is F


@pytest.mark.parametrize("bad", [0.1, True, 1.0])
def test_f_and_the_step_checks_take_exact_points_only(bad):
    with pytest.raises(ValueError, match="must be an int or a Fraction"):
        fr.f_eval((1,), 1, [bad])
    with pytest.raises(ValueError, match="must be an int or a Fraction"):
        fr.satellite_step_check((2, 1), 2, 0, [(bad,)])


def test_f_takes_int_points_as_their_fractions():
    pts = (5, F(-9, 2), 7)
    assert fr.f_eval((2, 1), 3, pts) == fr.f_eval((2, 1), 3, [F(p) for p in pts])


def test_step_checks_take_int_coordinates_as_their_fractions():
    # A checked sample coordinate is kept as given: an int tail gives the
    # same values, types, verdicts and exception classes as its Fractions.
    for lam in [(1,), (2, 1)]:
        for tail in [(5, 7), (F(9, 2), 7), (2, 3)]:
            fracs = tuple(map(F, tail))
            for fn, args, frac_args in [
                (_contour_sum, (lam, 3, 0, tail), (lam, 3, 0, fracs)),
                (_level_value, (lam, 3, 1, tail[1:], tail[0]),
                 (lam, 3, 1, fracs[1:], fracs[0])),
                (fr.satellite_step_check, (lam, 3, 0, [tail]), (lam, 3, 0, [fracs])),
            ]:
                got, expected = _outcome(fn, *args), _outcome(fn, *frac_args)
                assert got == expected and type(got) is type(expected)
