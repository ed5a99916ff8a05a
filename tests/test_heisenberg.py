import hashlib
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ypa.heisenberg as hs
import ypa.sym_oracle as so
from ypa.plancherel import PLANCHEREL, boolean_cumulant, f_pl, moment
from ypa.surd import Surd, sqrt_fraction
from ypa.tangle import _box_terms, as_element, evaluate
from ypa.young import diagrams_up_to, enumerate_loops, format_loop, parse_loop


def test_cross_values_spec_examples():
    lp = parse_loop("[2] v [1] v [] ^ [1] ^ [2]")
    assert hs.cross_id(lp, PLANCHEREL) == sqrt_fraction(F(2))
    assert hs.cross(lp, PLANCHEREL) == sqrt_fraction(F(2))
    assert hs.cross_ex(lp, PLANCHEREL).is_zero()
    lp2 = parse_loop("[2,1] v [2] v [1] ^ [1,1] ^ [2,1]")
    assert hs.cross_ex(lp2, PLANCHEREL) == Surd.from_rational(F(3, 2))
    assert hs.cross_id(lp2, PLANCHEREL).is_zero()


def test_cross_signature_check():
    with pytest.raises(ValueError, match="signature"):
        hs.cross(parse_loop("[1] v [] ^ [1]"), PLANCHEREL)


def test_cross_support_carrying_boxes():
    # t_id lives on loops with equal middles, t_ex on exchanged middles.
    for base in diagrams_up_to(5):
        for loop in enumerate_loops(base, hs.CROSS_SIGNATURE):
            l0, l1, l2, l3, _ = loop.diagrams
            if l1 == l3:
                assert hs.cross_ex(loop, PLANCHEREL).is_zero()
                assert not hs.cross_id(loop, PLANCHEREL).is_zero()
            else:
                assert hs.cross_id(loop, PLANCHEREL).is_zero()
                assert not hs.cross_ex(loop, PLANCHEREL).is_zero()
            parts = hs.cross_id(loop, PLANCHEREL) + hs.cross_ex(loop, PLANCHEREL)
            assert hs.cross(loop, PLANCHEREL) == parts


def test_cross_square_radicand_structure():
    # t_id^2 and t_ex^2 times f(l0)/f(l2) are rational.
    for base in diagrams_up_to(5):
        for loop in enumerate_loops(base, hs.CROSS_SIGNATURE):
            ratio = f_pl(loop.diagrams[0]) / f_pl(loop.diagrams[2])
            for fn in (hs.cross_id, hs.cross_ex):
                v = fn(loop, PLANCHEREL)
                assert (v * v * ratio).is_rational()


def test_dot_examples():
    def dot(text):
        return hs.dot_value(parse_loop(text), PLANCHEREL)

    assert dot("[2] v [1] ^ [2]") == sqrt_fraction(F(2))
    assert dot("[1,1] v [1] ^ [1,1]") == -sqrt_fraction(F(2))
    assert dot("[1] v [] ^ [1]").is_zero()


def test_dot_equals_composed_tangle():
    for base in diagrams_up_to(6):
        for loop in enumerate_loops(base, (-1, 1)):
            right_turn = evaluate(hs.programs()["right_turn"], loop, PLANCHEREL)
            assert hs.dot_value(loop, PLANCHEREL) == right_turn


@pytest.mark.parametrize("name", hs.RELATION_IDS)
def test_relations_weight_4(name):
    report = hs.verify_relation(name, 4)
    assert report.verified, report.failures[:3]
    assert report.loops_checked > 0


def test_relation_spot_values():
    # ind_ind on an equal-middle loop equals sqrt(f(l2)/f(l0)).
    loop = parse_loop("[2,1] v [1,1] v [1] ^ [1,1] ^ [2,1]")
    lhs = evaluate(hs.programs()["ind_ind_lhs"], loop, PLANCHEREL)
    assert lhs == sqrt_fraction(f_pl((1,)) / f_pl((2, 1)))
    # res_ind on loops with l0 = l2, l1 = l3 equals 1 - f(l1)/f(l0).
    for loop in enumerate_loops((2, 1), (1, -1, 1, -1)):
        l0, l1, l2, l3, _ = loop.diagrams
        if l0 == l2 and l1 == l3:
            lhs = evaluate(hs.programs()["res_ind_lhs"], loop, PLANCHEREL)
            assert lhs == Surd.from_rational(1) - Surd.from_rational(
                f_pl(l1) / f_pl(l0)
            )


def test_verify_relation_rejects_bad_input():
    for name in ("nosuch", "YBE", b"ybe", None, ["ybe"]):
        with pytest.raises(ValueError, match="unknown relation"):
            hs.verify_relation(name, 4)
    with pytest.raises(ValueError):
        hs.verify_relation("ybe", 0)
    with pytest.raises(ValueError, match="jobs"):
        hs.verify_relation("ind_ind", 3, jobs=0)


def test_sweep_without_loops_is_not_verified():
    report = hs.verify_relation("ybe", 2)
    assert report.loops_checked == 0 and report.failures == []
    assert not report.verified


def test_report_json_shape():
    report = hs.verify_relation("left_circle", 4)
    d = report.to_json_dict()
    assert set(d) == {"relation", "max_weight", "loops_checked", "failures"}
    assert d["failures"] == []


def test_jobs_do_not_change_the_report():
    a = hs.verify_relation("ind_res", 4, jobs=1).to_json_dict()
    b = hs.verify_relation("ind_res", 4, jobs=3).to_json_dict()
    assert a == b


def _counted_forks(monkeypatch, cpus):
    # Records each worker the parent forks, through the one fork point; the
    # forks are real.  The usable CPU count is patched to cpus.
    forks = []
    fork_worker = hs._fork_worker

    def counted(*args):
        forks.append(args)
        return fork_worker(*args)

    monkeypatch.setattr(hs, "_fork_worker", counted)
    monkeypatch.setattr(hs, "_usable_cpus", lambda: cpus)
    return forks


def _no_child_left():
    # waitpid on any child raises when this process has none, running or not reaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# The parent is one of the processes: it forks one fewer than it uses.
def test_pool_has_at_most_one_worker_per_base(monkeypatch):
    forks = _counted_forks(monkeypatch, cpus=64)
    pooled = hs.verify_relation("left_circle", 1, jobs=64).to_json_dict()
    assert len(forks) == len(diagrams_up_to(1)) - 1 == 1
    _no_child_left()
    serial = hs.verify_relation("left_circle", 1).to_json_dict()
    assert pooled == serial


def test_pool_has_at_most_one_worker_per_usable_cpu(monkeypatch):
    forks = _counted_forks(monkeypatch, cpus=3)
    pooled = hs.verify_relation("left_circle", 4, jobs=5000).to_json_dict()
    assert len(forks) == 3 - 1 and len(diagrams_up_to(4)) > 3
    _no_child_left()
    serial = hs.verify_relation("left_circle", 4).to_json_dict()
    assert pooled == serial


def test_one_job_forks_nothing_and_reports_as_two(monkeypatch):
    # jobs=1 runs the same claims path as jobs=2, with no fork.
    forks = _counted_forks(monkeypatch, cpus=3)
    serial = hs.verify_relation("ind_res", 5, jobs=1).to_json_dict()
    assert forks == []
    pooled = hs.verify_relation("ind_res", 5, jobs=2).to_json_dict()
    assert len(forks) == 1 and pooled == serial
    _no_child_left()


@pytest.mark.parametrize("name", hs.RELATION_IDS)
def test_every_relation_reports_the_same_for_every_jobs(monkeypatch, name):
    # Three usable CPUs, so jobs=3 forks two workers even on a smaller box.
    monkeypatch.setattr(hs, "_usable_cpus", lambda: 3)
    serial = hs.verify_relation(name, 5).to_json_dict()
    for jobs in (2, 3):
        assert hs.verify_relation(name, 5, jobs=jobs).to_json_dict() == serial


def test_pooled_failures_merge_in_base_order(monkeypatch):
    # Every base fails once here, so the failure list shows the merge order.
    monkeypatch.setattr(hs, "_verify_base", lambda name, base: (1, [(str(base), "", "")]))
    monkeypatch.setattr(hs, "_usable_cpus", lambda: 3)
    serial = hs.verify_relation("ybe", 6).failures
    assert serial == [(str(base), "", "") for base in diagrams_up_to(6)]
    for jobs in (2, 3):
        assert hs.verify_relation("ybe", 6, jobs=jobs).failures == serial


@pytest.mark.parametrize("in_worker", [True, False], ids=["worker", "parent"])
def test_a_raise_on_either_side_stops_the_other(monkeypatch, in_worker):
    # One side raises on every base it claims; the other takes 50 ms a base
    # and writes a byte per base to a pipe that the forked worker inherits.
    parent, verify_base = os.getpid(), hs._verify_base
    read, write = os.pipe()

    def raises_on_one_side(name, base):
        if (os.getpid() != parent) == in_worker:
            raise LookupError(os.getpid())
        time.sleep(0.05)
        os.write(write, b".")
        return verify_base(name, base)

    monkeypatch.setattr(hs, "_verify_base", raises_on_one_side)
    monkeypatch.setattr(hs, "_usable_cpus", lambda: 2)
    try:
        with pytest.raises(LookupError) as raised:
            hs.verify_relation("ind_ind", 6, jobs=2)
    finally:
        os.close(write)
        verified = len(os.read(read, 1 << 16))
        os.close(read)
    assert (raised.value.args[0] != parent) == in_worker
    _no_child_left()
    # Had it not stopped claiming, it would have verified every base but one.
    assert verified < len(diagrams_up_to(6)) - 1


def test_a_raise_in_a_worker_waits_for_the_parents_lighter_bases(monkeypatch):
    # More bases than the pipe takes, so the parent keeps the lighter ones.
    # The worker raises on its first claim and discards the rest; the parent
    # waits for it to exit (unreaped), then verifies every lighter base and
    # no claim before the raise reaches it.
    parent, light = os.getpid(), 5
    bases = [(i,) for i in range(hs._CLAIMS + light)]
    verified = []

    def raises_in_the_worker(name, base):
        if os.getpid() != parent:
            raise LookupError(os.getpid())
        if not verified:
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        verified.append(base[0])
        return 1, []

    monkeypatch.setattr(hs, "diagrams_up_to", lambda max_weight: bases)
    monkeypatch.setattr(hs, "_verify_base", raises_in_the_worker)
    monkeypatch.setattr(hs, "_usable_cpus", lambda: 2)
    with pytest.raises(LookupError) as raised:
        hs.verify_relation("ybe", 6, jobs=2)
    assert raised.value.args[0] != parent
    assert verified == list(range(light))
    _no_child_left()


def test_the_parent_verifies_its_own_share(monkeypatch):
    # Its tables persist, so the next call's fork starts with them warm.
    monkeypatch.setattr(hs, "_usable_cpus", lambda: 2)
    _box_terms.cache_clear()
    report = hs.verify_relation("ind_ind", 5, jobs=2)
    assert report.verified and _box_terms.cache_info().currsize > 0
    _no_child_left()


def test_verify_relation_checks_its_ints_before_any_pool(monkeypatch):
    # Before, jobs=True ran serially, jobs=2.0 started a pool, and
    # max_weight=True checked the bases of weight <= 1.
    def no_fork(*args, **kwargs):
        raise AssertionError("a worker forked before the parameters were checked")

    monkeypatch.setattr(hs, "_fork_worker", no_fork)
    monkeypatch.setattr(hs, "_usable_cpus", lambda: 2)
    for args, name in (((3, True), "jobs"), ((3, 2.0), "jobs"), ((True,), "max_weight")):
        with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
            hs.verify_relation("ybe", *args)


def test_a_worker_that_dies_without_a_report_raises(monkeypatch):
    # The forked worker exits at its first base; the parent verifies the
    # rest, then finds no report and raises instead of counting fewer loops.
    parent, verify_base = os.getpid(), hs._verify_base

    def dies_in_the_worker(name, base):
        if os.getpid() != parent:
            os._exit(1)
        return verify_base(name, base)

    monkeypatch.setattr(hs, "_verify_base", dies_in_the_worker)
    monkeypatch.setattr(hs, "_usable_cpus", lambda: 2)
    with pytest.raises(hs.VerifyWorkerError, match="without a report"):
        hs.verify_relation("ind_ind", 6, jobs=2)
    _no_child_left()


_MANY_CLAIMS = """
import os
import ypa.heisenberg as hs

bases = [(i,) for i in range(40_000)]
hs.diagrams_up_to = lambda max_weight: bases
# Each base fails once, naming the process that verified it.
hs._verify_base = lambda name, base: (1, [(str(base), str(os.getpid()), "")])
hs._usable_cpus = lambda: 3
light = len(bases) - hs._CLAIMS
for jobs in (2, 3):
    report = hs.verify_relation("ybe", 6, jobs)
    assert report.loops_checked == len(bases)
    assert [loop for loop, _, _ in report.failures] == [str(base) for base in bases]
    verifiers = [pid for _, pid, _ in report.failures]
    assert verifiers[:light] == [str(os.getpid())] * light
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


def test_more_claims_than_the_pipe_holds_merge_in_base_order():
    # 40,000 bases are more than one atomic write of four-byte claims holds,
    # so only the _CLAIMS heaviest go into the pipe, written before any fork,
    # and the parent verifies every lighter base itself.  A fresh
    # interpreter under a timeout turns a deadlock into a failure.
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _MANY_CLAIMS],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "no child left\n"


_COUNTED_PARSES = """
import ypa.tangle as tangle

calls = []
parse_programs = tangle.parse_programs
tangle.parse_programs = lambda *args: calls.append(args) or parse_programs(*args)
import ypa.heisenberg as hs

counts = [len(calls)]
for name in ("ind_ind", "ybe"):
    hs.verify_relation(name, 3)
    counts.append(len(calls))
print(*counts)
"""


def test_the_relation_source_is_parsed_once_on_first_use():
    # Import parses nothing; the first relation parses the one source of
    # every program, and a later relation reads what it parsed.
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _COUNTED_PARSES],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 1 1\n"


def test_usable_cpus_is_positive():
    assert hs._usable_cpus() >= 1


def test_cycle_program_two_is_the_crossing():
    c2 = as_element(hs.cycle_program(2))
    for base in diagrams_up_to(4):
        for lp in enumerate_loops(base, hs.CROSS_SIGNATURE):
            assert c2.fn(lp, PLANCHEREL) == hs.cross(lp, PLANCHEREL)
    with pytest.raises(ValueError):
        hs.cycle_program(1)


def test_character_diagram_spot_values():
    assert hs.character_diagram((2,), (2,)) == 2
    assert hs.character_diagram((1, 1), (2,)) == -2
    assert hs.character_diagram((3,), (3,)) == 6
    assert hs.character_diagram((2, 1), (3,)) == -3
    assert hs.character_diagram((1,), (3,)) == 0  # |pi| > |lam| branch
    assert hs.character_diagram((2, 1), (1,)) == 3


def test_character_diagram_rejects_non_partition():
    with pytest.raises(ValueError):
        hs.character_diagram((2,), (1, 2))


def test_character_diagram_checks_its_input_once(monkeypatch):
    # character_diagram checks lam and pi itself, so the path sum it rescales
    # runs without the public route's second check.
    expected = {
        (lam, pi): hs.character_diagram(lam, pi)
        for lam in diagrams_up_to(5)
        for pi in ((1,), (2,), (2, 1), (3,), (2, 2))
    }

    def no_check(parts):
        raise AssertionError("sym_oracle checked its input again")

    monkeypatch.setattr(so, "as_partition", no_check)
    for (lam, pi), value in expected.items():
        assert hs.character_diagram(list(lam), list(pi)) == value


def test_character_tangle_equals_closed_form():
    for lam in diagrams_up_to(6):
        assert hs.character_tangle(lam, ()) == 1
        for pi in diagrams_up_to(4)[1:]:
            assert hs.character_tangle(lam, pi) == hs.character_diagram(lam, pi)
    with pytest.raises(ValueError, match="not a partition"):
        hs.character_tangle((2,), (1, 2))


def test_moment_and_cumulant_diagrams():
    assert hs.moment_diagram((1,), 2) == 1
    assert hs.moment_diagram((), 3) == 0
    assert hs.cumulant_diagram((2, 1), 0) == 3
    for lam in diagrams_up_to(6):
        for k in range(1, 5):
            assert hs.moment_diagram(lam, k) == moment(lam, k)
            assert hs.cumulant_diagram(lam, k) == boolean_cumulant(lam, k + 2)


def test_kerov_expansion_examples():
    exp2 = hs.kerov_boolean_expansion((2,), 6)
    assert exp2 == {((3, 1),): F(1)}
    exp3 = hs.kerov_boolean_expansion((3,), 6)
    assert exp3 == {((4, 1),): F(1), ((2, 2),): F(-1), ((2, 1),): F(1)}
    exp1 = hs.kerov_boolean_expansion((1,), 4)
    assert exp1 == {((2, 1),): F(1)}


def test_kerov_p_polynomial_signs():
    exp3 = hs.kerov_boolean_expansion((3,), 6)
    p = hs.kerov_p_polynomial((3,), exp3)
    assert all(c == 1 for c in p.values())
    assert hs.render_expansion(p, var="x") == "x2 + x2^2 + x4"


def test_kerov_underdetermined():
    with pytest.raises(hs.KerovUnderdeterminedError):
        hs.kerov_boolean_expansion((3,), 1)


def test_kerov_rejects_a_float_part_as_not_a_partition():
    with pytest.raises(ValueError, match="not a partition"):
        hs.kerov_boolean_expansion((2.0,), 4)


def test_kerov_checks_pi_before_any_monomial_or_sample(monkeypatch):
    def unreachable(*args):
        raise AssertionError("pi was not checked first")

    monkeypatch.setattr(hs, "_monomials", unreachable)
    monkeypatch.setattr(hs, "boolean_cumulant", unreachable)
    with pytest.raises(ValueError, match="not a partition"):
        hs.kerov_boolean_expansion((1, 2), 4)


def test_kerov_p_polynomial_checks_pi():
    with pytest.raises(ValueError, match="not a partition"):
        hs.kerov_p_polynomial((True,), {})
    exp2 = hs.kerov_boolean_expansion([2], 6)  # a list reads as its tuple
    assert exp2 == {((3, 1),): F(1)}
    assert hs.kerov_p_polynomial([2], exp2) == {((3, 1),): F(1)}


def _fraction_gauss_jordan(rows, m):
    """Gauss-Jordan over Fractions, the reference for the fraction-free solve."""
    mat = [[F(x) for x in r] + [F(v)] for r, v in rows]
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(mat)):
        if mat[i][m]:
            raise hs.KerovInconsistentError("no polynomial fits the sampled values")
    if len(pivots) < m:
        raise hs.KerovUnderdeterminedError(
            f"rank {len(pivots)} < {m} monomials; increase sample_weight"
        )
    sol = [F(0)] * m
    for i, c in enumerate(pivots):
        sol[c] = mat[i][m]
    return sol


_entries = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def _systems(draw):
    """(rows, m): small entries, so that rank-deficient systems are common;
    half the right sides come from a solution, the rest are drawn freely."""
    m = draw(st.integers(0, 4))
    matrix = draw(st.lists(st.lists(_entries, min_size=m, max_size=m), max_size=6))
    if matrix and draw(st.booleans()):
        rows = draw(st.integers(1, 3))
        matrix += [matrix[draw(st.integers(0, len(matrix) - 1))] for _ in range(rows)]
    if draw(st.booleans()):
        x = draw(st.lists(_entries, min_size=m, max_size=m))
        values = [sum((a * b for a, b in zip(row, x)), F(0)) for row in matrix]
    else:
        values = draw(st.lists(_entries, min_size=len(matrix), max_size=len(matrix)))
    return list(zip(matrix, values)), m


@settings(deadline=None, max_examples=200)
@given(_systems())
def test_fraction_free_solve_equals_the_fraction_reference(system):
    rows, m = system
    try:
        expected = _fraction_gauss_jordan(rows, m)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            hs._solve_exact(rows, m)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    solution = hs._solve_exact(rows, m)
    assert solution == expected
    assert all(type(v) is F for v in solution)


def test_relation_sides_zero_rhs():
    sides = hs.relation_sides("left_turn")
    loop = parse_loop("[2] v [1] ^ [2]")
    assert sides.rhs_value(loop).is_zero()


def test_every_relation_side_value_is_pinned():
    # One line per program on every loop of base weight <= 6.  The sweep
    # compares the two sides only, so it misses a change that scales both
    # alike; this digest does not.
    digest, lines = hashlib.sha256(), 0
    for name in hs.RELATION_IDS:
        sides = hs.relation_sides(name)
        for base in diagrams_up_to(6):
            for loop in enumerate_loops(base, sides.signature):
                for _coef, prog in sides.lhs + sides.rhs:
                    value = evaluate(prog, loop, PLANCHEREL)
                    line = f"{prog.name} {format_loop(loop)} {value.render()}\n"
                    digest.update(line.encode())
                    lines += 1
    assert lines == 1896
    assert digest.hexdigest() == (
        "e2f2446001819aa3618dd4f33f425ab879b1661ddaafb08ba9efe3cdc46d91a9"
    )
