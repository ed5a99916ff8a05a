import ast
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import ypa.frobenius as fr
import ypa.heisenberg as hs
import ypa.plancherel as pl
import ypa.young as yg
from ypa.tangle import evaluate
from ypa.young import (
    LiteralError,
    LoopPath,
    as_partition,
    box_content,
    check_int,
    diagrams_of_weight,
    diagrams_up_to,
    dim,
    down_covers,
    enumerate_loops,
    format_diagram,
    format_loop,
    is_diagram,
    parse_diagram,
    parse_loop,
    profile,
    skew_dims,
    transpose,
    up_covers,
    weight,
)


def test_transpose_examples():
    assert transpose((5, 4, 2, 1, 1)) == (5, 3, 2, 2, 1)
    assert transpose(()) == ()
    assert transpose((3,)) == (1, 1, 1)


def test_profile_examples():
    assert profile((5, 4, 2, 1, 1)) == ((-5, -2, 0, 3, 5), (-4, -1, 2, 4))
    assert profile(()) == ((0,), ())
    assert profile((1,)) == ((-1, 1), (0,))


def test_covers_examples():
    assert up_covers(()) == (((1,), 0),)
    assert set(up_covers((1,))) == {((2,), 1), ((1, 1), -1)}
    assert set(down_covers((2, 1))) == {((2,), -1), ((1, 1), 1)}


def test_dim_examples():
    assert dim(()) == 1
    assert dim((2, 1)) == 2
    assert dim((3, 1)) == 3


def test_dim_of_a_long_diagram_needs_no_recursion():
    dim.cache_clear()
    assert dim((1000,)) == 1
    assert dim((1000, 1)) == 1000


def test_dim_is_the_path_count():
    # dim is the hook-length formula; skew_dims counts the paths themselves.
    for lam in diagrams_up_to(12):
        assert dim(lam) == skew_dims(lam, 0)[()]


def test_dim_of_a_staircase_counts_no_paths():
    # 465 boxes: the path counter would walk every sub-diagram.  The value
    # still obeys the branching rule dim(lam) = sum of dim(mu) over mu -> lam.
    staircase = tuple(range(30, 0, -1))
    assert weight(staircase) == 465
    walked = yg._skew_dims.cache_info().currsize
    assert dim(staircase) == sum(dim(mu) for mu, _ in down_covers(staircase))
    assert yg._skew_dims.cache_info().currsize == walked


def test_skew_dims_split_dim_at_every_level():
    # V^lam restricted to S_k is the sum of f^(lam/mu) copies of V^mu.
    for lam in diagrams_up_to(10):
        n = weight(lam)
        assert skew_dims(lam, 0) == {(): dim(lam)}
        assert skew_dims(lam, n) == {lam: 1}
        for k in range(n + 1):
            level = skew_dims(lam, k)
            assert all(weight(mu) == k for mu in level)
            assert sum(f * dim(mu) for mu, f in level.items()) == dim(lam)


def test_skew_dims_of_a_long_row_need_no_recursion():
    yg._skew_dims.cache_clear()
    assert skew_dims((400,), 0) == {(): 1}
    assert skew_dims((400,), 150) == {(150,): 1}


@pytest.mark.parametrize(
    "lam, k", [((2, 1), 4), ((2, 1), -1), ((2, 1), 1.0), ((2, 1), True), ((1, 2), 0)]
)
def test_skew_dims_rejects_bad_levels_and_non_partitions(lam, k):
    skew_dims((2, 1), 1)  # a cached k = 1 must not answer for True or 1.0
    with pytest.raises(ValueError):
        skew_dims(lam, k)


def test_skew_dims_checks_its_diagram_before_its_cache():
    # (True, 1) equals and hashes as the cached (1, 1).
    assert skew_dims((1, 1), 0) == {(): 1}
    with pytest.raises(ValueError, match=r"not a partition: \(True, 1\)"):
        skew_dims((True, 1), 0)
    assert skew_dims([1, 1], 0) == {(): 1}


def test_profile_invariants_up_to_weight_12():
    for lam in diagrams_up_to(12):
        xs, ys = profile(lam)
        assert len(xs) == len(ys) + 1
        merged = [v for pair in zip(xs, ys) for v in pair] + [xs[-1]]
        assert all(merged[i] < merged[i + 1] for i in range(len(merged) - 1))
        assert sum(xs) == sum(ys)
        assert set(xs) == {c for _, c in up_covers(lam)}
        assert set(ys) == {c for _, c in down_covers(lam)}


def test_two_case_dichotomy():
    # For every length-2 upward path, either the two contents differ by one
    # and no alternative middle exists, or the alternative is unique.
    for lam in diagrams_up_to(6):
        for mu, c1 in up_covers(lam):
            for nu, c2 in up_covers(mu):
                middles = [
                    rho
                    for rho, _ in up_covers(lam)
                    if any(x == nu for x, _ in up_covers(rho))
                ]
                if abs(c2 - c1) == 1:
                    assert middles == [mu]
                else:
                    assert len(middles) == 2 and mu in middles


def test_transpose_involution_and_weight():
    for lam in diagrams_up_to(9):
        assert transpose(transpose(lam)) == lam
        assert weight(transpose(lam)) == weight(lam)


def test_box_content():
    assert box_content((2, 1), (1, 1)) == 1
    assert box_content((2, 1), (2,)) == -1
    with pytest.raises(ValueError):
        box_content((2, 2), (1, 1, 1))
    with pytest.raises(ValueError):
        box_content((3,), (1,))


def test_box_content_is_the_differing_cell():
    def cells(lam):
        return {(i, j) for i, part in enumerate(lam) for j in range(part)}

    diagrams = diagrams_up_to(7)
    for big in diagrams:
        for small in diagrams:
            if weight(big) != weight(small) + 1:
                continue
            if cells(small) <= cells(big):
                ((i, j),) = cells(big) - cells(small)
                assert box_content(big, small) == j - i
            else:
                with pytest.raises(ValueError, match="does not cover"):
                    box_content(big, small)


def test_enumerate_loops_examples():
    loops = enumerate_loops((2, 1), (-1, 1))
    assert len(loops) == 2
    assert enumerate_loops((), (1, -1)) == [
        LoopPath(((), (1,), ()), (1, -1))
    ]
    assert enumerate_loops((), (-1, 1)) == []


def test_enumerate_loops_reads_a_list_base_as_its_tuple():
    # A list base once raised TypeError: unhashable type: 'list'.
    assert enumerate_loops([2, 1], (-1, 1)) == enumerate_loops((2, 1), (-1, 1))
    assert enumerate_loops([], ()) == [LoopPath(((),), ())]


def test_enumerate_loops_rejects_a_true_part_after_warm_covers():
    # (True, 1) equals and hashes as (1, 1); with the covers of (1, 1)
    # cached, it once gave the loop ((True, 1), (1,), (1, 1)).
    up_covers((1, 1)), down_covers((1, 1))
    for sig in ((-1, 1), (1, -1), ()):
        with pytest.raises(ValueError, match="not a partition"):
            enumerate_loops((True, 1), sig)


def _walked_loops(base, sig):
    """Every loop of the signature at the base, walking the cover maps to
    the full length and keeping the walks that end at the base."""
    walks = [(base,)]
    for s in sig:
        walks = [
            walk + (mu,)
            for walk in walks
            for mu, _ in (up_covers(walk[-1]) if s > 0 else down_covers(walk[-1]))
        ]
    return [LoopPath(walk, sig) for walk in sorted(walks) if walk[-1] == base]


def test_enumerate_loops_equals_a_full_walk():
    # Every sign vector of length <= 4, balanced or not, and the relations'.
    sign_vectors = {signs for n in range(5) for signs in product((1, -1), repeat=n)}
    signatures = sign_vectors | {sides.signature for sides in hs.RELATIONS.values()}
    loops = 0
    for sig in sorted(signatures):
        for base in diagrams_up_to(6):
            if sum(sig):
                with pytest.raises(ValueError, match="does not sum to 0"):
                    enumerate_loops(base, sig)
                continue
            got = enumerate_loops(base, sig)
            assert got == _walked_loops(base, sig), (base, sig)
            loops += len(got)
    assert len(signatures) == 32 and loops == 1638


def test_loop_validation():
    with pytest.raises(ValueError):
        LoopPath(((), (1,)), (1,))  # open path, not a loop
    with pytest.raises(ValueError):
        LoopPath(((1,), (1, 1), (1,)), (-1, 1))  # wrong step direction


def test_a_loop_stores_each_diagram_as_a_tuple():
    # A list diagram was once stored as given, and hashing the loop or
    # evaluating a tangle on it raised TypeError; a list step did too.
    loop = LoopPath(([1],), ())
    assert loop.diagrams == ((1,),) and loop == LoopPath(((1,),), ())
    assert hash(loop) == hash(LoopPath(((1,),), ()))
    assert evaluate(hs.LEFT_CIRCLE, loop, pl.PLANCHEREL) == evaluate(
        hs.LEFT_CIRCLE, LoopPath(((1,),), ()), pl.PLANCHEREL
    )
    step = LoopPath(((1,), [2], (1,)), (1, -1))
    assert step.diagrams == ((1,), (2,), (1,))
    assert type(step.diagrams[1]) is tuple
    with pytest.raises(ValueError, match="not a partition"):
        LoopPath(((1,), [1, 2], (1,)), (1, -1))


@pytest.mark.parametrize(
    "diagrams, sig",
    [
        # (True, 1) equals the cover (1, 1) of (2, 1); it once made a loop.
        (((2, 1), (True, 1), (2, 1)), (-1, 1)),
        (((True, 1), (1,), (True, 1)), (-1, 1)),
        (((2, 1), (2, 1.0), (2, 1)), (1, -1)),
        (((2, 1), (1, 2), (2, 1)), (-1, 1)),
        (((1, 0),), ()),
    ],
)
def test_every_loop_diagram_is_a_partition(diagrams, sig):
    down_covers((1, 1))  # a cached (1, 1) must not answer for (True, 1)
    with pytest.raises(ValueError, match="not a partition|does not cover"):
        LoopPath(diagrams, sig)


@pytest.mark.parametrize("diagrams", [[(1,)], [(1,), (2,), (1,)], "x"])
def test_loop_diagrams_must_be_a_tuple(diagrams):
    sig = (1, -1) if len(diagrams) == 3 else ()
    with pytest.raises(ValueError, match="loop diagrams must be a tuple"):
        LoopPath(diagrams, sig)


def test_enumerated_loops_equal_checked_loops():
    # enumerate_loops builds its loops without re-checking their steps; each
    # must equal, and hash like, the LoopPath that checks them.
    signatures = {sides.signature for sides in hs.RELATIONS.values()} | {(-1, 1)}
    loops = [
        loop
        for sig in signatures
        for base in diagrams_up_to(6)
        for loop in enumerate_loops(base, sig)
    ]
    for loop in loops:
        checked = LoopPath(loop.diagrams, loop.signature)
        assert loop == checked and hash(loop) == hash(checked)
    assert len(loops) == 837  # the loops ypa verify --relation all checks at weight 6


# A sign is the int 1 or -1; anything else raises and names it.  Before,
# every other value read as -1, so (1, 0) balanced and gave loops.
@pytest.mark.parametrize(
    "probe, bad",
    [
        (lambda: enumerate_loops((), (1, 0)), "0"),
        (lambda: enumerate_loops((1,), (1, 2)), "2"),
        (lambda: enumerate_loops((1,), ("x", "-")), "'x'"),
        (lambda: enumerate_loops((1,), (True, -1)), "True"),
        (lambda: enumerate_loops((1,), (1.0, -1)), "1.0"),
        (lambda: enumerate_loops((1,), (1, 0)), "0"),
        (lambda: LoopPath(((1,), (2,), (1,)), (5, -5)), "5"),
        (lambda: LoopPath(((1,), (2,), (1,)), ("+", "-")), "'+'"),
        (lambda: LoopPath(((1,), (2,), (1,)), (True, -1)), "True"),
    ],
)
def test_only_plus_and_minus_one_are_signs(probe, bad):
    with pytest.raises(ValueError, match=rf"sign {re.escape(bad)}"):
        probe()


def test_loops_take_no_text_signs():
    # '+' and '-' once read as 1 and -1 here; check_signature is the one rule.
    with pytest.raises(ValueError, match=r"^loop sign '\+' is not 1 or -1$"):
        enumerate_loops((1,), ("+", "-"))


# Every reader of the Young graph goes through the cover maps, which reject
# a tuple that is not a partition; before, each of these gave a number.
@pytest.mark.parametrize(
    "probe",
    [
        lambda: hs.cumulant_diagram((1, 2), 0),
        lambda: hs.character_tangle((1, 2), (1,)),
        lambda: pl.moment((1, 2), 2),
        lambda: fr.satellite_I((1, 2), 2),
        lambda: fr.radial_I((1, 2), 2),
        lambda: dim((1, 2)),
        lambda: pl.f_pl((1, 2)),
        lambda: up_covers((1, 2)),
        lambda: LoopPath(((1, 2), (1, 1), (1, 2)), (-1, 1)),
        lambda: LoopPath(((1, 2),), ()),
        lambda: enumerate_loops((1, 2), (-1, 1)),
    ],
)
def test_non_partitions_raise(probe):
    with pytest.raises(ValueError, match=r"not a partition: \(1, 2\)"):
        probe()


def test_profile_checks_its_diagram_before_its_cache():
    # (True, 1) equals and hashes as (1, 1), so a check behind the cache
    # would answer it from the entry of (1, 1).
    assert profile((1, 1)) == ((-2, 1), (-1,))
    with pytest.raises(ValueError, match=r"not a partition: \(True, 1\)"):
        profile((True, 1))
    assert profile([1, 1]) == profile((1, 1))


_PARTS = (-1, 0, 1, 2, 3, True, False, 2.0, 1.0, Fraction(3, 2), Fraction(2), "1", None)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.sampled_from(_PARTS), max_size=5))
def test_is_diagram_is_the_partition_rule(parts):
    parts = tuple(parts)
    spelled_out = all(type(p) is int and p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )
    assert is_diagram(parts) == spelled_out


def test_as_partition_takes_int_parts_only():
    assert as_partition([3, 1, 1]) == (3, 1, 1)
    assert as_partition(()) == ()
    for bad in ((True, True), (2, True), (True,), (2.0, 1), (2, 0), (1, 2)):
        with pytest.raises(ValueError, match="not a partition"):
            as_partition(bad)


def test_literals_round_trip():
    assert parse_diagram("[5,4,2,1,1]") == (5, 4, 2, 1, 1)
    assert parse_diagram("[]") == ()
    loop = parse_loop("[2,1] v [2] v [1] ^ [1,1] ^ [2,1]")
    assert loop.signature == (-1, -1, 1, 1)
    assert format_loop(loop) == "[2,1] v [2] v [1] ^ [1,1] ^ [2,1]"
    assert format_diagram(()) == "[]"
    with pytest.raises(ValueError):
        parse_diagram("[2,3]")
    with pytest.raises(ValueError):
        parse_loop("[1] ^")
    with pytest.raises(ValueError):
        parse_loop("[1] x [2]")


@given(st.lists(st.integers(min_value=1, max_value=8), max_size=6))
def test_transpose_involution_random(parts):
    lam = tuple(sorted((p for p in parts), reverse=True))
    assert transpose(transpose(lam)) == lam


def test_diagram_counts():
    assert [len(diagrams_up_to(n)) for n in range(6)] == [1, 2, 4, 7, 12, 19]


@given(st.lists(st.integers(min_value=0, max_value=6), max_size=5))
def test_diagram_literal_round_trip_or_literal_error(parts):
    # A literal parses to exactly its parts or raises; zero parts and
    # increasing parts are never silently repaired.
    text = "[" + ",".join(str(p) for p in parts) + "]"
    lam = tuple(parts)
    if all(p > 0 for p in lam) and list(lam) == sorted(lam, reverse=True):
        assert parse_diagram(text) == lam
        assert format_diagram(lam) == text
    else:
        with pytest.raises(LiteralError, match=re.escape(str(parts))):
            parse_diagram(text)


@given(
    st.sampled_from(diagrams_up_to(4)),
    st.sampled_from([(-1, 1), (1, -1), (-1, -1, 1, 1), (1, -1, 1, -1), (-1, 1, 1, -1)]),
    st.data(),
)
def test_loop_literal_round_trip(base, signature, data):
    loops = enumerate_loops(base, signature)
    assume(loops)
    loop = data.draw(st.sampled_from(loops))
    assert parse_loop(format_loop(loop)) == loop


def test_loop_literal_takes_the_diagram_literals_of_parse_diagram():
    assert parse_diagram("[2, 1]") == (2, 1)
    assert parse_loop("[2, 1] v [2] ^ [2, 1]") == parse_loop("[2,1]v[2]^[2,1]")
    for bad in ("[2, 1", "[1] ^ ^ [1]", "[1] [1]", "v [1]", "[1] v", "[1]\u00a0x"):
        with pytest.raises(LiteralError):
            parse_loop(bad)


@given(
    st.sampled_from(diagrams_up_to(4)),
    st.sampled_from([(), (-1, 1), (1, -1), (-1, -1, 1, 1), (1, -1, 1, -1)]),
    st.data(),
)
def test_loop_literal_reads_any_whitespace_between_tokens(base, signature, data):
    loops = enumerate_loops(base, signature)
    assume(loops)
    loop = data.draw(st.sampled_from(loops))
    blank = st.text(alphabet=" \t\n", max_size=3)
    # Whitespace may go anywhere but inside a number.
    compact = format_loop(loop).replace(" ", "")
    text = data.draw(blank)
    for a, b in zip(compact, compact[1:] + " "):
        text += a if a.isdigit() and b.isdigit() else a + data.draw(blank)
    assert parse_loop(text) == loop


@given(
    st.lists(
        st.sampled_from(["[]", "[1]", "[2]", "[1,1]", "[2,1]", "[1,2]", "[0]", "^", "v", "x"]),
        max_size=7,
    )
)
def test_loop_literal_parses_exactly_or_raises_literal_error(tokens):
    text = " ".join(tokens)
    try:
        loop = parse_loop(text)
    except LiteralError:
        return
    assert format_loop(loop) == text


# Every public int parameter goes through young.check_int: True is not 1,
# False is not 0, and 2.0 is not 2.  Before, moment((2, 1), True) gave M_1,
# cumulant_diagram((2, 1), False) gave B_2 and moment_by_measure gave a float.
@pytest.mark.parametrize(
    "fn, args, name",
    [
        (pl.moment, ((2, 1), True), "moment index"),
        (pl.boolean_cumulant, ((2, 1), True), "cumulant index"),
        (pl.moment_by_measure, ((2, 1), True), "n"),
        (pl.boolean_cumulant_by_measure, ((2, 1), True), "n"),
        (hs.verify_relation, ("ybe", True), "max_weight"),
        (hs.verify_relation, ("ybe", 3, True), "jobs"),
        (hs.cycle_program, (True,), "k"),
        (hs.moment_diagram, ((2, 1), True), "k"),
        (hs.cumulant_diagram, ((2, 1), True), "k"),
        (hs.kerov_boolean_expansion, ((2,), True), "sample_weight"),
        (diagrams_of_weight, (True,), "n"),
        (diagrams_up_to, (True,), "n"),
        (pl.moment_by_measure, ((2, 1), False), "n"),
        (hs.cumulant_diagram, ((2, 1), False), "k"),
        (hs.kerov_boolean_expansion, ((2,), False), "sample_weight"),
        (diagrams_of_weight, (False,), "n"),
        (diagrams_up_to, (False,), "n"),
        (pl.moment, ((2, 1), 2.0), "moment index"),
        (pl.boolean_cumulant, ((2, 1), 2.0), "cumulant index"),
        (pl.moment_by_measure, ((2, 1), 2.0), "n"),
        (pl.boolean_cumulant_by_measure, ((2, 1), 2.0), "n"),
        (hs.verify_relation, ("ybe", 2.0), "max_weight"),
        (hs.verify_relation, ("ybe", 3, 2.0), "jobs"),
        (hs.cycle_program, (2.0,), "k"),
        (hs.moment_diagram, ((2, 1), 2.0), "k"),
        (hs.cumulant_diagram, ((2, 1), 2.0), "k"),
        (hs.kerov_boolean_expansion, ((2,), 2.0), "sample_weight"),
        (diagrams_of_weight, (2.0,), "n"),
        (diagrams_up_to, (2.0,), "n"),
    ],
)
def test_public_int_parameters_take_ints_only(fn, args, name):
    hs.cumulant_diagram((2, 1), 1)  # a cached k = 1 must not answer for True
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        fn(*args)


def test_check_int_names_the_parameter_and_its_bound():
    assert check_int("n", 0) == 0 and check_int("n", 3, 1) == 3
    with pytest.raises(ValueError, match=r"^n must be an int, got True$"):
        check_int("n", True, 0)
    with pytest.raises(ValueError, match=r"^jobs must be >= 1$"):
        check_int("jobs", 0, 1)
    assert diagrams_up_to(-1) == []
    with pytest.raises(ValueError, match=r"^n must be >= 0$"):
        diagrams_of_weight(-1)


def _int_type_tests(path: Path) -> list[int]:
    """Lines of path comparing type(...) with int by `is` or `is not`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Call)
        and getattr(node.left.func, "id", None) == "type"
        and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(getattr(c, "id", None) == "int" for c in node.comparators)
    ]


def test_the_int_rule_lives_in_young():
    # check_int, check_signature and as_partition hold every int rule, so a
    # copy of it in another module is a second rule that can drift.
    src = Path(pl.__file__).parent
    found = {p.name: _int_type_tests(p) for p in sorted(src.glob("*.py"))}
    assert found["young.py"]
    assert {name: lines for name, lines in found.items() if lines and name != "young.py"} == {}
