import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ypa.heisenberg as hs
from ypa import tangle
from ypa.heisenberg import BUILTIN_ELEMENTS, CROSS, RELATION_IDS, cross, programs, relation_sides
from ypa.plancherel import PLANCHEREL, HarmonicFunction, f_pl
from ypa.surd import Surd, sqrt_fraction, squarefree_split
from ypa.tangle import (
    Element,
    TangleError,
    TangleProgram,
    _tokenize,
    as_element,
    evaluate,
    parse,
    parse_programs,
)
from ypa.young import (
    LoopPath,
    box_content,
    diagrams_up_to,
    down_covers,
    enumerate_loops,
    parse_loop,
    up_covers,
)

ONE = Surd.from_rational(1)


def _base_loop(lam):
    return LoopPath((lam,), ())


def _one_row_mix(lam):
    # Harmonicity is linear, so the Plancherel function plus the indicator of
    # at-most-one-row diagrams (the extreme one-row boundary point) is again
    # harmonic, and it is strictly positive.
    return f_pl(lam) + (1 if len(lam) <= 1 else 0)


ONE_ROW_MIX = HarmonicFunction("plancherel+row", _one_row_mix)


def test_parse_left_circle_valid():
    prog = parse("tangle leftcircle : () { row cup_du; row cap; }")
    assert prog.name == "leftcircle"
    assert prog.signature == ()


def test_parse_leftover_strands_error():
    with pytest.raises(TangleError, match="2 strands remain"):
        parse("tangle bad : () { row cup_du; }")


def test_parse_box_signature():
    prog = parse("tangle tt : (-,-,+,+) { row box cross; }", BUILTIN_ELEMENTS)
    assert prog.signature == (-1, -1, 1, 1)


def test_parse_cap_orientation_mismatch():
    # Signature (-,-,+,+) gives strands up,up,down,down: capping the first
    # two means capping same-direction strands.
    with pytest.raises(TangleError, match="same-direction"):
        parse("tangle bad : (-,-,+,+) { row cap | |; row cap; }")


def test_parse_unbound_box():
    with pytest.raises(TangleError, match="unbound box"):
        parse("tangle bad : (-,-,+,+) { row box nosuch; }")


def test_parse_box_leg_mismatch():
    with pytest.raises(TangleError, match="legs"):
        parse("tangle bad : (-,+,-,+) { row box cross; }", BUILTIN_ELEMENTS)


def test_parse_syntax_error_has_position():
    with pytest.raises(TangleError, match="line"):
        parse("tangle bad : () {\n row zap; }")


def test_parse_comments_and_multiple_programs():
    progs = parse_programs(
        """
        # circle going the harmonic way
        tangle a : () { row cup_du; row cap; }
        tangle b : () { row cup_ud; row cap; }
        """,
        {},
    )
    assert sorted(progs) == ["a", "b"]


def test_left_circle_is_one_everywhere():
    prog = parse("tangle c : () { row cup_du; row cap; }")
    for lam in diagrams_up_to(8):
        assert evaluate(prog, _base_loop(lam), PLANCHEREL) == ONE


def test_left_circle_for_another_harmonic_function():
    # The left-circle value is 1 for any harmonic function.
    f = ONE_ROW_MIX
    for lam in diagrams_up_to(7):
        assert f(lam) == sum(f(mu) for mu, _ in up_covers(lam))
    prog = parse("tangle c : () { row cup_du; row cap; }")
    for lam in diagrams_up_to(7):
        assert evaluate(prog, _base_loop(lam), f) == ONE


def test_every_weight_reads_the_evaluated_f():
    # Cups, caps and the crossing boxes all read the f given to evaluate, so
    # the relations that hold for any harmonic function hold under a second
    # one; the others need Plancherel and must fail somewhere.
    def side(terms, loop):
        total = Surd()
        for coef, prog in terms:
            total = total + evaluate(prog, loop, ONE_ROW_MIX) * Fraction(coef)
        return total

    for name in RELATION_IDS:
        sides = relation_sides(name)
        differ = [
            loop
            for base in diagrams_up_to(5)
            for loop in enumerate_loops(base, sides.signature)
            if side(sides.lhs, loop) != side(sides.rhs, loop)
        ]
        if name in ("ind_ind", "ybe", "left_circle"):
            assert not differ, (name, differ[:3])
        else:
            assert differ, name


def test_clockwise_circle_is_weight():
    prog = parse("tangle c : () { row cup_ud; row cap; }")
    v = evaluate(prog, _base_loop((2, 1)), PLANCHEREL)
    assert v == Surd.from_rational(3)
    for lam in diagrams_up_to(6):
        assert evaluate(prog, _base_loop(lam), PLANCHEREL) == Surd.from_rational(
            sum(lam)
        )


def test_dotted_circle_first_moment_vanishes():
    prog = parse("tangle c : () { row cup_du; row * |; row cap; }")
    assert evaluate(prog, _base_loop(()), PLANCHEREL).is_zero()
    for lam in diagrams_up_to(6):
        assert evaluate(prog, _base_loop(lam), PLANCHEREL).is_zero()


def test_empty_signature_program_loop_mismatch():
    prog = parse("tangle c : () { row cup_du; row cap; }")
    loop = parse_loop("[1] v [] ^ [1]")
    with pytest.raises(TangleError, match="signature"):
        evaluate(prog, loop, PLANCHEREL)


def test_bent_strand_equals_straight():
    straight = parse("tangle s : (-,+) { row cap; }")
    bent = parse("tangle b : (-,+) { row cup_du@1; row cap | |; row cap; }")
    for base in diagrams_up_to(6):
        for loop in enumerate_loops(base, (-1, 1)):
            assert evaluate(bent, loop, PLANCHEREL) == evaluate(
                straight, loop, PLANCHEREL
            )


def test_arc_element_value():
    # The single arc carries the weight sqrt(f(inner)/f(outer)).
    arc = parse("tangle arc : (-,+) { row cap; }")
    loop = parse_loop("[2] v [1] ^ [2]")
    assert evaluate(arc, loop, PLANCHEREL) == sqrt_fraction(
        f_pl((1,)) / f_pl((2,))
    )


def test_composition_consistency_two_legs():
    # A boxed sub-tangle evaluates like the flattened program.
    sub = parse("tangle sub : (-,+) { row cap; }")
    sub_elem = as_element(sub)
    outer = parse("tangle o : () { row cup_ud; row box sub; }", {"sub": sub_elem})
    flat = parse("tangle f : () { row cup_ud; row cap; }")
    for lam in diagrams_up_to(5):
        assert evaluate(outer, _base_loop(lam), PLANCHEREL) == evaluate(
            flat, _base_loop(lam), PLANCHEREL
        )


def test_composition_consistency_four_legs():
    sub = parse("tangle sub : (-,-,+,+) { row | cap |; row cap; }")
    sub_elem = as_element(sub)
    outer = parse(
        "tangle o : (-,+) { row cup_ud@1; row box sub; }", {"sub": sub_elem}
    )
    flat = parse("tangle f : (-,+) { row cup_ud@1; row | cap |; row cap; }")
    for base in diagrams_up_to(5):
        for loop in enumerate_loops(base, (-1, 1)):
            assert evaluate(outer, loop, PLANCHEREL) == evaluate(
                flat, loop, PLANCHEREL
            )


def test_closed_dot_diagrams_are_rational():
    for dots in range(4):
        for kind in ("cup_du", "cup_ud"):
            rows = [f"row {kind};"] + ["row * |;"] * dots + ["row cap;"]
            prog = parse(f"tangle c : () {{ {' '.join(rows)} }}")
            for lam in diagrams_up_to(5):
                assert evaluate(prog, _base_loop(lam), PLANCHEREL).is_rational()


def test_cups_at_one_gap_compile_in_the_order_they_evaluate():
    # Listed order reads west to east: cup_du's (down, up) pair lies west of
    # cup_ud's (up, down) pair, for the leg check and the state sum alike.
    lam = (2, 1)
    seen = []

    def legs_value(loop, f):
        seen.append(loop.diagrams)
        return ONE

    box = Element("X", (-1, 1, 1, -1), legs_value)
    prog = parse("tangle t : () { row cup_du@0 cup_ud@0; row box X; }", {"X": box})
    f = PLANCHEREL.value
    ups = sum((sqrt_fraction(f(t) / f(lam)) for t, _ in up_covers(lam)), Surd())
    downs = sum((sqrt_fraction(f(s) / f(lam)) for s, _ in down_covers(lam)), Surd())
    assert evaluate(prog, _base_loop(lam), PLANCHEREL) == ups * downs
    assert {(d[1], d[3]) for d in seen} == {
        (s, t) for s, _ in down_covers(lam) for t, _ in up_covers(lam)
    }


def test_a_box_with_several_radicands_fans_out():
    # Each term of a box's value is its own state; through two cup-box
    # rounds the radicands multiply, so the state sum must give the Surd
    # product of the cups' weights and the box value, squared.
    value = ONE + sqrt_fraction(Fraction(2))
    box = Element("X", (-1, 1), lambda loop, f: value)
    prog = parse(
        "tangle t : () { row cup_ud; row box X; row cup_ud; row box X; }", {"X": box}
    )
    f = PLANCHEREL.value
    for lam in diagrams_up_to(5):
        downs = sum((sqrt_fraction(f(s) / f(lam)) for s, _ in down_covers(lam)), Surd())
        got = evaluate(prog, _base_loop(lam), PLANCHEREL)
        assert got == downs * value * downs * value
        assert len(got.terms) > 1 or not lam


def _signed_box(lam, terms):
    """The box lam v mu ^ lam that undoes the cup's weight and gives
    terms(+1) on the first cover mu of lam, terms(-1) on the other."""
    first = down_covers(lam)[0][0]

    def fn(loop, f):
        mu = loop.diagrams[1]
        undo = sqrt_fraction(f.value(lam) / f.value(mu))
        return undo * terms(1 if mu == first else -1)

    return Element("X", (-1, 1), fn)


@pytest.mark.parametrize("lam", [(2, 1), (3, 1), (2, 2, 1)])
def test_a_radicand_whose_paths_cancel_drops(lam):
    assert len(down_covers(lam)) == 2
    root2 = sqrt_fraction(Fraction(2))
    src = "tangle t : () { row cup_ud; row box X; }"

    half = _signed_box(lam, lambda sign: ONE + root2 * sign)
    got = evaluate(parse(src, {"X": half}), _base_loop(lam), PLANCHEREL)
    assert got == Surd.from_rational(2) and got.terms == {1: 2}

    whole = _signed_box(lam, lambda sign: (ONE + root2) * sign)
    got = evaluate(parse(src, {"X": whole}), _base_loop(lam), PLANCHEREL)
    assert got == Surd() and got.is_zero()


def test_empty_program_is_constant_one():
    prog = parse("tangle e : () { }")
    assert prog.steps == ()
    assert evaluate(prog, _base_loop((3, 1)), PLANCHEREL) == ONE


def test_unclosed_final_state_is_a_tangle_error():
    # Only a program built by hand, not parsed, can leave strands open;
    # the evaluator raises rather than asserts, so the check survives -O.
    prog = TangleProgram("raw", (-1, 1), ())
    with pytest.raises(TangleError, match="ends in state"):
        evaluate(prog, parse_loop("[1] v [] ^ [1]"), PLANCHEREL)


def test_as_element_signature_check():
    sub = parse("tangle sub : (-,+) { row cap; }")
    elem = as_element(sub)
    with pytest.raises(TangleError, match="signature"):
        elem.fn(parse_loop("[1] ^ [2] v [1]"), PLANCHEREL)


@pytest.mark.parametrize(
    "signature, message",
    [
        ((1, 0), "sign 0 is not 1 or -1"),
        ((1, 1), r"signature \(1, 1\) does not sum to 0"),
        ((True, -1), "sign True is not 1 or -1"),
        ((2, -2), "sign 2 is not 1 or -1"),
        ([-1, 1], "signature must be a tuple"),
    ],
)
def test_an_element_rejects_a_bad_signature(signature, message):
    with pytest.raises(ValueError, match=message):
        Element("X", signature, lambda loop, f: ONE)


def test_the_crossing_runs_once_per_distinct_window():
    windows = []

    def counted(loop, f):
        windows.append(loop.diagrams)
        return cross(loop, f)

    src = """
    tangle ind_ind_lhs : (-,-,+,+) {
      row cup_du@2;
      row cup_du@3;
      row box C | | | |;
      row box C;
    }
    """
    prog = parse(src, {"C": Element("C", CROSS.signature, counted)})
    loops = [
        loop
        for base in diagrams_up_to(5)
        for loop in enumerate_loops(base, prog.signature)
    ]
    for _ in range(2):
        for loop in loops:
            want = evaluate(programs()["ind_ind_lhs"], loop, PLANCHEREL)
            assert evaluate(prog, loop, PLANCHEREL) == want
    assert len(windows) == len(set(windows)) > 0


def test_a_box_value_is_kept_apart_per_harmonic_function():
    box = Element("X", (-1, 1), lambda loop, f: ONE * (1 if f == PLANCHEREL else 2))
    prog = parse("tangle t : (-,+) { row box X; }", {"X": box})
    loops = [
        loop for base in diagrams_up_to(4) for loop in enumerate_loops(base, (-1, 1))
    ]
    for _ in range(2):
        for loop in loops:
            for f, want in ((PLANCHEREL, 1), (ONE_ROW_MIX, 2), (PLANCHEREL, 1)):
                assert evaluate(prog, loop, f) == ONE * want


def test_a_box_that_raises_raises_on_every_evaluation():
    calls = []

    def fails(loop, f):
        calls.append(loop)
        raise ArithmeticError("no value here")

    prog = parse("tangle t : (-,+) { row box X; }", {"X": Element("X", (-1, 1), fails)})
    loop = parse_loop("[1] v [] ^ [1]")
    for count in range(1, 4):
        with pytest.raises(ArithmeticError, match="no value here"):
            evaluate(prog, loop, PLANCHEREL)
        assert len(calls) == count


@pytest.mark.parametrize(
    "source, message, position",
    [
        ("tangle t : (-,+) { row |; }", "untiled in a row", (1, 24)),
        ("tangle t : (-,+) { row cap cup_du@1; }", "inside a cap/box span", (1, 28)),
        ("tangle t : (-,+) { row cap; row cup_du; }", "after the last row", (1, 33)),
        ("tangle t : (-,+) { }", "after the last row", (1, 8)),
        ("tangle t : (-,-) { }", "must sum to zero", (1, 16)),
        ("tangle t : () {\n  row ; }", "empty row", (2, 3)),
        ("tangle t : () { row cup_du", "unterminated row", (1, 21)),
        ("tangle t : () { row cup_du; row cap;", "unterminated tangle body", (1, 36)),
        ("tangle t : (", "unexpected end of input", (1, 12)),
        ("tangle t : () { row cup_du@\u00b2; row cap; }", "unexpected character", (1, 28)),
        ("tangle t : () {\n row cup_du@\u0661; row cap; }", "unexpected character", (2, 13)),
        ("tangle caf\u00e9 : () { }", "unexpected character", (1, 11)),
    ],
)
def test_every_parse_and_compile_error_has_a_position(source, message, position):
    with pytest.raises(TangleError, match=message) as info:
        parse_programs(source)
    err = info.value
    assert err.line is not None
    assert (err.line, err.col) == position


def test_a_source_reports_its_first_error_in_reading_order():
    # The box in the first row is checked as it is read, before the second
    # row's syntax error, or its unexpected character, is reached.
    for row in ("foo", "\u00e9"):
        with pytest.raises(TangleError) as info:
            parse(f"tangle t : (-,+) {{ row box nope; row {row}; }}")
        assert str(info.value) == "line 1, col 24: unbound box name 'nope'"


def _readme_tangle_blocks():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    return [b for b in blocks if b.startswith("tangle")]


def test_readme_tangle_blocks_parse():
    blocks = _readme_tangle_blocks()
    assert blocks
    for block in blocks:
        assert parse_programs(block, BUILTIN_ELEMENTS)


def test_rebinding_a_name_is_an_error():
    text = "tangle a : () { }\ntangle a : () { row cup_du; row cap; }"
    with pytest.raises(TangleError, match="line 2, col 8: .*'a' is already bound"):
        parse_programs(text)
    with pytest.raises(TangleError, match="line 1, col 8: .*'cross' is already bound"):
        parse_programs("tangle cross : (-,+) { row cap; }", BUILTIN_ELEMENTS)


def test_earlier_tangles_are_boxes_under_the_callers_f():
    progs = parse_programs(
        "tangle arc : (-,+) { row cap; }\n"
        "tangle boxed : () { row cup_ud; row box arc; }\n"
        "tangle flat : () { row cup_ud; row cap; }"
    )
    for f in (PLANCHEREL, ONE_ROW_MIX):
        for lam in diagrams_up_to(4):
            loop = _base_loop(lam)
            assert evaluate(progs["boxed"], loop, f) == evaluate(progs["flat"], loop, f)


_DSL_TOKENS = (
    "tangle", "t", "u", ":", "(", ")", "+", "-", ",", "{", "}", "row", ";", "|",
    "*", "cap", "cup_du", "cup_ud", "@", "0", "1", "2", "3", "box", "cross",
    "cross_id", "cross_ex", "dot", "\n", "#", "$",
)
# Atoms with the number of strands each consumes and the number it removes.
_ATOMS = (
    ("|", 1, 0), ("*", 1, 0), ("cap", 2, 2), ("box dot", 2, 2),
    ("box cross", 4, 4), ("box cross_id", 4, 4), ("box cross_ex", 4, 4),
)
_PASS, _CAP = _ATOMS[0], _ATOMS[2]


@st.composite
def _row_layers(draw):
    """Signs and rows of a program whose rows tile the strands: a row is a cup
    or a list of (atom, arity, removed); orientations are left to chance."""
    k = draw(st.integers(0, 2))
    signs = draw(st.permutations("+" * k + "-" * k))
    n, rows = 2 * k, []
    for _ in range(draw(st.integers(0, 4))):
        if n == 0 or draw(st.booleans()):
            cup = draw(st.sampled_from(["cup_du", "cup_ud"]))
            gap = draw(st.one_of(st.just(""), st.integers(0, n).map("@{}".format)))
            rows.append(cup + gap)
            n += 2
            continue
        atoms, left = [], n
        while left:
            fitting = [a for a in _ATOMS if a[1] <= left]
            atom = draw(st.sampled_from(fitting))
            atoms.append(atom)
            left, n = left - atom[1], n - atom[2]
        rows.append(atoms)
    for t in range(n // 2, 0, -1):  # close with nested caps
        rows.append([_PASS] * (t - 1) + [_CAP] + [_PASS] * (t - 1))
    return signs, rows


def _source(signs, rows) -> str:
    body = " ".join(
        f"row {row if isinstance(row, str) else ' '.join(a for a, _, _ in row)};"
        for row in rows
    )
    return f"tangle t : ({','.join(signs)}) {{ {body} }}"


_row_program = _row_layers().map(lambda layers: _source(*layers))


def _one_atom_per_row(rows):
    """Each tiling row as one row per non-pass atom, from the east end, with
    ``|`` on every other strand."""
    out = []
    for row in rows:
        if isinstance(row, str):
            out.append(row)
            continue
        east = 0  # strands east of the atom once the atoms east of it are done
        for i in reversed(range(len(row))):
            if row[i] != _PASS:
                west = sum(arity for _, arity, _ in row[:i])
                out.append([_PASS] * west + [row[i]] + [_PASS] * east)
            east += row[i][1] - row[i][2]
    return out


_DSL_ALPHABET = "abcdeinoprtuwxyz_ABXYZ0123456789{}():;,@|*+- \t\r\n#"


@settings(deadline=None)
@given(st.text(alphabet=_DSL_ALPHABET, max_size=60))
def test_tokens_point_at_their_text(source):
    lines = source.split("\n")
    for _kind, value, line, col in _tokenize(source):
        assert lines[line - 1][col - 1 : col - 1 + len(value)] == value


@settings(deadline=None, max_examples=400)
@given(st.one_of(st.lists(st.sampled_from(_DSL_TOKENS)).map(" ".join), _row_program))
def test_dsl_fuzz_parses_and_evaluates_or_raises_tangle_error(text):
    try:
        prog = parse(text, BUILTIN_ELEMENTS)
    except TangleError:
        return
    for base in diagrams_up_to(3):
        for loop in enumerate_loops(base, prog.signature):
            try:
                assert isinstance(evaluate(prog, loop, PLANCHEREL), Surd)
            except TangleError:
                pass


@settings(deadline=None, max_examples=400)
@given(_row_layers())
def test_a_row_equals_its_atoms_one_per_row_east_to_west(layers):
    # Planar isotopy: sliding a row's atoms to heights of their own, east one
    # highest, leaves the tangle, and so its value, unchanged.
    signs, rows = layers
    try:
        prog = parse(_source(signs, rows), BUILTIN_ELEMENTS)
    except TangleError:
        return
    split = parse(_source(signs, _one_atom_per_row(rows)), BUILTIN_ELEMENTS)
    for base in diagrams_up_to(3):
        for loop in enumerate_loops(base, prog.signature):
            assert evaluate(split, loop, PLANCHEREL) == evaluate(prog, loop, PLANCHEREL)


def _unpinned(prog: TangleProgram) -> TangleProgram:
    """The program with the same steps and every cup's pin dropped."""
    steps = tuple(
        (kind, p, (x[0], None)) if kind == "cup" else (kind, p, x)
        for kind, p, x in prog.steps
    )
    return TangleProgram(prog.name, prog.signature, steps)


def _value_or_error(prog, loop):
    try:
        return evaluate(prog, loop, PLANCHEREL)
    except TangleError:
        return TangleError


def _assert_pins_keep_every_value(prog):
    plain = _unpinned(prog)
    for base in diagrams_up_to(3):
        for loop in enumerate_loops(base, prog.signature):
            assert _value_or_error(prog, loop) == _value_or_error(plain, loop)


@pytest.mark.parametrize(
    "source, cup",
    [
        # The dot box equates the cup's region with region 1, west of gap 2.
        (
            "tangle w : (+,-) { row cup_du@2; row | box dot |; row cap; }",
            ("cup", 2, ("du", 1)),
        ),
        # ... and here with region 1, east of gap 0.
        (
            "tangle e : (+,-) { row cup_du@0; row | box dot |; row cap; }",
            ("cup", 0, ("du", 1)),
        ),
    ],
)
def test_a_cup_is_pinned_to_the_region_a_later_box_equates_it_with(source, cup):
    prog = parse(source, BUILTIN_ELEMENTS)
    assert prog.steps[0] == cup
    _assert_pins_keep_every_value(prog)
    assert any(
        evaluate(prog, loop, PLANCHEREL)
        for base in diagrams_up_to(3)
        for loop in enumerate_loops(base, prog.signature)
    )


@settings(deadline=None, max_examples=400)
@given(_row_program)
def test_pins_never_change_a_value(source):
    try:
        prog = parse(source, BUILTIN_ELEMENTS)
    except TangleError:
        return
    _assert_pins_keep_every_value(prog)


def _box_flank_checks(prog, loop):
    """The flank check of every region tuple that reaches a box, walking the
    state sum's region tuples alone: a cup inserts each cover, or its pin's
    diagram only, a dot keeps the tuple, and a cap or box keeps the tuples
    whose flanks agree."""
    states, checks = {tuple(reversed(loop.diagrams))}, []
    for kind, p, x in prog.steps:
        if kind == "cup":
            cup, src = x
            covers = up_covers if cup == "du" else down_covers
            states = {
                regs[: p + 1] + (s, regs[p]) + regs[p + 1 :]
                for regs in states
                for s, _ in covers(regs[p])
                if src is None or s == regs[src]
            }
        elif kind != "dot":
            w = 2 if kind == "cap" else len(x.signature)
            if kind == "box":
                checks += [regs[p - 1] == regs[p + w - 1] for regs in states]
            states = {
                regs[:p] + regs[p + w :] for regs in states if regs[p - 1] == regs[p + w - 1]
            }
    return checks


def test_no_state_dies_at_a_box():
    # Each cup a later box equates with an earlier region sums over that
    # region's diagram only, so every state reaching a box passes its flank
    # check on every relation program.
    checks = [
        ok
        for sides in map(relation_sides, RELATION_IDS)
        for _, prog in sides.lhs + sides.rhs
        for base in diagrams_up_to(6)
        for loop in enumerate_loops(base, prog.signature)
        for ok in _box_flank_checks(prog, loop)
    ]
    assert checks and all(checks)


def _oracle_weight(f, inner, outer):
    """``sqrt(f(inner)/f(outer))`` as one ``(radicand, numerator,
    denominator)`` term, the weight of a cup or cap."""
    ((d, c),) = sqrt_fraction(f(inner) / f(outer)).terms.items()
    return d, c.numerator, c.denominator


def _oracle_moves(step, regs, f):
    """The states one step takes ``regs`` to, one ``(regions, radicand,
    numerator, denominator)`` per non-zero term of the step's weight."""
    kind, p, x = step
    if kind == "cup":
        cup, src = x
        region = regs[p]
        for s, _c in up_covers(region) if cup == "du" else down_covers(region):
            if src is None or s == regs[src]:
                out = regs[: p + 1] + (s, region) + regs[p + 1 :]
                yield (out, *_oracle_weight(f, s, region))
    elif kind == "dot":
        w, e = regs[p - 1], regs[p]
        big, small = (e, w) if sum(w) < sum(e) else (w, e)
        c = box_content(big, small)
        if c:  # content 0 annihilates the state
            yield regs, 1, c, 1
    elif kind == "cap":
        if regs[p - 1] == regs[p + 1]:
            yield (regs[:p] + regs[p + 2 :], *_oracle_weight(f, regs[p], regs[p - 1]))
    else:  # box
        q2 = len(x.signature)
        if regs[p - 1] == regs[p + q2 - 1]:
            out = regs[:p] + regs[p + q2 :]
            for term in tangle._box_terms(x, f, regs[p - 1 : p + q2]):
                yield (out, *term)


def _merge_after_every_step(program, loop, f):
    """The state sum with equal states merged and every amplitude reduced
    after every step, the reference for :func:`evaluate`."""
    if loop.signature != program.signature:
        raise TangleError(
            f"loop signature {loop.signature} does not match program "
            f"signature {program.signature}"
        )
    states = {(tuple(reversed(loop.diagrams)), 1): (1, 1)}
    for step in program.steps:
        new_states = {}
        for (regs, d1), (n1, m1) in states.items():
            for out, d2, n2, m2 in _oracle_moves(step, regs, f):
                n, m = n1 * n2, m1 * m2
                if d1 == 1 or d2 == 1:
                    d = d1 * d2
                else:
                    s, d = squarefree_split(d1 * d2)
                    n *= s
                key = (out, d)
                acc = new_states.get(key)
                if acc is None:
                    new_states[key] = n, m
                elif acc[1] == m:
                    new_states[key] = acc[0] + n, m
                else:
                    new_states[key] = acc[0] * m + n * acc[1], acc[1] * m
        states = {}
        for key, (n, m) in new_states.items():
            if n:
                g = gcd(n, m)
                states[key] = n // g, m // g
    terms = {}
    for (regions, d), (n, m) in states.items():
        if len(regions) != 1 or regions[0] != loop.base:
            raise TangleError(
                f"program {program.name!r} ends in state {regions}, "
                f"not the loop base {loop.base}"
            )
        terms[d] = Fraction(n, m)
    return Surd(terms)


def _outcome(run, prog, loop):
    """The terms of the value in order, or the error's class and message."""
    try:
        return list(run(prog, loop, PLANCHEREL).terms.items())
    except TangleError as exc:
        return type(exc), str(exc)


def _assert_merge_order_keeps_every_value(prog, max_weight):
    for base in diagrams_up_to(max_weight):
        for loop in enumerate_loops(base, prog.signature):
            assert _outcome(evaluate, prog, loop) == _outcome(
                _merge_after_every_step, prog, loop
            ), (prog.name, loop)


@settings(deadline=None, max_examples=200)
@given(_row_program)
def test_merging_at_closings_equals_merging_after_every_step(source):
    try:
        prog = parse(source, BUILTIN_ELEMENTS)
    except TangleError:
        return
    _assert_merge_order_keeps_every_value(prog, 3)


@pytest.mark.parametrize(
    "prog",
    [prog for sides in map(relation_sides, RELATION_IDS) for _, prog in sides.lhs + sides.rhs],
    ids=lambda prog: prog.name,
)
def test_relation_programs_merge_as_after_every_step(prog):
    _assert_merge_order_keeps_every_value(prog, 4)


# The closed programs that merge the most, and the right turn: the character
# cycles for every |pi| <= 4, the dotted circles both ways for k <= 4.
_MERGING_PROGRAMS = (
    [hs._character_program(pi) for pi in diagrams_up_to(4)[1:]]
    + [hs._circle_with_dots(kind, k) for kind in ("ccw", "cw") for k in range(5)]
    + [programs()["right_turn"]]
)


def test_merging_programs_merge_as_after_every_step():
    assert len(_MERGING_PROGRAMS) == 22
    for prog in _MERGING_PROGRAMS:
        _assert_merge_order_keeps_every_value(prog, 6)


def test_two_radicands_of_one_region_tuple_enter_a_cup():
    # The box's value 1 + sqrt(2) leaves two states with the same regions,
    # radicands 1 and 2, and the cup opens both.
    two = Element(
        "two", (1, -1), lambda loop, f: Surd({1: Fraction(1), 2: Fraction(1)})
    )
    prog = parse("tangle t : (+,-) { row box two; row cup_du; row cap; }", {"two": two})
    assert [kind for kind, _, _ in prog.steps] == ["box", "cup", "cap"]
    _assert_merge_order_keeps_every_value(prog, 3)
    loop = enumerate_loops((2, 1), prog.signature)[0]
    assert evaluate(prog, loop, PLANCHEREL) == Surd({1: Fraction(1), 2: Fraction(1)})


def _recording(x, received):
    """``x`` under its own name, recording every loop its ``fn`` receives."""

    def fn(loop, f):
        received.append(loop)
        return x.fn(loop, f)

    return Element(x.name, x.signature, fn)


_BOXED_SOURCES = """
tangle dot_on_loop : (-,+) { row box dot; }
tangle dot_in_cup : (+,-) { row | cup_ud |; row | box dot |; row cap; }
tangle dot_in_cups : (-,+) { row cup_du@0; row cup_ud@1; row | box dot | | |; row cap cap; }
tangle cross_on_loop : (-,-,+,+) { row box cross; }
tangle cross_in_cups : (+,+,-,-) {
  row cup_ud@2; row cup_ud@3; row | | box cross | |; row | cap |; row cap;
}
"""


def test_a_box_receives_the_loop_the_checked_constructor_builds():
    # The state sum builds each box window's loop without LoopPath's checks;
    # every one must equal the loop the checked constructor makes of it.
    received = []
    recorders = {x.name: _recording(x, received) for x in (hs.CROSS, hs.DOT)}
    progs = list(parse_programs(_BOXED_SOURCES, recorders).values())
    crossed = ("right_turn", "left_turn_lhs", "ind_res_lhs", "res_ind_lhs", "ybe_lhs")
    progs += [
        TangleProgram(
            prog.name,
            prog.signature,
            tuple((k, p, recorders["cross"] if k == "box" else x) for k, p, x in prog.steps),
        )
        for prog in map(programs().get, crossed)
    ]
    legs = set()
    for prog in progs:
        for base in diagrams_up_to(5):
            for loop in enumerate_loops(base, prog.signature):
                evaluate(prog, loop, PLANCHEREL)
        legs |= {x.legs() for kind, _, x in prog.steps if kind == "box"}
    assert legs == {hs.CROSS.legs(), hs.DOT.legs()}
    assert {loop.signature for loop in received} == {hs.CROSS_SIGNATURE, hs.DOT.signature}
    for loop in received:
        checked = LoopPath(loop.diagrams, loop.signature)
        assert type(loop) is LoopPath and loop == checked, loop
        assert all(type(d) is tuple for d in loop.diagrams), loop


_CUP_PINS = {
    "left_turn_lhs": [None, 1],
    "ind_ind_lhs": [None, 0],
    "ind_ind_rhs": [],
    "ind_res_lhs": [None, 3, 3],
    "ind_res_rhs": [],
    "res_ind_lhs": [3, None, 0, 3],
    "res_ind_straight": [],
    "res_ind_cups": [],
    "ybe_lhs": [None, 1, 5, 0, 4, 1],
    "ybe_rhs": [None, 0, 4, 1, 5, 0],
    "left_circle": [None],
    "empty": [],
}


def test_every_relation_cup_pin():
    # The pin of each cup, in step order, on every relation program: 17 of
    # the 24 cups sum over one diagram only.
    pins = {
        prog.name: [x[1] for kind, _, x in prog.steps if kind == "cup"]
        for sides in map(relation_sides, RELATION_IDS)
        for _, prog in sides.lhs + sides.rhs
    }
    assert pins == _CUP_PINS
