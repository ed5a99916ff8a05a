import pytest

from ypa.heisenberg import BUILTIN_ELEMENTS
from ypa.plancherel import PLANCHEREL, f_pl
from ypa.surd import Surd, sqrt_fraction
from ypa.tangle import (
    TangleError,
    TangleProgram,
    as_element,
    evaluate,
    parse,
    parse_programs,
)
from ypa.young import LoopPath, diagrams_up_to, enumerate_loops, parse_loop

ONE = Surd.from_rational(1)


def _base_loop(lam):
    return LoopPath((lam,), ())


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
        PLANCHEREL,
    )
    assert sorted(progs) == ["a", "b"]


def test_left_circle_is_one_everywhere():
    prog = parse("tangle c : () { row cup_du; row cap; }")
    for lam in diagrams_up_to(8):
        assert evaluate(prog, _base_loop(lam), PLANCHEREL) == ONE


def test_left_circle_for_another_harmonic_function():
    # The left-circle value is 1 for any harmonic function.  Harmonicity is
    # linear, so the Plancherel function plus the indicator of at-most-one-row
    # diagrams (the extreme one-row boundary point) is again harmonic, and it
    # is strictly positive.
    from ypa.plancherel import HarmonicFunction, f_pl
    from ypa.young import up_covers

    def mix(lam):
        return f_pl(lam) + (1 if len(lam) <= 1 else 0)

    f = HarmonicFunction("plancherel+row", mix)
    for lam in diagrams_up_to(7):
        assert mix(lam) == sum(mix(mu) for mu, _ in up_covers(lam))
    prog = parse("tangle c : () { row cup_du; row cap; }")
    for lam in diagrams_up_to(7):
        assert evaluate(prog, _base_loop(lam), f) == ONE


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
    sub_elem = as_element(sub, PLANCHEREL)
    outer = parse("tangle o : () { row cup_ud; row box sub; }", {"sub": sub_elem})
    flat = parse("tangle f : () { row cup_ud; row cap; }")
    for lam in diagrams_up_to(5):
        assert evaluate(outer, _base_loop(lam), PLANCHEREL) == evaluate(
            flat, _base_loop(lam), PLANCHEREL
        )


def test_composition_consistency_four_legs():
    sub = parse("tangle sub : (-,-,+,+) { row | cap |; row cap; }")
    sub_elem = as_element(sub, PLANCHEREL)
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


def test_empty_program_is_constant_one():
    prog = parse("tangle e : () { }")
    assert prog.rows == ()
    assert evaluate(prog, _base_loop((3, 1)), PLANCHEREL) == ONE


def test_unclosed_final_state_is_a_tangle_error():
    # Only a program built without compile_program can leave strands open;
    # the evaluator raises rather than asserts, so the check survives -O.
    prog = TangleProgram("raw", (-1, 1), ())
    with pytest.raises(TangleError, match="ends in state"):
        evaluate(prog, parse_loop("[1] v [] ^ [1]"), PLANCHEREL)


def test_as_element_signature_check():
    sub = parse("tangle sub : (-,+) { row cap; }")
    elem = as_element(sub, PLANCHEREL)
    with pytest.raises(TangleError, match="signature"):
        elem.evaluate(parse_loop("[1] ^ [2] v [1]"))
