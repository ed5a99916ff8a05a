"""The engine's records are values.

Six records are frozen: equal fields make equal records with equal hashes,
and no field can be assigned or deleted.  ``RelationReport`` and
``affine.Term`` compare field-wise too, but are unhashable and assignable,
and a ``Term`` caches its integer form beside its fields.  Copies and
pickles of a record equal it.
"""

import copy
import pickle
from fractions import Fraction

import pytest

import ypa.heisenberg as hs
from ypa.affine import Term, term_product
from ypa.plancherel import PLANCHEREL, HarmonicFunction, f_pl
from ypa.ratfun import FactoredRatFun, Poly
from ypa.tangle import Element, TangleProgram
from ypa.young import LoopPath


def _sides(rhs_sign):
    progs = hs.programs()
    return hs.RelationSides("r", ((1, progs["left_circle"]),), ((rhs_sign, progs["empty"]),))


# (name, fields, a factory of equal records, a record that differs from them)
FROZEN = [
    (
        "LoopPath",
        ("diagrams", "signature"),
        lambda: LoopPath(((2, 1), (2,), (2, 1)), (-1, 1)),
        LoopPath(((2, 1), (1, 1), (2, 1)), (-1, 1)),
    ),
    (
        "Element",
        ("name", "signature", "fn"),
        lambda: Element("cross", hs.CROSS_SIGNATURE, hs.cross),
        Element("cross", hs.CROSS_SIGNATURE, hs.cross_id),
    ),
    (
        "TangleProgram",
        ("name", "signature", "steps"),
        lambda: TangleProgram("p", (-1, 1), (("box", 1, hs.DOT),)),
        TangleProgram("p", (-1, 1), ()),
    ),
    (
        "HarmonicFunction",
        ("name", "value"),
        lambda: HarmonicFunction("plancherel", f_pl),
        HarmonicFunction("other", f_pl),
    ),
    ("RelationSides", ("name", "lhs", "rhs"), lambda: _sides(1), _sides(-1)),
    (
        "FactoredRatFun",
        ("numer", "denom"),
        lambda: FactoredRatFun.from_roots([1, 2], [0, Fraction(1, 2)]),
        FactoredRatFun.from_roots([1], [0, Fraction(1, 2)]),
    ),
]


@pytest.mark.parametrize("name, fields, make, other", FROZEN, ids=[f[0] for f in FROZEN])
def test_frozen_records_are_values(name, fields, make, other):
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != other and other != a
    assert a != tuple(getattr(a, f) for f in fields)
    assert [getattr(copy.copy(a), f) for f in fields] == [getattr(a, f) for f in fields]
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    for field in fields:
        before = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) is before
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize(
    "record",
    [
        LoopPath(((), (1,), ()), (1, -1)),
        hs.CROSS,
        PLANCHEREL,
        hs.relation_sides("ybe"),
        FactoredRatFun(Poly([1, 2]), ((Fraction(1, 3), 2),)),
    ],
    ids=lambda r: type(r).__name__,
)
def test_records_pickle_to_equal_records(record):
    back = pickle.loads(pickle.dumps(record))
    assert back == record and hash(back) == hash(record)


def test_records_show_their_fields():
    assert repr(LoopPath(((1,),), ())) == "LoopPath(diagrams=((1,),), signature=())"
    report = hs.RelationReport("ybe", 2, 3, [])
    assert repr(report) == (
        "RelationReport(relation='ybe', max_weight=2, loops_checked=3, failures=[])"
    )
    assert repr(Term(Fraction(1, 2), {("c", 0, 1): -1})) == (
        "Term(coef=Fraction(1, 2), factors={('c', 0, 1): -1})"
    )


def test_a_loop_is_as_long_as_its_signature():
    assert len(LoopPath(((2, 1), (2,), (2, 1)), (-1, 1))) == 2
    assert len(LoopPath(((1,),), ())) == 0


def test_relation_reports_compare_fieldwise_and_stay_assignable():
    a = hs.RelationReport("ybe", 2, 3, [])
    b = hs.RelationReport("ybe", 2, 3, [])
    assert a is not b and a == b
    with pytest.raises(TypeError):
        hash(a)
    a.loops_checked = 4
    assert a.loops_checked == 4 and a != b
    a.failures.append(("x", "1", "2"))
    assert not a.verified
    assert a != ("ybe", 2, 4, [("x", "1", "2")])


def test_terms_compare_fieldwise_stay_assignable_and_cache_their_int_form():
    a = term_product(Fraction(3, 2), [(0, None, Fraction(1, 2), -1), (0, 1, 1, 2)])
    b = Term(a.coef, dict(a.factors))
    assert a is not b and a == b
    with pytest.raises(TypeError):
        hash(a)
    form = a.int_form
    assert a.int_form is form and vars(a)["int_form"] is form
    assert a == b  # the cached form is not a field
    b.coef = Fraction(5)
    assert b.coef == 5 and a != b
    assert copy.deepcopy(a) == a
