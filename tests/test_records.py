"""The value classes' record semantics: construction, defaults, equality,
hashing, immutability, repr and ``replace``, pinned class by class."""

import pytest

from slopelab.characters import AdmissibleComponent, Character, RootStatus
from slopelab.conway import ConwayData, ConwayValue, CrossCheckPoint, CrossCheckReport
from slopelab.datasets import builtin_path
from slopelab.laurent import LaurentPoly
from slopelab.linalg import SolveResult, _Echelon
from slopelab.record import Record
from slopelab.seifert import CComplexPresentation, change_basis, load_presentation, stabilize
from slopelab.slope import (
    CaseReport,
    Comparison,
    ComparisonPoint,
    SignatureResult,
    SlopeValue,
)

W = LaurentPoly.monomial(1, (1,))
ONE = LaurentPoly.one(1)
OMEGA = Character("zeta", 1, 5, (2,))
CASE = CaseReport(True, False)
SLOPE = SlopeValue("finite", 3, (1, 0), CASE)
THETA = {(1,): ((0, 0), (1, 1)), (-1,): ((0, 1), (0, 1))}

# class, field names, one full set of values, the defaults, the exact repr
RECORDS = [
    (
        Character,
        ("kind", "mu", "conductor", "exponents", "values"),
        ("zeta", 1, 5, (2,), None),
        {"conductor": None, "exponents": None, "values": None},
        "Character(kind='zeta', mu=1, conductor=5, exponents=(2,), values=None)",
    ),
    (
        AdmissibleComponent,
        ("d", "defining_poly", "lambda_prime", "multiplicity"),
        (2, W + ONE, (1,), 2),
        {},
        "AdmissibleComponent(d=2, defining_poly=LaurentPoly(1, '1 + w1'), "
        "lambda_prime=(1,), multiplicity=2)",
    ),
    (
        RootStatus,
        ("status", "order", "witness", "detail"),
        ("root", 6, W, "order 6"),
        {"order": None, "witness": None, "detail": ""},
        "RootStatus(status='root', order=6, witness=LaurentPoly(1, 'w1'), detail='order 6')",
    ),
    (
        ConwayData,
        ("mu", "nabla_kl", "nabla_l", "label"),
        (1, LaurentPoly.one(2), ONE, "pair"),
        {"label": ""},
        "ConwayData(mu=1, nabla_kl=LaurentPoly(2, '1'), nabla_l=LaurentPoly(1, '1'), "
        "label='pair')",
    ),
    (
        ConwayValue,
        ("kind", "value", "numerator", "denominator"),
        ("infinity", None, 1, 0),
        {},
        "ConwayValue(kind='infinity', value=None, numerator=1, denominator=0)",
    ),
    (
        CrossCheckPoint,
        ("omega", "sqrt", "slope_kind", "slope_value", "conway_kind", "conway_value", "agree"),
        (OMEGA, OMEGA, "finite", 1, "inconclusive", None, None),
        {},
        "CrossCheckPoint(omega=Character(kind='zeta', mu=1, conductor=5, exponents=(2,), "
        "values=None), sqrt=Character(kind='zeta', mu=1, conductor=5, exponents=(2,), "
        "values=None), slope_kind='finite', slope_value=1, conway_kind='inconclusive', "
        "conway_value=None, agree=None)",
    ),
    (
        CrossCheckReport,
        ("points", "agreements", "disagreements", "skipped"),
        ((), 3, 0, 1),
        {},
        "CrossCheckReport(points=(), agreements=3, disagreements=0, skipped=1)",
    ),
    (
        SolveResult,
        ("status", "particular", "kernel_basis"),
        ("unique", (1, 2), ()),
        {},
        "SolveResult(status='unique', particular=(1, 2), kernel_basis=())",
    ),
    (
        _Echelon,
        ("rows", "pivots"),
        ([[1, 0]], [0]),
        {},
        "_Echelon(rows=[[1, 0]], pivots=[0])",
    ),
    (
        CComplexPresentation,
        ("mu", "n", "theta", "kappa", "b0", "linking", "label"),
        (1, 2, THETA, (1, 0), 1, (0,), "wh"),
        {"b0": 1, "linking": (), "label": ""},
        "CComplexPresentation(mu=1, n=2, theta={(1,): ((0, 0), (1, 1)), "
        "(-1,): ((0, 1), (0, 1))}, kappa=(1, 0), b0=1, linking=(0,), label='wh')",
    ),
    (
        CaseReport,
        ("kappa_in_image", "kappa_in_annihilator"),
        (True, False),
        {},
        "CaseReport(kappa_in_image=True, kappa_in_annihilator=False)",
    ),
    (
        SlopeValue,
        ("kind", "value", "witness", "case_report", "approximate", "valid_away_from"),
        ("finite", 3, (1, 0), CASE, True, W),
        {"approximate": False, "valid_away_from": None},
        "SlopeValue(kind='finite', value=3, witness=(1, 0), case_report=CaseReport("
        "kappa_in_image=True, kappa_in_annihilator=False), approximate=True, "
        "valid_away_from=LaurentPoly(1, 'w1'))",
    ),
    (
        SignatureResult,
        ("sigma", "eta", "counts", "sigma_approximate", "eta_exact"),
        (-2, 0, (0, 2, 0), False, True),
        {"sigma_approximate": True, "eta_exact": True},
        "SignatureResult(sigma=-2, eta=0, counts=(0, 2, 0), sigma_approximate=False, "
        "eta_exact=True)",
    ),
    (
        ComparisonPoint,
        ("omega", "first", "second", "equal"),
        (OMEGA, SLOPE, SLOPE, True),
        {},
        "ComparisonPoint(omega=Character(kind='zeta', mu=1, conductor=5, exponents=(2,), "
        "values=None), first=SlopeValue(kind='finite', value=3, witness=(1, 0), "
        "case_report=CaseReport(kappa_in_image=True, kappa_in_annihilator=False), "
        "approximate=False, valid_away_from=None), second=SlopeValue(kind='finite', "
        "value=3, witness=(1, 0), case_report=CaseReport(kappa_in_image=True, "
        "kappa_in_annihilator=False), approximate=False, valid_away_from=None), equal=True)",
    ),
    (
        Comparison,
        ("points", "witness"),
        ((), OMEGA),
        {},
        "Comparison(points=(), witness=Character(kind='zeta', mu=1, conductor=5, "
        "exponents=(2,), values=None))",
    ),
]

IDS = [entry[0].__name__ for entry in RECORDS]
# a field holds a dict or a list, so hashing fails as it does for a tuple holding one
UNHASHABLE_VALUES = (CComplexPresentation, _Echelon)


@pytest.mark.parametrize("cls, names, values, defaults, text", RECORDS, ids=IDS)
def test_record_construction_and_repr(cls, names, values, defaults, text):
    a = cls(*values)
    assert [getattr(a, name) for name in names] == list(values)
    assert cls(**dict(zip(names, values))) == a
    assert repr(a) == text
    required = len(names) - len(defaults)
    assert names[required:] == tuple(defaults)
    b = cls(*values[:required])
    assert {name: getattr(b, name) for name in defaults} == defaults
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


@pytest.mark.parametrize("cls, names, values, defaults, text", RECORDS, ids=IDS)
def test_record_equality_is_fieldwise_within_the_class(cls, names, values, defaults, text):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert a != tuple(values) and tuple(values) != a
    assert a != list(values)
    assert not isinstance(a, tuple)
    with pytest.raises(TypeError):
        iter(a)
    other = cls(*(("changed",) + tuple(values[1:])))
    assert a != other


@pytest.mark.parametrize("cls, names, values, defaults, text", RECORDS, ids=IDS)
def test_record_hash_and_immutability(cls, names, values, defaults, text):
    a, b = cls(*values), cls(*values)
    if cls in UNHASHABLE_VALUES:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, "changed")
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == b


def _whitehead():
    return load_presentation(builtin_path("whitehead.json"))


LABEL = "label='Whitehead link, distinguished unknotted component')"


def test_presentation_edits_match_the_dataclass_replace_results():
    # reprs recorded when these edits went through dataclasses.replace
    p = _whitehead()
    assert repr(change_basis(p, [[1, 1], [0, 1]])) == (
        "CComplexPresentation(mu=1, n=2, theta={(1,): ((0, 0), (1, 2)), "
        "(-1,): ((0, 1), (0, 2))}, kappa=(1, 1), b0=1, linking=(0,), " + LABEL
    )
    assert repr(stabilize(p)) == (
        "CComplexPresentation(mu=1, n=3, theta={(1,): ((0, 0, 0), (1, 1, 0), (0, 0, 0)), "
        "(-1,): ((0, 1, 0), (0, 1, 0), (0, 0, 0))}, kappa=(1, 0, 0), b0=1, linking=(0,), "
        + LABEL
    )
    p2 = CComplexPresentation.build(1, 2, {"+": [[0, 0], [1, 1]]}, [1, 0], b0=2)
    assert stabilize(p2).b0 == 1 and stabilize(stabilize(p2)).b0 == 1
    edited = p.replace(kappa=(0, 0))
    assert repr(edited) == (
        "CComplexPresentation(mu=1, n=2, theta={(1,): ((0, 0), (1, 1)), "
        "(-1,): ((0, 1), (0, 1))}, kappa=(0, 0), b0=1, linking=(0,), " + LABEL
    )
    assert p.kappa == (1, 0)
    assert edited.theta is p.theta
    assert type(edited) is CComplexPresentation


def test_replace_copies_all_fields_and_checks_names():
    p = _whitehead()
    same = p.replace()
    assert same == p and same is not p
    with pytest.raises(TypeError):
        p.replace(bogus=1)
    e = _Echelon([[1]], [0])
    f = e.replace(pivots=[])
    assert (f.rows, f.pivots, e.pivots) == ([[1]], [], [0])


# this module has no "from __future__ import annotations", so its
# annotations are evaluated, unlike those of the package's records
class Point(Record):
    x: int
    y: int = 0


def test_record_fields_without_postponed_annotations():
    assert Point._fields == ("x", "y")
    p = Point(1)
    assert repr(p) == "Point(x=1, y=0)"
    assert p.replace(y=2) == Point(x=1, y=2)
    with pytest.raises(TypeError):
        Point()
