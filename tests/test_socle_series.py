"""The socle series S : m^i, each rung the socle of R/(rung below), against colon_powers.

ideal_ops._colon_series by the variables walks R/S, R/(S : m), ...,
R/(S : m^top), each rung the socle quotient of the rung below, with no colon
and no make_quotient. The reference is colon_powers(S, m, top), the elimination
ladder, and rung 1 of J's series is checked against the elimination socle of
tests/test_socle_kernel.py. Each rung's handed-on staircase equals
make_quotient of the rung's published basis. The inputs are CORPUS in
degrevlex and lex, random Artinian ideals over F2, F32003 and Q (homogeneous
and not), Storch's fixture, its char-2 variant and the fat point x^2, xy, y^2.
The Gorenstein ladders of verify_corollary and verify_main_equivalence(A, m)
walk this series: their reports equal those of the colon_powers ladder, and
they take no colon, no intersection and no quotient beyond R/J. With
J + I != m the equivalence walks J's colon series by the generators of I's
power chain instead: for CORPUS in both orders, with I = m^2, (x, y^2) and
random forms, its reports equal those of colon_powers too, and it takes no
colon.
"""

from __future__ import annotations

import random

import pytest

from colonlab import (
    QQ,
    DegRevLex,
    Ideal,
    Lex,
    PreconditionError,
    colon_powers,
    irrelevant_power,
    make_quotient,
    storch_ideal,
    theorems,
    verify_corollary,
    verify_main_equivalence,
)
from colonlab import ideal_ops
from colonlab.ideal_ops import _colon_series, monomials_of_degree

from conftest import CHAR2_VARIANT_GENS, CORPUS, F2, F32003, make_ideal
from test_socle_kernel import elimination_socle, random_artinian_ideal

ORDERS = [DegRevLex(), Lex()]


def socle_series(B, top):
    """The colon series of B by the variables: B, then B's socle quotient, and so on."""
    return _colon_series(B, irrelevant_power(B.ring, 1).generators, top)


def check_series(J, top):
    """J's socle series against colon_powers rung by rung; rung 1 against elimination.

    Each rung's staircase, handed on from the rung below, equals make_quotient
    of the rung's published basis.
    """
    series = socle_series(make_quotient(J), top)
    ladder = colon_powers(J, irrelevant_power(J.ring, 1), top)
    assert len(series) == len(ladder) == top + 1
    rungs = [B.defining for B in series]
    assert [S.groebner_basis() for S in rungs] == [K.groebner_basis() for K in ladder], J
    assert all(S._gb is not None for S in rungs)  # every rung publishes its basis
    assert [B.standard_monomials for B in series] == [
        make_quotient(S).standard_monomials for S in rungs
    ], J
    if top:
        assert rungs[1].groebner_basis() == elimination_socle(J), J


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("case", CORPUS, ids=[case[0] for case in CORPUS])
def test_corpus_series_match_colon_powers(case, order):
    _, field, variables, gens, _ = case
    J = make_ideal(field, variables, gens, order)
    # m^length = 0 in R/J, so the last rungs are the unit ideal.
    check_series(J, make_quotient(J).length)


@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("field", [F2, F32003, QQ], ids=lambda f: f.name)
def test_random_series_match_colon_powers(field, order, homogeneous):
    rng = random.Random(f"series/{field.name}/{order.name}/{homogeneous}")
    checked = 0
    while checked < 6:
        J = random_artinian_ideal(rng, field, order, homogeneous)
        try:
            length = make_quotient(J).length
        except PreconditionError:  # a lower term cancelled a pure power
            continue
        check_series(J, min(length, 4))  # an inhomogeneous m need not be nilpotent
        checked += 1


def test_named_series():
    check_series(storch_ideal(), 4)
    check_series(make_ideal(F2, ("x", "y"), CHAR2_VARIANT_GENS), 5)
    check_series(make_ideal(QQ, ("x", "y"), ("x^2", "x*y", "y^2")), 3)
    A = make_quotient(make_ideal(QQ, ("x", "y"), ("x^2", "y^2")))
    assert socle_series(A, 0) == [A]


def colon_ladder(monkeypatch):
    """Make the Gorenstein ladders walk colon_powers by their step, as the reference."""
    monkeypatch.setattr(
        theorems,
        "_colon_series",
        lambda B, gens, top: [
            make_quotient(K) for K in colon_powers(B.defining, Ideal(B.ring, tuple(gens)), top)
        ],
    )


GRADED_GORENSTEIN = [
    ("x", "y"),  # delta 0
    ("x^2", "y"),  # delta 1
    ("x^2", "y^2"),
    ("x^2-y^2", "x*y"),
    ("x^3", "y^4"),
    ("x^2", "y^2", "z^3"),
    ("x^2+y*z", "y^2+x*z", "z^2+x*y"),
]


@pytest.mark.parametrize("gens", GRADED_GORENSTEIN, ids=lambda g: ",".join(g))
@pytest.mark.parametrize("field", [F2, F32003, QQ], ids=lambda f: f.name)
def test_corollary_reports_match_the_colon_ladder(field, gens, monkeypatch):
    variables = ("x", "y", "z")[: 3 if any("z" in g for g in gens) else 2]
    J = make_ideal(field, variables, gens)
    try:
        report = verify_corollary(J)
    except PreconditionError:  # not Gorenstein in this characteristic
        with monkeypatch.context() as patch:
            colon_ladder(patch)
            with pytest.raises(PreconditionError):
                verify_corollary(J)
        return
    colon_ladder(monkeypatch)
    assert verify_corollary(J) == report
    assert len(report.rungs) == report.delta + 1


@pytest.mark.parametrize(
    "field, gens",
    [(F2, ("x^2+y^3", "x^2+x*y+y^3")), (F2, CHAR2_VARIANT_GENS), (QQ, ("x^3", "y^2")),
     (F32003, ("x^2", "y^2", "z^2")), (QQ, ("x^2-y^2", "x*y"))],
    ids=["storch", "char2_variant", "x3_y2", "x2_y2_z2", "x2-y2_xy"],
)
def test_equivalence_reports_match_the_colon_ladder(field, gens, monkeypatch):
    J = make_ideal(field, ("x", "y", "z")[: 3 if any("z" in g for g in gens) else 2], gens)
    A = make_quotient(J)
    m = irrelevant_power(J.ring, 1)
    report = verify_main_equivalence(A, m)
    colon_ladder(monkeypatch)
    assert verify_main_equivalence(A, m) == report


def inner_ideals(J, rng):
    """Ideals I inside m other than m: m^2, (x, y^2) and random forms of degrees 1 and 2."""
    ring = J.ring
    first, last = ring.variable(0), ring.variable(ring.nvars - 1)
    monomials = monomials_of_degree(ring, 1) + monomials_of_degree(ring, 2)
    count, forms = rng.randint(1, 2), []
    while len(forms) < count:
        form = ring.from_terms(
            (e, ring.field.random_element(rng)) for e in monomials if rng.random() < 0.5
        )
        if not form.is_zero:
            forms.append(form)
    return [irrelevant_power(ring, 2), Ideal(ring, (first, last * last)), Ideal(ring, tuple(forms))]


def equivalence_outcome(A, I):
    """The report, or the type and message of the PreconditionError it raises."""
    try:
        return verify_main_equivalence(A, I)
    except PreconditionError as exc:
        return type(exc), str(exc)


OFF_M = [case for case in CORPUS if case[4]] + [
    ("x2-y2_xy", QQ, ("x", "y"), ("x^2-y^2", "x*y"), True),
]


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("case", OFF_M, ids=[case[0] for case in OFF_M])
def test_equivalence_reports_off_m_match_the_colon_ladder(case, order, monkeypatch):
    """J + I != m: the ladder walks J's colon series by the chain's generators of I."""
    name, field, variables, gens, _ = case
    J = make_ideal(field, variables, gens, order)
    A = make_quotient(J)
    inners = inner_ideals(J, random.Random(f"equiv/{name}/{order.name}"))
    reports = [equivalence_outcome(A, I) for I in inners]
    assert any(not isinstance(r, tuple) for r in reports), name  # some I is a verdict
    colon_ladder(monkeypatch)
    assert [equivalence_outcome(A, I) for I in inners] == reports, name


def test_equivalence_off_m_takes_no_colon(monkeypatch):
    def refuse(*args):
        raise AssertionError("the equivalence took a colon or an intersection")

    monkeypatch.setattr(ideal_ops, "colon", refuse)
    monkeypatch.setattr(ideal_ops, "ideal_intersect", refuse)
    monkeypatch.setattr(theorems, "colon_powers", refuse)
    A = make_quotient(make_ideal(QQ, ("x", "y", "z"), ("x^2", "y^2", "z^3")))
    report = verify_main_equivalence(A, irrelevant_power(A.ring, 2))
    assert report.consistent and report.delta == 2
    A = make_quotient(storch_ideal())
    report = verify_main_equivalence(A, Ideal(A.ring, (A.ring.parse("x"), A.ring.parse("y^2"))))
    assert report.consistent


def test_gorenstein_ladders_take_no_colon_and_no_intersection(monkeypatch):
    """Nor do they build a quotient beyond R/J: each rung hands its staircase on.

    The spy counts make_quotient as ideal_ops and theorems call it. The lengths
    of the equivalence's filtration table are quotients by J + I^k, not rungs,
    and hilbert takes them.
    """
    def refuse(*args):
        raise AssertionError("a Gorenstein ladder took a colon or an intersection")

    quotients = []
    original = ideal_ops.make_quotient

    def counted(J):
        quotients.append(J)
        return original(J)

    monkeypatch.setattr(ideal_ops, "colon", refuse)
    monkeypatch.setattr(ideal_ops, "ideal_intersect", refuse)
    monkeypatch.setattr(ideal_ops, "make_quotient", counted)
    monkeypatch.setattr(theorems, "make_quotient", counted)
    report = verify_corollary(make_ideal(QQ, ("x", "y", "z"), ("x^2", "y^2", "z^3")))
    assert report.holds and report.delta == 4
    assert len(quotients) <= 1
    A = make_quotient(storch_ideal())
    quotients.clear()
    report = verify_main_equivalence(A, irrelevant_power(A.ring, 1))
    assert report.consistent and not report.ladder_holds
    assert len(quotients) <= 1
    A = make_quotient(make_ideal(QQ, ("x", "y"), ("x^3", "y^2")))
    quotients.clear()
    report = verify_main_equivalence(A, irrelevant_power(A.ring, 1))
    assert report.ladder_holds and report.delta == 3
    assert len(quotients) <= 1
