"""The socle series S : m^i, each rung the socle of R/(rung below), against colon_powers.

ideal_ops._socle_series walks S, S : m, ..., S : m^top by taking the socle of
each rung's quotient, with no colon. The reference is colon_powers(S, m, top),
the elimination ladder, and rung 1 of J's series is checked against the
elimination socle of tests/test_socle_kernel.py. The inputs are CORPUS in
degrevlex and lex, random Artinian ideals over F2, F32003 and Q (homogeneous
and not), Storch's fixture, its char-2 variant and the fat point x^2, xy, y^2.
The Gorenstein ladders of verify_corollary and verify_main_equivalence(A, m)
walk this series: their reports equal those of the colon_powers ladder, and
they take no colon and no intersection.
"""

from __future__ import annotations

import random

import pytest

from colonlab import (
    QQ,
    DegRevLex,
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
from colonlab.ideal_ops import _socle_series

from conftest import CHAR2_VARIANT_GENS, CORPUS, F2, F32003, make_ideal
from test_socle_kernel import elimination_socle, random_artinian_ideal

ORDERS = [DegRevLex(), Lex()]


def check_series(J, top):
    """J's socle series against colon_powers rung by rung; rung 1 against elimination."""
    series = _socle_series(J, top)
    ladder = colon_powers(J, irrelevant_power(J.ring, 1), top)
    assert len(series) == len(ladder) == top + 1
    assert [S.groebner_basis() for S in series] == [K.groebner_basis() for K in ladder], J
    assert all(S._gb is not None for S in series)  # every rung publishes its basis
    if top:
        assert series[1].groebner_basis() == elimination_socle(J), J


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
    J = make_ideal(QQ, ("x", "y"), ("x^2", "y^2"))
    assert _socle_series(J, 0) == [J]


def colon_ladder(monkeypatch):
    """Make the Gorenstein ladders walk colon_powers by m, as the reference."""
    monkeypatch.setattr(
        theorems,
        "_socle_series",
        lambda S, top: colon_powers(S, irrelevant_power(S.ring, 1), top),
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


def test_gorenstein_ladders_take_no_colon_and_no_intersection(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Gorenstein ladder took a colon or an intersection")

    monkeypatch.setattr(ideal_ops, "colon", refuse)
    monkeypatch.setattr(ideal_ops, "ideal_intersect", refuse)
    report = verify_corollary(make_ideal(QQ, ("x", "y", "z"), ("x^2", "y^2", "z^3")))
    assert report.holds and report.delta == 4
    A = make_quotient(storch_ideal())
    report = verify_main_equivalence(A, irrelevant_power(A.ring, 1))
    assert report.consistent and not report.ladder_holds
    A = make_quotient(make_ideal(QQ, ("x", "y"), ("x^3", "y^2")))
    report = verify_main_equivalence(A, irrelevant_power(A.ring, 1))
    assert report.ladder_holds and report.delta == 3
