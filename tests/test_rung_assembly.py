"""Every rung basis assembled from an echelon equals reduce_gb of the base's basis and the rows.

The colon walk and the power series publish each rung R/(S + W), W spanned by
an echelon over R/S's staircase, through ideal_ops._published, which
assembles the reduced basis from the rows of minimal pivot and the elements of
S's basis that no pivot divides. The reference is the computation it
replaced: S's reduced basis and W's rows are a Groebner basis of S + W, so
reduce_gb(list(S.groebner_basis()) + rows) is its reduced basis. A spy on
_published checks every call against it, term by term and coefficient type by
type, so the published bases stay byte-identical. The inputs are CORPUS in
degrevlex and lex, random Artinian ideals over F2, F32003 and Q (homogeneous
and not), and the non-local x^2 - x, y^2, walked by colon series and power
series of several generator sets.
"""

from __future__ import annotations

import random

import pytest

from colonlab import QQ, DegRevLex, Ideal, Lex, Polynomial, PreconditionError, UsageError
from colonlab import ideal_ops, make_quotient, reduce_gb
from colonlab.hilbert import _power_ideals
from colonlab.ideal_ops import _colon_series

from conftest import CORPUS, F2, F32003, make_ideal, random_nonzero_poly
from test_colon_quotient import generator_sets
from test_socle_kernel import random_artinian_ideal

ORDERS = [DegRevLex(), Lex()]


@pytest.fixture
def assembled(monkeypatch):
    """Checks each _published call against reduce_gb; returns the number of rows of each call."""
    calls = []
    original = ideal_ops._published

    def checked(S, echelon, units):
        ring = S.ring
        rows = [
            Polynomial(ring, tuple(sorted(row.items(), reverse=True))) for row in echelon.values()
        ]
        expected = reduce_gb(list(S.groebner_basis()) + rows)
        published = original(S, echelon, units)
        got = published.groebner_basis()
        assert [repr(g.terms) for g in got] == [repr(g.terms) for g in expected], (S, rows)
        calls.append(len(rows))
        return published

    monkeypatch.setattr(ideal_ops, "_published", checked)
    return calls


def walk_everything(J, sets, top):
    """J's colon series and power series by each generator set.

    A unit or non-nilpotent set makes the power series raise, as it should.
    """
    A = make_quotient(J)
    for gens in sets:
        _colon_series(A, gens, min(top, A.length))
        try:
            _power_ideals(A, Ideal(J.ring, tuple(gens)))
        except (UsageError, PreconditionError):
            pass


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("case", CORPUS, ids=[case[0] for case in CORPUS])
def test_corpus_rungs_match_reduce_gb(case, order, assembled):
    _, field, variables, gens, _ = case
    J = make_ideal(field, variables, gens, order)
    walk_everything(J, generator_sets(J).values(), 8)
    assert any(assembled)  # some rung had rows to assemble


@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("field", [F2, F32003, QQ], ids=lambda f: f.name)
def test_random_rungs_match_reduce_gb(field, order, homogeneous, assembled):
    rng = random.Random(f"assembly/{field.name}/{order.name}/{homogeneous}")
    checked = 0
    while checked < 5:
        J = random_artinian_ideal(rng, field, order, homogeneous)
        try:
            make_quotient(J)
        except PreconditionError:  # a lower term cancelled a pure power
            continue
        ring = J.ring
        forms = [random_nonzero_poly(rng, ring, 2, 3) for _ in range(rng.randint(1, 2))]
        variables = [ring.variable(j) for j in range(ring.nvars)]
        walk_everything(J, [variables, forms], 5)
        checked += 1
    assert any(assembled)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
def test_non_local_rungs_match_reduce_gb(order, assembled):
    J = make_ideal(QQ, ("x", "y"), ("x^2-x", "y^2"), order)
    ring = J.ring
    sets = [
        [ring.parse(s) for s in gens]
        for gens in (["x", "y"], ["y"], ["x-1", "y"], ["x^2-x", "y"])
    ]
    walk_everything(J, sets, 4)
    assert any(assembled)
