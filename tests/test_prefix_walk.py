"""make_quotient's prefix walk against the monomial-by-monomial walk.

make_quotient walks prefixes over the first n-1 variables and runs the last
exponent below a bound read off the leading monomials. The reference is
spelled out here: every monomial of the staircase is reached from one with an
exponent lowered by one and tested against every leading monomial. The inputs
are CORPUS in degrevlex and lex, random Artinian ideals over F2, F32003 and
Q, the zero ring, one variable, and the length budget's boundary.
"""

from __future__ import annotations

import random

import pytest

from colonlab import QQ, DegRevLex, Ideal, Lex, PreconditionError, Ring, make_quotient
from colonlab.ideal_ops import MAX_QUOTIENT_LENGTH
from colonlab.poly import mono_divides

from conftest import CORPUS, F2, F32003, make_ideal
from test_socle_kernel import random_artinian_ideal

ORDERS = [DegRevLex(), Lex()]
TOO_LONG = f"quotient is too long: more than {MAX_QUOTIENT_LENGTH} standard monomials"


def monomial_walk(J):
    """Standard monomials of R/J ascending, each candidate tested against every lead."""
    ring = J.ring
    leads = [g.leading_exps for g in J.groebner_basis()]
    n = ring.nvars
    std = []
    stack = [((0,) * n, 0)]  # (exponents, first variable it may still raise)
    while stack:
        e, first = stack.pop()
        if any(mono_divides(lead, e) for lead in leads):
            continue
        std.append(e)
        for k in range(first, n):
            stack.append((e[:k] + (e[k] + 1,) + e[k + 1 :], k))
    return tuple(sorted(std, key=ring.order.key))


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("case", CORPUS, ids=[case[0] for case in CORPUS])
def test_corpus_staircases_match_the_monomial_walk(case, order):
    _, field, variables, gens, _ = case
    J = make_ideal(field, variables, gens, order)
    assert make_quotient(J).standard_monomials == monomial_walk(J)


@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("field", [F2, F32003, QQ], ids=lambda f: f.name)
def test_random_staircases_match_the_monomial_walk(field, order, homogeneous):
    rng = random.Random(f"prefix/{field.name}/{order.name}/{homogeneous}")
    checked = 0
    while checked < 12:
        J = random_artinian_ideal(rng, field, order, homogeneous)
        try:
            A = make_quotient(J)
        except PreconditionError as err:  # a lower term cancelled a pure power
            assert "not Artinian" in str(err)
            continue
        assert A.standard_monomials == monomial_walk(J), J
        checked += 1


def test_zero_ring_and_one_variable():
    for names in (("x",), ("x", "y", "z")):
        ring = Ring(names, F2)
        assert make_quotient(Ideal(ring, (ring.one,))).standard_monomials == ()
    J = make_ideal(QQ, ("x",), ("x^7-x^2",))
    assert make_quotient(J).standard_monomials == monomial_walk(J) == tuple((a,) for a in range(7))
    assert make_quotient(make_ideal(QQ, ("x",), ("x",))).standard_monomials == ((0,),)


def test_not_artinian_message_is_unchanged():
    with pytest.raises(PreconditionError) as err:
        make_quotient(make_ideal(QQ, ("x", "y", "z"), ("x^2", "z^3")))
    assert str(err.value) == (
        "quotient is not Artinian: no pure power of variable 'y' among the leading monomials"
    )


def test_length_budget_boundary():
    J = make_ideal(F32003, ("x", "y"), ("x^1000", "y^100"))
    A = make_quotient(J)
    assert A.length == MAX_QUOTIENT_LENGTH
    assert A.standard_monomials == monomial_walk(J)
    with pytest.raises(PreconditionError) as err:
        make_quotient(make_ideal(F32003, ("x", "y"), ("x^1000", "y^101")))
    assert str(err.value) == TOO_LONG
    with pytest.raises(PreconditionError) as err:
        make_quotient(make_ideal(F32003, ("x", "y"), ("x^101", "y^1000")))
    assert str(err.value) == TOO_LONG
