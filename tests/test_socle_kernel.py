"""The socle J : m read off the quotient's staircase, against elimination.

socle_quotient computes R/S for the socle S of A = R/J by linear algebra on
A's standard monomials: it publishes S's reduced basis and hands on R/S's
staircase, A's without the kernel's pivots. The reference is spelled out
with conftest's elimination helpers: J : m as the intersection of the variable
colons J : x_j, each J ∩ (x_j) taken by elimination in k[t, x] and divided by
x_j, the intersections by elimination too, and dim = length(A) - length(R/S)
from standard monomials counted in a box. The inputs are CORPUS and random
Artinian ideals over F2, F32003 and Q, in degrevlex and lex, homogeneous and
not, with the zero ring, the fat point and Storch's fixture by name. sympy's
ideal quotient is a third reference over Q.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from colonlab import (
    QQ,
    DegRevLex,
    Ideal,
    Lex,
    PreconditionError,
    Ring,
    make_quotient,
    socle_quotient,
    storch_ideal,
)
from colonlab import ideal_ops
from colonlab.ideal_ops import monomials_of_degree
from colonlab.poly import mono_divides

from conftest import CORPUS, F2, F32003, eliminated_meet, make_ideal, reference, reference_colon

FIELDS = [F2, F32003, QQ]
ORDERS = [DegRevLex(), Lex()]


def elimination_socle(J):
    """The reduced basis of J : m = ∩_j (J ∩ (x_j)) / x_j."""
    ring = J.ring
    basis = Ideal(ring, J.groebner_basis())
    result = None
    for j in range(ring.nvars):
        part = reference_colon(basis, ring.variable(j))
        result = part if result is None else reference(
            eliminated_meet(Ideal(ring, result), Ideal(ring, part))
        )
    return result


def staircase_length(basis):
    """Monomials that no leading monomial divides, counted in the box of the pure powers."""
    leads = [g.leading_exps for g in basis]
    n = len(leads[0])
    bounds = [min(e[j] for e in leads if sum(e) == e[j]) for j in range(n)]
    return sum(
        1
        for e in itertools.product(*(range(b) for b in bounds))
        if not any(mono_divides(lead, e) for lead in leads)
    )


def check_socle(J):
    A = make_quotient(J)
    B = socle_quotient(A)
    S, dimension = B.defining, A.length - B.length
    expected = elimination_socle(J)
    assert S.groebner_basis() == expected, J
    assert dimension == staircase_length(J.groebner_basis()) - staircase_length(expected), J
    assert reference(S.groebner_basis()) == S.groebner_basis(), J
    assert B.standard_monomials == make_quotient(S).standard_monomials, J
    return dimension


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("case", CORPUS, ids=[case[0] for case in CORPUS])
def test_corpus_socles_match_elimination(case, order):
    name, field, variables, gens, gorenstein = case
    dimension = check_socle(make_ideal(field, variables, gens, order))
    if order == DegRevLex():
        assert (dimension == 1) == gorenstein, name


def random_artinian_ideal(rng, field, order, homogeneous):
    """Pure powers of each variable plus random forms, with lower terms when not homogeneous."""
    ring = Ring(("x", "y", "z")[: rng.choice((1, 2, 2, 3))], field, order)
    n = ring.nvars

    def form(degree):
        return ring.from_terms(
            (e, field.random_element(rng))
            for e in monomials_of_degree(ring, degree)
            if rng.random() < 0.6
        )

    gens = []
    for j in range(n):
        a = rng.randint(1, 4 if n < 3 else 3)
        g = ring.monomial(tuple(a if k == j else 0 for k in range(n)))
        if not homogeneous and a > 1:
            g = g + form(rng.randint(1, a - 1))
        gens.append(g)
    for _ in range(rng.randint(0, 2)):
        d = rng.randint(1, 3)
        f = form(d) if homogeneous else form(d) + form(rng.randint(0, d - 1))
        if not f.is_zero:
            gens.append(f)
    return Ideal(ring, tuple(gens))


@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_random_artinian_socles_match_elimination(field, order, homogeneous):
    rng = random.Random(f"{field.name}/{order.name}/{homogeneous}")
    checked = 0
    while checked < 8:
        J = random_artinian_ideal(rng, field, order, homogeneous)
        try:
            check_socle(J)
        except PreconditionError:  # a lower term cancelled a pure power
            continue
        checked += 1


def test_named_socles():
    ring = Ring(("x", "y"), F2)
    A = make_quotient(Ideal(ring, (ring.one,)))
    B = socle_quotient(A)
    assert B.defining.groebner_basis() == (ring.one,)  # the zero ring
    assert A.length - B.length == 0 and B.standard_monomials == ()
    A = make_quotient(make_ideal(QQ, ("x", "y"), ("x^2", "x*y", "y^2")))
    B = socle_quotient(A)
    assert [str(g) for g in B.defining.groebner_basis()] == ["x", "y"]
    assert A.length - B.length == 2 and B.standard_monomials == ((0, 0),)
    assert check_socle(storch_ideal()) == 1


def test_socle_is_published_without_colon_or_quotient(monkeypatch):
    A = make_quotient(make_ideal(QQ, ("x", "y", "z"), ("x^2+y*z", "y^3", "z^2-x*y")))

    def refuse(*args):
        raise AssertionError("the socle kernel took a colon or a second quotient")

    monkeypatch.setattr(ideal_ops, "colon", refuse)
    monkeypatch.setattr(ideal_ops, "make_quotient", refuse)
    B = socle_quotient(A)
    assert B.defining._gb is not None  # published through _known_basis
    assert A.length - B.length >= 1


@pytest.mark.parametrize(
    "gens",
    [("x^2", "y^2"), ("x^2", "x*y", "y^2"), ("x^3", "y^2", "x*y"), ("x^2+y^2", "x*y^2"),
     ("x^2-y", "y^3")],
    ids=lambda g: ",".join(g),
)
def test_socles_match_sympy_quotient_over_q(gens):
    sympy = pytest.importorskip("sympy")
    J = make_ideal(QQ, ("x", "y"), gens)
    x, y = symbols = sympy.symbols("x y")
    R = sympy.QQ.old_poly_ring(x, y, order="grevlex")
    quotient = R.ideal(*(sympy.sympify(g.replace("^", "**")) for g in gens)).quotient(R.ideal(x, y))
    exprs = [R.to_sympy(g) for g in quotient.gens]
    expected = sympy.groebner(exprs, *symbols, order="grevlex", domain=sympy.QQ)
    got = socle_quotient(make_quotient(J)).defining.groebner_basis()
    as_pairs = {
        frozenset((e, Fraction(int(c.numerator), int(c.denominator))) for e, c in g.terms())
        for g in expected.polys
    }
    assert {frozenset(g.iter_terms()) for g in got} == as_pairs
