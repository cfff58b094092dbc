"""The colon J : (k_1, ..., k_r) read off the quotient's staircase, against elimination.

colon_quotient(A, gens) computes R/S for S = J : (gens) and A = R/J by linear
algebra on A's standard monomials: it publishes S's reduced basis and hands on
R/S's staircase, A's without the kernel's pivots. The reference is conftest's
reference_colon, J : (k) = (J ∩ (k)) / k by elimination, intersected over the
generators by elimination too (test_socle_kernel's elimination_colon, whose
colon by the variables is the socle reference). The inputs are CORPUS and random Artinian
ideals over F2, F32003 and Q, in degrevlex and lex, homogeneous and not. The
generator sets include one that is zero in A, one with a constant term and
multi-term forms. sympy's ideal quotient is a third reference over Q.

The colon series that the equivalence walks, each rung colon_quotient of the
rung below, is cross-checked by the oracle: rung i's image in build_model(A)
is the annihilator of the i-th power of the generators' image.
"""

from __future__ import annotations

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
    UsageError,
    annihilator,
    build_model,
    colon_quotient,
    irrelevant_power,
    make_quotient,
    oracle_power,
    socle_quotient,
    storch_ideal,
    subspace_of_ideal,
)
from colonlab.ideal_ops import _colon_series

from conftest import CHAR2_VARIANT_GENS, CORPUS, F2, F32003, make_ideal, random_nonzero_poly
from test_socle_kernel import elimination_colon, random_artinian_ideal

FIELDS = [F2, F32003, QQ]
ORDERS = [DegRevLex(), Lex()]


def generator_sets(J):
    """Named generator sets over J's ring: the variables, m^2, (x, y^2), forms and edge cases."""
    ring = J.ring
    x = [ring.variable(j) for j in range(ring.nvars)]
    first, last = x[0], x[-1]
    return {
        "variables": x,
        "m^2": list(irrelevant_power(ring, 2).generators),
        "x,y^2": [first, last * last],
        "form": [first + last + first * last],
        "constant term": [ring.one + first, last],
        "zero in A": [J.generators[0] * (first + ring.one), J.generators[-1] * last],
    }


def check_colon(J, gens):
    A = make_quotient(J)
    B = colon_quotient(A, gens)
    S = B.defining
    assert S._gb is not None  # published through _known_basis
    assert S.groebner_basis() == elimination_colon(J, gens), (J, gens)
    assert B.standard_monomials == make_quotient(S).standard_monomials, (J, gens)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("case", CORPUS, ids=[case[0] for case in CORPUS])
def test_corpus_colons_match_elimination(case, order):
    _, field, variables, gens, _ = case
    J = make_ideal(field, variables, gens, order)
    for generators in generator_sets(J).values():
        check_colon(J, generators)


@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_random_colons_match_elimination(field, order, homogeneous):
    rng = random.Random(f"colon/{field.name}/{order.name}/{homogeneous}")
    checked = 0
    while checked < 8:
        J = random_artinian_ideal(rng, field, order, homogeneous)
        try:
            make_quotient(J)
        except PreconditionError:  # a lower term cancelled a pure power
            continue
        ring = J.ring
        forms = [random_nonzero_poly(rng, ring, 2, 3) for _ in range(rng.randint(1, 3))]
        check_colon(J, forms)
        check_colon(J, forms + [J.generators[-1] * forms[0]])  # one more, zero in A
        checked += 1


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("case", CORPUS, ids=[case[0] for case in CORPUS])
def test_socle_is_the_colon_by_the_variables(case, order):
    _, field, variables, gens, _ = case
    J = make_ideal(field, variables, gens, order)
    A = make_quotient(J)
    by_variables = colon_quotient(A, generator_sets(J)["variables"])
    socle = socle_quotient(A)
    assert by_variables.defining.groebner_basis() == socle.defining.groebner_basis()
    assert by_variables.standard_monomials == socle.standard_monomials


def test_named_colons():
    ring = Ring(("x", "y"), QQ)
    A = make_quotient(Ideal(ring, (ring.parse("x^2"), ring.parse("y^3"))))
    unit = colon_quotient(A, [])  # J : (0) is the whole ring
    assert unit.defining.groebner_basis() == (ring.one,) and unit.standard_monomials == ()
    unit = colon_quotient(A, [ring.parse("x^2*y - y^3")])  # zero in A
    assert unit.defining.groebner_basis() == (ring.one,)
    same = colon_quotient(A, [ring.parse("1 + x")])  # a unit of the local ring A
    assert same.defining.groebner_basis() == A.defining.groebner_basis()
    assert same.standard_monomials == A.standard_monomials
    B = colon_quotient(A, [ring.parse("x*y")])
    assert [str(g) for g in B.defining.groebner_basis()] == ["y^2", "x"]
    assert B.standard_monomials == ((0, 0), (0, 1))
    check_colon(storch_ideal(), [storch_ideal().ring.parse("x + y^2")])
    other = Ring(("x", "y"), F2)
    with pytest.raises(UsageError):
        colon_quotient(A, [other.parse("x")])


@pytest.mark.parametrize(
    "gens, by",
    [(("x^2", "y^2"), ("x*y",)), (("x^2", "y^2"), ("x + y",)),
     (("x^3", "y^2", "x*y"), ("x", "y^2")),
     (("x^2+y^2", "x*y^2"), ("x^2", "x*y", "y^2")), (("x^2-y", "y^3"), ("x - y", "1 + x*y")),
     (("x^3", "y^3"), ("x^2 - x*y", "x*y^2"))],
    ids=lambda g: ",".join(g),
)
def test_colons_match_sympy_quotient_over_q(gens, by):
    sympy = pytest.importorskip("sympy")
    J = make_ideal(QQ, ("x", "y"), gens)
    x, y = symbols = sympy.symbols("x y")

    def exprs(strings):
        return [sympy.sympify(s.replace("^", "**")) for s in strings]

    R = sympy.QQ.old_poly_ring(x, y, order="grevlex")
    quotient = R.ideal(*exprs(gens)).quotient(R.ideal(*exprs(by)))
    expected = sympy.groebner(
        [R.to_sympy(g) for g in quotient.gens], *symbols, order="grevlex", domain=sympy.QQ
    )
    got = colon_quotient(make_quotient(J), [J.ring.parse(s) for s in by]).defining.groebner_basis()
    as_pairs = {
        frozenset((e, Fraction(int(c.numerator), int(c.denominator))) for e, c in g.terms())
        for g in expected.polys
    }
    assert {frozenset(g.iter_terms()) for g in got} == as_pairs


# --- the colon series against the oracle ------------------------------------


def check_series_against_oracle(J, gens, top):
    """Rung i of J's colon series by gens has image annihilator(M, V^i), M = build_model(A)."""
    A = make_quotient(J)
    M = build_model(A)
    V = subspace_of_ideal(M, Ideal(J.ring, tuple(gens)))
    series = _colon_series(A, gens, top)
    assert len(series) == top + 1
    for i, rung in enumerate(series):
        image = subspace_of_ideal(M, rung.defining)
        assert image == annihilator(M, oracle_power(M, V, i)), (J, gens, i)


@pytest.mark.parametrize("case", CORPUS, ids=[case[0] for case in CORPUS])
def test_corpus_series_match_the_oracle(case):
    _, field, variables, gens, _ = case
    for order in ORDERS:
        J = make_ideal(field, variables, gens, order)
        top = make_quotient(J).length
        for name in ("variables", "m^2", "x,y^2", "form"):
            check_series_against_oracle(J, generator_sets(J)[name], min(top, 6))


@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_random_series_match_the_oracle(field, homogeneous):
    rng = random.Random(f"colon-series/{field.name}/{homogeneous}")
    checked = 0
    while checked < 4:
        J = random_artinian_ideal(rng, field, rng.choice(ORDERS), homogeneous)
        try:
            length = make_quotient(J).length
        except PreconditionError:  # a lower term cancelled a pure power
            continue
        if not length:  # the oracle has no model of the zero ring
            continue
        forms = [random_nonzero_poly(rng, J.ring, 2, 3) for _ in range(rng.randint(1, 2))]
        check_series_against_oracle(J, forms, min(length, 4))
        checked += 1


def test_named_series_match_the_oracle():
    J = storch_ideal()
    check_series_against_oracle(J, [J.ring.parse("x"), J.ring.parse("y")], 4)
    J = make_ideal(F2, ("x", "y"), CHAR2_VARIANT_GENS)
    check_series_against_oracle(J, [J.ring.parse("x^2"), J.ring.parse("y")], 4)
    J = make_ideal(QQ, ("x", "y"), ("x^2", "x*y", "y^2"))
    check_series_against_oracle(J, [J.ring.parse("x + y")], 2)
