"""Ideals built with a known reduced basis against the Buchberger reference.

Some ideal operations publish their result's reduced basis instead of leaving
it to Buchberger: the closed-form right-hand sides I + m^k of the ladders,
irrelevant_power and unit_ideal, ideal_intersect under degrevlex, and the
unpermuted variable colon and the exact-division colon (in either order). Each
published basis, and the bases of the equivalence's first two power ideals
(1) and J + I, must equal conftest's reference, reduce_gb(buchberger(...)) of
generators spelled out here, over CORPUS and hypothesis-generated homogeneous ideals (complete
intersections and not), over F2, F32003 and Q, under degrevlex and lex. Under lex the elimination
contraction is a degrevlex basis, so ideal_intersect must still return the lex
reduced basis there.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colonlab import (
    QQ,
    DegRevLex,
    Ideal,
    Lex,
    PreconditionError,
    Ring,
    check_delta_identity,
    colon,
    graded_hilbert,
    ideal_intersect,
    ideal_sum,
    irrelevant_power,
    make_quotient,
    unit_ideal,
    verify_macaulay_ladder,
)
from colonlab import theorems
from colonlab.hilbert import _power_ideals
from colonlab.ideal_ops import _colon_single, monomials_of_degree
from colonlab.theorems import _complete_intersection, _plus_irrelevant_power

from conftest import CORPUS, F2, F32003, eliminated_meet, make_ideal, reference, reference_colon

FIELDS = [F2, F32003, QQ]
ORDERS = [DegRevLex(), Lex()]
FIELD_ORDER = pytest.mark.parametrize(
    "field,order",
    [(f, o) for f in FIELDS for o in ORDERS],
    ids=lambda x: x.name,
)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=30, database=None)
VARIABLES = ("x", "y", "z")


def homogeneous_corpus(field, order):
    ideals = [make_ideal(field, variables, gens, order) for _, _, variables, gens, _ in CORPUS]
    return [I for I in ideals if all(g.is_homogeneous()[0] for g in I.generators)]


def top_degree(I):
    """The largest basis degree, or the top graded degree of R/I when that is larger."""
    degrees = [sum(g.leading_exps) for g in I.groebner_basis()]
    try:
        degrees.append(graded_hilbert(make_quotient(I)).delta)
    except PreconditionError:
        pass  # not Artinian
    return max(degrees, default=0)


def coefficients(field):
    if field.p is None:
        return st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.integers(0, field.p - 1)


def form(draw, ring, degree, lead=None):
    """A nonzero homogeneous form of the given degree with up to three terms (plus lead)."""
    monomials = monomials_of_degree(ring, degree)
    terms = draw(st.lists(st.tuples(st.sampled_from(monomials), coefficients(ring.field)),
                          max_size=3))
    if lead is not None:
        terms.append((lead, ring.field.one))
    f = ring.from_terms(terms)
    return f if not f.is_zero else ring.monomial(monomials[0])


@st.composite
def homogeneous_ideals(draw, field, order):
    """Either n forms x_i^(d_i) + ... (usually a complete intersection) or 1-3 arbitrary forms."""
    n = draw(st.integers(2, 3))
    ring = Ring(VARIABLES[:n], field, order)
    if draw(st.booleans()):
        degrees = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        gens = [form(draw, ring, d, tuple(d if k == i else 0 for k in range(n)))
                for i, d in enumerate(degrees)]
    else:
        gens = [form(draw, ring, draw(st.integers(1, 3)))
                for _ in range(draw(st.integers(1, 3)))]
    return Ideal(ring, tuple(gens))


def check_closed_form(I):
    ring = I.ring
    for k in range(top_degree(I) + 3):
        expected = reference(ideal_sum(I, Ideal(ring, tuple(
            ring.monomial(e) for e in monomials_of_degree(ring, k)))).generators)
        assert _plus_irrelevant_power(I, k).groebner_basis() == expected, (I, k)


# --- the closed form of I + m^k -------------------------------------------


@FIELD_ORDER
def test_closed_form_matches_buchberger_on_corpus(field, order):
    ideals = homogeneous_corpus(field, order)
    assert len(ideals) >= 10
    for I in ideals:
        check_closed_form(I)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@PROPERTY
@given(data=st.data())
def test_closed_form_matches_buchberger_on_random_ideals(field, order, data):
    check_closed_form(data.draw(homogeneous_ideals(field, order)))


def test_closed_form_drops_basis_elements_of_degree_k():
    # x*y is a degree-2 basis element of I; in I + m^2 it is one of the monomials.
    I = make_ideal(F32003, ("x", "y"), ("x*y", "x^3", "y^3"))
    assert [str(g) for g in _plus_irrelevant_power(I, 2).groebner_basis()] == [
        "x^2", "x*y", "y^2"
    ]
    assert _plus_irrelevant_power(I, 0).groebner_basis() == (I.ring.one,)


# --- the other sites that publish a basis ---------------------------------


@FIELD_ORDER
def test_irrelevant_powers_and_unit_ideal_match_buchberger(field, order):
    ring = Ring(VARIABLES, field, order)
    for i in range(5):
        expected = reference(ring.monomial(e) for e in monomials_of_degree(ring, i))
        assert irrelevant_power(ring, i).groebner_basis() == expected
    assert unit_ideal(ring).groebner_basis() == reference([ring.one])


def mixed_ideal(field, order):
    """An inhomogeneous Artinian ideal in three variables."""
    return make_ideal(field, VARIABLES, ("x^2+y*z", "y^3-x*z^2+z", "z^4"), order)


def linear_form(ring):
    return ring.parse("x+y") if ring.nvars > 1 else ring.parse("x^2")


@FIELD_ORDER
def test_intersections_match_buchberger(field, order):
    mixed = mixed_ideal(field, order)
    ring = mixed.ring
    pairs = [(I, irrelevant_power(I.ring, 2)) for I in homogeneous_corpus(field, order)]
    pairs += [(I, Ideal(I.ring, (linear_form(I.ring),))) for I in homogeneous_corpus(field, order)]
    pairs.append((mixed, Ideal(ring, (ring.parse("x*y+z^2"), ring.parse("y-z")))))
    differs = 0
    for I, K in pairs:
        contracted = eliminated_meet(I, K)
        expected = reference(contracted)
        assert ideal_intersect(I, K).groebner_basis() == expected, (I, K)
        differs += tuple(sorted(contracted, key=lambda g: g.leading_key, reverse=True)) != expected
    # The contraction is the reduced basis under degrevlex only; publishing it
    # under lex would give a wrong basis.
    assert differs == 0 if order == DegRevLex() else differs > 0


@FIELD_ORDER
def test_colons_match_buchberger(field, order):
    for I in homogeneous_corpus(field, order) + [mixed_ideal(field, order)]:
        ring = I.ring
        divisors = [ring.variable(j) for j in range(ring.nvars)] + [linear_form(ring)]
        for f in divisors:
            expected = reference_colon(I, f)
            assert _colon_single(I, f).groebner_basis() == expected, (I, f)
            assert colon(I, Ideal(ring, (f,))).groebner_basis() == expected, (I, f)


@pytest.mark.parametrize("power", [1, 2])
def test_power_ideal_sum_matches_buchberger(power):
    for _, field, variables, gens, gorenstein in CORPUS:
        if not gorenstein:
            continue
        for order in ORDERS:
            J = make_ideal(field, variables, gens, order)
            A = make_quotient(J)
            inner = irrelevant_power(J.ring, power)
            powers = _power_ideals(A, inner)
            assert powers[0].groebner_basis() == (J.ring.one,)
            assert powers[1].groebner_basis() == reference(J.generators + inner.generators)


# --- the quotient memo ----------------------------------------------------


def test_ladder_and_delta_identity_share_one_quotient(monkeypatch):
    calls = []
    real = theorems.make_quotient

    def counted(J):
        calls.append(J)
        return real(J)

    monkeypatch.setattr(theorems, "make_quotient", counted)
    _complete_intersection.cache_clear()
    ring = Ring(("x", "y"), F32003)
    gens = [ring.parse("x^2+y^2"), ring.parse("x*y^2")]
    assert verify_macaulay_ladder(gens).holds
    assert check_delta_identity(gens)
    assert _complete_intersection(tuple(gens))[0] is _complete_intersection(tuple(gens))[0]
    assert len(calls) == 1
    # The memo tells rings apart: the same strings over F2 make a new quotient.
    ring2 = Ring(("x", "y"), F2)
    A2, _ = _complete_intersection((ring2.parse("x^2+y^2"), ring2.parse("x*y^2")))
    assert A2.ring == ring2 and len(calls) == 2
    # Errors are not kept: each failing call builds its quotient again.
    bad = (ring.parse("x^2"), ring.parse("x*y"))
    for _ in range(2):
        with pytest.raises(PreconditionError):
            verify_macaulay_ladder(bad)
    assert len(calls) == 4
