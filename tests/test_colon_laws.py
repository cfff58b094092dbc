"""Property tests of the colon and intersection laws, and their oracle images.

Inputs are small Artinian ideals I in 2 or 3 variables over F2, F32003 and Q,
under degrevlex and lex, homogeneous or not: a pure power of every variable
(so the quotient is Artinian) plus a few random polynomials without constant
term (so I is proper). The divisors J and K are random polynomials without
constant term or single variables; the variables send homogeneous colons down
the variable-colon path.

The Groebner side is checked against the laws themselves, and against the
oracle's model M of R/I: the image of I : K is the annihilator of the image
of K, and the image of an intersection of ideals containing I is the
intersection of their images.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colonlab import (
    DegRevLex,
    Ideal,
    Lex,
    QQ,
    Ring,
    annihilator,
    build_model,
    colon,
    ideal_equal,
    ideal_intersect,
    ideal_membership,
    ideal_product,
    ideal_sum,
    make_quotient,
    subspace_intersect,
    subspace_of_ideal,
)
from colonlab.ideal_ops import monomials_of_degree

from conftest import F2, F32003

FIELDS = pytest.mark.parametrize("field", [F2, F32003, QQ], ids=lambda f: f.name)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=30, database=None)


def coefficients(field):
    if field.p is None:
        return st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.integers(0, field.p - 1)


def polys(ring, homogeneous):
    """Nonzero polynomials of 1-3 terms without constant term; of degree 1-2 if homogeneous."""
    n = ring.nvars
    if homogeneous:
        exps = st.integers(1, 2).flatmap(
            lambda d: st.sampled_from(monomials_of_degree(ring, d))
        )
    else:
        exps = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    terms = st.lists(st.tuples(exps, coefficients(ring.field)), min_size=1, max_size=3)
    return terms.map(ring.from_terms).filter(bool)


def divisors(ring, homogeneous):
    """An ideal of 1-2 random generators, or a single variable."""
    variables = st.sampled_from(range(ring.nvars)).map(
        lambda j: Ideal(ring, (ring.variable(j),))
    )
    randoms = st.lists(polys(ring, homogeneous), min_size=1, max_size=2).map(
        lambda gens: Ideal(ring, tuple(gens))
    )
    return variables | randoms


@st.composite
def cases(draw, field):
    """(I, J, K) with I Artinian and proper."""
    nvars = draw(st.integers(2, 3))
    order = draw(st.sampled_from([DegRevLex(), Lex()]))
    homogeneous = draw(st.booleans())
    ring = Ring(("x", "y", "z")[:nvars], field, order)
    powers = [
        ring.monomial(tuple(draw(st.integers(1, 3)) if k == j else 0 for k in range(nvars)))
        for j in range(nvars)
    ]
    extras = draw(st.lists(polys(ring, homogeneous), max_size=2))
    I = Ideal(ring, tuple(powers + extras))
    return I, draw(divisors(ring, homogeneous)), draw(divisors(ring, homogeneous))


@FIELDS
@PROPERTY
@given(data=st.data())
def test_ideal_is_contained_in_its_colon(field, data):
    I, _, K = data.draw(cases(field))
    Q = colon(I, K)
    assert all(ideal_membership(g, Q) for g in I.generators)


@FIELDS
@PROPERTY
@given(data=st.data())
def test_colon_by_a_product_is_an_iterated_colon(field, data):
    I, J, K = data.draw(cases(field))
    assert ideal_equal(colon(colon(I, J), K), colon(I, ideal_product(J, K)))


@FIELDS
@PROPERTY
@given(data=st.data())
def test_colon_by_a_sum_is_the_intersection_of_colons(field, data):
    I, J, K = data.draw(cases(field))
    assert ideal_equal(colon(I, ideal_sum(J, K)), ideal_intersect(colon(I, J), colon(I, K)))


@FIELDS
@PROPERTY
@given(data=st.data())
def test_colon_image_is_the_oracle_annihilator(field, data):
    I, _, K = data.draw(cases(field))
    M = build_model(make_quotient(I))
    assert subspace_of_ideal(M, colon(I, K)) == annihilator(M, subspace_of_ideal(M, K))


@FIELDS
@PROPERTY
@given(data=st.data())
def test_intersection_image_is_the_oracle_subspace_intersection(field, data):
    I, J, K = data.draw(cases(field))
    M = build_model(make_quotient(I))
    J, K = ideal_sum(I, J), ideal_sum(I, K)
    expected = subspace_intersect(subspace_of_ideal(M, J), subspace_of_ideal(M, K), field)
    assert subspace_of_ideal(M, ideal_intersect(J, K)) == expected
