"""Property tests for the coefficient kernels over F_p and Q.

Each polynomial operation is compared with a dict reference built from the
field's checked per-operation methods, and every result must hold canonical
coefficients: nonzero ints in [0, p) over F_p, nonzero Fractions over Q.
Printing a polynomial and parsing the text back gives the same polynomial.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colonlab import QQ, DegRevLex, Ideal, Lex, Ring, normal_form, s_polynomial
from colonlab.groebner import _divisor, _s_pair
from colonlab.poly import mono_divides, mono_lcm

from conftest import F2, F5, F32003

FIELDS = pytest.mark.parametrize("field", [F2, F5, F32003, QQ], ids=lambda f: f.name)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=30, database=None)
NVARS = 2


def coefficients(field):
    # Small values make sums cancel; over F_p, wide ints exercise element().
    if field.p is None:
        return st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.integers(-3, 3) | st.integers(-2 * field.p, 2 * field.p)


def exponents(max_exp=2):
    return st.tuples(*[st.integers(0, max_exp)] * NVARS)


def rings(field):
    return st.sampled_from([DegRevLex(), Lex()]).map(lambda o: Ring(("x", "y"), field, o))


def polys(ring, max_terms=6):
    pairs = st.lists(st.tuples(exponents(), coefficients(ring.field)), max_size=max_terms)
    return pairs.map(ring.from_terms)


def as_dict(f):
    return dict(f.iter_terms())


def nonzero(acc, field):
    return {e: c for e, c in acc.items() if c != field.zero}


def ref_combine(f, g, op):
    field = f.ring.field
    acc = as_dict(f)
    for e, c in g.iter_terms():
        acc[e] = op(acc.get(e, field.zero), c)
    return nonzero(acc, field)


def ref_mul(f, g):
    field = f.ring.field
    acc = {}
    for ea, ca in f.iter_terms():
        for eb, cb in g.iter_terms():
            e = tuple(a + b for a, b in zip(ea, eb))
            acc[e] = field.add(acc.get(e, field.zero), field.mul(ca, cb))
    return nonzero(acc, field)


def ref_mul_term(f, coeff, exps):
    field = f.ring.field
    c = field.element(coeff)
    acc = {
        tuple(a + b for a, b in zip(e, exps)): field.mul(c, ce) for e, ce in f.iter_terms()
    }
    return nonzero(acc, field)


def assert_canonical(f):
    p = f.ring.field.p
    keys = [k for k, _ in f.terms]
    assert keys == sorted(set(keys), reverse=True)
    for _, c in f.terms:
        if p is None:
            assert type(c) is Fraction and c != 0
        else:
            assert type(c) is int and 0 < c < p


@FIELDS
@PROPERTY
@given(data=st.data())
def test_add_sub_neg_match_dict_reference(field, data):
    ring = data.draw(rings(field))
    f, g = data.draw(polys(ring)), data.draw(polys(ring))
    for result, expected in (
        (f + g, ref_combine(f, g, field.add)),
        (f - g, ref_combine(f, g, field.sub)),
        (-f, nonzero({e: field.neg(c) for e, c in f.iter_terms()}, field)),
    ):
        assert_canonical(result)
        assert as_dict(result) == expected


@FIELDS
@PROPERTY
@given(data=st.data())
def test_scale_and_mul_term_match_dict_reference(field, data):
    ring = data.draw(rings(field))
    f = data.draw(polys(ring))
    coeff = data.draw(coefficients(field))
    shift = data.draw(exponents())
    zeros = (0,) * NVARS
    for result, expected in (
        (f.scale(coeff), ref_mul_term(f, coeff, zeros)),
        (f.mul_term(coeff, shift), ref_mul_term(f, coeff, shift)),
    ):
        assert_canonical(result)
        assert as_dict(result) == expected


@FIELDS
@PROPERTY
@given(data=st.data())
def test_product_matches_dict_reference(field, data):
    ring = data.draw(rings(field))
    f, g = data.draw(polys(ring)), data.draw(polys(ring))
    product = f * g
    assert_canonical(product)
    assert as_dict(product) == ref_mul(f, g)


@FIELDS
@PROPERTY
@given(data=st.data())
def test_normal_form_remainder_is_reduced_and_congruent(field, data):
    ring = data.draw(rings(field))
    divisors = data.draw(
        st.lists(polys(ring, max_terms=3).filter(bool), min_size=1, max_size=3)
    )
    f = data.draw(polys(ring))
    r = normal_form(f, divisors)
    assert_canonical(r)
    leads = [g.leading_exps for g in divisors]
    for e, _ in r.iter_terms():
        assert not any(mono_divides(lead, e) for lead in leads)
    assert Ideal(ring, tuple(divisors)).reduce(f - r).is_zero


@FIELDS
@PROPERTY
@given(data=st.data())
def test_s_pair_from_entries_matches_s_polynomial(field, data):
    ring = data.draw(rings(field))
    f = data.draw(polys(ring).filter(bool)).monic()
    g = data.draw(polys(ring).filter(bool)).monic()
    lcm = mono_lcm(f.leading_exps, g.leading_exps)
    pair = _s_pair(ring, _divisor(f), _divisor(g), lcm)
    assert_canonical(pair)
    assert pair == s_polynomial(f, g)


@FIELDS
@pytest.mark.parametrize("order", [DegRevLex(), Lex()], ids=["degrevlex", "lex"])
@PROPERTY
@given(data=st.data())
def test_parse_inverts_print(field, order, data):
    ring = Ring(("x", "y"), field, order)
    f = data.draw(polys(ring))
    assert ring.parse(str(f)) == f
