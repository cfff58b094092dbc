"""Property tests for the one term-merge kernel (poly._merge) through its callers.

+ and - merge with the ring's zero key as the shift, so they are checked under
all three orders, whose keys differ in length (Lex keys have n entries,
DegRevLex and Elim keys n + 1), with a zero operand on either side. Exact
division runs the same loop with the divisor's reducer entry: it must invert
multiplication and refuse a divisor that does not divide.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from colonlab import QQ, DegRevLex, InternalError, Lex, Ring, normal_form
from colonlab.ideal_ops import _exact_divide

from conftest import F2, F32003
from test_kernel_properties import PROPERTY, as_dict, assert_canonical, coefficients, ref_combine

FIELDS = pytest.mark.parametrize("field", [F2, F32003, QQ], ids=lambda f: f.name)
RINGS = {
    "degrevlex": lambda field: Ring(("x", "y"), field, DegRevLex()),
    "lex": lambda field: Ring(("x", "y"), field, Lex()),
    "elim": lambda field: Ring(("x", "y"), field).with_elim_variable(),
}
ORDERS = pytest.mark.parametrize("order", list(RINGS))


def polys(ring, max_terms=6):
    exps = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    pairs = st.lists(st.tuples(exps, coefficients(ring.field)), max_size=max_terms)
    return pairs.map(ring.from_terms)


@FIELDS
@ORDERS
@PROPERTY
@given(data=st.data())
def test_add_sub_match_dict_reference(field, order, data):
    ring = RINGS[order](field)
    key_length = ring.nvars if order == "lex" else ring.nvars + 1
    f, g = data.draw(polys(ring)), data.draw(polys(ring))
    for a, b in ((f, g), (f, ring.zero), (ring.zero, g)):
        for result, expected in (
            (a + b, ref_combine(a, b, field.add)),
            (a - b, ref_combine(a, b, field.sub)),
        ):
            assert_canonical(result)
            assert all(len(k) == key_length for k, _ in result.terms)
            assert as_dict(result) == expected


@FIELDS
@ORDERS
@PROPERTY
@given(data=st.data())
def test_exact_divide_inverts_multiplication(field, order, data):
    ring = RINGS[order](field)
    f = data.draw(polys(ring))
    d = data.draw(polys(ring).filter(bool))
    quotient = _exact_divide(f * d, d)
    assert_canonical(quotient)
    assert quotient == f


@FIELDS
@ORDERS
@PROPERTY
@given(data=st.data())
def test_exact_divide_refuses_a_non_divisor(field, order, data):
    ring = RINGS[order](field)
    f = data.draw(polys(ring))
    d = data.draw(polys(ring).filter(bool))
    # {d} is a Groebner basis of (d): a nonzero remainder r keeps f*d + r out of (d).
    r = normal_form(data.draw(polys(ring)), [d])
    assume(r)
    with pytest.raises(InternalError):
        _exact_divide(f * d + r, d)
