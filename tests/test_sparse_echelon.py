"""The oracle's sparse echelon against dense Gauss-Jordan, and a longer model.

Inside the oracle vectors are sparse {column: entry} dicts, while
`Subspace.rows` reads them as dense tuples. Over F2, F32003 and Q,
`subspace_from_vectors` must give the same canonical basis for dense vectors,
their dict forms and any order of them, and that basis must be the reduced
row echelon form that a dense Gauss-Jordan elimination spelled out here
computes. The kernel of a matrix, which `_null_space` takes in one walk over
the matrix's columns, must be canonical, be annihilated by the matrix and have
dimension ncols - rank.

The CORPUS models stop at length 80; a non-monomial complete intersection of
degrees (5, 5, 5) (length 125) checks the corollary 0 : m^i = m^(delta+1-i)
on a longer one.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from colonlab import (
    QQ,
    annihilator,
    build_model,
    graded_hilbert,
    irrelevant_power,
    make_quotient,
    oracle_filtration_hilbert,
    oracle_power,
    subspace_of_ideal,
)
from colonlab.oracle import _null_space, subspace_from_vectors

from conftest import F2, F32003, make_ideal
from test_kernel_properties import PROPERTY

FIELDS = pytest.mark.parametrize("field", [F2, F32003, QQ], ids=lambda f: f.name)


def entries(field):
    # Mostly zeros, so that vectors are sparse and often dependent.
    if field.p is None:
        nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    else:
        nonzero = st.integers(1, min(field.p - 1, 3)) | st.just(field.p - 1)
    return st.one_of(st.just(field.zero), st.just(field.zero), nonzero)


@st.composite
def vector_lists(draw, field):
    """Vectors of one length with zero vectors, duplicates and, sometimes, full rank."""
    n = draw(st.integers(1, 7))
    vectors = draw(st.lists(st.lists(entries(field), min_size=n, max_size=n), max_size=8))
    vectors += [[field.zero] * n] * draw(st.integers(0, 2))
    if vectors:
        vectors += draw(st.lists(st.sampled_from(vectors), max_size=3))
    if draw(st.booleans()):
        vectors += [[field.one if c == r else field.zero for c in range(n)] for r in range(n)]
    return n, vectors


def gauss_jordan(vectors, n, field):
    """(rows, pivots) of the reduced row echelon form, by dense elimination."""
    rows = [list(v) for v in vectors]
    pivots = []
    for c in range(n):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                f = row[c]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(row, rows[r])]
        pivots.append(c)
    return tuple(tuple(row) for row in rows[: len(pivots)]), tuple(pivots)


def as_dict(v):
    return {c: x for c, x in enumerate(v) if x != 0}


@FIELDS
@PROPERTY
@given(data=st.data())
def test_dense_dict_and_shuffled_inputs_give_the_gauss_jordan_basis(field, data):
    n, vectors = data.draw(vector_lists(field))
    rows, pivots = gauss_jordan(vectors, n, field)
    shuffled = data.draw(st.permutations(vectors))
    for inputs in (vectors, [as_dict(v) for v in vectors], shuffled):
        V = subspace_from_vectors(inputs, n, field)
        assert V.rows == rows
        assert V.pivots == pivots
        assert V.ncols == n
        assert all(type(row) is tuple and len(row) == n for row in V.rows)
    assert [type(x) for row in V.rows for x in row] == [type(field.zero)] * (len(rows) * n)


@FIELDS
@PROPERTY
@given(data=st.data())
def test_kernel_is_annihilated_and_has_dimension_ncols_minus_rank(field, data):
    n, dense = data.draw(vector_lists(field))
    columns = [{r: row[c] for r, row in enumerate(dense) if row[c] != 0} for c in range(n)]
    K = _null_space(columns, field)
    assert K == subspace_from_vectors(K.rows, n, field)  # canonical
    for x in K.rows:
        for row in dense:
            total = field.zero
            for a, b in zip(row, x):
                total = field.add(total, field.mul(a, b))
            assert total == 0
    assert K.dim == n - len(gauss_jordan(dense, n, field)[1])


def h_vector(degrees):
    """Graded Hilbert function of a complete intersection: prod (1 + t + ... + t^(d-1))."""
    h = [1]
    for d in degrees:
        out = [0] * (len(h) + d - 1)
        for i, c in enumerate(h):
            for j in range(d):
                out[i + j] += c
        h = out
    return tuple(h)


def test_corollary_on_a_length_125_complete_intersection():
    forms = ("x^5 + 2*x*y^4 + y^3*z^2", "y^5 + 3*x^2*z^3 + x*y*z^3", "z^5 + x^3*y^2 + 5*x*y^2*z^2")
    A = make_quotient(make_ideal(F32003, ("x", "y", "z"), forms))
    M = build_model(A)
    h = h_vector((5, 5, 5))
    delta = len(h) - 1
    assert M.dim == sum(h) == 125
    m = irrelevant_power(A.ring, 1)
    assert graded_hilbert(A).values == h
    assert oracle_filtration_hilbert(M, m).values == h
    V = subspace_of_ideal(M, m)
    powers = [oracle_power(M, V, k) for k in range(delta + 2)]
    assert [power.dim for power in powers] == [sum(h[k:]) for k in range(delta + 2)]
    for i in range(delta + 1):
        assert annihilator(M, powers[i]) == powers[delta + 1 - i], i
