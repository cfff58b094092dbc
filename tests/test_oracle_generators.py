"""The oracle's generator-based products against their all-rows definitions.

The oracle multiplies and annihilates through ideal generators of a subspace V
(`oracle._generator_operators`) and walks each power chain once per model. The
definitions it replaces are spelled out here: the image of an ideal is the
span of its generators closed under every variable, V^k is the span of every
row of V^(k-1) times every row of V, and the annihilator of V is the kernel of
the maps a -> a * v over every row v of V. Inputs are the CORPUS, a non-local
quotient and hypothesis inputs over F2, F32003 and Q in 2-3 variables.

Also here: the model's columns and images against normal forms computed in
the tests (the oracle reads only J's reduced basis), its commutativity guard
against a published basis that is not a Groebner basis, the sparse
matrix-vector product (`_times`) against a dense matrix product, and the
bounds and input checks of the power walk.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colonlab import (
    QQ,
    Ideal,
    InternalError,
    Lex,
    PreconditionError,
    Ring,
    UsageError,
    annihilator,
    build_model,
    irrelevant_power,
    make_quotient,
    normal_form,
    oracle_filtration_hilbert,
    oracle_power,
    subspace_of_ideal,
)
from colonlab.groebner import _known_basis
from colonlab.oracle import (
    Subspace,
    _dense,
    _generator_operators,
    _sparse,
    _times,
    subspace_from_vectors,
)

from conftest import CORPUS, F2, F32003, corpus_ideals, make_ideal
from test_colon_laws import cases

FIELDS = pytest.mark.parametrize("field", [F2, F32003, QQ], ids=lambda f: f.name)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=30, database=None)

NON_LOCAL = ("x^2 - x", "y^2 - y")  # four points: R/J is Artinian but not local
UNSTABLE = "requires a multiplication-stable subspace"


def ideal_closure(M, vectors):
    """The span of the vectors closed under multiplication by every variable."""
    span = subspace_from_vectors(vectors, M.dim, M.field)
    while True:
        products = [M.apply(i, row) for row in span.rows for i in range(M.ring.nvars)]
        grown = subspace_from_vectors(list(span.rows) + products, M.dim, M.field)
        if grown == span:
            return span
        span = grown


def times(M, w, columns):
    """w * v, given the columns b_c * v of the multiplication by v."""
    out = [M.field.zero] * M.dim
    for wc, column in zip(w, columns):
        if wc != 0:
            out = [x + wc * y for x, y in zip(out, column)]
    return [x % M.field.p for x in out] if M.field.p else out


def all_rows_product(M, W, V):
    """The span of w * v over every row w of W and every row v of V."""
    products = []
    for v in V.rows:
        columns = M.operator_of(v)
        products += [times(M, w, columns) for w in W.rows]
    return subspace_from_vectors(products, M.dim, M.field)


def assert_annihilator_is_all_rows_kernel(M, V):
    """annihilator(M, V) is the kernel of a -> (a * v) over every row v of V."""
    ann = annihilator(M, V)
    zero = [M.field.zero] * M.dim
    constraints = []
    for v in V.rows:
        columns = M.operator_of(v)
        assert all(times(M, a, columns) == zero for a in ann.rows)
        constraints += [list(row) for row in zip(*columns)]
    rank = subspace_from_vectors(constraints, M.dim, M.field).dim
    assert ann.dim == M.dim - rank


def image(M, K):
    """subspace_of_ideal(M, K), checked against the closure of K's generators."""
    V = subspace_of_ideal(M, K)
    assert V == ideal_closure(M, [M.coords(g) for g in K.generators])
    return V


def check_against_all_rows(M, V):
    # Each generator row is column 0 of its operator (b_0 = 1).
    generators = [operator[0] for operator in _generator_operators(M, V, "annihilator")]
    assert ideal_closure(M, generators) == V
    previous = M.full_space()
    for k in range(1, M.dim + 3):
        power = oracle_power(M, V, k)
        assert power == all_rows_product(M, previous, V), k
        assert_annihilator_is_all_rows_kernel(M, power)
        if power == previous:
            break
        previous = power


def subspaces(M):
    """Images of m, m^2 and the non-monomial ideal (x_1 + ... + x_n + x_1^2)."""
    ring = M.ring
    f = sum((ring.variable(i) for i in range(ring.nvars)), ring.variable(0) * ring.variable(0))
    ideals = (irrelevant_power(ring, 1), irrelevant_power(ring, 2), Ideal(ring, (f,)))
    return [image(M, K) for K in ideals]


def test_corpus_against_all_rows():
    for name, ideal, _ in corpus_ideals():
        A = make_quotient(ideal)
        if A.length > 60:
            continue
        M = build_model(A)
        for V in subspaces(M):
            check_against_all_rows(M, V)


def test_non_local_quotient_against_all_rows():
    M = build_model(make_quotient(make_ideal(QQ, ("x", "y"), NON_LOCAL)))
    ring = M.ring
    for text in ("x", "x*y", "x + y", "x - y", "x*y - x"):
        check_against_all_rows(M, image(M, Ideal(ring, (ring.parse(text),))))


@FIELDS
@PROPERTY
@given(data=st.data())
def test_random_inputs_against_all_rows(field, data):
    I, J, K = data.draw(cases(field))
    M = build_model(make_quotient(I))
    for ideal in (J, K):
        check_against_all_rows(M, image(M, ideal))


def test_generators_of_m_are_few():
    A = make_quotient(make_ideal(F32003, ("x", "y", "z"), ("x^3", "y^3", "z^4")))
    M = build_model(A)
    V = subspace_of_ideal(M, irrelevant_power(A.ring, 1))
    assert len(_generator_operators(M, V, "annihilator")) == 3


def test_power_walk_ends_on_an_idempotent_ideal():
    # The image of (x) in the non-local quotient is idempotent: x^2 = x.
    M = build_model(make_quotient(make_ideal(QQ, ("x", "y"), NON_LOCAL)))
    x = Ideal(M.ring, (M.ring.variable(0),))
    V = subspace_of_ideal(M, x)
    start = time.perf_counter()
    assert oracle_power(M, V, 10**9) == V
    assert time.perf_counter() - start < 1.0
    with pytest.raises(PreconditionError, match=r"not nilpotent in the quotient \(not m-primary\)"):
        oracle_filtration_hilbert(M, x)


def test_each_chain_is_walked_once_and_bounded():
    A = make_quotient(make_ideal(F32003, ("x", "y"), ("x^3", "y^4")))
    M = build_model(A)
    V = subspace_of_ideal(M, irrelevant_power(A.ring, 1))
    powers = [oracle_power(M, V, k) for k in range(8)]
    assert [P.dim for P in powers] == [12, 11, 9, 6, 3, 1, 0, 0]
    assert list(M.chains) == [V] and len(M.chains[V]) <= M.dim + 1


def test_power_of_a_foreign_subspace_is_a_usage_error():
    ring2 = Ring(("x", "y"), QQ)
    ring3 = Ring(("x", "y", "z"), QQ)
    M2 = build_model(make_quotient(Ideal(ring2, tuple(ring2.parse(s) for s in ("x^2", "y^2")))))
    M3 = build_model(make_quotient(Ideal(ring3, tuple(ring3.parse(s) for s in ("x^2", "y^2", "z^2")))))
    V2 = subspace_of_ideal(M2, irrelevant_power(ring2, 1))
    V3 = subspace_of_ideal(M3, irrelevant_power(ring3, 1))
    for M, V in ((M2, V3), (M3, V2)):
        for k in (0, 2):
            with pytest.raises(UsageError, match="subspace dimension does not match the model"):
                oracle_power(M, V, k)
        assert V not in M.chains


def test_unstable_subspaces_are_rejected_and_zero_is_an_ideal():
    # span{x} in k[x,y]/(x^2, y^2) misses y*x; span{x + y} in the non-local
    # quotient misses x*(x + y) = x + x*y.
    for generators, text in ((("x^2", "y^2"), "x"), (NON_LOCAL, "x + y")):
        M = build_model(make_quotient(make_ideal(QQ, ("x", "y"), generators)))
        V = subspace_from_vectors([M.coords(M.ring.parse(text))], M.dim, M.field)
        with pytest.raises(UsageError, match=f"^annihilator {UNSTABLE}$"):
            annihilator(M, V)
        for k in (0, 1, 2):
            with pytest.raises(UsageError, match=f"^oracle_power {UNSTABLE}$"):
                oracle_power(M, V, k)
        assert V not in M.chains
        zero = Subspace({}, M.dim, M.field.zero)
        assert annihilator(M, zero) == M.full_space()
        assert all(oracle_power(M, zero, k) == zero for k in (1, 2, 5))


def test_build_model_rejects_noncommuting_matrices():
    # (x^2, x*y + y, y^2) is no Groebner basis: y*x^2 - x*(x*y + y) reduces to y.
    # Published as one, its matrices on the staircase {1, x, y} break
    # x*y = y*x on the basis element x.
    ring = Ring(("x", "y"), QQ)
    basis = tuple(ring.parse(s) for s in ("x^2", "x*y + y", "y^2"))
    A = make_quotient(_known_basis(ring, basis))
    assert A.standard_monomials == ((0, 0), (0, 1), (1, 0))
    with pytest.raises(InternalError, match="multiplication matrices for x and y do not commute"):
        build_model(A)


def test_build_model_rejects_a_basis_tail_outside_the_staircase():
    # The tail y^2 of x*y + y^2 is itself a leading monomial.
    ring = Ring(("x", "y"), QQ)
    basis = tuple(ring.parse(s) for s in ("x^2", "x*y + y^2", "y^2"))
    A = make_quotient(_known_basis(ring, basis))
    with pytest.raises(InternalError, match=r"non-standard monomial \(0, 2\) in a basis tail"):
        build_model(A)


def normal_form_coords(M, f):
    """The dense coordinates of normal_form(f, J's basis), computed here."""
    out = [M.field.zero] * M.dim
    for e, c in normal_form(f, M.quotient.defining.groebner_basis()).iter_terms():
        out[M.index[e]] = c
    return out


@FIELDS
def test_columns_and_images_are_normal_forms(field):
    # Every column cols[i][c] and the image of a non-monomial polynomial equal
    # the normal forms of x_i b_c and of that polynomial, in degrevlex and lex.
    inputs = [(variables, gens) for _, _, variables, gens, _ in CORPUS] + [(("x", "y"), NON_LOCAL)]
    for variables, gens in inputs:
        for order in (None, Lex()):
            M = build_model(make_quotient(make_ideal(field, variables, gens, order)))
            ring = M.ring
            for i in range(ring.nvars):
                for c, e in enumerate(M.basis):
                    product = ring.monomial(e) * ring.variable(i)
                    assert _dense(M.cols[i][c], M.dim, M.field.zero) == normal_form_coords(M, product)
            f = sum((ring.variable(i) for i in range(ring.nvars)), ring.one)
            f = f * f * f + ring.monomial((7,) + (0,) * (ring.nvars - 1))
            assert M.coords(f) == normal_form_coords(M, f)


def test_a_large_exponent_walks_to_its_normal_form():
    M = build_model(make_quotient(make_ideal(F32003, ("x", "y"), NON_LOCAL)))
    f = M.ring.parse("x^100000*y^3 + 5*x^3")
    assert M.coords(f) == normal_form_coords(M, f) == [0, 0, 5, 1]  # x*y + 5*x


def dense_product(a, b, field):
    n = len(a)
    out = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = field.add(out[i][j], field.mul(a[i][k], b[k][j]))
    return out


def square_pairs(field):
    entry = (
        st.fractions(min_value=-3, max_value=3, max_denominator=3)
        if field.p is None
        else st.integers(0, field.p - 1)
    )

    def pair(n):
        matrix = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
        return st.tuples(matrix, matrix)

    return st.integers(1, 5).flatmap(pair)


@FIELDS
@PROPERTY
@given(data=st.data())
def test_sparse_matrix_product_is_the_dense_product(field, data):
    a, b = data.draw(square_pairs(field))
    a_columns = [_sparse(column) for column in zip(*a)]
    product = [_dense(_times(a_columns, _sparse(column), field.p), len(a), field.zero) for column in zip(*b)]
    assert [list(row) for row in zip(*product)] == dense_product(a, b, field)
