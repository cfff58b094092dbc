"""Linear-algebra oracle: models, subspaces, annihilators, powers, agreement."""

from __future__ import annotations

import random

import pytest

from colonlab import (
    Ideal,
    QQ,
    Ring,
    UsageError,
    annihilator,
    build_model,
    colon,
    filtration_hilbert,
    ideal_power,
    ideal_sum,
    irrelevant_power,
    length_of_quotient,
    make_quotient,
    oracle_filtration_hilbert,
    oracle_power,
    subspace_of_ideal,
)
from colonlab.oracle import Subspace, subspace_from_vectors

from conftest import F2, STORCH_GENS, make_ideal


def mat_mul(a, b, p):
    """Dense product of two square row-major matrices over F_p (p) or Q (p None)."""
    n = len(a)
    out = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[x % p for x in row] for row in out] if p else out


def matrix(M, i):
    """Dense row-major matrix of variable i, column c being M.apply(i, e_c)."""
    units = [[M.field.one if r == c else M.field.zero for r in range(M.dim)] for c in range(M.dim)]
    return [list(row) for row in zip(*(M.apply(i, e) for e in units))]


@pytest.fixture
def square_model():
    ring = Ring(("x", "y"), QQ)
    J = Ideal(ring, (ring.parse("x^2"), ring.parse("y^2")))
    return build_model(make_quotient(J))


def test_univariate_multiplication_matrix():
    ring = Ring(("x",), QQ)
    A = make_quotient(Ideal(ring, (ring.parse("x^2"),)))
    M = build_model(A)
    assert M.basis == ((0,), (1,))
    assert [[int(v) for v in row] for row in matrix(M, 0)] == [[0, 0], [1, 0]]


def test_model_dimensions(square_model):
    assert square_model.dim == 4


def test_multiplication_matrices_commute(square_model):
    mx, my = (matrix(square_model, i) for i in range(2))
    assert mat_mul(mx, my, None) == mat_mul(my, mx, None)


def test_storch_model_dimension():
    A = make_quotient(make_ideal(F2, ("x", "y"), STORCH_GENS))
    assert build_model(A).dim == 5


def test_subspace_of_unit_ideal_is_full(square_model):
    V = subspace_of_ideal(square_model, Ideal(square_model.ring, (square_model.ring.one,)))
    assert V.dim == square_model.dim


def test_subspace_of_defining_ideal_is_zero(square_model):
    V = subspace_of_ideal(square_model, square_model.quotient.defining)
    assert V.dim == 0


def test_subspace_of_maximal_ideal(square_model):
    V = subspace_of_ideal(square_model, irrelevant_power(square_model.ring, 1))
    assert V.dim == 3


def test_annihilator_of_zero_is_full(square_model):
    zero = Subspace({}, square_model.dim, square_model.field.zero)
    assert annihilator(square_model, zero).dim == square_model.dim


def test_annihilator_of_full_space_is_zero(square_model):
    assert annihilator(square_model, square_model.full_space()).dim == 0


def test_annihilator_of_square_power(square_model):
    V = subspace_of_ideal(square_model, irrelevant_power(square_model.ring, 2))
    ann = annihilator(square_model, V)
    assert ann.dim == 3
    assert ann == subspace_of_ideal(square_model, irrelevant_power(square_model.ring, 1))


def test_annihilator_rejects_unstable_subspace(square_model):
    # span{x} is not an ideal of k[x,y]/(x^2, y^2): y*x = xy falls outside.
    vec = square_model.coords(square_model.ring.parse("x"))
    V = subspace_from_vectors([vec], square_model.dim, square_model.field)
    with pytest.raises(UsageError):
        annihilator(square_model, V)


def test_power_zero_is_full(square_model):
    V = subspace_of_ideal(square_model, irrelevant_power(square_model.ring, 1))
    assert oracle_power(square_model, V, 0).dim == square_model.dim


def test_power_dimension_chain(square_model):
    V = subspace_of_ideal(square_model, irrelevant_power(square_model.ring, 1))
    dims = [oracle_power(square_model, V, k).dim for k in range(4)]
    assert dims == [4, 3, 1, 0]
    assert V.dim == 3


def test_oracle_filtration_storch():
    A = make_quotient(make_ideal(F2, ("x", "y"), STORCH_GENS))
    M = build_model(A)
    table = oracle_filtration_hilbert(M, irrelevant_power(A.ring, 1))
    assert table.values == (1, 2, 1, 1) and table.delta == 3


def test_oracle_filtration_square(square_model):
    table = oracle_filtration_hilbert(square_model, irrelevant_power(square_model.ring, 1))
    assert table.values == (1, 2, 1)


def test_rref_is_idempotent_and_exact():
    rng = random.Random(47)
    ring = Ring(("x", "y"), QQ)
    J = Ideal(ring, (ring.parse("x^3"), ring.parse("y^3")))
    M = build_model(make_quotient(J))
    for _ in range(50):
        vectors = [
            [QQ.element(rng.randint(-6, 6)) for _ in range(M.dim)]
            for _ in range(rng.randint(1, 5))
        ]
        V = subspace_from_vectors(vectors, M.dim, QQ)
        rows = V.rows  # one read: the view builds fresh tuples each time
        again = subspace_from_vectors([list(r) for r in rows], M.dim, QQ)
        assert again == V
        for row, pivot in zip(rows, V.pivots):
            assert row[pivot] == QQ.one
            for other in rows:
                if other is not row:
                    assert other[pivot] == QQ.zero


def test_groebner_oracle_agreement(corpus):
    for name, ideal, _ in corpus[:6]:
        A = make_quotient(ideal)
        M = build_model(A)
        ring = A.ring
        m = irrelevant_power(ring, 1)
        table_g = filtration_hilbert(A, m)
        table_o = oracle_filtration_hilbert(M, m)
        assert table_g == table_o, name
        V = subspace_of_ideal(M, m)
        for i in range(table_g.delta + 2):
            power_subspace = oracle_power(M, V, i)
            assert length_of_quotient(ideal_sum(ideal, ideal_power(m, i))) == (
                M.dim - power_subspace.dim
            ), name
            colon_image = subspace_of_ideal(M, colon(ideal, ideal_sum(ideal, ideal_power(m, i))))
            assert colon_image == annihilator(M, power_subspace), name


def test_duality_length_identity(corpus):
    for name, ideal, gorenstein in corpus:
        A = make_quotient(ideal)
        M = build_model(A)
        V = subspace_of_ideal(M, irrelevant_power(A.ring, 1))
        if gorenstein:
            for i in range(M.dim + 1):
                P = oracle_power(M, V, i)
                assert annihilator(M, P).dim == M.dim - P.dim, name
                if P.dim == 0:
                    break
        elif name == "fat_point":
            ann = annihilator(M, V)
            assert ann.dim == 2 and M.dim - V.dim == 1


def test_variable_matrices_are_nilpotent_on_local_instances(corpus):
    for name, ideal, _ in corpus[:8]:
        A = make_quotient(ideal)
        M = build_model(A)
        p = M.field.p
        for mat in (matrix(M, i) for i in range(A.ring.nvars)):
            power = mat
            for _ in range(M.dim):
                power = mat_mul(power, mat, p)
            assert all(x == 0 for row in power for x in row), name


def test_matrix_columns_reproduce_variable_normal_forms(corpus):
    # Applying each matrix to the basis element 1 gives that variable's image.
    for name, ideal, _ in corpus[:8]:
        A = make_quotient(ideal)
        M = build_model(A)
        for i in range(A.ring.nvars):
            column = [row[0] for row in matrix(M, i)]
            assert column == M.coords(A.ring.variable(i)), name


def test_subspace_equality_is_canonical(square_model):
    rows = [square_model.coords(square_model.ring.parse(s)) for s in ("x", "x+y", "y")]
    V = subspace_from_vectors(rows, square_model.dim, QQ)
    W = subspace_from_vectors(list(reversed(rows)), square_model.dim, QQ)
    assert V == W and isinstance(V, Subspace)
