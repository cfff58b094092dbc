"""Hilbert functions: lengths, graded tables, filtrations, symmetry."""

from __future__ import annotations

import pytest

from colonlab import (
    HilbertTable,
    Ideal,
    PreconditionError,
    QQ,
    Ring,
    UsageError,
    build_model,
    filtration_hilbert,
    graded_hilbert,
    ideal_sum,
    irrelevant_power,
    is_symmetric,
    length_of_quotient,
    make_quotient,
    nilpotency_index,
    oracle_filtration_hilbert,
    unit_ideal,
    verify_main_equivalence,
)
from colonlab.hilbert import image_power_chain

from conftest import F2, F32003, STORCH_GENS, make_ideal


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.fixture
def r2():
    return Ring(("x", "y"), QQ)


def test_length_examples(r2):
    assert length_of_quotient(Ideal(r2, (r2.parse("x^2"), r2.parse("y^2")))) == 4
    assert length_of_quotient(unit_ideal(r2)) == 0
    assert length_of_quotient(make_ideal(F2, ("x", "y"), STORCH_GENS)) == 5


def test_graded_table_of_square_ideal(r2):
    A = make_quotient(Ideal(r2, (r2.parse("x^2"), r2.parse("y^2"))))
    table = graded_hilbert(A)
    assert table.values == (1, 2, 1) and table.delta == 2 and table.kind == "graded"


@pytest.mark.parametrize("d", [1, 2, 5])
def test_graded_table_univariate(d):
    ring = Ring(("x",), QQ)
    A = make_quotient(Ideal(ring, (ring.parse(f"x^{d}"),)))
    table = graded_hilbert(A)
    assert table.values == (1,) * d and table.delta == d - 1


def test_graded_table_three_squares():
    A = make_quotient(make_ideal(QQ, ("x", "y", "z"), ("x^2", "y^2", "z^2")))
    table = graded_hilbert(A)
    assert table.values == (1, 3, 3, 1) and table.delta == 3


def test_graded_requires_homogeneous():
    A = make_quotient(make_ideal(F2, ("x", "y"), STORCH_GENS))
    with pytest.raises(PreconditionError):
        graded_hilbert(A)


def test_nilpotency_of_maximal_ideal(r2):
    A = make_quotient(Ideal(r2, (r2.parse("x^2"), r2.parse("y^2"))))
    assert nilpotency_index(A, irrelevant_power(r2, 1)) == 2


def test_nilpotency_storch():
    I = make_ideal(F2, ("x", "y"), STORCH_GENS)
    A = make_quotient(I)
    assert nilpotency_index(A, irrelevant_power(I.ring, 1)) == 3


def test_nilpotency_of_zero_ideal(r2):
    A = make_quotient(Ideal(r2, (r2.parse("x^2"), r2.parse("y^2"))))
    assert nilpotency_index(A, Ideal(r2, ())) == 0


def test_nilpotency_rejects_unit(r2):
    A = make_quotient(Ideal(r2, (r2.parse("x^2"), r2.parse("y^2"))))
    with pytest.raises(UsageError):
        nilpotency_index(A, unit_ideal(r2))


def test_nilpotency_rejects_non_primary():
    ring = Ring(("x", "y"), QQ)
    # R/J has two points, so (x, y) is not nilpotent modulo J.
    J = Ideal(ring, (ring.parse("x^2-x"), ring.parse("y")))
    A = make_quotient(J)
    with pytest.raises(PreconditionError):
        nilpotency_index(A, irrelevant_power(ring, 1))


def test_filtration_storch():
    I = make_ideal(F2, ("x", "y"), STORCH_GENS)
    A = make_quotient(I)
    table = filtration_hilbert(A, irrelevant_power(I.ring, 1))
    assert table.values == (1, 2, 1, 1) and table.delta == 3
    assert table.kind == "filtration"
    assert not is_symmetric(table)


def test_filtration_matches_graded_for_homogeneous(r2):
    A = make_quotient(Ideal(r2, (r2.parse("x^2"), r2.parse("y^2"))))
    table = filtration_hilbert(A, irrelevant_power(r2, 1))
    assert table.values == (1, 2, 1)
    assert table.values == graded_hilbert(A).values


def test_filtration_of_inner_power():
    ring = Ring(("x",), QQ)
    A = make_quotient(Ideal(ring, (ring.parse("x^3"),)))
    table = filtration_hilbert(A, Ideal(ring, (ring.parse("x^2"),)))
    assert table.values == (2, 1) and table.delta == 1


@pytest.mark.parametrize("field", [F32003, QQ], ids=lambda f: f.name)
def test_redundant_generators_give_the_chain_of_m(field):
    # Six linear forms x + a*y + b*z span all linear forms, so they generate m;
    # the chain must hold the generators of m's powers, not the forms' products.
    A = make_quotient(make_ideal(field, ("x", "y", "z"), ("x^3", "y^3", "z^3")))
    ring = A.ring
    forms = Ideal(ring, tuple(ring.parse(f"x+{a}*y+{b}*z") for a in (1, 2) for b in (1, 2, 3)))
    m = irrelevant_power(ring, 1)
    sizes = [len(gens) for gens in image_power_chain(A, forms)]
    assert sizes == [len(gens) for gens in image_power_chain(A, m)] == [3, 6, 7, 6, 3, 1]
    assert filtration_hilbert(A, forms) == filtration_hilbert(A, m)
    assert verify_main_equivalence(A, forms) == verify_main_equivalence(A, m)
    M = build_model(A)
    assert oracle_filtration_hilbert(M, forms) == oracle_filtration_hilbert(M, m)


def test_symmetry_predicate():
    assert is_symmetric(HilbertTable((1, 2, 1), 2, "graded"))
    assert not is_symmetric(HilbertTable((1, 2, 1, 1), 3, "filtration"))
    assert is_symmetric(HilbertTable((1,), 0, "graded"))


def test_partial_sum_identity_and_total(corpus):
    for name, ideal, _ in corpus:
        A = make_quotient(ideal)
        ring = A.ring
        m = irrelevant_power(ring, 1)
        table = filtration_hilbert(A, m)
        assert sum(table.values) == A.length, name
        running = 0
        power = unit_ideal(ring)
        from colonlab import ideal_product

        for i in range(table.delta + 1):
            running += table.values[i]
            power = ideal_product(power, m)
            assert running == length_of_quotient(ideal_sum(ideal, power)), name


def test_graded_equals_filtration_on_homogeneous_corpus(corpus):
    for name, ideal, _ in corpus:
        gb = ideal.groebner_basis()
        if not all(g.is_homogeneous()[0] for g in gb):
            continue
        A = make_quotient(ideal)
        m = irrelevant_power(A.ring, 1)
        assert graded_hilbert(A).values == filtration_hilbert(A, m).values, name


@pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
def test_monomial_complete_intersection_closed_form(a, b):
    ring = Ring(("x", "y"), QQ)
    A = make_quotient(Ideal(ring, (ring.parse(f"x^{a}"), ring.parse(f"y^{b}"))))
    table = graded_hilbert(A)
    expected = tuple(convolve([1] * a, [1] * b))
    assert table.values == expected
    assert table.delta == a + b - 2
    assert is_symmetric(table)


def test_table_invariants_enforced():
    from colonlab import InternalError

    with pytest.raises(InternalError):
        HilbertTable((1, 0), 0, "graded")
    with pytest.raises(InternalError):
        HilbertTable((0,), 0, "graded")
    with pytest.raises(InternalError):
        HilbertTable((1,), 0, "bogus")
