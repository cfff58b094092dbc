"""Ideal arithmetic: sums, powers, intersections, colons, quotients, socles."""

from __future__ import annotations

import random

import pytest

from colonlab import (
    Ideal,
    Lex,
    InternalError,
    PreconditionError,
    QQ,
    Ring,
    UsageError,
    build_model,
    colon,
    ideal_equal,
    ideal_intersect,
    ideal_membership,
    ideal_power,
    ideal_product,
    ideal_sum,
    irrelevant_power,
    make_quotient,
    socle_quotient,
    subspace_intersect,
    subspace_of_ideal,
    unit_ideal,
)
from colonlab.ideal_ops import MAX_QUOTIENT_LENGTH, _exact_divide

from conftest import F2, F32003, STORCH_GENS, make_ideal, random_monomial_ideal


@pytest.fixture
def r2():
    return Ring(("x", "y"), QQ)


def strings(I):
    return [str(g) for g in I.groebner_basis()]


def test_sum_with_contained_cube(r2):
    I = Ideal(r2, (r2.parse("x^2"), r2.parse("y^2")))
    total = ideal_sum(I, irrelevant_power(r2, 3))
    assert ideal_equal(total, make_ideal(QQ, ("x", "y"), ("x^2", "y^2", "x*y^2")))
    assert strings(total) == ["x^2", "y^2"]


def test_power_zero_is_unit(r2):
    I = Ideal(r2, (r2.parse("x^2"),))
    assert ideal_equal(ideal_power(I, 0), unit_ideal(r2))
    with pytest.raises(UsageError):
        ideal_power(I, -1)


def test_square_of_maximal_ideal(r2):
    m = Ideal(r2, (r2.parse("x"), r2.parse("y")))
    assert ideal_equal(ideal_power(m, 2), make_ideal(QQ, ("x", "y"), ("x^2", "x*y", "y^2")))


def test_irrelevant_power_enumeration(r2):
    assert strings(irrelevant_power(r2, 2)) == ["x^2", "x*y", "y^2"]
    assert strings(irrelevant_power(r2, 0)) == ["1"]
    r3 = Ring(("x", "y", "z"), QQ)
    assert strings(irrelevant_power(r3, 1)) == ["x", "y", "z"]


def test_irrelevant_power_matches_generic_power(r2):
    m = irrelevant_power(r2, 1)
    for i in range(7):
        assert ideal_equal(irrelevant_power(r2, i), ideal_power(m, i))


def test_intersection_of_coprime_principal_ideals(r2):
    meet = ideal_intersect(Ideal(r2, (r2.parse("x"),)), Ideal(r2, (r2.parse("y"),)))
    assert strings(meet) == ["x*y"]


def test_intersection_with_principal_ideal(r2):
    I = Ideal(r2, (r2.parse("x^2"), r2.parse("y^2")))
    meet = ideal_intersect(I, Ideal(r2, (r2.parse("x"),)))
    expected = make_ideal(QQ, ("x", "y"), ("x^2", "x*y^2"))
    assert ideal_equal(meet, expected)
    # Double inclusion via membership.
    for g in meet.generators:
        assert ideal_membership(g, I) and ideal_membership(g, Ideal(r2, (r2.parse("x"),)))
    for g in expected.generators:
        assert ideal_membership(g, meet)


def test_intersection_when_t_is_taken():
    # The elimination variable must dodge an existing variable named t.
    ring = Ring(("t", "x"), QQ)
    meet = ideal_intersect(Ideal(ring, (ring.parse("t"),)), Ideal(ring, (ring.parse("x"),)))
    assert strings(meet) == ["t*x"]


def test_intersection_under_lex_order():
    from colonlab import Lex

    ring = Ring(("x", "y"), QQ, Lex())
    meet = ideal_intersect(
        Ideal(ring, (ring.parse("x^2"), ring.parse("y^2"))),
        Ideal(ring, (ring.parse("x"),)),
    )
    assert ideal_equal(meet, Ideal(ring, (ring.parse("x^2"), ring.parse("x*y^2"))))


def test_intersection_with_unit_ideal(r2):
    I = Ideal(r2, (r2.parse("x^2+y^2"),))
    assert ideal_equal(ideal_intersect(I, unit_ideal(r2)), I)


def test_colon_of_square_ideal_by_maximal(r2):
    I = Ideal(r2, (r2.parse("x^2"), r2.parse("y^2")))
    result = colon(I, irrelevant_power(r2, 1))
    assert ideal_equal(result, make_ideal(QQ, ("x", "y"), ("x^2", "x*y", "y^2")))


def test_colon_by_unit_ideal(r2):
    I = Ideal(r2, (r2.parse("x^2"), r2.parse("x*y")))
    assert ideal_equal(colon(I, unit_ideal(r2)), I)


def test_colon_past_the_top_is_unit(r2):
    I = Ideal(r2, (r2.parse("x^2"), r2.parse("y^2")))
    result = colon(I, ideal_power(irrelevant_power(r2, 1), 3))
    assert ideal_equal(result, unit_ideal(r2))


def test_colon_by_zero_ideal_rejected(r2):
    I = Ideal(r2, (r2.parse("x"),))
    with pytest.raises(UsageError):
        colon(I, Ideal(r2, (r2.zero,)))


def test_exact_division_guard(r2):
    with pytest.raises(InternalError):
        _exact_divide(r2.parse("x^2+y"), r2.parse("x"))


def test_make_quotient_staircase(r2):
    A = make_quotient(Ideal(r2, (r2.parse("x^2"), r2.parse("y^2"))))
    assert A.length == 4
    assert set(A.standard_monomials) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    # Brute-force derivation: a monomial of the bounding box is standard iff
    # it is not a member of the (monomial) ideal.
    I = Ideal(r2, (r2.parse("x^2"), r2.parse("y^2")))
    box = [(a, b) for a in range(3) for b in range(3)]
    expected = {e for e in box if not ideal_membership(r2.monomial(e), I)}
    assert set(A.standard_monomials) == expected


def test_make_quotient_rejects_positive_dimension(r2):
    with pytest.raises(PreconditionError) as err:
        make_quotient(Ideal(r2, (r2.parse("x"),)))
    assert "'y'" in str(err.value)


def box_standard_monomials(ideal):
    """Standard monomials by filtering the whole exponent box, ascending."""
    ring = ideal.ring
    leads = [g.leading_exps for g in ideal.groebner_basis()]
    bounds = [min(e[j] for e in leads if sum(e) == e[j]) for j in range(ring.nvars)]
    box = [()]
    for b in bounds:
        box = [e + (a,) for e in box for a in range(b)]
    std = [e for e in box if not any(all(x <= y for x, y in zip(lead, e)) for lead in leads)]
    return tuple(sorted(std, key=ring.order.key))


def test_make_quotient_walk_matches_box(corpus):
    for name, ideal, _ in corpus:
        assert make_quotient(ideal).standard_monomials == box_standard_monomials(ideal), name
    lex = make_ideal(QQ, ("x", "y", "z"), ("x^2+y*z", "y^3", "z^2-x*y"), Lex())
    assert make_quotient(lex).standard_monomials == box_standard_monomials(lex)


def test_make_quotient_thin_staircase():
    # A 1000 x 1000 box with 1999 standard monomials: the walk visits only those.
    I = make_ideal(F32003, ("x", "y"), ("x^1000", "y^1000", "x*y"))
    A = make_quotient(I)
    assert A.length == 1999
    expected = [(a, 0) for a in range(1000)] + [(0, b) for b in range(1, 1000)]
    assert A.standard_monomials == tuple(sorted(expected, key=I.ring.order.key))


def test_make_quotient_length_budget():
    I = make_ideal(F32003, ("x", "y"), ("x^100000", "y^100000"))
    with pytest.raises(PreconditionError) as err:
        make_quotient(I)
    assert f"more than {MAX_QUOTIENT_LENGTH} standard monomials" in str(err.value)


def test_make_quotient_storch_length():
    A = make_quotient(make_ideal(F2, ("x", "y"), STORCH_GENS))
    assert A.length == 5


def test_standard_monomials_closed_under_division(corpus):
    for name, ideal, _ in corpus:
        A = make_quotient(ideal)
        std = set(A.standard_monomials)
        for e in std:
            for i in range(len(e)):
                if e[i] > 0:
                    parent = tuple(x - 1 if j == i else x for j, x in enumerate(e))
                    assert parent in std, name


def test_socle_of_complete_intersection(r2):
    A = make_quotient(Ideal(r2, (r2.parse("x^2"), r2.parse("y^2"))))
    B = socle_quotient(A)
    assert make_quotient(B.defining).length == A.length - 1  # one-dimensional socle
    assert ideal_membership(r2.parse("x*y"), B.defining)
    assert A.length - B.length == 1


def test_socle_of_fat_point_not_gorenstein(r2):
    A = make_quotient(Ideal(r2, (r2.parse("x^2"), r2.parse("x*y"), r2.parse("y^2"))))
    B = socle_quotient(A)
    assert A.length - make_quotient(B.defining).length == 2
    assert A.length - B.length == 2


def test_zero_ring_is_not_gorenstein(r2):
    # R/(1) has socle (1): dimension 0, not 1.
    A = make_quotient(unit_ideal(r2))
    assert A.length - socle_quotient(A).length == 0


def test_storch_quotient_is_gorenstein():
    A = make_quotient(make_ideal(F2, ("x", "y"), STORCH_GENS))
    assert A.length - socle_quotient(A).length == 1


def test_colon_absorption_and_monotonicity_random():
    ring = Ring(("x", "y"), F32003)
    rng = random.Random(37)
    for _ in range(25):
        I = random_monomial_ideal(rng, ring)
        J = random_monomial_ideal(rng, ring)
        if J.is_zero:
            continue
        Q = colon(I, J)
        # I is contained in I : J.
        for g in I.generators:
            assert ideal_membership(g, Q)
        # (I : J) * J is contained in I.
        for g in ideal_product(Q, J).generators:
            assert ideal_membership(g, I)
        # Enlarging the divisor shrinks the colon: I : (J + K) <= I : J.
        K = random_monomial_ideal(rng, ring)
        bigger = ideal_sum(J, K)
        Q2 = colon(I, bigger)
        for g in Q2.generators:
            assert ideal_membership(g, Q)


def test_intersect_agrees_with_oracle_subspaces(corpus):
    rng = random.Random(41)
    for name, ideal, _ in corpus:
        A = make_quotient(ideal)
        if A.length > 60:
            continue
        M = build_model(A)
        ring = A.ring
        for _ in range(3):
            K1 = ideal_sum(ideal, random_monomial_ideal(rng, ring, max_exp=2))
            K2 = ideal_sum(ideal, random_monomial_ideal(rng, ring, max_exp=2))
            meet = ideal_intersect(K1, K2)
            left = subspace_of_ideal(M, meet)
            right = subspace_intersect(
                subspace_of_ideal(M, K1), subspace_of_ideal(M, K2), ring.field
            )
            assert left == right, name


def test_colon_image_matches_oracle_annihilator(corpus):
    for name, ideal, _ in corpus:
        A = make_quotient(ideal)
        M = build_model(A)
        m = irrelevant_power(A.ring, 1)
        got = subspace_of_ideal(M, colon(ideal, m))
        expected = subspace_of_ideal(M, ideal_sum(ideal, m))
        from colonlab import annihilator

        assert got == annihilator(M, expected), name


def test_quotient_ring_ideals_are_ambient(r2):
    # Colon inside R/J is the ambient colon of full preimages.
    J = Ideal(r2, (r2.parse("x^3"), r2.parse("y^2")))
    A = make_quotient(J)
    K = ideal_sum(J, Ideal(r2, (r2.parse("x*y"),)))
    zero_colon = colon(J, K)  # 0 :_A K as a preimage
    assert ideal_membership(r2.parse("x^2"), zero_colon)
    assert ideal_membership(r2.parse("y"), zero_colon)
    assert not ideal_membership(r2.parse("x"), zero_colon)
    assert A.length == 6
