"""Theorem verifiers: ladders, symmetry, the equivalence, and the fixture."""

from __future__ import annotations

import random

import pytest

from colonlab import (
    Ideal,
    PreconditionError,
    QQ,
    UsageError,
    Ring,
    annihilator,
    build_model,
    check_delta_identity,
    colon,
    colon_powers,
    filtration_hilbert,
    ideal_equal,
    ideal_sum,
    irrelevant_power,
    make_quotient,
    nilpotency_index,
    oracle_filtration_hilbert,
    oracle_power,
    order_from_name,
    random_complete_intersection,
    storch_counterexample,
    storch_ideal,
    subspace_of_ideal,
    unit_ideal,
    verify_corollary,
    verify_macaulay_ladder,
    verify_main_equivalence,
    verify_symmetry,
)

from colonlab.hilbert import image_power_chain

from conftest import CHAR2_VARIANT_GENS, CORPUS, F2, F32003, STORCH_GENS, make_ideal


@pytest.fixture
def r2():
    return Ring(("x", "y"), QQ)


def test_ladder_square_ideal(r2):
    report = verify_macaulay_ladder([r2.parse("x^2"), r2.parse("y^2")])
    assert report.delta == 2 and report.holds
    assert [r.i for r in report.rungs] == [0, 1, 2, 3]
    # Oracle confirmation rung by rung: the colon image is the annihilator.
    I = Ideal(r2, (r2.parse("x^2"), r2.parse("y^2")))
    A = make_quotient(I)
    M = build_model(A)
    V = subspace_of_ideal(M, irrelevant_power(r2, 1))
    from colonlab import colon

    for i in range(4):
        lhs = subspace_of_ideal(M, colon(I, irrelevant_power(r2, i)))
        assert lhs == annihilator(M, oracle_power(M, V, i))


def test_ladder_delta_from_degrees(r2):
    report = verify_macaulay_ladder([r2.parse("x^2"), r2.parse("y^3")])
    assert report.delta == 3 and report.holds


def test_ladder_rejects_non_artinian(r2):
    with pytest.raises(PreconditionError) as err:
        verify_macaulay_ladder([r2.parse("x^2"), r2.parse("x*y")])
    assert "'y'" in str(err.value)


def test_ladder_rejects_wrong_generator_count(r2):
    with pytest.raises(PreconditionError):
        verify_macaulay_ladder([r2.parse("x^2")])


def test_ladder_rejects_inhomogeneous(r2):
    with pytest.raises(PreconditionError):
        verify_macaulay_ladder([r2.parse("x^2+y^3"), r2.parse("y^2")])


def test_ladder_endpoints(r2):
    gens = [r2.parse("x^2"), r2.parse("y^2")]
    report = verify_macaulay_ladder(gens)
    I = Ideal(r2, tuple(gens))
    from colonlab import colon

    # i = 0: both sides are I itself (m^(delta+1) is contained in I).
    assert ideal_equal(colon(I, irrelevant_power(r2, 0)), I)
    assert ideal_equal(ideal_sum(I, irrelevant_power(r2, report.delta + 1)), I)
    # i = delta + 1: both sides are the unit ideal.
    assert ideal_equal(colon(I, irrelevant_power(r2, report.delta + 1)), unit_ideal(r2))


def test_symmetry_square(r2):
    table, symmetric = verify_symmetry(Ideal(r2, (r2.parse("x^2"), r2.parse("y^2"))))
    assert table.values == (1, 2, 1) and symmetric


def test_symmetry_three_variables():
    J = make_ideal(QQ, ("x", "y", "z"), ("x^3", "y^3", "z^2"))
    table, symmetric = verify_symmetry(J)
    assert table.delta == 5 and len(table.values) == 6 and symmetric


def test_symmetry_rejects_non_gorenstein(r2):
    with pytest.raises(PreconditionError) as err:
        verify_symmetry(Ideal(r2, (r2.parse("x^2"), r2.parse("x*y"), r2.parse("y^2"))))
    assert "Gorenstein" in str(err.value)


def test_equivalence_square(r2):
    A = make_quotient(Ideal(r2, (r2.parse("x^2"), r2.parse("y^2"))))
    report = verify_main_equivalence(A, irrelevant_power(r2, 1))
    assert report.ladder_holds and report.symmetric and report.consistent
    assert report.table.values == (1, 2, 1)


def test_equivalence_rejects_non_gorenstein(r2):
    A = make_quotient(Ideal(r2, (r2.parse("x^2"), r2.parse("x*y"), r2.parse("y^2"))))
    with pytest.raises(PreconditionError):
        verify_main_equivalence(A, irrelevant_power(r2, 1))


def test_equivalence_rejects_unit_inner_ideal(r2):
    A = make_quotient(Ideal(r2, (r2.parse("x^2"), r2.parse("y^2"))))
    with pytest.raises(PreconditionError):
        verify_main_equivalence(A, unit_ideal(r2))


def test_equivalence_rejects_inner_ideal_of_another_ring(r2):
    # A mixed-ring call is a UsageError, as for filtration_hilbert and the oracle.
    A = make_quotient(Ideal(r2, (r2.parse("x^2"), r2.parse("y^2"))))
    other = Ring(("x", "y"), F32003)
    with pytest.raises(UsageError):
        verify_main_equivalence(A, irrelevant_power(other, 1))
    with pytest.raises(UsageError):
        filtration_hilbert(A, irrelevant_power(other, 1))
    with pytest.raises(UsageError):
        oracle_filtration_hilbert(build_model(A), irrelevant_power(other, 1))


def test_equivalence_with_square_of_maximal(r2):
    # I = m^2 in k[x,y]/(x^2, y^2): table (3, 1) is asymmetric, the ladder
    # fails, and the equivalence is still consistent.
    A = make_quotient(Ideal(r2, (r2.parse("x^2"), r2.parse("y^2"))))
    report = verify_main_equivalence(A, irrelevant_power(r2, 2))
    assert report.delta == 1
    assert report.table.values == (3, 1)
    assert not report.symmetric and not report.ladder_holds and report.consistent


def test_storch_counterexample_full():
    report = storch_counterexample()
    assert report.table.values == (1, 2, 1, 1)
    assert sum(report.table.values) == 5
    assert report.delta == 3
    assert not report.symmetric
    assert not report.ladder_holds
    assert report.consistent
    failures = [r.i for r in report.rungs if not r.equal]
    assert failures == [2]


def test_storch_failure_locus_lengths():
    # ell(0 : m^i) = ell(A/m^i) = (1, 3, 4) while ell(m^(4-i)) = (1, 2, 4).
    I = storch_ideal()
    ring = I.ring
    A = make_quotient(I)
    M = build_model(A)
    V = subspace_of_ideal(M, irrelevant_power(ring, 1))
    ann_dims = []
    power_dims = []
    for i in (1, 2, 3):
        ann_dims.append(annihilator(M, oracle_power(M, V, i)).dim)
        power_dims.append(oracle_power(M, V, 4 - i).dim)
        assert ann_dims[-1] == A.length - oracle_power(M, V, i).dim  # Matlis lengths
    assert ann_dims == [1, 3, 4]
    assert power_dims == [1, 2, 4]


def test_char2_variant_equivalence():
    # The sibling char-2 fixture: length 6, table (1, 2, 1, 1, 1), Gorenstein,
    # ladder failing at i = 2 and i = 3, still consistent.
    I = make_ideal(F2, ("x", "y"), CHAR2_VARIANT_GENS)
    A = make_quotient(I)
    assert A.length == 6
    report = verify_main_equivalence(A, irrelevant_power(I.ring, 1))
    assert report.table.values == (1, 2, 1, 1, 1)
    assert report.delta == 4
    assert not report.symmetric and not report.ladder_holds and report.consistent
    assert [r.i for r in report.rungs if not r.equal] == [2, 3]


def test_corollary_square(r2):
    report = verify_corollary(Ideal(r2, (r2.parse("x^2"), r2.parse("y^2"))))
    assert report.delta == 2 and report.holds


def test_corollary_univariate():
    ring = Ring(("x",), QQ)
    report = verify_corollary(Ideal(ring, (ring.parse("x^3"),)))
    assert report.delta == 2 and report.holds


def test_corollary_rejects_inhomogeneous_fixture():
    with pytest.raises(PreconditionError) as err:
        verify_corollary(storch_ideal())
    assert "homogeneous" in str(err.value)


def test_delta_identity_examples(r2):
    assert check_delta_identity([r2.parse("x^2"), r2.parse("y^2")])
    assert check_delta_identity([r2.parse("x^3"), r2.parse("y^4")])
    gens3 = make_ideal(QQ, ("x", "y", "z"), ("x^2", "y^2", "z^2")).generators
    assert check_delta_identity(list(gens3))


def test_randomized_ladder_small():
    rng = random.Random(53)
    for _ in range(10):
        nvars = rng.choice((2, 3))
        gens, degrees = random_complete_intersection(rng, nvars, max_degree=3)
        report = verify_macaulay_ladder(gens)
        assert report.holds
        assert report.delta == sum(degrees) - nvars
        assert check_delta_identity(gens)


def test_consistency_flag_on_corpus(corpus):
    for name, ideal, gorenstein in corpus:
        if not gorenstein:
            continue
        A = make_quotient(ideal)
        ring = A.ring
        report = verify_main_equivalence(A, irrelevant_power(ring, 1))
        assert report.consistent, name
        if A.length > 1:
            report2 = verify_main_equivalence(A, irrelevant_power(ring, 2))
            assert report2.consistent, name


def test_report_rung_sizes_populated():
    report = storch_counterexample()
    for rung in report.rungs:
        assert rung.lhs_gb_size >= 1 and rung.rhs_gb_size >= 1


# Rung-recurrence cases: the whole corpus under its default order plus a few
# instances under lex, one of them storch with its failing rung.
LEX = order_from_name("lex")
RUNG_CASES = [(name, field, variables, gens, None) for name, field, variables, gens, _ in CORPUS]
RUNG_CASES += [
    ("storch_lex", F2, ("x", "y"), STORCH_GENS, LEX),
    ("mixed_ci_lex", F32003, ("x", "y"), ("x^2+y^2", "x*y^2"), LEX),
    ("dense_ci_lex", F32003, ("x", "y", "z"), ("x^2+y*z", "y^2+3*x*z-z^2", "z^2+x*y"), LEX),
]


def _power_image(J, chain, k):
    """J + I^k read through the reduced power chain, as the equivalence does."""
    ring = J.ring
    if k == 0:
        return ideal_sum(J, unit_ideal(ring))
    if k > len(chain):
        return J
    return ideal_sum(J, Ideal(ring, tuple(chain[k - 1])))


@pytest.mark.parametrize("case", RUNG_CASES, ids=[case[0] for case in RUNG_CASES])
def test_colon_powers_match_direct_colons(case):
    name, field, variables, gens, order = case
    J = make_ideal(field, variables, gens, order)
    ring = J.ring
    A = make_quotient(J)
    m = irrelevant_power(ring, 1)
    ladder = colon_powers(J, m, nilpotency_index(A, m) + 1)
    for i, lhs in enumerate(ladder):
        direct = colon(J, irrelevant_power(ring, i))
        assert lhs.groebner_basis() == direct.groebner_basis(), (name, i)
    assert ladder[-1].is_unit and not ladder[-2].is_unit
    for inner in (m, irrelevant_power(ring, 2)):
        chain = image_power_chain(A, inner)
        step = _power_image(J, chain, 1)
        for i, lhs in enumerate(colon_powers(J, step, len(chain))):
            direct = colon(J, _power_image(J, chain, i))
            assert lhs.groebner_basis() == direct.groebner_basis(), (name, i)


def test_colon_powers_keep_storch_failing_rung():
    J = make_ideal(F2, ("x", "y"), STORCH_GENS)
    A = make_quotient(J)
    chain = image_power_chain(A, irrelevant_power(J.ring, 1))
    delta = len(chain)
    ladder = colon_powers(J, _power_image(J, chain, 1), delta)
    equal = [ideal_equal(lhs, _power_image(J, chain, delta + 1 - i)) for i, lhs in enumerate(ladder)]
    assert delta == 3 and equal == [True, True, False, True]
    rung = ladder[2]
    assert rung.groebner_basis() == colon(J, _power_image(J, chain, 2)).groebner_basis()


def test_colon_powers_rejects_negative_top():
    J = make_ideal(QQ, ("x", "y"), ("x^2", "y^2"))
    with pytest.raises(UsageError):
        colon_powers(J, irrelevant_power(J.ring, 1), -1)
