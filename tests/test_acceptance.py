"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is exact (integers, ideal equalities, subspace
identities); each criterion also enforces its wall-clock budget.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from colonlab import (
    Ideal,
    QQ,
    Ring,
    annihilator,
    build_model,
    check_delta_identity,
    colon,
    filtration_hilbert,
    graded_hilbert,
    ideal_power,
    ideal_sum,
    irrelevant_power,
    is_symmetric,
    length_of_quotient,
    make_quotient,
    normal_form,
    oracle_filtration_hilbert,
    oracle_power,
    random_complete_intersection,
    reduce_gb,
    buchberger,
    s_polynomial,
    socle_quotient,
    storch_counterexample,
    storch_ideal,
    subspace_of_ideal,
    verify_macaulay_ladder,
)

from conftest import F2, F32003, corpus_ideals, random_nonzero_poly, random_poly


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({description}): PASS in {elapsed:.2f}s")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
    )


def test_criterion_1_storch_reproduction():
    with criterion(1, "storch reproduction", 1.0):
        report = storch_counterexample()
        assert report.table.values == (1, 2, 1, 1)
        assert sum(report.table.values) == 5
        A = make_quotient(storch_ideal())
        assert A.length == 5
        assert A.length - socle_quotient(A).length == 1
        assert report.symmetric is False
        assert report.ladder_holds is False
        assert report.consistent is True


def test_criterion_2_storch_failure_locus():
    with criterion(2, "storch failure locus", 1.0):
        report = storch_counterexample()
        equal_at = [r.i for r in report.rungs if r.equal]
        assert equal_at == [0, 1, 3]
        assert [r.i for r in report.rungs if not r.equal] == [2]
        # Matlis-duality lengths, via the ideal layer and independently via
        # the oracle: ell(0 : m^i) = ell(A/m^i) = (1, 3, 4), while
        # ell(m^(4-i)) = (1, 2, 4).
        I = storch_ideal()
        ring = I.ring
        A = make_quotient(I)
        M = build_model(A)
        m = irrelevant_power(ring, 1)
        V = subspace_of_ideal(M, m)
        groebner_ann = []
        groebner_pow = []
        oracle_ann = []
        oracle_pow = []
        for i in (1, 2, 3):
            mi = ideal_power(m, i)
            groebner_ann.append(
                A.length - length_of_quotient(colon(I, ideal_sum(I, mi)))
            )
            groebner_pow.append(
                A.length - length_of_quotient(ideal_sum(I, ideal_power(m, 4 - i)))
            )
            Pi = oracle_power(M, V, i)
            oracle_ann.append(annihilator(M, Pi).dim)
            oracle_pow.append(oracle_power(M, V, 4 - i).dim)
            assert annihilator(M, Pi).dim == A.length - Pi.dim
        assert groebner_ann == [1, 3, 4] == oracle_ann
        assert groebner_pow == [1, 2, 4] == oracle_pow


def test_criterion_3_randomized_complete_intersections():
    with criterion(3, "randomized complete-intersection ladders", 60.0):
        rng = random.Random(0)
        for _ in range(100):
            nvars = rng.choice((2, 3))
            gens, degrees = random_complete_intersection(rng, nvars, max_degree=4)
            report = verify_macaulay_ladder(gens)
            assert report.holds, (nvars, degrees)
            assert report.delta == sum(degrees) - nvars
            assert all(r.equal for r in report.rungs)
            assert len(report.rungs) == report.delta + 2
            assert check_delta_identity(gens)


def test_criterion_4_monomial_closed_form():
    with criterion(4, "monomial complete-intersection closed form", 5.0):
        ring = Ring(("x", "y"), QQ)

        def series(a, b):
            coeffs = [0] * (a + b - 1)
            for i in range(a):
                for j in range(b):
                    coeffs[i + j] += 1
            return tuple(coeffs)

        for a in range(1, 6):
            for b in range(1, 6):
                A = make_quotient(
                    Ideal(ring, (ring.parse(f"x^{a}"), ring.parse(f"y^{b}")))
                )
                table = graded_hilbert(A)
                assert table.values == series(a, b)
                assert table.delta == a + b - 2
                assert is_symmetric(table)


def test_criterion_5_oracle_equivalence():
    with criterion(5, "oracle equivalence on the corpus", 60.0):
        for name, ideal, _ in corpus_ideals():
            A = make_quotient(ideal)
            if A.length > 60:
                continue
            ring = A.ring
            M = build_model(A)
            m = irrelevant_power(ring, 1)
            table = filtration_hilbert(A, m)
            assert table == oracle_filtration_hilbert(M, m), name
            V = subspace_of_ideal(M, m)
            for i in range(table.delta + 2):
                mi = ideal_power(m, i)
                power_subspace = oracle_power(M, V, i)
                # Lengths along the filtration.
                assert length_of_quotient(ideal_sum(ideal, mi)) == (
                    M.dim - power_subspace.dim
                ), name
                # Powers as subspaces.
                assert subspace_of_ideal(M, mi) == power_subspace, name
                # Colons as subspaces and as dimensions.
                colon_ideal = colon(ideal, ideal_sum(ideal, mi))
                colon_subspace = subspace_of_ideal(M, colon_ideal)
                ann = annihilator(M, power_subspace)
                assert colon_subspace == ann, name
                assert M.dim - length_of_quotient(colon_ideal) == ann.dim, name


def test_criterion_6_duality_length_identity():
    with criterion(6, "Matlis duality length identity", 5.0):
        for name, ideal, gorenstein in corpus_ideals():
            A = make_quotient(ideal)
            ring = A.ring
            m = irrelevant_power(ring, 1)
            delta = filtration_hilbert(A, m).delta
            if gorenstein:
                for i in range(delta + 2):
                    mi = ideal_sum(ideal, ideal_power(m, i))
                    annihilator_length = A.length - length_of_quotient(
                        colon(ideal, mi)
                    )
                    quotient_length = length_of_quotient(mi)
                    assert annihilator_length == quotient_length, (name, i)
            elif name == "fat_point":
                socle_length = A.length - length_of_quotient(
                    colon(ideal, ideal_sum(ideal, m))
                )
                assert socle_length == 2
                assert length_of_quotient(ideal_sum(ideal, m)) == 1
                assert socle_length != 1  # the identity fails at i = 1


def test_criterion_7_groebner_engine_properties():
    with criterion(7, "Groebner engine properties (1000 cases)", 30.0):
        cases = 0
        # 600 parser round-trips across the three coefficient fields.
        for field in (F2, F32003, QQ):
            ring = Ring(("x", "y", "z"), field)
            rng = random.Random(71)
            for _ in range(200):
                f = random_poly(rng, ring)
                assert ring.parse(str(f)) == f
                cases += 1
        # 250 normal-form idempotence cases.
        ring = Ring(("x", "y"), F32003)
        rng = random.Random(73)
        for _ in range(250):
            G = [random_nonzero_poly(rng, ring, max_exp=2, max_terms=3)
                 for _ in range(rng.randint(1, 3))]
            f = random_poly(rng, ring, max_exp=4, max_terms=6)
            r = normal_form(f, G)
            assert normal_form(r, G) == r
            cases += 1
        # 150 Buchberger instances: S-polynomials reduce to zero and the
        # reduced basis is invariant under generator permutation.
        rng = random.Random(79)
        for _ in range(150):
            gens = [random_nonzero_poly(rng, ring, max_exp=2, max_terms=3)
                    for _ in range(2)]
            basis = buchberger(gens)
            for i in range(len(basis)):
                for j in range(i):
                    assert normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert reduce_gb(buchberger(shuffled)) == reduce_gb(basis)
            cases += 1
        assert cases == 1000


def test_criterion_8_ladder_symmetry_biconditional():
    with criterion(8, "ladder/symmetry biconditional consistency", 10.0):
        from colonlab import verify_main_equivalence

        symmetric_seen = False
        asymmetric_seen = False
        for name, ideal, gorenstein in corpus_ideals():
            if not gorenstein:
                continue
            A = make_quotient(ideal)
            ring = A.ring
            for power in (1, 2):
                inner = irrelevant_power(ring, power)
                report = verify_main_equivalence(A, inner)
                assert report.consistent, (name, power)
                if report.symmetric:
                    symmetric_seen = True
                else:
                    asymmetric_seen = True
        storch = storch_counterexample()
        assert storch.consistent and not storch.symmetric
        assert symmetric_seen and asymmetric_seen
