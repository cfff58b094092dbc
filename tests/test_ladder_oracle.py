"""The verifiers' own ladder rungs, against the oracle.

verify_macaulay_ladder(gens) compares I : m^i with I + m^(delta+1-i) for
i = 0..delta+1, where I = (gens); verify_corollary(J) compares J : m^i with
J + m^(delta+1-i), and verify_main_equivalence(A, I) compares J : I^i with
J + I^(delta+1-i), for i = 0..delta. The spy on theorems._ladder_rungs records
the left-hand ideals the verifier compares and every right-hand side it builds,
so the test reads what the report's `equal` flags were computed from,
whichever path built them. The reference is the oracle, which shares no code
with either: in M = build_model(R/I), V the image of the step ideal (m for the
complete-intersection ladder and the corollary, I for the equivalence), rung
i's image is annihilator(M, oracle_power(M, V, i)), and the right-hand side of
rung i is oracle_power(M, V, delta+1-i). Both sides must contain the base
ideal, or their images would not determine them. The inputs are the complete
intersections and the Gorenstein entries of CORPUS in degrevlex and lex, and
random complete intersections of degree at most 3 over F2, F32003 and Q. The
equivalence runs on both of its branches: I = m (published, and parsed as
the CLI builds it) and I != m (m^2, (x, y^2), a form, and an I that is zero
in A).
"""

from __future__ import annotations

import random

import pytest

from colonlab import (
    QQ,
    DegRevLex,
    Ideal,
    Lex,
    PreconditionError,
    Ring,
    annihilator,
    build_model,
    ideal_membership,
    irrelevant_power,
    make_quotient,
    oracle_power,
    subspace_of_ideal,
    theorems,
    verify_corollary,
    verify_macaulay_ladder,
    verify_main_equivalence,
)

from conftest import CORPUS, F2, F32003, make_ideal
from test_colon_quotient import generator_sets
from test_power_ideals_oracle import random_form

ORDERS = [DegRevLex(), Lex()]

# Entries of CORPUS with n homogeneous generators in n variables.
CORPUS_CI = [
    case for case in CORPUS
    if len(case[3]) == len(case[2])
    and all(g.is_homogeneous()[0] for g in make_ideal(*case[1:4]).generators)
]

# Gorenstein entries of CORPUS, and those among them that are graded.
CORPUS_GORENSTEIN = [case for case in CORPUS if case[4]]
CORPUS_GRADED = [
    case for case in CORPUS_GORENSTEIN
    if all(g.is_homogeneous()[0] for g in make_ideal(*case[1:4]).generators)
]

# The equivalence's ideals I: m is its first branch, the rest its second.
STEP_IDEALS = ["variables", "m^2", "x,y^2", "form", "zero in A"]


@pytest.fixture
def ladder_rungs(monkeypatch):
    """Records (left-hand ideals, right-hand ideals) of each ladder a verifier compares."""
    calls = []
    original = theorems._ladder_rungs

    def spy(lhs_ideals, rhs_of):
        lhs, rhs = list(lhs_ideals), []

        def recorded(i):
            rhs.append(rhs_of(i))
            return rhs[-1]

        calls.append((lhs, rhs))
        return original(lhs, recorded)

    monkeypatch.setattr(theorems, "_ladder_rungs", spy)
    return calls


def check_rungs(calls, base, M, V, delta, top):
    """The one recorded ladder, rungs i = 0..top, against the oracle, V the step's image in M.

    base generates the ideal that M is the quotient by.
    """
    [(lhs, rhs)] = calls
    assert len(lhs) == len(rhs) == top + 1, base
    for i in range(top + 1):
        # Each side contains (base), so its image in M determines it.
        contained = all(ideal_membership(g, lhs[i]) and ideal_membership(g, rhs[i]) for g in base)
        assert contained, (base, i)
        assert subspace_of_ideal(M, lhs[i]) == annihilator(M, oracle_power(M, V, i)), (base, i)
        assert subspace_of_ideal(M, rhs[i]) == oracle_power(M, V, delta + 1 - i), (base, i)


def check_ladder_against_oracle(calls, gens):
    """The CI ladder's rungs on gens, i = 0..delta+1, against the oracle: V is the image of m."""
    calls.clear()
    report = verify_macaulay_ladder(gens)
    ring = gens[0].ring
    M = build_model(make_quotient(Ideal(ring, tuple(gens))))
    V = subspace_of_ideal(M, irrelevant_power(ring, 1))
    check_rungs(calls, gens, M, V, report.delta, report.delta + 1)
    assert report.holds, gens


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("case", CORPUS_CI, ids=[case[0] for case in CORPUS_CI])
def test_corpus_ladders_match_the_oracle(ladder_rungs, case, order):
    _, field, variables, gens, _ = case
    check_ladder_against_oracle(ladder_rungs, make_ideal(field, variables, gens, order).generators)


def random_ci(rng, field):
    """n random forms of degrees 1..3 in n = 2 or 3 variables that cut out an Artinian quotient."""
    ring = Ring(("x", "y", "z")[: rng.choice((2, 2, 3))], field, rng.choice(ORDERS))
    while True:
        gens = tuple(random_form(rng, ring, rng.randint(1, 3)) for _ in range(ring.nvars))
        if any(g.is_zero for g in gens):
            continue
        try:
            make_quotient(Ideal(ring, gens))
        except PreconditionError:  # not Artinian: the forms share a zero
            continue
        return gens


@pytest.mark.parametrize("field", [F2, F32003, QQ], ids=lambda f: f.name)
def test_random_ladders_match_the_oracle(ladder_rungs, field):
    rng = random.Random(f"ladder-oracle/{field.name}")
    for _ in range(5):
        check_ladder_against_oracle(ladder_rungs, random_ci(rng, field))


def check_corollary_against_oracle(calls, J):
    """The corollary's rungs on R/J, i = 0..delta, against the oracle: V is the image of m."""
    calls.clear()
    report = verify_corollary(J)
    M = build_model(make_quotient(J))
    V = subspace_of_ideal(M, irrelevant_power(J.ring, 1))
    check_rungs(calls, J.generators, M, V, report.delta, report.delta)


def check_equivalence_against_oracle(calls, J, I):
    """The equivalence's rungs on R/J, i = 0..delta, against the oracle: V is the image of I."""
    calls.clear()
    A = make_quotient(J)
    report = verify_main_equivalence(A, I)
    M = build_model(A)
    check_rungs(calls, J.generators, M, subspace_of_ideal(M, I), report.delta, report.delta)
    assert report.consistent, (J, I)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("case", CORPUS_GRADED, ids=[case[0] for case in CORPUS_GRADED])
def test_corpus_corollaries_match_the_oracle(ladder_rungs, case, order):
    _, field, variables, gens, _ = case
    check_corollary_against_oracle(ladder_rungs, make_ideal(field, variables, gens, order))


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("case", CORPUS_GORENSTEIN, ids=[case[0] for case in CORPUS_GORENSTEIN])
def test_corpus_equivalences_match_the_oracle(ladder_rungs, case, order):
    _, field, variables, gens, _ = case
    J = make_ideal(field, variables, gens, order)
    check_equivalence_against_oracle(ladder_rungs, J, irrelevant_power(J.ring, 1))
    sets = generator_sets(J)
    for name in STEP_IDEALS:
        check_equivalence_against_oracle(ladder_rungs, J, Ideal(J.ring, tuple(sets[name])))


@pytest.mark.parametrize("field", [F2, F32003, QQ], ids=lambda f: f.name)
def test_random_gorenstein_ladders_match_the_oracle(ladder_rungs, field):
    rng = random.Random(f"gorenstein-ladder-oracle/{field.name}")
    for _ in range(4):
        gens = random_ci(rng, field)
        ring = gens[0].ring
        J = Ideal(ring, gens)
        check_corollary_against_oracle(ladder_rungs, J)
        check_equivalence_against_oracle(ladder_rungs, J, irrelevant_power(ring, 1))
        forms = [random_form(rng, ring, rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        forms = [f for f in forms if not f.is_zero]
        if forms:
            check_equivalence_against_oracle(ladder_rungs, J, Ideal(ring, tuple(forms)))
