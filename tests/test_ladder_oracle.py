"""The complete-intersection ladder's own rungs, against the oracle.

verify_macaulay_ladder(gens) compares I : m^i with I + m^(delta+1-i) for
i = 0..delta+1, where I = (gens). The spy on theorems._ladder_rungs records
the left-hand ideals the verifier compares and every right-hand side it builds
(_plus_irrelevant_power(I, k)), so the test reads what the report's `equal`
flags were computed from, whichever path built them. The reference is the
oracle, which shares no code with either: in M = build_model(R/I), V the image
of m, rung i's image is annihilator(M, oracle_power(M, V, i)), and the
right-hand side of rung i is oracle_power(M, V, delta+1-i). Both sides must
contain I, or their images would not determine them. The inputs are the
complete intersections of CORPUS in degrevlex and lex, and random complete
intersections of degree at most 3 over F2, F32003 and Q.
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
    verify_macaulay_ladder,
)

from conftest import CORPUS, F2, F32003, make_ideal
from test_power_ideals_oracle import random_form

ORDERS = [DegRevLex(), Lex()]

# Entries of CORPUS with n homogeneous generators in n variables.
CORPUS_CI = [
    case for case in CORPUS
    if len(case[3]) == len(case[2])
    and all(g.is_homogeneous()[0] for g in make_ideal(*case[1:4]).generators)
]


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


def check_ladder_against_oracle(calls, gens):
    """The CI ladder's rungs on gens against the oracle, rung by rung."""
    calls.clear()
    report = verify_macaulay_ladder(gens)
    ring, delta = gens[0].ring, report.delta
    [(lhs, rhs)] = calls
    assert len(lhs) == len(rhs) == delta + 2, gens
    M = build_model(make_quotient(Ideal(ring, tuple(gens))))
    V = subspace_of_ideal(M, irrelevant_power(ring, 1))
    powers = [oracle_power(M, V, k) for k in range(delta + 2)]
    for i in range(delta + 2):
        # Each side contains I, so its image in M = R/I determines it.
        contained = all(ideal_membership(g, lhs[i]) and ideal_membership(g, rhs[i]) for g in gens)
        assert contained, (gens, i)
        assert subspace_of_ideal(M, lhs[i]) == annihilator(M, powers[i]), (gens, i)
        assert subspace_of_ideal(M, rhs[i]) == powers[delta + 1 - i], (gens, i)
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
