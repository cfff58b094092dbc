"""The power ideals J + I^k of the filtration table, against the oracle.

hilbert._power_ideals(A, I) returns [(1), J + I, ..., J + I^delta, J], the
list that the equivalence's ladder and its filtration table share. The
reference is the oracle, which shares no code with it: in M = build_model(A),
J + I^k spans oracle_power(M, V, k), V the image of I, and filtration_hilbert
equals oracle_filtration_hilbert. The inputs are CORPUS in both orders and
random Artinian ideals over F2, F32003 and Q, by pure powers and a random
form, with random forms as I's generators; an I that is zero in A gives
[(1), J]. An I that is the unit ideal in A, or not nilpotent there, must fail
as the oracle does.
"""

from __future__ import annotations

import json
import random

import pytest

from colonlab import (
    QQ,
    DegRevLex,
    Ideal,
    Lex,
    PreconditionError,
    Ring,
    UsageError,
    build_model,
    filtration_hilbert,
    make_quotient,
    oracle_filtration_hilbert,
    oracle_power,
    subspace_of_ideal,
)
from colonlab.cli import main
from colonlab.hilbert import _power_ideals
from colonlab.ideal_ops import monomials_of_degree

from conftest import CORPUS, F2, F32003, make_ideal
from test_colon_quotient import generator_sets

FIELDS = [F2, F32003, QQ]
ORDERS = [DegRevLex(), Lex()]


def check_powers_against_oracle(J, gens):
    """Compare _power_ideals(A, I), I = (gens), with the oracle; True when I is nilpotent and proper."""
    A = make_quotient(J)
    M = build_model(A)
    I = Ideal(J.ring, tuple(gens))
    try:
        table = oracle_filtration_hilbert(M, I)
    except (UsageError, PreconditionError) as exc:
        with pytest.raises(type(exc)):
            _power_ideals(A, I)
        return False
    V = subspace_of_ideal(M, I)
    powers = _power_ideals(A, I)
    assert len(powers) == table.delta + 2, (J, gens)
    for k, power in enumerate(powers[1:-1], 1):
        assert subspace_of_ideal(M, power) == oracle_power(M, V, k), (J, gens, k)
    assert filtration_hilbert(A, I) == table, (J, gens)
    return True


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("case", CORPUS, ids=[case[0] for case in CORPUS])
def test_corpus_powers_match_the_oracle(case, order):
    _, field, variables, gens, _ = case
    J = make_ideal(field, variables, gens, order)
    sets = generator_sets(J)
    for name in ("variables", "m^2", "x,y^2", "form", "zero in A"):
        assert check_powers_against_oracle(J, sets[name]), name
    # I zero in A (an empty chain: delta 0), and J's element with a repeated form.
    form = sets["form"][0]
    for gens in ([], [J.generators[0]], [J.generators[0], form, form]):
        assert check_powers_against_oracle(J, gens), gens
    assert not check_powers_against_oracle(J, sets["constant term"])  # the unit ideal


def random_ideal(rng, field, homogeneous):
    """Pure powers x_j^a, a in 2..5, plus a random form, with lower terms when not homogeneous."""
    ring = Ring(("x", "y", "z")[: rng.choice((2, 2, 3))], field, rng.choice(ORDERS))
    n = ring.nvars
    gens = []
    for j in range(n):
        a = rng.randint(2, 5 if n < 3 else 3)
        g = ring.monomial(tuple(a if k == j else 0 for k in range(n)))
        if not homogeneous:
            g = g + random_form(rng, ring, rng.randint(1, a - 1))
        gens.append(g)
    gens.append(random_form(rng, ring, rng.randint(2, 3)))
    return Ideal(ring, tuple(g for g in gens if not g.is_zero))


def random_form(rng, ring, degree):
    return ring.from_terms(
        (e, ring.field.random_element(rng))
        for e in monomials_of_degree(ring, degree)
        if rng.random() < 0.6
    )


@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_random_powers_match_the_oracle(field, homogeneous):
    rng = random.Random(f"power-ideals/{field.name}/{homogeneous}")
    checked = 0
    while checked < 6:
        J = random_ideal(rng, field, homogeneous)
        try:
            make_quotient(J)
        except PreconditionError:  # a lower term cancelled a pure power
            continue
        forms = [random_form(rng, J.ring, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        forms = [f for f in forms if not f.is_zero]
        if forms and check_powers_against_oracle(J, forms):
            checked += 1


def test_three_quadrics_probe_matches_the_oracle(capsys):
    """Three quadrics in x^8, y^8, z^8, whose power chain holds up to C(k+2, 2) products a step."""
    quadrics = "x^2+3*y*z-z^2,y^2+5*x*z+2*x*y,z^2+x*y+7*y*z"
    argv = ["equiv", "--vars", "x,y,z", "--gens", "x^8,y^8,z^8", "--ideal2", quadrics, "--json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    J = make_ideal(F32003, ("x", "y", "z"), ("x^8", "y^8", "z^8"))
    I = Ideal(J.ring, tuple(J.ring.parse(s) for s in quadrics.split(",")))
    table = oracle_filtration_hilbert(build_model(make_quotient(J)), I)
    assert json.loads(out)["result"]["hilbert"] == list(table.values)
