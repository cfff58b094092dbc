"""A third, independent reference: reduced bases against sympy.groebner.

sympy is a test-only dependency (the `test` extra). Its grevlex with the
variables in declared order is colonlab's degrevlex, and both return the
reduced monic basis, so the two must agree polynomial for polynomial.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

from colonlab import (
    QQ,
    Ideal,
    Ring,
    buchberger,
    colon_powers,
    irrelevant_power,
    make_quotient,
    nilpotency_index,
    reduce_gb,
)

from conftest import CORPUS, F5, F32003, make_ideal, random_nonzero_poly


def as_sympy(f, symbols):
    expr = sympy.Integer(0)
    for exps, c in f.iter_terms():
        if f.ring.field.p is None:
            c = sympy.Rational(c.numerator, c.denominator)
        expr += c * sympy.Mul(*(s**e for s, e in zip(symbols, exps)))
    return expr


def canonical(pairs, p):
    if p is None:
        return frozenset((exps, Fraction(int(c.numerator), int(c.denominator))) for exps, c in pairs)
    return frozenset((exps, int(c) % p) for exps, c in pairs)


def sympy_basis(ideal):
    ring = ideal.ring
    p = ring.field.p
    symbols = sympy.symbols(ring.variables)
    gens = [as_sympy(g, symbols) for g in ideal.generators if not g.is_zero]
    options = {"modulus": p} if p else {"domain": sympy.QQ}
    basis = sympy.groebner(gens, *symbols, order="grevlex", **options)
    return {canonical(g.terms(), p) for g in basis.polys if not g.is_zero}


def colonlab_basis(G):
    return {canonical(g.iter_terms(), g.ring.field.p) for g in G}


@pytest.mark.parametrize("case", CORPUS, ids=[case[0] for case in CORPUS])
def test_corpus_bases_match_sympy(case):
    name, field, variables, gens, _ = case
    I = make_ideal(field, variables, gens)
    assert colonlab_basis(reduce_gb(buchberger(I.generators))) == sympy_basis(I)


@pytest.mark.parametrize("field", [F5, F32003, QQ], ids=lambda f: f.name)
def test_random_ideal_bases_match_sympy(field):
    rng = random.Random(11)
    for trial in range(8):
        ring = Ring(("x", "y", "z")[: rng.choice((2, 3))], field)
        gens = tuple(random_nonzero_poly(rng, ring, max_exp=2, max_terms=3)
                     for _ in range(rng.randint(1, 3)))
        I = Ideal(ring, gens)
        assert colonlab_basis(I.groebner_basis()) == sympy_basis(I), (trial, I)


@pytest.mark.parametrize("case", CORPUS, ids=[case[0] for case in CORPUS])
def test_colon_ladder_rungs_match_sympy(case):
    name, field, variables, gens, _ = case
    J = make_ideal(field, variables, gens)
    m = irrelevant_power(J.ring, 1)
    top = nilpotency_index(make_quotient(J), m) + 1
    for i, rung in enumerate(colon_powers(J, m, top)):
        assert colonlab_basis(rung.groebner_basis()) == sympy_basis(rung), (name, i)
