"""Colon by a variable: the Bayer-Stillman path against elimination.

For a homogeneous ideal, ideal_ops computes I : x_j from a degrevlex basis with
x_j last instead of by elimination. Every such colon must have the reduced
basis of (I ∩ (x_j)) / x_j, conftest's reference_colon, with the intersection
spelled out by a fresh dominant variable t: I ∩ (x_j) = <t I, (1 - t) x_j> ∩ k[x].
"""

from __future__ import annotations

import random

import pytest

from colonlab import (
    QQ,
    DegRevLex,
    Ideal,
    Lex,
    Ring,
    colon,
    colon_powers,
    ideal_membership,
    irrelevant_power,
)
from colonlab import ideal_ops
from colonlab.ideal_ops import _colon_single, monomials_of_degree

from conftest import CORPUS, F2, F32003, make_ideal, reference_colon

FIELDS = pytest.mark.parametrize("field", [F2, F32003, QQ], ids=lambda f: f.name)
ORDERS = pytest.mark.parametrize("order", [DegRevLex(), Lex()], ids=lambda o: o.name)


def random_homogeneous_ideals(field, order, count=6, seed=7):
    rng = random.Random(seed)
    ideals = []
    for _ in range(count):
        ring = Ring(("x", "y", "z")[: rng.choice((2, 3))], field, order)
        gens = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            terms = [(e, field.random_element(rng)) for e in monomials_of_degree(ring, d)
                     if rng.random() < 0.6]
            g = ring.from_terms(terms)
            if not g.is_zero:
                gens.append(g)
        ideals.append(Ideal(ring, tuple(gens)))
    return ideals


def colon_inputs(field, order):
    corpus = [make_ideal(field, variables, gens, order) for _, _, variables, gens, _ in CORPUS]
    return corpus + random_homogeneous_ideals(field, order)


@FIELDS
@ORDERS
def test_variable_colon_matches_elimination(field, order):
    for I in colon_inputs(field, order):
        for j in range(I.ring.nvars):
            x = I.ring.variable(j)
            expected = reference_colon(I, x)
            assert _colon_single(I, x).groebner_basis() == expected, (I, j)
            assert colon(I, Ideal(I.ring, (x,))).groebner_basis() == expected, (I, j)


@FIELDS
@ORDERS
def test_homogeneous_colon_skips_elimination(field, order, monkeypatch):
    def no_elimination(*args):
        raise AssertionError("homogeneous colon by a variable used elimination")

    ideals = [I for I in colon_inputs(field, order)
              if all(g.is_homogeneous()[0] for g in I.groebner_basis())]
    assert len(ideals) >= 12
    expected = {(id(I), j): reference_colon(I, I.ring.variable(j))
                for I in ideals for j in range(I.ring.nvars)}
    monkeypatch.setattr(ideal_ops, "ideal_intersect", no_elimination)
    for I in ideals:
        for j in range(I.ring.nvars):
            scaled = I.ring.variable(j).scale(3)
            assert _colon_single(I, scaled).groebner_basis() == expected[(id(I), j)]


@pytest.mark.parametrize("order", [DegRevLex(), Lex()], ids=lambda o: o.name)
def test_inhomogeneous_colon_keeps_elimination(order, monkeypatch):
    # x^2 + y^3 is not homogeneous in the standard grading, nor is the reduced basis.
    I = make_ideal(F32003, ("x", "y"), ("x^2+y^3", "x*y^2"), order)
    expected = [reference_colon(I, I.ring.variable(j)) for j in range(2)]
    calls = []
    real = ideal_ops.ideal_intersect

    def counted(A, B):
        calls.append(1)
        return real(A, B)

    monkeypatch.setattr(ideal_ops, "ideal_intersect", counted)
    for j in range(2):
        before = len(calls)
        assert _colon_single(I, I.ring.variable(j)).groebner_basis() == expected[j]
        assert len(calls) == before + 1
    # (x^2 + y^3) : x = (x^2 + y^3, x*y^2) : x contains y^2, not y.
    ring = I.ring
    assert ideal_membership(ring.parse("y^2"), _colon_single(I, ring.variable(0)))
    assert not ideal_membership(ring.parse("y"), _colon_single(I, ring.variable(0)))


@FIELDS
def test_colon_ladder_through_variable_colons(field):
    # Rungs walked by variable colons equal the direct colons by m^i.
    I = make_ideal(field, ("x", "y", "z"), ("x^2+y*z", "y^2+x*z", "z^3"))
    m = irrelevant_power(I.ring, 1)
    for i, rung in enumerate(colon_powers(I, m, 4)):
        direct = colon(I, irrelevant_power(I.ring, i))
        assert rung.groebner_basis() == direct.groebner_basis(), i
