"""Shared fixtures: named corpus instances, random-input helpers and the elimination reference."""

from __future__ import annotations

import random

import pytest

from colonlab import Ideal, PrimeField, QQ, Ring, buchberger, reduce_gb

F2 = PrimeField(2)
F5 = PrimeField(5)
F7 = PrimeField(7)
F32003 = PrimeField(32003)

STORCH_GENS = ("x^2+y^3", "x^2+x*y+y^3")
# Same two quadrics with y^2 in place of y^3: a second characteristic-2
# Gorenstein quotient with an asymmetric filtration table (length 6).
CHAR2_VARIANT_GENS = ("x^2+y^2", "x^2+x*y+y^3")


def make_ideal(field, variables, generator_strings, order=None):
    ring = Ring(variables, field, order)
    return Ideal(ring, tuple(ring.parse(s) for s in generator_strings))


# (name, field, variables, generators, gorenstein?) for the cross-check corpus.
# All instances are Artinian with length <= 60; the two char-2 fixtures are the
# inhomogeneous ones.
CORPUS = (
    ("ci_x2_y2_q", QQ, ("x", "y"), ("x^2", "y^2"), True),
    ("ci_x2_y2_f2", F2, ("x", "y"), ("x^2", "y^2"), True),
    ("ci_x2_y3", F32003, ("x", "y"), ("x^2", "y^3"), True),
    ("ci_x3_y4", QQ, ("x", "y"), ("x^3", "y^4"), True),
    ("ci_x4_y4", F32003, ("x", "y"), ("x^4", "y^4"), True),
    ("univariate_x3", QQ, ("x",), ("x^3",), True),
    ("fat_point", QQ, ("x", "y"), ("x^2", "x*y", "y^2"), False),
    ("ci_x2_y2_z2", F32003, ("x", "y", "z"), ("x^2", "y^2", "z^2"), True),
    ("ci_x3_y3_z2", QQ, ("x", "y", "z"), ("x^3", "y^3", "z^2"), True),
    ("ci_x3_y3_z4", F32003, ("x", "y", "z"), ("x^3", "y^3", "z^4"), True),
    ("ci_4vars", F32003, ("x", "y", "z", "w"), ("x^2", "y^2", "z^2", "w^2"), True),
    ("mixed_ci", F32003, ("x", "y"), ("x^2+y^2", "x*y^2"), True),
    ("storch", F2, ("x", "y"), STORCH_GENS, True),
    ("char2_variant", F2, ("x", "y"), CHAR2_VARIANT_GENS, True),
)


def corpus_ideals():
    return [(name, make_ideal(field, variables, gens), gorenstein)
            for name, field, variables, gens, gorenstein in CORPUS]


@pytest.fixture(scope="session")
def corpus():
    return corpus_ideals()


def random_poly(rng: random.Random, ring: Ring, max_exp: int = 3, max_terms: int = 5):
    pairs = []
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in ring.variables)
        pairs.append((exps, ring.field.random_element(rng)))
    return ring.from_terms(pairs)


def random_nonzero_poly(rng, ring, max_exp: int = 3, max_terms: int = 5):
    while True:
        f = random_poly(rng, ring, max_exp, max_terms)
        if not f.is_zero:
            return f


def random_monomial_ideal(rng: random.Random, ring: Ring, max_exp: int = 4, count: int = 3):
    gens = []
    for _ in range(rng.randint(1, count)):
        exps = tuple(rng.randint(0, max_exp) for _ in ring.variables)
        gens.append(ring.monomial(exps))
    return Ideal(ring, tuple(gens))


def reference(generators):
    """The reduced basis of the ideal the generators span, by Buchberger."""
    return reduce_gb(buchberger(list(generators)))


def exact_quotient(g, f):
    """g / f by long division on leading terms; f must divide g."""
    field = g.ring.field
    q = g.ring.zero
    while not g.is_zero:
        t = g.ring.monomial(
            tuple(a - b for a, b in zip(g.leading_exps, f.leading_exps)),
            field.div(g.leading_coeff, f.leading_coeff),
        )
        q, g = q + t, g - t * f
    return q


def eliminated_meet(I, K):
    """Generators of I ∩ K: the t-free part of a basis of <t I, (1 - t) K> in k[t, x]."""
    ring = I.ring
    ext = ring.with_elim_variable()
    t = ext.variable(0)

    def lift(g):
        return ext.from_terms(((0,) + e, c) for e, c in g.iter_terms())

    gens = [t * lift(g) for g in I.generators] + [(ext.one - t) * lift(g) for g in K.generators]
    return [ring.from_terms((e[1:], c) for e, c in g.iter_terms())
            for g in reduce_gb(buchberger(gens)) if g.leading_exps[0] == 0]


def reference_colon(I, f):
    """The reduced basis of I : (f) = (I ∩ (f)) / f, the meet taken by elimination."""
    return reference(exact_quotient(g, f) for g in eliminated_meet(I, Ideal(I.ring, (f,))))
