"""Monomial order laws: totality, multiplicativity, well-ordering, elimination.

Every order's sort key must be invertible (exps(key(e)) == e) and additive
(key(a*b) == key(a) + key(b) componentwise), which the term kernels rely on.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colonlab import UsageError, compare
from colonlab.poly import DegRevLex, Elim, Lex

PROPERTY = settings(derandomize=True, deadline=None, max_examples=30, database=None)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def test_degrevlex_equal_degree_tiebreak():
    # x^2 vs x*y with x > y: smaller last exponent wins in revlex.
    assert compare(DegRevLex(), (2, 0), (1, 1)) == 1


def test_reflexivity():
    for order in (DegRevLex(), Lex(), Elim()):
        assert compare(order, (3, 1, 2), (3, 1, 2)) == 0


def test_elimination_block_dominates():
    # vars t, x, y under Elim(): t beats x^2*y^5.
    assert compare(Elim(), (1, 0, 0), (0, 2, 5)) == 1


def test_length_mismatch_is_usage_error():
    with pytest.raises(UsageError):
        compare(DegRevLex(), (1, 2), (1, 2, 3))


def test_lex_first_variable_dominates():
    assert compare(Lex(), (1, 0), (0, 9)) == 1


@pytest.mark.parametrize(
    "order,nvars",
    [(DegRevLex(), 3), (Lex(), 3), (Elim(), 3)],
    ids=["degrevlex", "lex", "elim1"],
)
def test_order_laws_on_random_triples(order, nvars):
    rng = random.Random(42)
    one = (0,) * nvars

    def sample():
        return tuple(rng.randint(0, 6) for _ in range(nvars))

    for _ in range(10_000):
        a, b, c = sample(), sample(), sample()
        ab = compare(order, a, b)
        # Totality and antisymmetry.
        assert ab in (-1, 0, 1)
        assert ab == -compare(order, b, a)
        assert (ab == 0) == (a == b)
        # Multiplicativity: a < b implies a*c < b*c.
        assert compare(order, mono_mul(a, c), mono_mul(b, c)) == ab
        # 1 is minimal.
        assert compare(order, one, a) <= 0
        # Transitivity spot check.
        bc = compare(order, b, c)
        if ab <= 0 and bc <= 0:
            assert compare(order, a, c) <= 0


def test_elim_property_random():
    rng = random.Random(43)
    order = Elim()
    for _ in range(2000):
        with_t = (rng.randint(1, 5),) + tuple(rng.randint(0, 8) for _ in range(2))
        without_t = (0,) + tuple(rng.randint(0, 8) for _ in range(2))
        assert compare(order, with_t, without_t) == 1


def exponent_pairs():
    """Two exponent tuples of one length in 1..4."""
    def pair(n):
        exps = st.tuples(*[st.integers(0, 9)] * n)
        return st.tuples(exps, exps)

    return st.integers(1, 4).flatmap(pair)


@pytest.mark.parametrize("order", [DegRevLex(), Lex(), Elim()], ids=lambda o: o.name)
@PROPERTY
@given(pair=exponent_pairs())
def test_key_is_invertible_and_additive(order, pair):
    a, b = pair
    assert order.exps(order.key(a)) == a
    assert order.key(mono_mul(a, b)) == mono_mul(order.key(a), order.key(b))


def test_elim_matches_reference_order():
    # Degree in the first variable first, then degrevlex on the rest.
    def reference(e):
        return (e[0],) + DegRevLex().key(e[1:])

    rng = random.Random(44)
    for _ in range(5000):
        n = rng.randint(1, 4)
        a = tuple(rng.randint(0, 3) for _ in range(n))
        b = tuple(rng.randint(0, 3) for _ in range(n))
        ra, rb = reference(a), reference(b)
        assert compare(Elim(), a, b) == (ra > rb) - (ra < rb)
