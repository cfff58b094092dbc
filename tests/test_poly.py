"""Polynomial arithmetic, homogeneity, parsing and printing."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from colonlab import ParseError, QQ, Ring, UsageError
from colonlab.poly import _decimal

from conftest import F2, F5, F32003, random_poly


@pytest.fixture
def r2_f2():
    return Ring(("x", "y"), F2)


@pytest.fixture
def r2_q():
    return Ring(("x", "y"), QQ)


def naive_add(f, g):
    """Independent term-by-term addition oracle on (exponents, coefficient) dicts."""
    ring = f.ring
    acc = {}
    for e, c in list(f.iter_terms()) + list(g.iter_terms()):
        acc[e] = ring.field.add(acc.get(e, ring.field.zero), c)
    return {e: c for e, c in acc.items() if c != ring.field.zero}


def test_char2_cancellation(r2_f2):
    f = r2_f2.parse("x^2+y^2")
    g = r2_f2.parse("x^2+x*y+y^3")
    total = f + g
    assert str(total) == "y^3 + x*y + y^2"
    assert dict(total.iter_terms()) == naive_add(f, g)


def test_additive_identity(r2_q):
    f = r2_q.parse("3*x^2 - 1/2*y + 7")
    assert f + r2_q.zero == f


def test_frobenius_square(r2_f2):
    f = r2_f2.parse("x+y")
    assert f * f == r2_f2.parse("x^2+y^2")


def test_mixed_ring_operands_rejected(r2_f2, r2_q):
    with pytest.raises(UsageError):
        r2_f2.parse("x") + r2_q.parse("x")


def test_is_homogeneous(r2_f2):
    homogeneous, degree = r2_f2.parse("x^2+y^2").is_homogeneous()
    assert homogeneous and degree == 2
    homogeneous, _ = r2_f2.parse("x^2+x*y+y^3").is_homogeneous()
    assert not homogeneous
    homogeneous, degree = r2_f2.zero.is_homogeneous()
    assert homogeneous and degree is None


def test_parse_storch_generator(r2_f2):
    ring = Ring(("X", "Y"), F2)
    f = ring.parse("X^2+Y^2")
    assert [(e, c) for e, c in f.iter_terms()] == [((2, 0), 1), ((0, 2), 1)]


def test_parse_coefficient_arithmetic():
    ring = Ring(("X",), QQ)
    assert str(ring.parse("3/2*X - X")) == "1/2*X"


def test_parse_reduces_mod_p():
    ring = Ring(("X",), F5)
    assert str(ring.parse("X^2 + 5*X^2")) == "X^2"


def test_parse_parentheses_and_juxtaposition(r2_q):
    assert r2_q.parse("(x+y)*(x-y)") == r2_q.parse("x^2-y^2")
    assert r2_q.parse("2x") == r2_q.parse("2*x")


def test_parse_juxtaposition_without_star(r2_q):
    assert r2_q.parse("(x+y)(x-y)") == r2_q.parse("x^2-y^2")
    assert r2_q.parse("x y") == r2_q.parse("x*y")
    assert r2_q.parse("2 x^2 y") == r2_q.parse("2*x^2*y")
    assert r2_q.parse("1/2(x+1)") == r2_q.parse("1/2*x + 1/2")


def test_parse_leading_sign(r2_q):
    assert r2_q.parse("-x+y") == r2_q.parse("y - x")
    assert r2_q.parse("+x") == r2_q.parse("x")
    assert r2_q.parse("-(x+y)y") == r2_q.parse("-x*y - y^2")
    assert r2_q.parse("(-x)") == -r2_q.parse("x")


def test_parse_fraction_coefficient_in_prime_field():
    ring = Ring(("x",), F5)
    # 1/2 = inverse of 2 = 3 in F_5.
    assert str(ring.parse("1/2*x")) == "3*x"
    with pytest.raises(ParseError):
        ring.parse("1/5*x")  # denominator divisible by 5


def test_parse_errors_carry_location():
    ring = Ring(("x", "y"), QQ)
    with pytest.raises(ParseError) as err:
        ring.parse("x +\n z")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        ring.parse("x^-2")
    with pytest.raises(ParseError):
        ring.parse("x + + y")
    with pytest.raises(ParseError):
        ring.parse("x + $")
    with pytest.raises(ParseError):
        ring.parse("(x + y")
    # End of input is named as such, and an integer is asked for in words.
    for text, col in (("", 1), ("x+", 3), ("(x+y", 5), ("x^", 3), ("2/", 3)):
        with pytest.raises(ParseError) as err:
            ring.parse(text)
        message = str(err.value)
        assert "end of input" in message
        assert "None" not in message and "'INT'" not in message
        assert (err.value.line, err.value.col) == (1, col)


@pytest.mark.parametrize("text, col", [("x^²", 3), ("y^٣", 3), ("²", 1), ("x + ٣", 5)])
def test_non_ascii_digits_are_parse_errors(r2_q, text, col):
    # str.isdigit() accepts these, and int() rejects "²" but reads "٣" as 3;
    # integer literals are ASCII 0-9 only.
    with pytest.raises(ParseError) as err:
        r2_q.parse(text)
    assert "unexpected character" in str(err.value)
    assert (err.value.line, err.value.col) == (1, col)


def test_unknown_variable_is_parse_error(r2_q):
    with pytest.raises(ParseError) as err:
        r2_q.parse("x*q")
    assert "unknown variable" in str(err.value)


@pytest.mark.parametrize("field", [F2, F32003, QQ], ids=lambda f: f.name)
def test_parse_print_round_trip(field):
    ring = Ring(("x", "y", "z"), field)
    rng = random.Random(11)
    for _ in range(1000):
        f = random_poly(rng, ring)
        assert ring.parse(str(f)) == f


@pytest.mark.parametrize("field", [F2, F32003, QQ], ids=lambda f: f.name)
def test_ring_laws_on_random_triples(field):
    ring = Ring(("x", "y"), field)
    rng = random.Random(13)
    for _ in range(300):
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        h = random_poly(rng, ring)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == ring.zero
        assert f * ring.one == f


def test_homogeneous_multiplication_degree_additivity():
    ring = Ring(("x", "y", "z"), F32003)
    rng = random.Random(17)
    from colonlab.ideal_ops import monomials_of_degree

    for _ in range(200):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        f = ring.from_terms(
            (e, ring.field.random_element(rng)) for e in monomials_of_degree(ring, d1)
        )
        g = ring.from_terms(
            (e, ring.field.random_element(rng)) for e in monomials_of_degree(ring, d2)
        )
        if f.is_zero or g.is_zero:
            continue
        homogeneous, degree = (f * g).is_homogeneous()
        assert homogeneous and degree == d1 + d2


def test_terms_strictly_descending():
    ring = Ring(("x", "y"), QQ)
    rng = random.Random(19)
    for _ in range(200):
        f = random_poly(rng, ring)
        keys = [k for k, _ in f.terms]
        assert keys == sorted(keys, reverse=True)
        assert all(c != 0 for _, c in f.terms)


def test_fraction_coefficients_stay_canonical():
    ring = Ring(("x",), QQ)
    f = ring.parse("2/4*x + 1/4*x")
    ((_, coeff),) = f.terms
    assert coeff == Fraction(3, 4)
    assert coeff.denominator == 4


def test_invalid_ring_construction():
    with pytest.raises(UsageError):
        Ring((), QQ)
    with pytest.raises(UsageError):
        Ring(("x", "x"), QQ)
    with pytest.raises(UsageError):
        Ring(("2bad",), QQ)


@pytest.mark.parametrize("digits", [1, 599, 600, 601, 1200, 1201, 4300])
def test_decimal_matches_str_across_chunk_boundaries(digits):
    for n in (10 ** (digits - 1), 10**digits - 1, int("9081726354" * 430) % 10**digits):
        assert _decimal(n) == str(n)
