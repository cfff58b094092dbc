"""Groebner engine: division, S-polynomials, Buchberger, reduced bases."""

from __future__ import annotations

import random

import pytest

from colonlab import (
    Ideal,
    QQ,
    Ring,
    UsageError,
    buchberger,
    compare,
    ideal_equal,
    ideal_membership,
    normal_form,
    reduce_gb,
    s_polynomial,
)
from colonlab.poly import mono_divides

from conftest import F2, F32003, STORCH_GENS, random_nonzero_poly, random_poly


def reference_division(f, G):
    """Naive reference division with the same determinism rule as the library:
    reduce the greatest reducible term by the first eligible divisor. Returns
    (quotients, remainder) built with plain dict arithmetic so the result can
    be re-expanded as an independent membership certificate."""
    ring = f.ring
    field = ring.field
    order = ring.order
    quotients = [dict() for _ in G]
    remainder = {}
    work = {e: c for e, c in f.iter_terms()}

    def greatest(d):
        best = None
        for e in d:
            if best is None or compare(order, e, best) == 1:
                best = e
        return best

    while work:
        e = greatest(work)
        c = work[e]
        for gi, g in enumerate(G):
            lead = g.leading_exps
            if mono_divides(lead, e):
                q = field.div(c, g.leading_coeff)
                shift = tuple(a - b for a, b in zip(e, lead))
                quotients[gi][shift] = field.add(quotients[gi].get(shift, field.zero), q)
                for ge, gc in g.iter_terms():
                    key = tuple(a + b for a, b in zip(ge, shift))
                    value = field.sub(work.get(key, field.zero), field.mul(q, gc))
                    if value == field.zero:
                        work.pop(key, None)
                    else:
                        work[key] = value
                break
        else:
            remainder[e] = c
            del work[e]
    return quotients, remainder


def test_normal_form_monomial_divisor():
    ring = Ring(("x", "y"), QQ)
    assert normal_form(ring.parse("x^2"), [ring.parse("x")]).is_zero


def test_normal_form_known_remainder():
    ring = Ring(("x", "y"), QQ)
    r = normal_form(ring.parse("x^2*y + y"), [ring.parse("x^2 - 1")])
    assert r == ring.parse("2*y")


def test_normal_form_no_divisible_terms_and_membership():
    ring = Ring(("x", "y"), F2)
    G = [ring.parse("x^2+y^2"), ring.parse("x*y+y^2+y^3")]
    f = ring.parse("y^3")
    r = normal_form(f, G)
    leads = [g.leading_exps for g in G]
    for e, _ in r.iter_terms():
        assert not any(mono_divides(lead, e) for lead in leads)
    # Independent certificate: re-expand the reference division.
    quotients, remainder = reference_division(f, G)
    assert remainder == dict(r.iter_terms())
    total = ring.from_terms(
        (e, c) for e, c in remainder.items()
    )
    for qdict, g in zip(quotients, G):
        total = total + ring.from_terms(qdict.items()) * g
    assert total == f


def test_s_polynomial_coprime_leads_to_zero():
    ring = Ring(("x", "y"), QQ)
    assert s_polynomial(ring.parse("x^2"), ring.parse("y^2")).is_zero


def test_s_polynomial_of_identical_inputs_is_zero():
    ring = Ring(("x", "y"), QQ)
    f = ring.parse("x^2 + x*y")
    assert s_polynomial(f, f).is_zero


def test_s_polynomial_cancels_leading_terms():
    ring = Ring(("x", "y"), F2)
    f, g = ring.parse("x^2+y^2"), ring.parse("x*y+y^2+y^3")
    from colonlab.poly import mono_lcm

    s = s_polynomial(f, g)
    lcm = mono_lcm(f.leading_exps, g.leading_exps)
    assert not s.is_zero
    assert compare(ring.order, s.leading_exps, lcm) == -1


def test_buchberger_monomial_ideal_is_already_basis():
    ring = Ring(("x", "y"), QQ)
    gens = [ring.parse("x^2"), ring.parse("y^2")]
    basis = buchberger(gens)
    assert reduce_gb(basis) == tuple(gens)


def test_buchberger_storch_standard_monomials():
    ring = Ring(("x", "y"), F2)
    I = Ideal(ring, tuple(ring.parse(s) for s in STORCH_GENS))
    from colonlab import make_quotient

    assert make_quotient(I).length == 5


def test_buchberger_empty_input():
    assert buchberger([]) == []
    assert reduce_gb([]) == ()


def test_reduce_gb_autoreduction():
    ring = Ring(("x", "y"), QQ)
    reduced = reduce_gb([ring.parse("x^2"), ring.parse("x^2+y^2")])
    assert reduced == (ring.parse("x^2"), ring.parse("y^2"))


def test_reduce_gb_monic_normalization():
    ring = Ring(("x",), QQ)
    assert reduce_gb([ring.parse("2*x")]) == (ring.parse("x"),)


def test_reduce_gb_permutation_invariance():
    ring = Ring(("x", "y", "z"), F32003)
    rng = random.Random(5)
    for _ in range(25):
        gens = [random_nonzero_poly(rng, ring, max_exp=2, max_terms=3) for _ in range(3)]
        base = reduce_gb(buchberger(gens))
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert reduce_gb(buchberger(shuffled)) == base
        # Redundant enlargement does not change the reduced basis.
        enlarged = gens + [gens[0] * gens[1], gens[2] + gens[0]]
        assert reduce_gb(buchberger(enlarged)) == base


def test_membership_examples():
    ring = Ring(("x", "y"), QQ)
    I = Ideal(ring, (ring.parse("x^2"), ring.parse("y^2")))
    assert ideal_membership(ring.parse("x^2*y"), I)
    assert not ideal_membership(ring.parse("x"), I)


def test_membership_x4_in_storch_ideal():
    ring = Ring(("x", "y"), F2)
    I = Ideal(ring, tuple(ring.parse(s) for s in STORCH_GENS))
    assert ideal_membership(ring.parse("x^4"), I)


def test_ideal_equal_examples():
    ring = Ring(("x", "y"), QQ)
    assert ideal_equal(
        Ideal(ring, (ring.parse("x"), ring.parse("y"))),
        Ideal(ring, (ring.parse("y"), ring.parse("x+y"))),
    )
    assert not ideal_equal(
        Ideal(ring, (ring.parse("x"),)), Ideal(ring, (ring.parse("x^2"),))
    )


def test_ideal_equal_presentation_independent():
    ring = Ring(("x", "y"), QQ)
    lhs = Ideal(ring, (ring.parse("x^2"), ring.parse("y^2"), ring.parse("x^2+y^2")))
    rhs = Ideal(ring, (ring.parse("y^2"), ring.parse("x^2")))
    assert ideal_equal(lhs, rhs)
    assert lhs.groebner_basis() == rhs.groebner_basis()


def test_zero_divisors_rejected():
    ring = Ring(("x",), QQ)
    with pytest.raises(UsageError):
        normal_form(ring.parse("x"), [ring.zero])


@pytest.mark.parametrize("field", [F2, F32003, QQ], ids=lambda f: f.name)
def test_division_matches_reference_and_certificate(field):
    ring = Ring(("x", "y"), field)
    rng = random.Random(23)
    for _ in range(60):
        G = [random_nonzero_poly(rng, ring, max_exp=2, max_terms=3) for _ in range(rng.randint(1, 3))]
        f = random_poly(rng, ring, max_exp=4, max_terms=6)
        r = normal_form(f, G)
        quotients, remainder = reference_division(f, G)
        assert dict(r.iter_terms()) == remainder
        total = ring.from_terms(remainder.items())
        for qdict, g in zip(quotients, G):
            total = total + ring.from_terms(qdict.items()) * g
        assert total == f
        # Idempotence.
        assert normal_form(r, G) == r


@pytest.mark.parametrize("use_chain", [True, False], ids=["chain", "no-chain"])
def test_all_s_polynomials_reduce_to_zero(use_chain):
    rng = random.Random(29)
    ring = Ring(("x", "y"), F32003)
    for _ in range(20):
        gens = [random_nonzero_poly(rng, ring, max_exp=3, max_terms=3) for _ in range(2)]
        basis = buchberger(gens, use_chain_criterion=use_chain)
        for i in range(len(basis)):
            for j in range(i):
                assert normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero


def test_chain_criterion_does_not_change_reduced_basis():
    rng = random.Random(31)
    ring = Ring(("x", "y", "z"), F32003)
    for _ in range(10):
        gens = [random_nonzero_poly(rng, ring, max_exp=2, max_terms=3) for _ in range(3)]
        with_chain = reduce_gb(buchberger(gens, use_chain_criterion=True))
        without = reduce_gb(buchberger(gens, use_chain_criterion=False))
        assert with_chain == without


def test_concurrent_basis_cache_is_consistent():
    import threading

    ring = Ring(("x", "y", "z"), F32003)
    rng = random.Random(61)
    gens = tuple(random_nonzero_poly(rng, ring, max_exp=2, max_terms=3) for _ in range(3))
    I = Ideal(ring, gens)
    results = [None] * 8

    def worker(slot):
        results[slot] = I.groebner_basis()

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    assert results[0] == reduce_gb(buchberger(list(gens)))


def test_remainder_difference_lies_in_ideal_on_corpus(corpus):
    # f - normal_form(f, G) is a member of <G>: its image in the Artinian
    # quotient model is the zero vector.
    from colonlab import build_model, make_quotient

    rng = random.Random(59)
    for name, ideal, _ in corpus[:8]:
        A = make_quotient(ideal)
        M = build_model(A)
        gb = ideal.groebner_basis()
        for _ in range(5):
            f = random_poly(rng, ideal.ring, max_exp=3, max_terms=5)
            h = f - normal_form(f, gb)
            assert all(c == ideal.ring.field.zero for c in M.coords(h)), name


def test_cached_basis_properties_on_corpus(corpus):
    for name, ideal, _ in corpus:
        gb = ideal.groebner_basis()
        assert gb is ideal.groebner_basis()  # cached
        for g in ideal.generators:
            assert normal_form(g, gb).is_zero, name
        for g in gb:
            assert g.leading_coeff == ideal.ring.field.one
            others = [h for h in gb if h is not g]
            for e, _ in g.iter_terms():
                assert not any(mono_divides(h.leading_exps, e) for h in others), name


def test_ideal_reduce_matches_normal_form_on_corpus(corpus):
    rng = random.Random(61)
    for name, ideal, _ in corpus:
        gb = ideal.groebner_basis()
        for _ in range(5):
            f = random_poly(rng, ideal.ring, max_exp=4, max_terms=6)
            assert ideal.reduce(f) == normal_form(f, gb), name
            assert ideal_membership(f, ideal) == normal_form(f, gb).is_zero, name


def test_ideal_reduce_rejects_foreign_polynomial():
    ring = Ring(("x", "y"), QQ)
    other = Ring(("x", "y"), F2)
    ideal = Ideal(ring, (ring.parse("x^2"),))
    with pytest.raises(UsageError):
        ideal.reduce(other.parse("x"))
    with pytest.raises(UsageError):
        ideal_membership(other.parse("x"), ideal)
    with pytest.raises(UsageError):
        Ideal(ring, ()).reduce(other.parse("x"))
