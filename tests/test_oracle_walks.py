"""The oracle's per-model memos: every query order gives the fresh-model answer.

A model keeps what its walks found: the image of each ambient ideal, the
generator operators of each stable subspace, the power chains, the rungs
B^k -> (B, B^(k-1)) those chains built, and each annihilator. `annihilator`
solves 0 : B^k = (0 : B^(k-1)) : B when the rung below is known and solves
directly otherwise. These tests query rungs in ascending, descending and
single order and compare each answer with the annihilator taken on a fresh
model, where no memo can help. They also pin the memo's footprint: a lone
query stores one rung, each walk input is walked once, and models share
nothing. Inputs are the CORPUS entries of length at most 60, a non-local
quotient and hypothesis inputs over F2, F32003 and Q.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colonlab.oracle as oracle
from colonlab import (
    QQ,
    Ideal,
    Ring,
    annihilator,
    build_model,
    irrelevant_power,
    make_quotient,
    oracle_filtration_hilbert,
    oracle_power,
    subspace_of_ideal,
)

from conftest import F2, F32003, corpus_ideals, make_ideal
from test_colon_laws import cases

FIELDS = pytest.mark.parametrize("field", [F2, F32003, QQ], ids=lambda f: f.name)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=20, database=None)

NON_LOCAL = ("x^2 - x", "y^2 - y")  # four points: R/J is Artinian but not local
MEMOS = ("chains", "images", "operators", "rungs", "annihilators")


def ideals(ring):
    """m, m^2 and the non-monomial ideal (x_1 + ... + x_n + x_1^2)."""
    f = sum((ring.variable(i) for i in range(ring.nvars)), ring.variable(0) * ring.variable(0))
    return [irrelevant_power(ring, 1), irrelevant_power(ring, 2), Ideal(ring, (f,))]


def rungs(A, K):
    """The number of powers V^0, V^1, ... that a query order should cover."""
    M = build_model(A)
    return len(oracle._chain(M, subspace_of_ideal(M, K))) + 2


def fresh_annihilator(A, K, k):
    """0 : V^k on a model that has answered nothing before."""
    M = build_model(A)
    return annihilator(M, oracle_power(M, subspace_of_ideal(M, K), k))


def check_orders(A, K):
    count = rungs(A, K)
    expected = [fresh_annihilator(A, K, k) for k in range(count)]
    orders = {
        "ascending": list(range(count)),
        "descending": list(reversed(range(count))),
        "middle then ends": [count // 2, 0, count - 1, 1],
    }
    for name, order in orders.items():
        M = build_model(A)
        V = subspace_of_ideal(M, K)
        for k in order:
            assert annihilator(M, oracle_power(M, V, k)) == expected[k], (name, k)
    for k in range(count):  # single rung
        M = build_model(A)
        V = subspace_of_ideal(M, K)
        assert annihilator(M, oracle_power(M, V, k)) == expected[k], ("single", k)


def test_corpus_orders_match_fresh_models():
    for name, ideal, _ in corpus_ideals():
        A = make_quotient(ideal)
        if A.length > 60:
            continue
        for K in ideals(A.ring):
            check_orders(A, K)


def test_non_local_orders_match_fresh_models():
    A = make_quotient(make_ideal(QQ, ("x", "y"), NON_LOCAL))
    ring = A.ring
    for text in ("x", "x*y", "x + y", "x - y", "x*y - x"):
        check_orders(A, Ideal(ring, (ring.parse(text),)))


@FIELDS
@PROPERTY
@given(data=st.data())
def test_random_orders_match_fresh_models(field, data):
    I, J, K = data.draw(cases(field))
    A = make_quotient(I)
    for ideal in (J, K):
        check_orders(A, ideal)


def test_ascending_rungs_use_the_rung_below():
    A = make_quotient(make_ideal(F32003, ("x", "y", "z"), ("x^2", "y^3", "z^4")))
    M = build_model(A)
    V = subspace_of_ideal(M, irrelevant_power(A.ring, 1))
    chain = oracle._chain(M, V)
    for k, power in enumerate(chain[1:], start=2):
        assert M.rungs[power] == (V, chain[k - 2])
    for k in range(len(chain) + 1):
        annihilator(M, oracle_power(M, V, k))
    assert list(M.operators) == [V, M.full_space()]  # no power V^k, k >= 2, was walked


@pytest.mark.parametrize("k", [60, 119, 120])
def test_a_lone_top_rung_query_stores_only_that_rung(k):
    ring = Ring(("x",), QQ)
    A = make_quotient(Ideal(ring, (ring.parse("x^120"),)))
    M = build_model(A)
    V = subspace_of_ideal(M, irrelevant_power(ring, 1))
    power = oracle_power(M, V, k)
    assert len(M.chains[V]) == 120
    ann = annihilator(M, power)
    assert ann.dim == min(k, 120)
    assert list(M.annihilators) == [power]


def test_each_walk_input_is_walked_once(monkeypatch):
    walked = []
    span = oracle._ideal_span

    def recording(M, vectors, limit):
        walked.append(tuple(tuple(v) for v in vectors))  # coordinates or rows, both dense
        return span(M, vectors, limit)

    monkeypatch.setattr(oracle, "_ideal_span", recording)
    A = make_quotient(make_ideal(F32003, ("x", "y", "z"), ("x^2", "y^3", "z^3")))
    M = build_model(A)
    m = irrelevant_power(A.ring, 1)
    # The oracle-fp sequence: the table, the image, every power and every
    # annihilator in ascending order. Only m's generators and the whole ring
    # (the annihilator of V^0) are walked.
    oracle_filtration_hilbert(M, m)
    V = subspace_of_ideal(M, m)
    powers = [oracle_power(M, V, k) for k in range(len(M.chains[V]) + 1)]
    for power in powers:
        annihilator(M, power)
    assert len(walked) == 2
    # Any further order, image or table on the same model walks only new inputs.
    for power in reversed(powers):
        annihilator(M, power)
    for K in ideals(A.ring) + [m]:
        oracle_filtration_hilbert(M, K)
        W = subspace_of_ideal(M, K)
        for k in reversed(range(len(oracle._chain(M, W)) + 1)):
            annihilator(M, oracle_power(M, W, k))
    assert len(walked) == len(set(walked))


def test_models_share_no_memo():
    A = make_quotient(make_ideal(QQ, ("x", "y"), ("x^3", "y^3")))
    first, second = build_model(A), build_model(A)
    for name in MEMOS:
        assert getattr(first, name) is not getattr(second, name)
    V = subspace_of_ideal(first, irrelevant_power(A.ring, 1))
    answers = [annihilator(first, oracle_power(first, V, k)) for k in range(6)]
    assert all(getattr(first, name) for name in MEMOS)
    assert not any(getattr(second, name) for name in MEMOS)
    W = subspace_of_ideal(second, irrelevant_power(A.ring, 1))
    assert W == V
    descending = [annihilator(second, oracle_power(second, W, k)) for k in reversed(range(6))]
    assert descending == answers[::-1]
