"""One list of power ideals J + I^k per verdict.

The Gorenstein-quotient ladder and its filtration table are read off one power
series, and the corollary takes delta from its graded table; both must agree
with the standalone functions and with the oracle.
"""

from __future__ import annotations

import sys

import pytest

import colonlab.groebner
import colonlab.hilbert
from colonlab import (
    QQ,
    Ideal,
    build_model,
    filtration_hilbert,
    irrelevant_power,
    make_quotient,
    nilpotency_index,
    oracle_filtration_hilbert,
    verify_corollary,
    verify_main_equivalence,
)

from conftest import CORPUS, make_ideal

# Includes both characteristic-2 fixtures, storch and char2_variant.
GORENSTEIN = [entry for entry in CORPUS if entry[4]]


def _ideal(entry):
    _, field, variables, gens, _ = entry
    return make_ideal(field, variables, gens)


def _graded(J):
    return all(g.is_homogeneous()[0] for g in J.generators)


@pytest.mark.parametrize("power", [1, 2], ids=["m", "m2"])
@pytest.mark.parametrize("entry", GORENSTEIN, ids=lambda e: e[0])
def test_equivalence_table_matches_standalone_and_oracle(entry, power):
    A = make_quotient(_ideal(entry))
    I = irrelevant_power(A.ring, power)
    report = verify_main_equivalence(A, I)
    table = filtration_hilbert(A, I)
    assert report.table == table == oracle_filtration_hilbert(build_model(A), I)
    assert report.delta == table.delta == len(report.rungs) - 1
    assert report.symmetric == (table.values == table.values[::-1])


@pytest.mark.parametrize(
    "entry", [e for e in GORENSTEIN if _graded(_ideal(e))], ids=lambda e: e[0]
)
def test_corollary_delta_is_the_nilpotency_index_of_m(entry):
    J = _ideal(entry)
    A = make_quotient(J)
    report = verify_corollary(J)
    assert report.delta == nilpotency_index(A, irrelevant_power(J.ring, 1))
    assert len(report.rungs) == report.delta + 1


@pytest.fixture
def chain_calls(monkeypatch):
    """Counts power-chain walks.

    Every walk runs hilbert._power_chain, and image_power_chain calls it
    through the module attribute, so public calls are counted too.
    """
    calls = []
    original = colonlab.hilbert._power_chain

    def counted(A, I):
        calls.append(I)
        return original(A, I)

    monkeypatch.setattr(colonlab.hilbert, "_power_chain", counted)
    return calls


@pytest.fixture
def counted(monkeypatch):
    """counted(module, name) replaces module.name with a wrapper and returns its list of calls."""

    def count(module, name):
        calls = []
        original = getattr(module, name)

        def wrapper(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    return count


def count_kernel_work(counted):
    """Spies on the work that should not run once A is built, and on the image tables.

    hilbert._power_ideals calls _power_series by that name; every
    groebner_basis without a published basis runs groebner.buchberger and
    then groebner.reduce_gb, which the elimination colons of ideal_ops call
    by their own name; and each colon walk and power series builds one image
    table, ideal_ops._multiplier.
    """
    return {
        "series": counted(colonlab.hilbert, "_power_series"),
        "buchberger": counted(colonlab.groebner, "buchberger"),
        "reduce_gb": counted(colonlab.groebner, "reduce_gb"),
        "ideal_ops.reduce_gb": counted(colonlab.ideal_ops, "reduce_gb"),
        "multiplier": counted(colonlab.ideal_ops, "_multiplier"),
    }


@pytest.mark.parametrize("name", ["ci_x3_y4", "ci_x2_y2_z2", "storch"])
def test_equivalence_walks_one_power_series(counted, chain_calls, name):
    """One power series and one image table per walk: the m-walk, the series, an I-walk.

    With I = m the ladder continues the m-walk whose rung 1 is the Gorenstein
    check's socle, so it builds two tables; any other I walks A's colon series
    by J + I as well, so it builds three. Each I gets a fresh A, since A keeps
    only its latest walk. A second I = m equivalence on the same A finds the
    m-walk on A and builds only the power series' table.
    """
    J = _ideal(next(e for e in CORPUS if e[0] == name))
    make_quotient(J)  # J's basis; every A below is built from it
    work = count_kernel_work(counted)
    ring = J.ring  # the last I as the CLI builds it: parsed generators, no basis published
    first, last = ring.variables[0], ring.variables[-1]
    ideals = [
        (irrelevant_power(ring, 1), 2),
        (irrelevant_power(ring, 2), 3),
        (Ideal(ring, (ring.parse(first), ring.parse(f"{last}^2"))), 3),
    ]
    for walks, (I, tables) in enumerate(ideals, 1):
        work["multiplier"].clear()
        verify_main_equivalence(make_quotient(J), I)
        assert len(work["series"]) == walks
        assert len(work["multiplier"]) == tables
    A = make_quotient(J)
    m = irrelevant_power(ring, 1)
    verify_main_equivalence(A, m)
    work["multiplier"].clear()
    again = verify_main_equivalence(A, m)
    assert [args[0] for args in work["multiplier"]] == [A]  # the power series' table alone
    assert again == verify_main_equivalence(make_quotient(J), m)
    assert work["buchberger"] == work["reduce_gb"] == work["ideal_ops.reduce_gb"] == []
    assert chain_calls == []


def test_a_linear_generator_shares_the_m_walk(counted):
    """J = (x + 2y, y^3): the images in A of m's generators and of J + m's basis are -2y and y.

    So the ladder of I = m continues the Gorenstein check's m-walk, and the
    equivalence builds two image tables, that walk's and the power series'.
    """
    J = make_ideal(QQ, ("x", "y"), ("x+2*y", "y^3"))
    A = make_quotient(J)
    work = count_kernel_work(counted)
    report = verify_main_equivalence(A, irrelevant_power(J.ring, 1))
    assert len(work["multiplier"]) == 2
    assert report.delta == 2 and report.ladder_holds and report.symmetric


@pytest.mark.parametrize("name", ["ci_x3_y4", "ci_x2_y2_z2", "storch", "mixed_ci"])
def test_kernels_reduce_each_border_monomial_once(monkeypatch, name):
    """The m-walk, the power series and an I-walk on one A share A's border normal forms.

    Counted over one equivalence: the calls of Ideal.reduce that the image
    tables (ideal_ops._multiplier) make. Each is a monomial outside A's
    staircase, and each is reduced once. The series reduce their generators
    themselves, outside the tables, and are not counted.
    """
    J = _ideal(next(e for e in CORPUS if e[0] == name))
    ring = J.ring
    first, last = ring.variables[0], ring.variables[-1]
    reduced = []
    original = Ideal.reduce

    def spy(ideal, f):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "image" and caller.f_globals["__name__"].endswith("ideal_ops"):
            assert ideal is J and f.num_terms == 1 and f.leading_exps not in staircase
            reduced.append(f.leading_exps)
        return original(ideal, f)

    monkeypatch.setattr(Ideal, "reduce", spy)
    for I in (
        irrelevant_power(ring, 1),
        irrelevant_power(ring, 2),
        Ideal(ring, (ring.parse(first), ring.parse(f"{last}^2"))),
    ):
        A = make_quotient(J)
        staircase = set(A.standard_monomials)
        reduced.clear()
        verify_main_equivalence(A, I)
        assert reduced and len(reduced) == len(set(reduced)), I


@pytest.mark.parametrize("name", ["ci_x3_y4", "ci_x2_y2_z2", "mixed_ci"])
def test_corollary_walks_no_power_chain(counted, chain_calls, name):
    """Nor a second walk: the ladder continues the Gorenstein check's m-walk, one image table."""
    J = _ideal(next(e for e in CORPUS if e[0] == name))
    J.groebner_basis()  # A's basis; verify_corollary builds A from it
    work = count_kernel_work(counted)
    report = verify_corollary(J)
    assert report.holds and report.delta >= 2  # the walk goes past the socle
    assert chain_calls == []
    assert len(work["multiplier"]) == 1
    assert work["buchberger"] == work["reduce_gb"] == work["ideal_ops.reduce_gb"] == []
    assert work["series"] == []
