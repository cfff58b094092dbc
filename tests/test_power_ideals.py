"""One list of power ideals J + I^k per verdict.

The Gorenstein-quotient ladder and its filtration table are read off one power
chain, and the corollary takes delta from its graded table; both must agree
with the standalone functions and with the oracle.
"""

from __future__ import annotations

import pytest

import colonlab.hilbert
from colonlab import (
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

    Every walk runs hilbert._power_chain, and image_power_chain and
    _power_ideals call it through the module attribute, so the verifiers'
    walks and public calls are counted too.
    """
    calls = []
    original = colonlab.hilbert._power_chain

    def counted(A, I):
        calls.append(I)
        return original(A, I)

    monkeypatch.setattr(colonlab.hilbert, "_power_chain", counted)
    return calls


@pytest.mark.parametrize("name", ["ci_x3_y4", "ci_x2_y2_z2", "storch"])
def test_equivalence_walks_one_power_chain(chain_calls, name):
    J = _ideal(next(e for e in CORPUS if e[0] == name))
    A = make_quotient(J)
    verify_main_equivalence(A, irrelevant_power(J.ring, 1))
    assert len(chain_calls) == 1
    verify_main_equivalence(A, irrelevant_power(J.ring, 2))
    assert len(chain_calls) == 2
    ring = J.ring  # I as the CLI builds it: parsed generators, no basis published
    first, last = ring.variables[0], ring.variables[-1]
    verify_main_equivalence(A, Ideal(ring, (ring.parse(first), ring.parse(f"{last}^2"))))
    assert len(chain_calls) == 3


@pytest.mark.parametrize("name", ["ci_x3_y4", "ci_x2_y2_z2", "mixed_ci"])
def test_corollary_walks_no_power_chain(chain_calls, name):
    verify_corollary(_ideal(next(e for e in CORPUS if e[0] == name)))
    assert chain_calls == []
