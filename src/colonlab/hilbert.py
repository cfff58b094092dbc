"""Hilbert functions of Artinian quotients and I-adic filtrations.

Lengths are always standard-monomial counts against a reduced Groebner basis;
no generating-function arithmetic. Powers of an ideal inside the quotient are
tracked through normal-form-reduced generator sets, which leaves the image
ideals unchanged. The chain starts from the reduced basis of J + I taken mod J,
so the first step holds no redundant generators.

The ideals J + I^k, k = 0..delta+1, are built once from that chain
(_power_ideals). The filtration table reads their lengths (_filtration_table),
and verify_main_equivalence compares its colon ladder with the same Ideal
objects, so each of them computes its Groebner basis once. J + (1) is the
known unit ideal, and J + I shares the basis that the chain walk, which
_power_ideals runs itself, computes for its unit check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, PreconditionError, UsageError
from .groebner import Ideal, _known_basis
from .ideal_ops import QuotientRing, _dedup_nonzero, ideal_sum, make_quotient, unit_ideal

KIND_GRADED = "graded"
KIND_FILTRATION = "filtration"


@dataclass(frozen=True)
class HilbertTable:
    """Lengths indexed 0..delta plus the top index and which filtration it is."""

    values: tuple
    delta: int
    kind: str

    def __post_init__(self):
        if self.delta < 0 or len(self.values) != self.delta + 1:
            raise InternalError(f"table length {len(self.values)} != delta+1 = {self.delta + 1}")
        if self.values[self.delta] < 1:
            raise InternalError("top table entry must be positive")
        if self.kind not in (KIND_GRADED, KIND_FILTRATION):
            raise InternalError(f"unknown table kind {self.kind!r}")


def length_of_quotient(J: Ideal) -> int:
    """ell(R/J) as the number of standard monomials; J must be Artinian."""
    return make_quotient(J).length


def graded_hilbert(A: QuotientRing) -> HilbertTable:
    """Lengths of the graded pieces of A; the defining ideal must be homogeneous."""
    for g in A.defining.groebner_basis():
        homogeneous, _ = g.is_homogeneous()
        if not homogeneous:
            raise PreconditionError(
                f"defining ideal is not homogeneous: basis element {g} has mixed degrees"
            )
    if A.length == 0:
        raise PreconditionError("the zero ring has no graded Hilbert table")
    degrees = [sum(e) for e in A.standard_monomials]
    delta = max(degrees)
    values = [0] * (delta + 1)
    for d in degrees:
        values[d] += 1
    return HilbertTable(tuple(values), delta, KIND_GRADED)


def image_power_chain(A: QuotientRing, I: Ideal):
    """Reduced generator sets of the images of I, I^2, ... until the image is zero.

    Returns the list [gens(I^1), gens(I^2), ..., gens(I^d)] where I^(d+1) maps
    to zero in A; an m-primary proper ideal always reaches zero within length(A)
    steps. gens(I^1) is the reduced basis of J + I taken mod J, not I's own
    generators: a redundant generating set would multiply into ever more
    distinct products at each step.
    """
    return _power_chain(A, I)[0]


def _power_chain(A: QuotientRing, I: Ideal):
    """(image_power_chain(A, I), J + I), the ideal J + I with its basis computed."""
    if I.ring != A.ring:
        raise UsageError("ideal and quotient live in different rings")
    total = ideal_sum(A.defining, Ideal(A.ring, tuple(A.reduce(f) for f in I.generators)))
    if total.is_unit:
        raise UsageError("ideal is the unit ideal in the quotient; a proper ideal is required")
    base = _dedup_nonzero(A.reduce(g) for g in total.groebner_basis())
    chain = []
    current = base
    while current:
        chain.append(current)
        if len(chain) > max(A.length, 1):
            raise PreconditionError(
                "ideal is not nilpotent in the quotient (not m-primary)"
            )
        current = _dedup_nonzero(A.reduce(a * b) for a in current for b in base)
    return chain, total


def nilpotency_index(A: QuotientRing, I: Ideal) -> int:
    """The largest i with I^i nonzero in A (0 when the image of I is zero).

    The verifiers read delta off _power_chain themselves; the tests use this
    as the reference delta for ladder lengths and the corollary's delta.
    """
    return len(image_power_chain(A, I))


def _power_ideals(A: QuotientRing, I: Ideal):
    """[J + I^k for k = 0..delta+1] from one walk of I's power chain: (1) first, J last.

    J + I keeps the generators J + chain[0]; the equivalence's colon series
    steps by chain[0], the ones nonzero in A. It takes its reduced basis from
    the same ideal that the chain walk returns with its basis computed.
    """
    chain, total = _power_chain(A, I)
    J, ring = A.defining, A.ring
    sums = [ideal_sum(J, Ideal(ring, tuple(gens))) for gens in chain]
    if sums:
        sums[0] = _known_basis(ring, total.groebner_basis(), sums[0].generators)
    return [unit_ideal(ring)] + sums + [J]


def _filtration_table(A: QuotientRing, powers) -> HilbertTable:
    """H(I, i) = ell(R/(J + I^(i+1))) - ell(R/(J + I^i)) over _power_ideals' list."""
    # The two ends are known: ell(R/(1)) = 0 and ell(R/J) = ell(A).
    lengths = [0] + [length_of_quotient(P) for P in powers[1:-1]] + [A.length]
    delta = len(powers) - 2
    values = tuple(lengths[i + 1] - lengths[i] for i in range(delta + 1))
    if sum(values) != A.length:
        raise InternalError("filtration table does not sum to the quotient length")
    return HilbertTable(values, delta, KIND_FILTRATION)


def filtration_hilbert(A: QuotientRing, I: Ideal) -> HilbertTable:
    """The table H(I, i) = ell(I^i / I^(i+1)) for i = 0..delta."""
    return _filtration_table(A, _power_ideals(A, I))


def is_symmetric(table: HilbertTable) -> bool:
    v, d = table.values, table.delta
    return all(v[i] == v[d - i] for i in range(d + 1))
