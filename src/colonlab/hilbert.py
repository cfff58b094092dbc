"""Hilbert functions of Artinian quotients and I-adic filtrations.

Lengths are always standard-monomial counts; no generating-function
arithmetic. The ideals J + I^k, k = 0..delta+1, and their lengths are built
once per table (_power_ideals), from one walk of ideal_ops._power_series over
the images of I's generators in A: each rung R/(J + I^k) is an echelon of
I^k's image on A's staircase, with its reduced basis assembled from the
echelon and published, and its length ell(A) - dim, so no Buchberger, no
reduce_gb, no power chain and no make_quotient runs for them. The filtration
table reads those lengths (_filtration_table), and verify_main_equivalence
compares its colon ladder with the same Ideal objects. J + (1) is the known
unit ideal and J + I^(delta+1) is J.

The polynomial power chain stays as the tests' reference: powers of an ideal
inside the quotient tracked through normal-form-reduced generator sets,
starting from the reduced basis of J + I taken mod J, so the first step holds
no redundant generators, and each later step forms every product of base
elements sorted by index once (_power_chain). image_power_chain and
nilpotency_index read it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, PreconditionError, UsageError
from .groebner import Ideal
from .ideal_ops import (
    QuotientRing,
    _dedup_nonzero,
    _power_series,
    ideal_sum,
    make_quotient,
    unit_ideal,
)

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
    return _power_chain(A, I)


def _power_chain(A: QuotientRing, I: Ideal):
    """image_power_chain(A, I), walked by sorted products.

    The base is gens(I^1), and step k + 1 holds the normal forms of the
    products of k + 1 base elements. Each element of a step is kept with the
    least index of a last factor among the products sorted by index that it
    was reached as, and is multiplied only by the base elements from that
    index on. A sorted product of k + 1 factors is its first k factors, whose
    normal form is kept with an index at most that of the k-th, times the
    last. So every sorted product is reached, no two products formed stand
    for the same sorted product, and the steps hold the same polynomials as
    multiplying every element by every base element would.
    """
    if I.ring != A.ring:
        raise UsageError("ideal and quotient live in different rings")
    total = ideal_sum(A.defining, Ideal(A.ring, tuple(A.reduce(f) for f in I.generators)))
    if total.is_unit:
        raise UsageError("ideal is the unit ideal in the quotient; a proper ideal is required")
    base = _dedup_nonzero(A.reduce(g) for g in total.groebner_basis())
    chain = []
    current = {f.terms: (f, i) for i, f in enumerate(base)}  # terms -> (element, least index)
    while current:
        chain.append([f for f, _ in current.values()])
        if len(chain) > max(A.length, 1):
            raise PreconditionError(
                "ideal is not nilpotent in the quotient (not m-primary)"
            )
        step = {}
        for a, least in current.values():
            for j in range(least, len(base)):
                f = A.reduce(a * base[j])
                if not f.is_zero:
                    kept = step.setdefault(f.terms, (f, j))
                    if j < kept[1]:
                        step[f.terms] = (kept[0], j)
        current = step
    return chain


def nilpotency_index(A: QuotientRing, I: Ideal) -> int:
    """The largest i with I^i nonzero in A (0 when the image of I is zero).

    The verifiers read delta off their power ideals themselves; the tests use
    this as the reference delta for ladder lengths and the corollary's delta.
    """
    return len(image_power_chain(A, I))


class _Powers(list):
    """[J + I^k for k = 0..delta+1], with lengths[k] = ell(R/(J + I^k))."""

    __slots__ = ("lengths",)


def _power_ideals(A: QuotientRing, I: Ideal) -> _Powers:
    """[J + I^k for k = 0..delta+1] from one _power_series walk: (1) first, J last.

    Rung k of the series is R/(J + I^k) with its reduced basis published, and
    its length rides along. When I is zero in A the series is empty and the
    list is [(1), J]: J + I is J itself, and delta is 0.
    """
    if I.ring != A.ring:
        raise UsageError("ideal and quotient live in different rings")
    series = _power_series(A, _dedup_nonzero(A.reduce(f) for f in I.generators))
    powers = _Powers([unit_ideal(A.ring)] + [Q.defining for Q in series] + [A.defining])
    powers.lengths = [0] + [Q.length for Q in series] + [A.length]
    return powers


def _filtration_table(A: QuotientRing, powers: _Powers) -> HilbertTable:
    """H(I, i) = ell(R/(J + I^(i+1))) - ell(R/(J + I^i)) over _power_ideals' lengths."""
    lengths = powers.lengths
    delta = len(lengths) - 2
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
