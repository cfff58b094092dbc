"""Verifiers for the colon-power ladder, Hilbert symmetry, and their equivalence.

Index ranges follow the statements exactly: the complete-intersection ladder
runs over i = 0..delta+1, the Gorenstein-quotient ladder and the corollary over
i = 0..delta. Reports carry per-rung basis sizes so a failure localizes without
rerunning anything.

All three ladders walk their left-hand sides one rung at a time: lhs_0 is the
base ideal and lhs_i = lhs_(i-1) : step, which equals the direct colon by the
i-th power because (I : A) : B = I : AB. The complete-intersection ladder and
the corollary step by m; the Gorenstein-quotient ladder steps by J + I, since
J : (J + I^i) = J : I^i. The Gorenstein check computes the socle quotient
R/(J : m) (ideal_ops.socle_quotient) and reads the socle dimension off the
two lengths. The corollary and the Gorenstein-quotient ladder walk a colon
series (ideal_ops._colon_series): each rung is the kernel of multiplication
by the step's generators on the staircase of the rung below, read off one
table of images on A's staircase, and it hands its staircase on, so they take
no colon, build no quotient and run no reduce_gb. The socle that the
Gorenstein check has computed is rung 1 of the walk by m, and a step by m
continues that walk from it rather than starting a second one. Any other step
J + I walks A by the images in A of J + I's reduced basis that are nonzero
there. Only the complete-intersection ladder still walks colon_powers:
switching it measured faster, but the benchmark reads its peak-memory metric
after per-instance statistics, which grow with throughput, and that reading
went 53% past the parent's, beyond its bound.

The right-hand sides I + m^k of the complete-intersection ladder and the
corollary have a closed-form reduced basis, since I is homogeneous: I's basis
elements of degree below k and the degree-k monomials that none of their
leading monomials divides (_plus_irrelevant_power); no Buchberger runs for
them. The quotient of the latest complete intersection is kept, so
check_delta_identity after verify_macaulay_ladder on the same generators
builds it once.

The Gorenstein-quotient ladder and its filtration table share one list of
power ideals J + I^k (hilbert._power_ideals), read off one power series of A
(ideal_ops._power_series): the step is J + I, the right-hand side of rung i is
J + I^(delta+1-i), and the table reads the lengths that the series hands on
with them. Every basis on both sides is assembled from an echelon on A's
staircase, so once A is built the equivalence runs no Buchberger, no
reduce_gb, no power chain and no make_quotient. The corollary reads delta off
its graded table: J is homogeneous, so A is standard graded, m^i is the sum
of the pieces of degree >= i, and the largest i with m^i != 0 is the top
degree.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .errors import PreconditionError, UsageError
from .fields import PrimeField
from .groebner import Ideal, _known_basis, ideal_equal
from .hilbert import HilbertTable, _filtration_table, _power_ideals, graded_hilbert, is_symmetric
from .ideal_ops import (
    QuotientRing,
    _colon_series,
    _dedup_nonzero,
    colon_powers,
    irrelevant_power,
    make_quotient,
    monomials_of_degree,
    socle_quotient,
)
from .poly import Ring, mono_divides


@dataclass(frozen=True)
class LadderRung:
    i: int
    lhs_gb_size: int
    rhs_gb_size: int
    equal: bool


@dataclass(frozen=True)
class LadderReport:
    delta: int
    rungs: tuple
    holds: bool


@dataclass(frozen=True)
class EquivalenceReport:
    delta: int
    ladder_holds: bool
    table: HilbertTable
    symmetric: bool
    consistent: bool
    rungs: tuple


@functools.lru_cache(maxsize=1)
def _complete_intersection(gens: tuple):
    """(quotient, delta) of n homogeneous positive-degree generators in n variables.

    The quotient must be Artinian (make_quotient raises otherwise), and
    delta = sum(d_i) - n. The latest result is kept, keyed by the tuple of
    generators, because check_delta_identity usually follows
    verify_macaulay_ladder on the same generators; errors are not kept.
    """
    if not gens:
        raise PreconditionError("no generators given")
    ring = gens[0].ring
    if len(gens) != ring.nvars:
        raise PreconditionError(
            f"need exactly {ring.nvars} generators in {ring.nvars} variables, got {len(gens)}"
        )
    degrees = []
    for g in gens:
        homogeneous, degree = g.is_homogeneous()
        if not homogeneous or degree is None or degree < 1:
            raise PreconditionError(
                f"generator {g} is not homogeneous of positive degree"
            )
        degrees.append(degree)
    return make_quotient(Ideal(ring, tuple(gens))), sum(degrees) - ring.nvars


def _gorenstein_socle(A: QuotientRing) -> QuotientRing:
    """R/(J : m) for A = R/J, which must be Gorenstein (socle dimension 1)."""
    B = socle_quotient(A)
    if A.length - B.length != 1:
        raise PreconditionError("quotient is not Gorenstein (socle dimension is not 1)")
    return B


def _graded_gorenstein(J: Ideal):
    """(R/J, graded table, R/(J : m)) of R/J, which must be graded Artinian Gorenstein."""
    A = make_quotient(J)
    table = graded_hilbert(A)  # also enforces homogeneity
    return A, table, _gorenstein_socle(A)


def _plus_irrelevant_power(I: Ideal, k: int) -> Ideal:
    """I + m^k for homogeneous I, with its reduced basis in closed form.

    That basis is I's basis elements of degree below k together with the
    degree-k monomials that none of their leading monomials divides; k = 0
    gives the unit ideal.
    """
    ring = I.ring
    low = [g for g in I.groebner_basis() if sum(g.leading_exps) < k]
    leads = [g.leading_exps for g in low]
    tops = [
        ring.monomial(e)
        for e in monomials_of_degree(ring, k)
        if not any(mono_divides(lead, e) for lead in leads)
    ]
    return _known_basis(ring, sorted(low + tops, key=lambda g: g.leading_key, reverse=True))


def _ladder_rungs(lhs_ideals, rhs_of) -> tuple:
    """Rungs i = 0, 1, ... comparing the i-th left-hand ideal with rhs_of(i)."""
    rungs = []
    for i, lhs in enumerate(lhs_ideals):
        rhs = rhs_of(i)
        rungs.append(
            LadderRung(
                i,
                len(lhs.groebner_basis()),
                len(rhs.groebner_basis()),
                ideal_equal(lhs, rhs),
            )
        )
    return tuple(rungs)


def verify_macaulay_ladder(gens) -> LadderReport:
    """Check I : m^i = I + m^(delta+1-i) for i = 0..delta+1.

    Requires n homogeneous generators in n variables cutting out an Artinian
    quotient (a complete intersection), with delta = sum(d_i) - n.
    """
    A, delta = _complete_intersection(tuple(gens))
    I = A.defining
    rungs = _ladder_rungs(
        colon_powers(I, irrelevant_power(A.ring, 1), delta + 1),
        lambda i: _plus_irrelevant_power(I, delta + 1 - i),
    )
    return LadderReport(delta, rungs, all(r.equal for r in rungs))


def verify_symmetry(J: Ideal):
    """Graded table of an Artinian Gorenstein graded quotient and its symmetry."""
    _, table, _ = _graded_gorenstein(J)
    return table, is_symmetric(table)


def verify_main_equivalence(A: QuotientRing, I: Ideal) -> EquivalenceReport:
    """Check (0 : I^i = I^(delta+1-i) for all i) <=> (H(I, i) symmetric).

    A must be Artinian Gorenstein; I is an ambient ideal read modulo the
    defining ideal, proper in A. Both sides of the equivalence are computed
    and the report's `consistent` flag records whether they agree.
    """
    if I.ring != A.ring:
        raise UsageError("ideal and quotient live in different rings")
    B = _gorenstein_socle(A)
    try:
        powers = _power_ideals(A, I)  # powers[k] = J + I^k
    except UsageError as exc:  # I is the unit ideal in A
        raise PreconditionError(str(exc)) from None
    delta = len(powers) - 2
    J, step = A.defining, powers[1]
    m = irrelevant_power(A.ring, 1)
    gens = _dedup_nonzero(A.reduce(g) for g in step.groebner_basis())
    if delta and ideal_equal(step, m):
        series = _colon_series(B, gens, delta - 1)  # continues the walk whose rung 1 is B
    else:
        series = _colon_series(A, gens, delta)[1:]
    lhs = [J] + [Q.defining for Q in series]  # J : I^i
    rungs = _ladder_rungs(lhs, lambda i: powers[delta + 1 - i])
    ladder_holds = all(r.equal for r in rungs)
    table = _filtration_table(A, powers)
    symmetric = is_symmetric(table)
    return EquivalenceReport(
        delta, ladder_holds, table, symmetric, ladder_holds == symmetric, rungs
    )


def verify_corollary(J: Ideal) -> LadderReport:
    """Check 0 : m^i = m^(delta+1-i) for i = 0..delta in a graded Gorenstein quotient.

    Rung 1 is the socle J : m of the socle quotient that the Gorenstein check
    has already computed, and the rungs above it continue that walk by m, each
    the socle of the rung below. delta is the top degree of the graded table
    (see the module docstring).
    """
    A, table, B = _graded_gorenstein(J)
    delta = table.delta
    series = _colon_series(B, irrelevant_power(J.ring, 1).generators, delta - 1) if delta else []
    lhs = [J] + [Q.defining for Q in series]
    rungs = _ladder_rungs(lhs, lambda i: _plus_irrelevant_power(J, delta + 1 - i))
    return LadderReport(delta, rungs, all(r.equal for r in rungs))


def check_delta_identity(gens) -> bool:
    """Top nonzero graded degree equals sum(d_i) - n and carries length 1."""
    A, delta = _complete_intersection(tuple(gens))
    table = graded_hilbert(A)
    return table.delta == delta and table.values[table.delta] == 1


STORCH_FIELD = PrimeField(2)
STORCH_VARIABLES = ("x", "y")
STORCH_GENERATORS = ("x^2+y^3", "x^2+x*y+y^3")


def storch_ideal() -> Ideal:
    ring = Ring(STORCH_VARIABLES, STORCH_FIELD)
    return Ideal(ring, tuple(ring.parse(s) for s in STORCH_GENERATORS))


def storch_counterexample() -> EquivalenceReport:
    """The characteristic-2 Gorenstein quotient whose ladder fails.

    Returns the equivalence report for I = m (verify_main_equivalence checks
    that the fixture is Gorenstein): the filtration table is (1, 2, 1, 1), it
    is not symmetric, and the ladder fails (exactly at i = 2), consistently.
    """
    A = make_quotient(storch_ideal())
    return verify_main_equivalence(A, irrelevant_power(A.ring, 1))


RANDOM_CI_FIELD = PrimeField(32003)
RANDOM_CI_ATTEMPTS = 100


def random_complete_intersection(rng: random.Random, nvars: int, max_degree: int = 4):
    """Random homogeneous generators of an Artinian complete intersection over F32003.

    Samples dense homogeneous polynomials of random degrees in 1..max_degree
    with uniform coefficients and rejects until the Artinian check passes,
    giving up after RANDOM_CI_ATTEMPTS samples. Returns (generators, degrees).
    """
    names = ("x", "y", "z", "w")[:nvars] if nvars <= 4 else tuple(
        f"x{i + 1}" for i in range(nvars)
    )
    ring = Ring(names, RANDOM_CI_FIELD)
    degrees = [rng.randint(1, max_degree) for _ in range(nvars)]
    for _ in range(RANDOM_CI_ATTEMPTS):
        gens = []
        for d in degrees:
            while True:
                poly = ring.from_terms(
                    (e, RANDOM_CI_FIELD.random_element(rng)) for e in monomials_of_degree(ring, d)
                )
                if not poly.is_zero:
                    gens.append(poly)
                    break
        try:
            make_quotient(Ideal(ring, tuple(gens)))
        except PreconditionError:
            continue
        return gens, degrees
    raise PreconditionError(
        f"failed to sample an Artinian complete intersection in {RANDOM_CI_ATTEMPTS} attempts"
    )
