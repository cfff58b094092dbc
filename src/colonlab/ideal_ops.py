"""Ideal arithmetic: sums, products, powers, intersections, colons, quotients, socles.

Colon by an ideal is realized as the intersection of single-element colons,
each computed with the classical elimination trick (fresh dominant variable t,
then keep the t-free part of the basis). A colon by a single variable x_j (times
a scalar) skips elimination when the ideal is homogeneous, that is when every
element of its reduced basis is homogeneous: in degrevlex with x_j last, the
basis elements divided by x_j where x_j divides them form a Groebner basis of
I : x_j (Bayer and Stillman, Invent. Math. 87, 1987; Eisenbud, Commutative
Algebra, Prop. 15.12). Every other colon keeps elimination, the only path for
inhomogeneous ideals. Colons by successive powers walk the
rung recurrence I : J^i = (I : J^(i-1)) : J (Cox, Little and O'Shea, Ideals,
Varieties, and Algorithms, 4.4), so each rung costs one colon by J's
generators rather than by all of J^i's. Ideals of a quotient ring R/J are
represented by ambient ideals; the image is what is meant.

Both colon paths work in a derived ring: elimination in k[t, x] under Elim
(the one elimination order), the variable colon in k[x] with x_j moved last.
One helper, _carry, moves a polynomial between related rings by an exponent
map and re-sorts its terms; the coefficients are already canonical and are
not re-checked.

Results whose reduced basis is already at hand publish it through
groebner's _known_basis, under the publication rule in groebner's docstring;
a lex intersection is left to Buchberger.

The socle J : m of an Artinian quotient A = R/J is not taken as a colon.
socle_quotient reads R/(J : m) off A's staircase: S/J is the kernel of
multiplication by the variables on A's standard monomials, and its rows in
reduced echelon form, with J's basis, are a Groebner basis of S, so reduce_gb
of them is S's published basis. The kernel's pivots are the monomials that
leave the staircase, so R/S's standard monomials are A's minus those pivots,
and the socle dimension is the difference of the two lengths. Nor is a colon
by a power of m: S : m^(i+1) = (S : m^i) : m is the socle of R/(S : m^i), so
_socle_series walks those rungs as socle quotients, each handing its
staircase on, and the Gorenstein ladders of theorems take it. colon and
colon_powers stay on the paths above.
"""

from __future__ import annotations

from operator import add

from .errors import InternalError, PreconditionError, UsageError
from .groebner import Ideal, _divisor, _known_basis, reduce_gb
from .poly import DegRevLex, Polynomial, Ring, _merge, mono_divides

# make_quotient refuses quotients with more standard monomials than this.
MAX_QUOTIENT_LENGTH = 100_000


def _dedup_nonzero(polys):
    seen = set()
    out = []
    for f in polys:
        if f.is_zero or f.terms in seen:
            continue
        seen.add(f.terms)
        out.append(f)
    return out


def _require_same_ring(I: Ideal, J: Ideal):
    if I.ring != J.ring:
        raise UsageError("ideals live in different rings")


def unit_ideal(ring: Ring) -> Ideal:
    return _known_basis(ring, (ring.one,))


def zero_ideal(ring: Ring) -> Ideal:
    return Ideal(ring, ())


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    _require_same_ring(I, J)
    return Ideal(I.ring, _dedup_nonzero(I.generators + J.generators))


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    """IJ from all products of generators.

    The verifiers build powers through hilbert's power chain; tests use this as
    the reference product, as in (I : J) J <= I and the filtration lengths.
    """
    _require_same_ring(I, J)
    gens = [f * g for f in I.generators for g in J.generators]
    return Ideal(I.ring, _dedup_nonzero(gens))


def ideal_power(I: Ideal, k: int) -> Ideal:
    """I^k as a k-fold product of generators; I^0 is the unit ideal.

    Tests use it as the reference power that the ladders' right-hand sides and
    the oracle's subspace powers are checked against.
    """
    if type(k) is not int or k < 0:
        raise UsageError(f"ideal power exponent must be a nonnegative int, got {k!r}")
    if k == 0:
        return unit_ideal(I.ring)
    result = Ideal(I.ring, _dedup_nonzero(I.generators))
    for _ in range(k - 1):
        result = ideal_product(result, I)
    return result


def monomials_of_degree(ring: Ring, degree: int):
    """All exponent tuples of the given total degree, descending in the ring order."""
    n = ring.nvars

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    exps = sorted(compositions(degree, n), key=ring.order.key, reverse=True)
    return exps


def irrelevant_power(ring: Ring, i: int) -> Ideal:
    """The ideal generated by all monomials of total degree exactly i.

    Those monomials, descending in the ring order, are its reduced basis.
    """
    if type(i) is not int or i < 0:
        raise UsageError(f"irrelevant-ideal power must be a nonnegative int, got {i!r}")
    if i == 0:
        return unit_ideal(ring)
    return _known_basis(ring, tuple(ring.monomial(e) for e in monomials_of_degree(ring, i)))


def _carry(ring: Ring, f: Polynomial, move) -> Polynomial:
    """f in a related ring: exponents e become move(e), one-to-one, terms re-sorted."""
    key = ring.order.key
    terms = [(key(move(e)), c) for e, c in f.iter_terms()]
    terms.sort(reverse=True)
    return Polynomial(ring, tuple(terms))


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J via the elimination trick <t I, (1-t) J>.

    The t-free part of the reduced Elim basis is the reduced basis of I ∩ J
    in degrevlex, so it is published as the result's basis only when the
    ring's order is degrevlex; under lex it is just a generating set.
    """
    _require_same_ring(I, J)
    ring = I.ring
    gb_i, gb_j = I.groebner_basis(), J.groebner_basis()
    if not gb_i or not gb_j:
        return zero_ideal(ring)
    if len(gb_i) == 1 and gb_i[0] == ring.one:
        return J
    if len(gb_j) == 1 and gb_j[0] == ring.one:
        return I
    ring_ext = ring.with_elim_variable()
    t = ring_ext.variable(0)
    one_minus_t = ring_ext.one - t
    gens = [t * _carry(ring_ext, f, lambda e: (0,) + e) for f in gb_i]
    gens += [one_minus_t * _carry(ring_ext, g, lambda e: (0,) + e) for g in gb_j]
    basis = Ideal(ring_ext, gens).groebner_basis()
    # Under Elim a t-free leading monomial means a t-free polynomial.
    contracted = [_carry(ring, g, lambda e: e[1:]) for g in basis if g.leading_exps[0] == 0]
    contracted.sort(key=lambda g: g.leading_key, reverse=True)
    if ring.order == DegRevLex():
        return _known_basis(ring, contracted)
    return Ideal(ring, tuple(contracted))


def _exact_divide(f: Polynomial, d: Polynomial) -> Polynomial:
    """f / d when d divides f exactly; anything else is a bug in the caller."""
    ring = f.ring
    p = ring.field.p
    exps_of = ring.order.exps
    dexps, dkey, dinv, dterms = _divisor(d)
    quotient = []
    rest = f.terms
    while rest:
        k0, c0 = rest[0]
        if not mono_divides(dexps, exps_of(k0)):
            raise InternalError(f"non-exact division: {f} by {d}")
        q = c0 * dinv
        if p:
            q %= p
        kq = tuple(a - b for a, b in zip(k0, dkey))
        quotient.append((kq, q))
        rest = _merge(rest, 1, dterms, 1, q, kq, p)
    return Polynomial(ring, tuple(quotient))


def _colon_variable(I: Ideal, j: int) -> Ideal:
    """I : x_j for homogeneous I, without elimination (Bayer-Stillman).

    In degrevlex with x_j last, a homogeneous g is divisible by x_j exactly
    when its leading monomial is, and {g / x_j if x_j | g else g} over a
    Groebner basis of I is a Groebner basis of I : x_j. Without a permutation
    that basis is in the ring's own order, so reduce_gb alone gives the
    result's reduced basis.
    """
    ring = I.ring
    n = ring.nvars
    basis = I.groebner_basis()
    if j == n - 1 and ring.order == DegRevLex():
        work_ring, back = ring, None
    else:
        source = tuple(k for k in range(n) if k != j) + (j,)
        work_ring = Ring(tuple(ring.variables[k] for k in source), ring.field, DegRevLex())
        basis = Ideal(
            work_ring,
            tuple(_carry(work_ring, g, lambda e: tuple(e[k] for k in source)) for g in basis),
        ).groebner_basis()
        back = tuple(source.index(k) for k in range(n))
    shift = work_ring.order.key((0,) * (n - 1) + (1,))
    gens = []
    for g in basis:
        if g.leading_exps[-1]:
            g = Polynomial(
                work_ring,
                tuple((tuple(a - b for a, b in zip(k, shift)), c) for k, c in g.terms),
            )
        gens.append(g if back is None else _carry(ring, g, lambda e: tuple(e[k] for k in back)))
    if back is None:
        return _known_basis(ring, reduce_gb(gens))
    return Ideal(ring, tuple(gens))


def _colon_single(I: Ideal, f: Polynomial) -> Ideal:
    """I : (f); by _colon_variable when f = c x_j and I is homogeneous.

    Otherwise I : (f) = (I ∩ (f)) divided term-exactly by f. Leading monomials
    divide as the polynomials do, in any monomial order, so dividing the meet's
    reduced basis gives a Groebner basis of I : (f), and reduce_gb alone gives
    the result's reduced basis.
    """
    ring = I.ring
    if f.num_terms == 1:
        exps = f.leading_exps
        if sum(exps) == 1 and all(g.is_homogeneous()[0] for g in I.groebner_basis()):
            return _colon_variable(I, exps.index(1))
    meet = ideal_intersect(I, Ideal(ring, (f,)))
    return _known_basis(ring, reduce_gb([_exact_divide(g, f) for g in meet.groebner_basis()]))


def colon(I: Ideal, J: Ideal) -> Ideal:
    """The colon ideal I : J = {g : g J ⊆ I}."""
    _require_same_ring(I, J)
    factors = _dedup_nonzero(J.generators)
    if not factors:
        raise UsageError("colon by the zero ideal")
    result = None
    for f in factors:
        if I.reduce(f).is_zero:
            continue  # f in I, so I : (f) is the unit ideal
        part = _colon_single(I, f)
        result = part if result is None else ideal_intersect(result, part)
    if result is None:
        return unit_ideal(I.ring)
    return result


def colon_powers(I: Ideal, J: Ideal, top: int):
    """[I : J^i for i = 0..top], rung i taken as (rung i-1) : J.

    Rung 0 is I itself. Equal as ideals to colon(I, J^i) rung by rung, by
    (I : A) : B = I : AB.
    """
    if type(top) is not int or top < 0:
        raise UsageError(f"top rung must be a nonnegative int, got {top!r}")
    rungs = [I]
    for _ in range(top):
        rungs.append(colon(rungs[-1], J))
    return rungs


class QuotientRing:
    """An Artinian quotient R/J with its standard-monomial basis.

    standard_monomials lists the exponent tuples outside the leading-term
    staircase of J, ascending in the ring order (so index 0 is the monomial 1).
    """

    __slots__ = ("ring", "defining", "standard_monomials")

    def __init__(self, ring: Ring, defining: Ideal, standard_monomials):
        self.ring = ring
        self.defining = defining
        self.standard_monomials = standard_monomials

    @property
    def length(self) -> int:
        return len(self.standard_monomials)

    def reduce(self, f: Polynomial) -> Polynomial:
        return self.defining.reduce(f)

    def __repr__(self):
        return f"QuotientRing({self.ring!r} / {self.defining!r}, length {self.length})"


def make_quotient(J: Ideal) -> QuotientRing:
    """Build R/J with enumerated standard monomials; J must cut out an Artinian ring.

    The staircase is walked by prefix, the exponents of the first n-1
    variables: each prefix is reached from the one with its last nonzero
    exponent lowered by one. Above a prefix e the standard monomials are
    e + (k,) for k below the least last exponent among the leading monomials
    whose first n-1 exponents divide e (the pure power of the last variable
    is one of them). Where that least exponent is 0, e lies in in(J), and so
    does every prefix above it, so the walk stops there. The divisibility tests
    thus track the number of prefixes, not the quotient's length; a length
    above MAX_QUOTIENT_LENGTH is refused.
    """
    ring = J.ring
    gb = J.groebner_basis()
    leads = [g.leading_exps for g in gb]
    n = ring.nvars
    for j in range(n):
        if not any(all(x == 0 for i, x in enumerate(e) if i != j) for e in leads):
            raise PreconditionError(
                f"quotient is not Artinian: no pure power of variable "
                f"'{ring.variables[j]}' among the leading monomials"
            )
    heads = [(e[:-1], e[-1]) for e in leads]
    std = []
    stack = [((0,) * (n - 1), 0)]  # (prefix, first variable it may still raise)
    while stack:
        e, first = stack.pop()
        bound = min(last for head, last in heads if mono_divides(head, e))
        if not bound:
            continue
        if len(std) + bound > MAX_QUOTIENT_LENGTH:
            raise PreconditionError(
                f"quotient is too long: more than {MAX_QUOTIENT_LENGTH} standard monomials"
            )
        std.extend(e + (k,) for k in range(bound))
        for k in range(first, n - 1):
            stack.append((e[:k] + (e[k] + 1,) + e[k + 1 :], k))
    std.sort(key=ring.order.key)
    return QuotientRing(ring, J, tuple(std))


def _add_multiple(v: dict, c, w: dict, p) -> dict:
    """v += c * w in place for sparse {column: entry} vectors, dropping zeros; returns v."""
    for k, x in w.items():
        y = v.get(k, 0) + c * x
        if p:
            y %= p
        if y:
            v[k] = y
        else:
            v.pop(k, None)
    return v


def socle_quotient(A: QuotientRing) -> QuotientRing:
    """R/S for the socle S = J : m of A = R/J, from A alone.

    S/J is the kernel W of a -> (NF_J(x_1 a), ..., NF_J(x_n a)) on A's standard
    monomials, so S = J + (lifts of W). The standard monomials b are walked
    ascending. Each image is reduced, greatest column first, against the
    triangular images kept so far, carrying the combination of standard
    monomials it stands for. An image that vanishes leaves a row of W with pivot
    b. Its other monomials are below b and come from kept combinations, which
    hold only monomials whose images were kept, never a pivot; so the rows are
    W's reduced row echelon basis over the standard monomials taken descending.

    Then in(S) = in(J) ∪ pivots(W): the monomials outside both number
    length(A) - dim W = length(R/S). So J's reduced basis and W's rows are a
    Groebner basis of S in the ring's own order, and reduce_gb of them is S's
    published basis (groebner's publication rule). R/S's standard monomials are
    A's without W's pivots, still ascending. No colon and no make_quotient runs.

    The socle dimension dim_k S/J is A.length - socle_quotient(A).length, and A
    is Gorenstein exactly when it is 1. The zero ring's socle is (1), of
    dimension 0.
    """
    ring, J = A.ring, A.defining
    p, one = ring.field.p, ring.field.one
    key, exps = ring.order.key, ring.order.exps
    n = ring.nvars
    staircase = [key(e) for e in A.standard_monomials]
    standard = set(staircase)
    shifts = [key(tuple(int(k == i) for k in range(n))) for i in range(n)]
    border = {}  # NF_J of each border monomial met, by its key
    images = {}  # greatest column -> (image, combination), scaled so the image is 1 there
    kernel = {}  # pivot -> row of W
    for b in staircase:
        image = {}
        for i, shift in enumerate(shifts):
            k = tuple(map(add, b, shift))
            if k in standard:
                image[(k, i)] = one
                continue
            terms = border.get(k)
            if terms is None:
                terms = border[k] = J.reduce(Polynomial(ring, ((k, one),))).terms
            for t, c in terms:
                image[(t, i)] = c
        combination = {b: one}
        while image:
            top = max(image)
            kept = images.get(top)
            if kept is None:
                if image[top] != one:
                    scale = ring.field.inv(image[top])
                    image = _add_multiple({}, scale, image, p)
                    combination = _add_multiple({}, scale, combination, p)
                images[top] = (image, combination)
                break
            c = -image[top]
            _add_multiple(image, c, kept[0], p)
            _add_multiple(combination, c, kept[1], p)
        else:
            kernel[b] = combination
    rows = [Polynomial(ring, tuple(sorted(row.items(), reverse=True))) for row in kernel.values()]
    basis = reduce_gb(list(J.groebner_basis()) + rows)
    pivots = {exps(b) for b in kernel}
    return QuotientRing(
        ring,
        _known_basis(ring, basis),
        tuple(e for e in A.standard_monomials if e not in pivots),
    )


def _socle_series(B: QuotientRing, top: int):
    """[R/S, R/(S : m), ..., R/(S : m^top)] for B = R/S Artinian, with no colon.

    S : m^i = (S : m^(i-1)) : m is the socle of R/(S : m^(i-1)), so each rung
    is socle_quotient of the rung below: it publishes its reduced basis and
    hands its staircase on, so no rung runs Buchberger or make_quotient.
    """
    rungs = [B]
    for _ in range(top):
        rungs.append(socle_quotient(rungs[-1]))
    return rungs
