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

Colons in an Artinian quotient A = R/J are not taken that way. Every rung of
a ladder on A is an ideal J ⊆ S ⊆ R, fixed by the subspace S/J of A, so the
rungs are read off A's staircase as linear algebra (Marinari, Möller and
Mora, AAECC 4, 1993; Faugère, Gianni, Lazard and Mora, JSC 16, 1993). A rung
R/(S + W), W spanned by an echelon over R/S's staircase, is published by one
helper, _published: in(S + W) = in(S) ∪ pivots(W), so the reduced basis is
assembled from the rows of minimal pivot and the elements of S's basis that
no pivot divides, their tails reduced, with no reduce_gb; and the rung's
standard monomials are R/S's minus the pivots.

The colon by a power is a walk: S : K^(i+1) = (S : K^i) : K, and (S : K^i)
modulo S : K^(i-1) is the kernel of multiplication by the generators on the
standard monomials of the rung below (_ColonWalk). _colon_series(A, gens,
top) walks A by the images of gens in A, with one table of the images
NF_J(b k_l) kept reduced against the rungs as they grow, and the order keys
of A's staircase computed once. colon_quotient(A, gens), R/(J : (gens)), is
the first rung, and the socle J : m is the colon by the variables
(socle_quotient). A keeps its latest walk, so the Gorenstein ladders of
theorems continue the m-walk whose rung 1 is the Gorenstein check's socle.
colon and colon_powers stay on the paths above, for the CLI, the
complete-intersection ladder and ideals that are not Artinian.

Sums with powers are read off the staircase too: _power_series(A, gens) walks
the images V_k of K^k in A as echelons and publishes R/(J + K^k) through
_published, with no Buchberger and no power chain; hilbert's power ideals
read it. Both kernels take the images NF_J(b k) from one helper, _multiplier,
one per walk, and A keeps the normal forms of the monomials outside its
staircase that they meet; neither shares code with the oracle.
"""

from __future__ import annotations

from operator import add, sub

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

    The verifiers read powers off _power_series; tests use this as the
    reference product, as in (I : J) J <= I and the filtration lengths.
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
    The quotient keeps its latest colon walk (_walk; see _colon_series) and
    the normal forms of the monomials outside the staircase that its kernels
    have met (_outside, by key; see _multiplier).
    """

    __slots__ = ("ring", "defining", "standard_monomials", "_walk", "_outside")

    def __init__(self, ring: Ring, defining: Ideal, standard_monomials):
        self.ring = ring
        self.defining = defining
        self.standard_monomials = standard_monomials
        self._walk = None
        self._outside = {}

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


def _multiplier(A: QuotientRing, standard, gens):
    """image(b, l, out, tag) adds NF_J(b k_l) into the dict out, b a standard monomial key.

    standard is the set of A's standard monomial keys and k_l the l-th of the
    given generators. The term s of the image goes into column s, or (s, tag)
    when a tag is given. A term of b k_l is either a standard monomial, written
    straight into an empty column, or a monomial outside the staircase, whose
    normal form is computed once per quotient (A._outside); when k_l is not
    linear that monomial may lie past the border. Several terms can land on
    one column, so their coefficients accumulate. The colon walk and
    _power_series share it, one per walk.
    """
    ring, J, outside = A.ring, A.defining, A._outside
    p, one = ring.field.p, ring.field.one
    # Each generator's terms, a coefficient of one kept as None so it multiplies nothing.
    factors = [[(t, None if c == one else c) for t, c in f.terms] for f in gens]

    def image(b, l, out, tag=None):
        for t, c in factors[l]:
            k = tuple(map(add, b, t))
            if k in standard:
                column = k if tag is None else (k, tag)
                if column not in out:
                    out[column] = one if c is None else c
                    continue
                reduced = ((k, one),)
            else:
                reduced = outside.get(k)
                if reduced is None:
                    reduced = outside[k] = J.reduce(Polynomial(ring, ((k, one),))).terms
            for s, x in reduced:
                if c is not None:
                    x = c * x % p if p else c * x
                column = s if tag is None else (s, tag)
                y = out.get(column)
                if y is None:
                    out[column] = x
                    continue
                y = (y + x) % p if p else y + x
                if y:
                    out[column] = y
                else:
                    del out[column]
        return out

    return image


def _unit_keys(ring: Ring):
    """The order keys of the variables x_1, ..., x_n; key(e) - key(x_i) is key(e / x_i)."""
    n = ring.nvars
    return [ring.order.key(tuple(int(i == j) for j in range(n))) for i in range(n)]


def _published(S: Ideal, echelon, units) -> Ideal:
    """S + W with its reduced basis published, W spanned by an echelon over R/S's staircase.

    echelon maps each pivot to its row {monomial key: coefficient}, which is 1
    at the pivot, its greatest monomial. in(S + W) = in(S) ∪ pivots, and the
    pivots form an upper set in R/S's staircase, so a minimal generator of
    in(S + W) is either a pivot p with no pivot p / x_i, a minimal pivot, or
    the leading monomial of an element of S's reduced basis whose lower
    neighbours e / x_i, all standard, are no pivots (when a pivot divides e,
    one of them is a pivot). The reduced basis holds one element per minimal
    generator, the generator minus its normal form, so it is assembled from
    - the rows of minimal pivot, their tails reduced against the other rows;
    - S's basis elements whose leading monomial no pivot divides, their tails
      reduced against the rows;
    all sorted descending. A tail is reduced greatest pivot first, and a row
    holds nothing above its pivot, so each pivot leaves for good. units are
    the variables' order keys (_unit_keys). This is the reduced basis that
    reduce_gb of S's basis and the rows would give, which is unique.
    """
    ring = S.ring
    p = ring.field.p

    def reduced(terms, lead):
        tail = [s for s in terms if s in echelon and s != lead]
        while tail:
            s = max(tail)
            _add_multiple(terms, -terms[s], echelon[s], p)
            tail = [s for s in terms if s in echelon and s != lead]
        return Polynomial(ring, tuple(sorted(terms.items(), reverse=True)))

    def below_a_pivot(lead):
        return any(tuple(map(sub, lead, u)) in echelon for u in units)

    basis = [reduced(dict(row), top) for top, row in echelon.items() if not below_a_pivot(top)]
    for g in S.groebner_basis():
        lead = g.leading_key
        if below_a_pivot(lead):
            continue
        if any(s in echelon for s, _ in g.terms):
            g = reduced(dict(g.terms), lead)
        basis.append(g)
    basis.sort(key=lambda g: g.leading_key, reverse=True)
    return _known_basis(ring, basis)


class _ColonWalk:
    """The colon series of A = R/J by K = (gens), one rung per step, on A's staircase.

    Rung i + 1 is R/S_(i+1), S_(i+1) = S_i : K with S_0 = J. S_(i+1)/S_i is
    the kernel of b -> (NF_(S_i)(b k_1), ..., NF_(S_i)(b k_r)) on S_i's
    standard monomials b, k_l the generators. NF_(S_i)(b k_l) is NF_J(b k_l)
    reduced against the rows of S_i/J: the walk takes NF_J(b k_l) from one
    _multiplier once per (b, l) and keeps it reduced, substituting the rows
    of each new kernel into it by dict at the next step. Those rows are in
    reduced echelon form and their tails hold standard monomials of the new
    rung only, so one substitution per pivot suffices, and a row without a
    tail just drops its column. No rung reduces by its ideal's basis.

    A step walks the rung's standard monomials b ascending. Each image, in
    column (s, l) for the term s of NF(b k_l), is reduced, greatest column
    first, against the triangular images kept so far, carrying the
    combination of standard monomials it stands for. An image that vanishes
    leaves a kernel row with pivot b. Its other monomials are below b and
    come from kept combinations, which hold only monomials whose images were
    kept, never a pivot; so the rows are the kernel's reduced row echelon
    basis over the standard monomials taken descending. The rung's basis is
    assembled from the rung below's and the rows (_published), and its
    staircase is the one below without the pivots. The order keys of A's
    staircase are computed once per walk; no colon, make_quotient, reduce_gb
    or Buchberger runs.

    The walk holds its rungs past A (A holds the walk, and a cycle would wait
    for the cyclic collector), the latest keys and kernel, and the images.
    """

    __slots__ = ("gens", "units", "image_of", "images", "standard", "kernel", "rungs")

    def __init__(self, A: QuotientRing, gens: tuple):
        ring = A.ring
        self.gens = gens
        self.units = _unit_keys(ring)
        self.standard = [ring.order.key(e) for e in A.standard_monomials]
        self.image_of = _multiplier(A, set(self.standard), gens)
        self.images = {}  # b -> its image, NF_(S_i)(b k_l) in column (s, l), b in S_i's staircase
        self.kernel = {}  # pivot -> row of the latest rung's kernel
        self.rungs = []

    def step(self, below: QuotientRing):
        """Appends the next rung R/(S : K) to the rungs, below = R/S the latest rung."""
        ring = below.ring
        p, one = ring.field.p, ring.field.one
        images, image_of, rows = self.images, self.image_of, self.kernel
        r = len(self.gens)
        kept = {}  # greatest column -> (image, combination), scaled so the image is 1 there
        kernel = {}  # pivot -> row of (S : K)/S
        for b in self.standard:
            v = images.get(b)
            if v is None:  # the first step: NF_J(b k_l), nothing to substitute
                v = images[b] = {}
                for l in range(r):
                    image_of(b, l, v, l)
            else:
                for column in [column for column in v if column[0] in rows]:
                    s, l = column
                    c = v.pop(column)
                    for t, x in rows[s].items():
                        if t != s:
                            y = v.get((t, l), 0) - c * x
                            if p:
                                y %= p
                            if y:
                                v[t, l] = y
                            else:
                                del v[t, l]
            image = dict(v)
            combination = {b: one}
            while image:
                top = max(image)
                row = kept.get(top)
                if row is None:
                    if image[top] != one:
                        scale = ring.field.inv(image[top])
                        image = _add_multiple({}, scale, image, p)
                        combination = _add_multiple({}, scale, combination, p)
                    kept[top] = (image, combination)
                    break
                c = -image[top]
                _add_multiple(image, c, row[0], p)
                _add_multiple(combination, c, row[1], p)
            else:
                kernel[b] = combination
        for b in kernel:
            del images[b]
        self.kernel = kernel
        monomials = tuple(
            e for b, e in zip(self.standard, below.standard_monomials) if b not in kernel
        )
        self.standard = [b for b in self.standard if b not in kernel]
        self.rungs.append(
            QuotientRing(ring, _published(below.defining, kernel, self.units), monomials)
        )


def colon_quotient(A: QuotientRing, gens) -> QuotientRing:
    """R/S for S = J : (gens), A = R/J Artinian, from A alone: rung 1 of A's colon walk.

    S/J is the kernel of multiplication by the generators on A's standard
    monomials (_ColonWalk), and in(S) = in(J) ∪ its pivots: the monomials
    outside both number length(A) - dim(S/J) = length(R/S). So S's reduced
    basis is assembled from J's and the kernel's rows (_published; groebner's
    publication rule), and R/S's standard monomials are A's without the
    pivots, still ascending. No colon and no make_quotient runs. A generator
    that is zero in A contributes nothing, and no generators at all give the
    unit ideal.
    """
    return _colon_series(A, gens, 1)[1]


def socle_quotient(A: QuotientRing) -> QuotientRing:
    """R/(J : m) for A = R/J: the colon quotient by the variables.

    The socle dimension dim_k (J : m)/J is A.length - socle_quotient(A).length,
    and A is Gorenstein exactly when it is 1. The zero ring's socle is (1), of
    dimension 0. The result is rung 1 of A's walk by the variables, so a
    series of A by m continues that walk.
    """
    return colon_quotient(A, irrelevant_power(A.ring, 1).generators)


def _colon_series(A: QuotientRing, gens, top: int):
    """[R/J, R/(J : K), ..., R/(J : K^top)] for A = R/J Artinian, K = (gens), with no colon.

    Rung i is step i of A's colon walk (_ColonWalk) by the images of gens in
    A, zeros and repeats dropped. A keeps its latest walk: the series
    continues it when the images are the same, handing back the rungs built,
    and starts a new one otherwise. Every rung publishes its reduced basis
    and hands its staircase on.
    """
    gens, walk = tuple(_dedup_nonzero(A.reduce(g) for g in gens)), A._walk
    if walk is None or walk.gens != gens:
        walk = A._walk = _ColonWalk(A, gens)
    rungs = walk.rungs
    while len(rungs) < top:
        walk.step(rungs[-1] if rungs else A)
    return [A] + rungs[:top]


def _power_series(A: QuotientRing, gens):
    """[R/(J + K^k) for k = 1..d], A = R/J Artinian, K = (gens), K^(d+1) zero in A.

    V_k, the image of K^k in A, is spanned by NF_J(b k^a) over A's standard
    monomials b and the exponent vectors a of weight k over the generators'
    images in A, zeros and repeats dropped,
    the signatures (a, b). They are walked in increasing order, a first
    (compared from its last entry), then b in the ring's order, and each
    product is reduced against the rows of smaller signature. A signature is
    independent when something is left, which becomes a row scaled to 1 at its
    pivot, the greatest monomial it holds. If (a, b) is dependent, so are
    (a + e_l, b) and (a, x_i b): multiplying its relation by k_l or x_i gives
    one among smaller signatures, since a normal form holds no term above its
    monomial. So step k + 1 multiplies the row of each independent (a, b) of
    step k by the k_l with l at least a's last nonzero entry, one product per
    signature whose parent is independent, and skips (a', b) when some
    (a' - e_m, b) was dependent or some (a', b / x_i) is. The products read
    the images NF_J(b k_l) of _multiplier, kept per (b, l), into new dicts, so
    elimination never touches a kept image. Step 0 is A, each standard
    monomial its own row.

    Then in(J + K^k) = in(J) ∪ pivots(V_k), as for colon_quotient, so the
    rung's reduced basis is assembled from J's and V_k's echelon (_published:
    the rows of minimal pivot and the elements of J's basis that no pivot
    divides, their tails reduced against the rows), with no reduce_gb
    (groebner's publication rule). Each rung hands on A's staircase without
    the pivots, of length ell(A) - dim V_k. No Buchberger, no make_quotient
    and no polynomial product runs, and at most two row sets are alive. K
    generating the unit ideal of A (A itself the zero ring included) is a
    UsageError; V_(k+1) = V_k != 0 means K is not nilpotent in A, a
    PreconditionError.
    """
    ring, J = A.ring, A.defining
    p, one, inv = ring.field.p, ring.field.one, ring.field.inv
    gens = _dedup_nonzero(A.reduce(g) for g in gens)
    r = len(gens)
    staircase = [ring.order.key(e) for e in A.standard_monomials]
    standard = set(staircase)
    image_of = _multiplier(A, standard, gens)
    images = {}  # (b, l) -> NF_J(b k_l)
    units = _unit_keys(ring)
    weights = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    below = {b: frozenset(tuple(map(sub, b, u)) for u in units) & standard for b in staircase}

    def product(row, l):
        out = {}
        for b, c in row.items():
            image = images.get((b, l))
            if image is None:
                image = images[b, l] = image_of(b, l, {})
            if c == one and not out:
                out.update(image)
            else:
                _add_multiple(out, c, image, p)
        return out

    # a -> {b: row} over the independent signatures of the step, b ascending.
    # Step 0 is A itself, each standard monomial its own row of signature (0, b).
    signed = {(0,) * r: {b: {b: one} for b in staircase}}
    series = []
    while True:
        echelon, independent = {}, {}
        steps = {}  # a' -> (l, parent a), l = a's last nonzero entry
        for a in signed:
            last = max((m for m in range(r) if a[m]), default=0)
            for l in range(last, r):
                steps[tuple(map(add, a, weights[l]))] = (l, a)
        for a in sorted(steps, key=lambda a: a[::-1]):
            l, parent = steps[a]
            others = [
                signed.get(tuple(map(sub, a, weights[m]))) for m in range(r) if m != l and a[m]
            ]
            if None in others:
                continue
            mine = {}
            for b, row in signed[parent].items():
                if not mine.keys() >= below[b] or others and not all(b in o for o in others):
                    continue
                v = product(row, l)
                while v:
                    top = max(v)
                    kept = echelon.get(top)
                    if kept is None:
                        if v[top] != one:
                            v = _add_multiple({}, inv(v[top]), v, p)
                        echelon[top] = mine[b] = v
                        break
                    _add_multiple(v, -v[top], kept, p)
            if mine:
                independent[a] = mine
        if not series and len(echelon) == len(staircase):
            raise UsageError("ideal is the unit ideal in the quotient; a proper ideal is required")
        if not echelon:
            return series
        if series and len(echelon) == sum(map(len, signed.values())):
            raise PreconditionError("ideal is not nilpotent in the quotient (not m-primary)")
        series.append(
            QuotientRing(
                ring,
                _published(J, echelon, units),
                tuple(e for b, e in zip(staircase, A.standard_monomials) if b not in echelon),
            )
        )
        signed = independent
