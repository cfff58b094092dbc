"""Normal forms, Buchberger's algorithm, reduced Groebner bases, and ideals.

Determinism contract: normal_form always reduces the greatest reducible term by
the first eligible divisor in the listed order; buchberger selects pairs by
minimal lcm degree with ties broken by pair index; reduce_gb returns the unique
reduced monic basis sorted descending by leading monomial.

Every reduction step and every S-pair is one call of the polynomial layer's
term-merge kernel (poly._merge), started just past the two cancelling heads.
buchberger keeps its basis monic and forms each S-pair straight from the two
reducer entries (_s_pair): g_i's terms are shifted once and g_j's shifted tail
is merged in. s_polynomial is the public reference for the same polynomial.

An ideal operation that already holds its result's reduced basis publishes it
with _known_basis instead of leaving it to Buchberger. The publication rule: a
published basis is one of
- a closed form: unit_ideal, irrelevant_power, or the ladders' I + m^k;
- a reduced Groebner basis in the ring's own order: reduce_gb of a Groebner
  basis in that order (the unpermuted variable colon, the exact-division colon
  and the colon quotient, the socle quotient among them), or the degrevlex
  elimination contraction (a lex intersection must not publish it: it is a
  degrevlex basis).
"""

from __future__ import annotations

import heapq

from .errors import UsageError
from .poly import Polynomial, Ring, _merge, mono_divides, mono_lcm


def _require_ring(ring: Ring, polys) -> None:
    for f in polys:
        if type(f) is not Polynomial or f.ring != ring:
            raise UsageError("polynomials live in different rings")


def _divisor(g: Polynomial):
    """The reducer entry of a nonzero g: (lead exponents, lead key, 1/lc, terms).

    A monic g, as buchberger and reduce_gb keep theirs, takes no inversion.
    """
    field, lc = g.ring.field, g.leading_coeff
    return (g.leading_exps, g.leading_key, lc if lc == field.one else field.inv(lc), g.terms)


def _reduce(f: Polynomial, divisors) -> Polynomial:
    """Remainder of f on division by prebuilt divisor entries, unchecked.

    The entries come from _divisor, in the order the divisors are tried.
    """
    if not divisors or f.is_zero:
        return f
    ring = f.ring
    p = ring.field.p
    exps_of = ring.order.exps
    work = list(f.terms)
    start = 0
    remainder = []
    while start < len(work):
        k0, c0 = work[start]
        e0 = exps_of(k0)
        for dexps, dkey, dinv, dterms in divisors:
            ok = True
            for x, y in zip(dexps, e0):
                if x > y:
                    ok = False
                    break
            if ok:
                q = c0 * dinv
                if p:
                    q %= p
                kshift = tuple(a - b for a, b in zip(k0, dkey))
                work = _merge(work, start + 1, dterms, 1, q, kshift, p)
                start = 0
                break
        else:
            remainder.append(work[start])
            start += 1
    return Polynomial(ring, tuple(remainder))


def normal_form(f: Polynomial, G) -> Polynomial:
    """Remainder of f on division by the sequence G.

    No term of the result is divisible by any leading monomial of G, and
    f - result lies in <G>.
    """
    G = list(G)
    _require_ring(f.ring, G)
    if any(g.is_zero for g in G):
        raise UsageError("normal_form divisors must be nonzero")
    if not G or f.is_zero:
        return f
    return _reduce(f, [_divisor(g) for g in G])


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g) = (lcm/lt(f)) f - (lcm/lt(g)) g; the leading terms cancel.

    Buchberger forms its pairs with _s_pair from the reducer entries; this is
    the reference that tests compare _s_pair with and use in Buchberger's
    criterion (every S-polynomial of a basis reduces to zero).
    """
    if f.is_zero or g.is_zero:
        raise UsageError("s_polynomial needs nonzero inputs")
    f._require_same_ring(g)
    field = f.ring.field
    ef, eg = f.leading_exps, g.leading_exps
    lcm = mono_lcm(ef, eg)
    left = f.mul_term(field.inv(f.leading_coeff), tuple(a - b for a, b in zip(lcm, ef)))
    right = g.mul_term(field.inv(g.leading_coeff), tuple(a - b for a, b in zip(lcm, eg)))
    return left - right


def _s_pair(ring: Ring, di, dj, lcm) -> Polynomial:
    """S(g_i, g_j) from the reducer entries of monic g_i, g_j; lcm is their lead lcm.

    Equal to s_polynomial(g_i, g_j): x^(lcm - lm_i) g_i minus x^(lcm - lm_j) g_j,
    built with one shift of g_i's terms and one merge of the two tails.
    """
    lcm_key = ring.order.key(lcm)
    ki = tuple(a - b for a, b in zip(lcm_key, di[1]))
    kj = tuple(a - b for a, b in zip(lcm_key, dj[1]))
    work = [(tuple(a + b for a, b in zip(k, ki)), c) for k, c in di[3]]
    return Polynomial(ring, tuple(_merge(work, 1, dj[3], 1, 1, kj, ring.field.p)))


def buchberger(gens, use_chain_criterion: bool = True):
    """A Groebner basis of <gens> (monic, not autoreduced).

    Pair selection is the normal strategy: minimal lcm degree first, ties by
    pair index. The coprime criterion always applies, and so does the skip of
    a pair of monomials, whose S-polynomial is zero; the chain criterion is
    controlled by the flag. A skipped pair counts as treated for the chain
    criterion, as a pair that reduced to zero does.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    ring = gens[0].ring
    _require_ring(ring, gens)
    G = []
    seen = set()
    for g in gens:
        m = g.monic()
        if m.terms not in seen:
            seen.add(m.terms)
            G.append(m)
    divisors = [_divisor(g) for g in G]
    lead = [d[0] for d in divisors]
    pairs = []
    for j in range(len(G)):
        for i in range(j):
            lcm = mono_lcm(lead[i], lead[j])
            heapq.heappush(pairs, (sum(lcm), i, j))
    done = set()
    while pairs:
        _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        li, lj = lead[i], lead[j]
        lcm = mono_lcm(li, lj)
        if all(x + y == z for x, y, z in zip(li, lj, lcm)):
            continue  # coprime leading monomials
        if len(divisors[i][3]) == 1 == len(divisors[j][3]):
            continue  # two monomials: the S-polynomial is zero
        if use_chain_criterion and _chain_applies(i, j, lcm, lead, done):
            continue
        r = _reduce(_s_pair(ring, divisors[i], divisors[j], lcm), divisors)
        if not r.is_zero:
            r = r.monic()
            G.append(r)
            divisors.append(_divisor(r))
            lead.append(divisors[-1][0])
            new = len(G) - 1
            for k in range(new):
                lcm = mono_lcm(lead[k], lead[new])
                heapq.heappush(pairs, (sum(lcm), k, new))
    return G


def _chain_applies(i, j, lcm, lead, done) -> bool:
    for k in range(len(lead)):
        if k == i or k == j:
            continue
        if mono_divides(lead[k], lcm):
            a = (i, k) if i < k else (k, i)
            b = (j, k) if j < k else (k, j)
            if a in done and b in done:
                return True
    return False


def reduce_gb(G):
    """The unique reduced monic Groebner basis of <G>, sorted descending by lm.

    Autoreduces to a fixpoint (every element in normal form against the
    others), which both minimalizes a Groebner basis and absorbs redundant
    presentations like [x^2, x^2 + y^2]. Whether a term is reducible depends
    only on the others' leading monomials, so a pass that removes no element
    and changes no leading monomial leaves every element in normal form, and
    no confirming pass follows it.
    """
    work = [g for g in G if not g.is_zero]
    if not work:
        return ()
    ring = work[0].ring
    _require_ring(ring, work)
    work = [g.monic() for g in work]
    entries = [_divisor(g) for g in work]
    stable = False
    while not stable:
        stable = True
        passed, passed_entries = [], []
        for i, g in enumerate(work):
            r = _reduce(g, passed_entries + entries[i + 1 :])
            if r == g:
                passed.append(g)
                passed_entries.append(entries[i])
                continue
            if r.is_zero or r.leading_key != g.leading_key:
                stable = False
            if not r.is_zero:
                r = r.monic()
                passed.append(r)
                passed_entries.append(_divisor(r))
        work, entries = passed, passed_entries
    work.sort(key=lambda g: g.leading_key, reverse=True)
    return tuple(work)


class Ideal:
    """An ideal given by generators, with a lazily cached reduced Groebner basis.

    The reducer entries of that basis (see _divisor) are cached beside it, so
    reductions modulo the ideal build them once. Both caches are
    compute-then-publish: each value is assembled completely before its single
    attribute assignment, so concurrent readers either see None and recompute
    the same value or see the finished tuple.
    """

    __slots__ = ("ring", "generators", "_gb", "_divisors")

    def __init__(self, ring: Ring, generators):
        generators = tuple(generators)
        _require_ring(ring, generators)
        self.ring = ring
        self.generators = generators
        self._gb = None
        self._divisors = None

    def groebner_basis(self):
        gb = self._gb
        if gb is None:
            gb = reduce_gb(buchberger(self.generators))
            self._gb = gb
        return gb

    def reduce(self, f: Polynomial) -> Polynomial:
        """The normal form of f modulo the ideal (its reduced basis's remainder)."""
        if type(f) is not Polynomial or f.ring != self.ring:
            raise UsageError("polynomial and ideal live in different rings")
        divisors = self._divisors
        if divisors is None:
            divisors = tuple(_divisor(g) for g in self.groebner_basis())
            self._divisors = divisors
        return _reduce(f, divisors)

    @property
    def is_zero(self) -> bool:
        return not self.groebner_basis()

    @property
    def is_unit(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0] == self.ring.one

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({gens})"


def _known_basis(ring: Ring, basis) -> Ideal:
    """An Ideal generated by basis, already known to be its reduced Groebner basis.

    basis must be the reduced monic basis in ring's own order, sorted
    descending, exactly as reduce_gb returns it. The publication rule in the
    module docstring says which bases qualify: a closed form, or a reduced
    Groebner basis in ring's own order. A Groebner basis in another order (the
    lex ring's elimination contractions, which are degrevlex) must never be
    published this way.
    """
    ideal = Ideal(ring, basis)
    ideal._gb = tuple(basis)
    return ideal


def ideal_membership(f: Polynomial, I: Ideal) -> bool:
    """f in I, by reduction against I's basis; tests use it as the reference containment check."""
    return I.reduce(f).is_zero


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Equality of ideals via identity of reduced Groebner bases."""
    if I.ring != J.ring:
        raise UsageError("ideals live in different rings")
    return I.groebner_basis() == J.groebner_basis()
