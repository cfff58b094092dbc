"""Monomial orders, polynomial rings, and sparse exact multivariate polynomials.

Monomials are exponent tuples. Each order maps an exponent tuple to a sort key
that compares with native tuple comparison and is additive under monomial
multiplication (key(a*b) = key(a) + key(b) componentwise). So one term-merge
kernel, _merge, serves +, -, the Groebner engine's reductions and S-pairs, and
exact division, with no per-comparison callbacks.

The orders are DegRevLex, Lex and Elim. Elim is the one elimination order: it
ranks the first variable above the rest, and only the extended rings that
elimination builds (Ring.with_elim_variable) use it.
"""

from __future__ import annotations

import re

from .errors import UsageError


class _Order:
    """Orders are equal by type; each subclass gives only `name`, `key` and `exps`."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"{type(self).__name__}()"


class DegRevLex(_Order):
    """Degree first, then reverse lexicographic tie-break (smaller last exponent wins)."""

    __slots__ = ()
    name = "degrevlex"

    def key(self, exps):
        return (sum(exps),) + tuple(-e for e in reversed(exps))

    def exps(self, key):
        return tuple(-e for e in reversed(key[1:]))


class Lex(_Order):
    """Pure lexicographic order; the first declared variable dominates."""

    __slots__ = ()
    name = "lex"

    def key(self, exps):
        return tuple(exps)

    def exps(self, key):
        return key


class Elim(_Order):
    """The elimination order: degree in the first variable, then degrevlex on the rest.

    Any monomial involving the first variable is greater than every monomial
    supported on the remaining ones, which is what elimination needs.
    """

    __slots__ = ()
    name = "elim"

    def key(self, exps):
        tail = exps[1:]
        return (exps[0], sum(tail)) + tuple(-e for e in reversed(tail))

    def exps(self, key):
        return (key[0],) + tuple(-e for e in reversed(key[2:]))


def order_from_name(name: str):
    if name == "degrevlex":
        return DegRevLex()
    if name == "lex":
        return Lex()
    raise UsageError(f"unknown monomial order {name!r}; expected 'degrevlex' or 'lex'")


def compare(order, a, b) -> int:
    """Compare exponent tuples under the order: -1, 0, or 1.

    The kernels compare order keys directly; tests use this as the reference
    comparison in the order laws and the leading-term checks.
    """
    if len(a) != len(b):
        raise UsageError(f"exponent length mismatch: {len(a)} vs {len(b)}")
    ka, kb = order.key(a), order.key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def mono_divides(a, b) -> bool:
    """True iff x^a divides x^b."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def mono_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class Ring:
    """Polynomial ring descriptor: named variables, coefficient field, monomial order."""

    __slots__ = ("variables", "field", "order", "_var_index")

    def __init__(self, variables, field, order=None):
        variables = tuple(variables)
        if not variables:
            raise UsageError("a ring needs at least one variable")
        for v in variables:
            if not isinstance(v, str) or not _IDENT_RE.match(v):
                raise UsageError(f"invalid variable identifier {v!r}")
        if len(set(variables)) != len(variables):
            raise UsageError(f"duplicate variable names in {variables}")
        self.variables = variables
        self.field = field
        self.order = order if order is not None else DegRevLex()
        self._var_index = {v: i for i, v in enumerate(variables)}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise UsageError(f"unknown variable {name!r} in {self}") from None

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    @property
    def one(self) -> "Polynomial":
        return self.monomial((0,) * self.nvars)

    def monomial(self, exps, coeff=None) -> "Polynomial":
        if len(exps) != self.nvars or any(type(e) is not int or e < 0 for e in exps):
            raise UsageError(f"bad exponent tuple {exps!r} for {self}")
        c = self.field.one if coeff is None else self.field.element(coeff)
        if c == self.field.zero:
            return self.zero
        return Polynomial(self, ((self.order.key(tuple(exps)), c),))

    def variable(self, which) -> "Polynomial":
        i = which if type(which) is int else self.var_index(which)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self.monomial(exps)

    def from_terms(self, pairs) -> "Polynomial":
        """Build a polynomial from (exponents, coefficient) pairs, canonicalizing."""
        field = self.field
        acc = {}
        for exps, coeff in pairs:
            exps = tuple(exps)
            if len(exps) != self.nvars or any(type(e) is not int or e < 0 for e in exps):
                raise UsageError(f"bad exponent tuple {exps!r} for {self}")
            k = self.order.key(exps)
            c = field.element(coeff)
            if k in acc:
                c = field.add(acc[k], c)
            if c == field.zero:
                acc.pop(k, None)
            else:
                acc[k] = c
        return Polynomial(self, tuple(sorted(acc.items(), reverse=True)))

    def parse(self, text: str) -> "Polynomial":
        from .parsing import parse_polynomial

        return parse_polynomial(text, self)

    def with_elim_variable(self) -> "Ring":
        """Ring with a fresh dominant variable (index 0) prepended under Elim()."""
        name = "t"
        counter = 0
        while name in self._var_index:
            name = f"t{counter}"
            counter += 1
        return Ring((name,) + self.variables, self.field, Elim())

    def __eq__(self, other):
        return (
            type(other) is Ring
            and other.variables == self.variables
            and other.field == self.field
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.variables, self.field, self.order))

    def __repr__(self):
        return f"Ring({'+'.join(self.variables)} over {self.field.name}, {self.order.name})"


def _merge(A, i, B, j, q, shift, p):
    """A[i:] - q * x^shift * B[j:] for descending term lists; p is the modulus or None.

    Keys shift additively, so the shifted B[j:] stays descending. + and - pass
    the ring's zero key; reduction, S-pairs and exact division start just past
    the two heads that cancel.
    """
    out = []
    la = len(A)
    nq = -q
    for kb, cb in B[j:]:
        kb = tuple(a + b for a, b in zip(kb, shift))
        while i < la and A[i][0] > kb:
            out.append(A[i])
            i += 1
        c = nq * cb
        if i < la and A[i][0] == kb:
            c += A[i][1]
            i += 1
        if p:
            c %= p
        if c:
            out.append((kb, c))
    out.extend(A[i:])
    return out


# 10^600: CPython never limits int/str conversion below 640 digits.
_DECIMAL_CHUNK = 10**600


def _decimal(n: int) -> str:
    """str(n) for a nonnegative int of any size, 600 digits at a time.

    str() refuses an int of more digits than sys.get_int_max_str_digits()
    (4,300 by default); an exact rational coefficient, or an exponent that is
    a sum of literals, can be longer than that.
    """
    chunks = []
    while n >= _DECIMAL_CHUNK:
        n, r = divmod(n, _DECIMAL_CHUNK)
        chunks.append(f"{r:0600d}")
    return str(n) + "".join(reversed(chunks))


def _coefficient_text(c) -> str:
    """The decimal text of a nonnegative coefficient: an int, or a Fraction as num/den."""
    text = _decimal(c.numerator)
    return text if c.denominator == 1 else f"{text}/{_decimal(c.denominator)}"


class Polynomial:
    """Immutable sparse polynomial; terms strictly descending in the ring order.

    `terms` is a tuple of (order_key, coefficient) with nonzero canonical
    coefficients; the zero polynomial has an empty tuple.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms):
        self.ring = ring
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @property
    def leading_key(self):
        if not self.terms:
            raise UsageError("zero polynomial has no leading term")
        return self.terms[0][0]

    @property
    def leading_coeff(self):
        if not self.terms:
            raise UsageError("zero polynomial has no leading term")
        return self.terms[0][1]

    @property
    def leading_exps(self):
        return self.ring.order.exps(self.leading_key)

    def iter_terms(self):
        """Yield (exponents, coefficient) pairs in descending order."""
        exps = self.ring.order.exps
        for k, c in self.terms:
            yield exps(k), c

    def is_homogeneous(self):
        """(True, degree) if all terms share one total degree; zero is (True, None)."""
        if not self.terms:
            return True, None
        exps = self.ring.order.exps
        degs = {sum(exps(k)) for k, _ in self.terms}
        if len(degs) == 1:
            return True, degs.pop()
        return False, None

    def _require_same_ring(self, other: "Polynomial"):
        if type(other) is not Polynomial or other.ring != self.ring:
            raise UsageError("operands live in different rings")

    def __add__(self, other):
        self._require_same_ring(other)
        ring = self.ring
        zero = ring.order.key((0,) * ring.nvars)
        terms = _merge(self.terms, 0, other.terms, 0, -1, zero, ring.field.p)
        return Polynomial(ring, tuple(terms))

    def __neg__(self):
        p = self.ring.field.p
        return Polynomial(self.ring, tuple((k, -c % p if p else -c) for k, c in self.terms))

    def __sub__(self, other):
        self._require_same_ring(other)
        ring = self.ring
        zero = ring.order.key((0,) * ring.nvars)
        terms = _merge(self.terms, 0, other.terms, 0, 1, zero, ring.field.p)
        return Polynomial(ring, tuple(terms))

    def scale(self, coeff) -> "Polynomial":
        field = self.ring.field
        c = field.element(coeff)
        if c == field.zero:
            return self.ring.zero
        p = field.p
        return Polynomial(
            self.ring, tuple((k, c * ck % p if p else c * ck) for k, ck in self.terms)
        )

    def mul_term(self, coeff, exps) -> "Polynomial":
        """Multiply by coeff * x^exps (key shift keeps the term order)."""
        field = self.ring.field
        c = field.element(coeff)
        if c == field.zero or not self.terms:
            return self.ring.zero
        shift = self.ring.order.key(tuple(exps))
        p = field.p
        new = tuple(
            (tuple(a + b for a, b in zip(k, shift)), c * ck % p if p else c * ck)
            for k, ck in self.terms
        )
        return Polynomial(self.ring, new)

    def __mul__(self, other):
        self._require_same_ring(other)
        p = self.ring.field.p
        acc = {}
        for ka, ca in self.terms:
            for kb, cb in other.terms:
                k = tuple(a + b for a, b in zip(ka, kb))
                prev = acc.get(k)
                acc[k] = ca * cb if prev is None else prev + ca * cb
        items = []
        for k, c in acc.items():
            if p:
                c %= p
            if c:
                items.append((k, c))
        items.sort(reverse=True)
        return Polynomial(self.ring, tuple(items))

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(lc))

    def __eq__(self, other):
        return (
            type(other) is Polynomial
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ring.field
        names = self.ring.variables
        one = field.one
        pieces = []
        for exps, c in self.iter_terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{_decimal(e)}" for name, e in zip(names, exps) if e
            )
            negative = field.p is None and c < 0
            mag = -c if negative else c
            if not mono:
                body = _coefficient_text(mag)
            elif mag == one:
                body = mono
            else:
                body = f"{_coefficient_text(mag)}*{mono}"
            pieces.append(("-" if negative else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Polynomial({str(self)!r})"
