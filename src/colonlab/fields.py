"""Exact coefficient arithmetic: prime fields F_p and arbitrary-precision rationals.

Elements are plain values (ints reduced into [0, p) for F_p, `fractions.Fraction`
for Q). Every field has an attribute `p`: the modulus of F_p, None for Q. It is
the single place where "reduce mod p or not" is decided; the polynomial,
Groebner and oracle kernels read `field.p` and normalise with `c % p` when it
is set, never by testing the field's type.

Validation sits at `element()`, which coerces outside values into canonical
elements, and at the public per-operation methods (`add`, `mul`, `inv`, ...),
which check their operands. The kernels work on canonical elements directly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UsageError

# Witnesses making Miller-Rabin deterministic for n < 3_474_749_660_383,
# far beyond the 2^31 modulus bound.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13)

MAX_PRIME = 2**31 - 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Field:
    """The checked per-operation arithmetic both fields share.

    Every operand passes the subclass's `check()`; results are reduced with
    `% p` when the field has a modulus and stay exact Fractions when it has none.
    """

    __slots__ = ()

    def _canon(self, x):
        return x if self.p is None else x % self.p

    def add(self, a, b):
        self.check(a)
        self.check(b)
        return self._canon(a + b)

    def sub(self, a, b):
        self.check(a)
        self.check(b)
        return self._canon(a - b)

    def mul(self, a, b):
        self.check(a)
        self.check(b)
        return self._canon(a * b)

    def neg(self, a):
        self.check(a)
        return self._canon(-a)

    def inv(self, a):
        self.check(a)
        if a == 0:
            raise ZeroDivisionError(f"inversion of zero in {self.name}")
        return 1 / a if self.p is None else pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))


class PrimeField(_Field):
    """F_p for a prime 2 <= p < 2^31; elements are ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if type(p) is not int or not 2 <= p <= MAX_PRIME:
            raise UsageError(f"prime modulus must satisfy 2 <= p < 2^31, got {p!r}")
        if not is_prime(p):
            raise UsageError(f"modulus {p} is not prime")
        self.p = p

    @property
    def name(self) -> str:
        return f"F{self.p}"

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def element(self, value) -> int:
        """Coerce an int or Fraction into a canonical residue."""
        if type(value) is int:
            return value % self.p
        if type(value) is Fraction:
            den = value.denominator % self.p
            if den == 0:
                raise UsageError(f"denominator of {value} is divisible by {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        if isinstance(value, int):  # bools and int subclasses
            return int(value) % self.p
        raise UsageError(f"cannot coerce {value!r} into {self.name}")

    def check(self, a) -> None:
        if type(a) is not int or not 0 <= a < self.p:
            raise UsageError(f"{a!r} is not an element of {self.name}")

    def random_element(self, rng) -> int:
        return rng.randrange(self.p)

    def __eq__(self, other) -> bool:
        return type(other) is PrimeField and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class RationalField(_Field):
    """Q with elements as `fractions.Fraction` (lowest terms, positive denominator)."""

    __slots__ = ()
    p = None

    @property
    def name(self) -> str:
        return "Q"

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def element(self, value) -> Fraction:
        if type(value) is Fraction:
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise UsageError(f"cannot coerce {value!r} into Q")

    def check(self, a) -> None:
        if type(a) is not Fraction:
            raise UsageError(f"{a!r} is not an element of Q")

    def random_element(self, rng) -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def __eq__(self, other) -> bool:
        return type(other) is RationalField

    def __hash__(self) -> int:
        return hash("RationalField")

    def __repr__(self) -> str:
        return "RationalField()"


QQ = RationalField()


def field_from_name(name: str):
    """Map "Q" or "F<p>" to a field instance."""
    if name == "Q":
        return QQ
    digits = name[1:]
    if name.startswith("F") and digits.isascii() and digits.isdigit():
        if len(digits) > len(str(MAX_PRIME)):  # int() of a long digit run can raise
            raise UsageError(f"prime modulus must satisfy 2 <= p < 2^31, got {len(digits)} digits")
        return PrimeField(int(digits))
    raise UsageError(f"unknown field {name!r}; expected 'Q' or 'F<p>'")
