"""Exact scalar arithmetic over the rationals and over word-sized prime fields.

Scalars are plain Python values: `fractions.Fraction` over the rationals
(always in lowest terms with positive denominator), canonical residues in
[0, p) over a prime field.  A FieldSpec bundles the arithmetic so scalar code
(determinants, dot products, parsing) can stay field-generic while every
operation remains exact; elimination uses its own integer kernel per field
(see linalg).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadPrime, BadScalar

DEFAULT_PRIME = (1 << 61) - 1

# Witness set proving primality for every n < 3.18 * 10^23, beyond 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for word-sized integers."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """The rationals (p is None) or the prime field F_p.

    The modulus must be a prime below 2^64.  Instances are immutable, hashable
    and compare by modulus.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if not isinstance(p, int) or p >= (1 << 64) or not is_prime(p):
                raise BadPrime(f"modulus {p!r} is not a word-sized prime")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return _RATIONALS

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p)

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    @property
    def char(self) -> int:
        return 0 if self.p is None else self.p

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(("FieldSpec", self.p))

    def __repr__(self):
        return "FieldSpec(rationals)" if self.p is None else f"FieldSpec(fp={self.p})"

    # -- arithmetic ----------------------------------------------------

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def from_int(self, n: int):
        return Fraction(n) if self.p is None else n % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else a * b % self.p

    def neg(self, a):
        return -a if self.p is None else -a % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a if self.p is None else pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- text forms ------------------------------------------------------
    # Integers as decimal strings, rationals as "a/b" with b > 0,
    # prime-field elements as canonical residues.

    def parse(self, token):
        """Parse a scalar from its text form (bare ints are accepted too)."""
        if isinstance(token, bool):
            raise BadScalar(f"not a scalar: {token!r}")
        if isinstance(token, int):
            return self.from_int(token)
        if not isinstance(token, str):
            raise BadScalar(f"not a scalar: {token!r}")
        text = token.strip()
        parts = text.split("/")
        try:
            if len(parts) == 1:
                n = int(parts[0])
                return self.from_int(n)
            if len(parts) == 2 and self.p is None:
                num, den = int(parts[0]), int(parts[1])
                if den <= 0:
                    raise BadScalar(f"denominator must be positive: {token!r}")
                return Fraction(num, den)
        except ValueError:
            pass
        raise BadScalar(f"cannot parse {token!r} over {self!r}")

    def format(self, a) -> str:
        if self.p is None:
            f = Fraction(a)
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
        return str(a % self.p)

    def convert_from_rational(self, a):
        """Map a rational (or int) into this field; exact when defined."""
        f = Fraction(a)
        if self.p is None:
            return f
        if f.denominator % self.p == 0:
            raise BadScalar(f"denominator of {a} vanishes modulo {self.p}")
        return f.numerator * pow(f.denominator, -1, self.p) % self.p


_RATIONALS = FieldSpec(None)


def as_fraction(c) -> Fraction:
    """Coerce an int, string or Fraction into an exact Fraction."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c.strip())
    raise BadScalar(f"cannot interpret {c!r} as an exact rational")
