"""Exact scalar arithmetic over the rationals and prime fields.

Every computation in this package runs over an explicit FieldCtx.  Rational
scalars are fractions.Fraction, prime-field scalars are ints in [0, p).
No floats anywhere; mixing scalars from different contexts is an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class FieldError(ValueError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldCtx:
    """Arithmetic context: characteristic 0 (rationals) or a prime field."""

    p: int = 0  # 0 means the rationals

    def __post_init__(self):
        if self.p != 0 and not _is_prime(self.p):
            raise FieldError("modulus must be prime, got %r" % (self.p,))

    def zero(self):
        return Fraction(0) if self.p == 0 else 0

    def one(self):
        return Fraction(1) if self.p == 0 else 1

    def of_int(self, n: int):
        return Fraction(n) if self.p == 0 else n % self.p

    def of_fraction(self, q: Fraction):
        if self.p == 0:
            return Fraction(q)
        den = q.denominator % self.p
        if den == 0:
            raise FieldError("denominator %d not invertible mod %d" % (q.denominator, self.p))
        return (q.numerator * pow(den, self.p - 2, self.p)) % self.p

    def add(self, a, b):
        return a + b if self.p == 0 else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p == 0 else (a * b) % self.p

    def neg(self, a):
        return -a if self.p == 0 else (-a) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.p == 0:
            return 1 / a
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def scalar_from_str(self, s: str):
        """Parse "num" or "num/den"; prime-field contexts reduce mod p."""
        s = s.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            q = Fraction(int(num), int(den))
        else:
            q = Fraction(int(s))
        return self.of_fraction(q)

    def scalar_to_json(self, a):
        if self.p == 0:
            if a.denominator == 1:
                return str(a.numerator)
            return "%d/%d" % (a.numerator, a.denominator)
        return {"mod": self.p, "val": int(a)}

    def scalar_from_json(self, obj):
        if isinstance(obj, str):
            return self.scalar_from_str(obj)
        if isinstance(obj, int):
            return self.of_int(obj)
        if isinstance(obj, dict) and "mod" in obj:
            if self.p == 0:
                raise FieldError("prime-field scalar %r in a rational context" % (obj,))
            if obj["mod"] != self.p:
                raise FieldError("modulus mismatch: %r vs p=%d" % (obj, self.p))
            return obj["val"] % self.p
        raise FieldError("cannot parse scalar %r" % (obj,))


QQ = FieldCtx(0)


def GF(p: int) -> FieldCtx:
    return FieldCtx(p)
