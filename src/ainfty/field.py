"""Exact scalar arithmetic over the rationals and prime fields.

Every computation in this package runs over an explicit FieldCtx: the one
rational context QQ, or a prime field GF(p).  A rational scalar is held in
canonical form: an int when it is integral, a fractions.Fraction only when
its denominator is greater than 1.  Every QQ operation returns that form,
and ints compare and hash equal to the Fractions they stand for, so dict
keys, sorting and serialization do not see the difference.  Prime-field
scalars are ints in [0, p).  No floats anywhere; mixing scalars from
different contexts is an error.
"""

from __future__ import annotations

import functools
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


class FieldCtx:
    """Arithmetic context; `p` is the characteristic, 0 for the rationals.

    The subclasses define of_int, of_fraction, add, sub, mul, neg, inv,
    scalar_to_json and the reading of a {"mod": p} scalar."""

    p: int

    def zero(self):
        return 0

    def one(self):
        return 1

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def scalar_from_str(self, s: str):
        """Parse "num" or "num/den"; prime-field contexts reduce mod p."""
        q = _rational(s)
        return self.of_int(q) if type(q) is int else self.of_fraction(q)

    def scalar_from_json(self, obj):
        """The scalar a "num", "num/den", integer or {"mod": p, "val": v}
        object stands for; a FieldError for anything else."""
        try:
            if isinstance(obj, str):
                return self.scalar_from_str(obj)
            # JSON true and false are not scalars, though Python's bool is an int
            if type(obj) is int:
                return self.of_int(obj)
            if isinstance(obj, dict) and "mod" in obj:
                return self._mod_scalar(obj)
        except (ValueError, ZeroDivisionError) as e:
            raise FieldError("bad scalar %r (%s)" % (obj, e))
        raise FieldError("bad scalar %r" % (obj,))


@functools.lru_cache(maxsize=1024)
def _rational(s: str):
    """The rational "num" or "num/den" stands for, as an int or a Fraction;
    cached, since tables repeat a few coefficients many times."""
    num, slash, den = s.partition("/")
    return Fraction(int(num), int(den)) if slash else int(num)


def _canon(q):
    """An int for an integral rational, else the Fraction itself."""
    return q.numerator if q.denominator == 1 else q


@dataclass(frozen=True)
class Rationals(FieldCtx):
    """The rationals, in canonical form; QQ is the only instance in use."""

    p = 0

    def of_int(self, n: int):
        return n

    def of_fraction(self, q):
        """The canonical form of an exact int or Fraction."""
        return q if type(q) is int else _canon(q)

    def add(self, a, b):
        c = a + b
        return c if type(c) is int else _canon(c)

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int else _canon(c)

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int else _canon(c)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 1 or a == -1:
            return a
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _canon(Fraction(1) / a)

    def scalar_to_json(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)

    def _mod_scalar(self, obj):
        raise FieldError("prime-field scalar %r in a rational context" % (obj,))


@dataclass(frozen=True)
class PrimeField(FieldCtx):
    """The field with p elements, scalars ints in [0, p); built by GF(p)."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise FieldError("modulus must be prime, got %r" % (self.p,))

    def of_int(self, n: int):
        return n % self.p

    def of_fraction(self, q):
        """The residue of an exact int or Fraction; a FieldError when p
        divides the denominator."""
        if type(q) is int:
            return q % self.p
        den = q.denominator % self.p
        if den == 0:
            raise FieldError("denominator %d not invertible mod %d" % (q.denominator, self.p))
        return (q.numerator * pow(den, self.p - 2, self.p)) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def scalar_to_json(self, a):
        return {"mod": self.p, "val": int(a)}

    def _mod_scalar(self, obj):
        # integers only: JSON true and false are not residues
        if type(obj["mod"]) is not int or type(obj.get("val")) is not int:
            raise FieldError("want integer mod and val")
        if obj["mod"] != self.p:
            raise FieldError("modulus mismatch: %r vs p=%d" % (obj, self.p))
        return obj["val"] % self.p


QQ = Rationals()


@functools.cache
def GF(p: int) -> PrimeField:
    """The one context for GF(p) in this process: the primality test, a
    trial division up to sqrt(p), runs on the first call for each p."""
    return PrimeField(p)
