"""Univariate polynomials over the rationals, with exact factorization.

Coefficients are fractions.Fraction stored low degree first with no trailing
zeros.  Factorization into irreducibles runs through sympy (Zassenhaus/Hensel
under the hood); tests/kronecker_oracle.py cross-checks it in low degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(Fraction(c) for c in cs)


@dataclass(frozen=True)
class RatPolynomial:
    coeffs: tuple  # Fraction, low degree first, no trailing zeros

    @classmethod
    def of(cls, coeffs) -> "RatPolynomial":
        return cls(_trim(coeffs))

    @classmethod
    def zero(cls) -> "RatPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "RatPolynomial":
        return cls((Fraction(1),))

    @property
    def degree(self) -> int:
        """Degree, with deg(0) = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    @staticmethod
    def _coerce(other) -> "RatPolynomial":
        if isinstance(other, RatPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return RatPolynomial.of([Fraction(other)])
        raise TypeError("cannot coerce %r" % (other,))

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPolynomial.of([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPolynomial.of([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return RatPolynomial.of([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPolynomial.of([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return RatPolynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPolynomial.of(out)

    __rmul__ = __mul__

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return RatPolynomial.zero(), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            if len(rem) < len(other.coeffs) + k:
                continue
            c = rem[len(other.coeffs) + k - 1] / lead
            if c == 0:
                continue
            quo[k] = c
            for j, b in enumerate(other.coeffs):
                rem[j + k] -= c * b
        return RatPolynomial.of(quo), RatPolynomial.of(rem)

    __divmod__ = divmod

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self) -> "RatPolynomial":
        if self.is_zero():
            return self
        lead = self.leading()
        return RatPolynomial.of([c / lead for c in self.coeffs])

    def sort_key(self):
        return (self.degree, tuple((c.numerator, c.denominator) for c in self.coeffs))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            term = "t^%d" % i if i > 1 else ("t" if i == 1 else "")
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(term)
            elif c == -1:
                parts.append("-" + term)
            else:
                parts.append("%s*%s" % (c, term))
        return " + ".join(parts).replace("+ -", "- ")


def poly_gcd(a: RatPolynomial, b: RatPolynomial) -> RatPolynomial:
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()

def poly_xgcd(a: RatPolynomial, b: RatPolynomial):
    """Extended gcd: returns (g, s, t) monic g with s*a + t*b = g."""
    r0, r1 = a, b
    s0, s1 = RatPolynomial.one(), RatPolynomial.zero()
    t0, t1 = RatPolynomial.zero(), RatPolynomial.one()
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead = r0.leading()
    inv = Fraction(1) / lead
    return r0.monic(), s0 * inv, t0 * inv


def factor_rational_poly(p: RatPolynomial):
    """Factor into irreducibles over the rationals.

    Returns (content, [(monic irreducible, multiplicity), ...]) with
    content * prod(f^m) == p, factors sorted by (degree, coefficients).
    sympy is imported here, its only use, so importing the package stays
    cheap.
    """
    import sympy
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
               for i, c in enumerate(p.coeffs))
    content, raw = sympy.Poly(expr, x, domain="QQ").factor_list()
    out = []
    for fac, mult in raw:
        cs = [Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
              for c in reversed(fac.all_coeffs())]
        f = RatPolynomial.of(cs)
        lead = f.leading()
        content = content * sympy.Rational(lead.numerator, lead.denominator) ** mult
        out.append((f.monic(), mult))
    out.sort(key=lambda fm: fm[0].sort_key())
    c = Fraction(int(sympy.numer(content)), int(sympy.denom(content)))
    return c, out
