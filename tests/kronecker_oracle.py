"""Exhaustive Kronecker factorization over the rationals, for low degrees.

Independent of sympy: a candidate factor of degree d is interpolated
through integer divisors of the values at d + 1 small points, and kept
when it divides.  Exponential in the degree, so limited to degree < 5.
Serves as the oracle for ratpoly.factor_rational_poly.
"""

from fractions import Fraction
from math import gcd as igcd

from ainfty.ratpoly import RatPolynomial


def _int_divisors(n: int):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.extend([d, -d, n // d, -(n // d)])
        d += 1
    return sorted(set(out), key=lambda v: (abs(v), v < 0))


def poly_value(p: RatPolynomial, x: Fraction) -> Fraction:
    """p(x), by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _interp(points):
    """Lagrange interpolation through (x, y) pairs, exact."""
    acc = RatPolynomial.zero()
    for i, (xi, yi) in enumerate(points):
        term = RatPolynomial.of([Fraction(yi)])
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = term * RatPolynomial.of([Fraction(-xj, 1) / (xi - xj),
                                            Fraction(1, 1) / (xi - xj)])
        acc = acc + term
    return acc


def _kronecker_split(p: RatPolynomial):
    """One nontrivial monic factor of p by exhaustive divisor interpolation,
    or None if p is irreducible.  Exponential; intended for degree < 5."""
    n = p.degree
    if n <= 1:
        return None
    pts = [0, 1, -1, 2, -2, 3, -3, 4, -4]
    for d in range(1, n // 2 + 1):
        xs = pts[: d + 1]
        vals = [poly_value(p, Fraction(x)) for x in xs]
        for x, v in zip(xs, vals):
            if v == 0:
                return RatPolynomial.of([Fraction(-x), Fraction(1)])
        # integer model: clear denominators so candidate factors have
        # integer values at integer points
        den = 1
        for c in p.coeffs:
            den = den * c.denominator // igcd(den, c.denominator)
        ivals = [v * den for v in vals]
        choices = [_int_divisors(int(v)) for v in ivals]
        idx = [0] * (d + 1)
        while True:
            cand = _interp([(Fraction(x), Fraction(choices[k][idx[k]]))
                            for k, x in enumerate(xs)])
            if cand.degree == d:
                q, r = p.divmod(cand)
                if r.is_zero() and q.degree >= 1:
                    return cand.monic()
            k = d
            while k >= 0:
                idx[k] += 1
                if idx[k] < len(choices[k]):
                    break
                idx[k] = 0
                k -= 1
            if k < 0:
                break
    return None


def factor_kronecker(p: RatPolynomial):
    """Exhaustive factorization for cross-checking; degree < 5 only."""
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.degree >= 5:
        raise ValueError("kronecker cross-check limited to degree < 5")
    content = p.leading() if not p.is_zero() else Fraction(1)
    stack = [p.monic()] if p.degree >= 1 else []
    out = {}
    while stack:
        f = stack.pop()
        g = _kronecker_split(f)
        if g is None:
            out[f.coeffs] = out.get(f.coeffs, 0) + 1
        else:
            stack.append(g)
            stack.append(f.divmod(g)[0].monic())
    facs = sorted(((RatPolynomial(c), m) for c, m in out.items()),
                  key=lambda fm: fm[0].sort_key())
    return content, facs
