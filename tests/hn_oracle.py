"""Padded brute-force enumeration of Harder-Narasimhan types.

Deliberately dumb: enumerate every tuple of candidate polynomials whose
coefficients live in boxes padded well past anything the filtration
inequalities allow, then keep the tuples that satisfy the definition,
checked with locally written comparisons.  Serves as the oracle for the
windowed enumerator, and check_hn_type_oracle, the same inequalities
checked on whole polynomials, for localmodel.check_hn_type.
reduced_polynomial is the calibration of the reduced polynomial, which
the tests pin on worked examples.
"""

from fractions import Fraction
from itertools import product

from ainfty.localmodel import LocalModelError
from ainfty.ratpoly import RatPolynomial


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def reduced_polynomial(p: RatPolynomial) -> RatPolynomial:
    """Scale so the leading term is t^d / d!."""
    d = p.degree
    if d < 0:
        raise LocalModelError("cannot reduce the zero polynomial")
    lead = p.leading()
    return p * (Fraction(1, _factorial(d)) / Fraction(lead))


def reduced_key(p):
    """Coefficients of p scaled to leading term t^d/d!, top degree first."""
    d = p.degree
    lead = Fraction(p.coeff(d)) * _factorial(d)
    return tuple(Fraction(p.coeff(k)) / lead for k in range(d, -1, -1))


def check_hn_type_oracle(P, q_bound, typ, bogomolov_param=None, lattice=None):
    """The verdict localmodel.check_hn_type must give, reached through a
    RatPolynomial sum of the parts and each part's reduced polynomial."""
    deg = P.degree
    lat = tuple(lattice) if lattice is not None else (1,) * (deg + 1)
    total = RatPolynomial.zero()
    for p in typ:
        if p.degree != deg or p.leading() <= 0:
            return False
        if any((Fraction(p.coeff(k)) * lat[k]).denominator != 1
               for k in range(deg + 1)):
            return False
        total = total + p
    if total != P:
        return False
    qkey = tuple(Fraction(q_bound.coeff(k)) for k in range(deg, -1, -1))
    keys = [reduced_key(p) for p in typ]
    if any(key < qkey for key in keys):
        return False
    if any(not later < earlier for earlier, later in zip(keys, keys[1:])):
        return False
    if deg == 2 and bogomolov_param is not None:
        if any(Fraction(p.coeff(0)) < Fraction(bogomolov_param(
                Fraction(p.coeff(2)), Fraction(p.coeff(1)))) for p in typ):
            return False
    return True


def _box(center_sum, den, pad):
    """All lattice points k/den within pad of the interval [-|s|, |s|]."""
    bound = abs(Fraction(center_sum)) + pad
    lo = -int(bound * den) - 1
    hi = int(bound * den) + 1
    return [Fraction(k, den) for k in range(lo, hi + 1)]


def brute_force_types(P, q_bound, pad=4, bogomolov_param=None, lattice=None):
    """Return the set of HN types as tuples of coefficient tuples (low
    degree first), independent of enumeration order.

    Enumeration walks padded boxes part by part, forcing the final part to
    be the remainder; every defining inequality is then re-checked on the
    completed tuple, so no pruning logic is shared with the enumerator."""
    d = P.degree
    lat = tuple(lattice) if lattice is not None else (1,) * (d + 1)
    qk = tuple(Fraction(q_bound.coeff(k)) for k in range(d, -1, -1))
    target = tuple(Fraction(P.coeff(k)) for k in range(d + 1))

    lead_total = target[d] * lat[d]
    assert lead_total == int(lead_total)
    lead_total = int(lead_total)

    lower_boxes = [_box(target[k], lat[k], pad * max(1, lead_total))
                   for k in range(d)]
    box_sets = [set(b) for b in lower_boxes]

    def admissible(coeff_rows):
        parts = [RatPolynomial.of(row) for row in coeff_rows]
        keys = [reduced_key(p) for p in parts]
        if any(k < qk for k in keys):
            return False
        if any(keys[i] <= keys[i + 1] for i in range(len(keys) - 1)):
            return False
        if d == 2 and bogomolov_param is not None:
            if any(row[0] < Fraction(bogomolov_param(row[2], row[1]))
                   for row in coeff_rows):
                return False
        return True

    found = set()
    for r in range(1, lead_total + 1):
        lead_choices = [Fraction(k, lat[d]) for k in range(1, lead_total + 1)]
        for leads in product(lead_choices, repeat=r):
            if sum(leads) != target[d]:
                continue
            # choose lower coefficients freely for all but the last part
            for head in product(product(*lower_boxes), repeat=r - 1):
                tail = tuple(target[k] - sum(low[k] for low in head)
                             for k in range(d))
                if any(tail[k] not in box_sets[k] for k in range(d)):
                    continue
                coeff_rows = [tuple(low) + (lead,)
                              for low, lead in zip(head + (tail,), leads)]
                if admissible(coeff_rows):
                    found.add(tuple(tuple(row) for row in coeff_rows))
    return found


def type_key(typ):
    """Canonical form of an HN type, the tuple of its parts, for set
    comparison with the oracle."""
    return tuple(tuple(Fraction(p.coeff(k)) for k in range(p.degree + 1))
                 for p in typ)
