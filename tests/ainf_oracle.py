"""Degree and sign helpers of A-infinity tables that only the tests read.

m_from_b undoes the suspension of b_from_m, and degree_support_bound lists
the input degrees that degree arithmetic alone leaves open for b_n.
"""

from ainfty.ainf import AInfCategory, b_from_m


def m_from_b(cat_degrees, b_ops, field):
    """Inverse of b_from_m; the suspension sign is an involution."""
    return b_from_m(cat_degrees, b_ops, field)


def degree_support_bound(cat: AInfCategory, arities, use_strict_units: bool = True):
    """Input-degree tuples not excluded by degree arithmetic.

    For each requested arity n, lists the tuples (d_1, ..., d_n) of unshifted
    degrees, drawn from degrees present in the hom spaces, whose b_n target
    degree sum(d_i) - n + 2 is again present.  When use_strict_units is set
    and a degree's graded piece consists entirely of designated units, slots
    in that degree are excluded (b_{>=3} kills unit tuples).  Object-pair
    bookkeeping is ignored, so this is an upper bound for the support.
    """
    degrees = set()
    unit_only = set()
    unit_labels = set(cat.units.values())
    by_deg = {}
    for basis in cat.hom.values():
        for lab, deg in basis:
            degrees.add(deg)
            by_deg.setdefault(deg, []).append(lab)
    for deg, labs in by_deg.items():
        if labs and all(l in unit_labels for l in labs):
            unit_only.add(deg)
    out = {}
    for n in arities:
        slot = sorted(degrees - unit_only) if (use_strict_units and n >= 3) \
            else sorted(degrees)
        tuples = []
        def rec(k, acc, total):
            if k == n:
                if total - n + 2 in degrees:
                    tuples.append(tuple(acc))
                return
            for d in slot:
                acc.append(d)
                rec(k + 1, acc, total + d)
                acc.pop()
        rec(0, [], 0)
        out[n] = tuple(tuples)
    return out
