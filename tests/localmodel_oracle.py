"""Pointwise evaluation of Maurer-Cartan presentations, for the tests.

A point is a matrix per degree-1 generator; mc_point flattens it into
coordinate values, and mc_residuals evaluates every classical equation of
a localmodel.MCPresentation there, polynomial by polynomial.  The tests
compare mc_vanishes with repmod_oracle.eval_relations on the module the
same matrices define, so the presented equations are checked against the
representation-side relations.
"""

from ainfty.field import FieldCtx, QQ
from ainfty.sparse import SparseMatrix


def poly_eval(a, values, f: FieldCtx, coeff_field: FieldCtx = QQ):
    """Evaluate at a point.  Coefficients living in a characteristic-zero
    field are pushed into f via of_fraction before combining."""
    total = f.zero()
    for mono, c in a.items():
        if coeff_field.p == 0 and f.p != 0:
            c = f.of_fraction(c)
        term = c
        for var in mono:
            term = f.mul(term, values[var])
        total = f.add(total, term)
    return total


def mc_point(pres, mats: dict, f: FieldCtx) -> dict:
    """Flatten a dict {degree-1 label: SparseMatrix} into coordinate values."""
    values = {}
    for lab, r, c in pres.coordinates:
        m = mats.get(lab)
        values[(lab, r, c)] = f.zero() if m is None else m.entries.get((r, c), 0)
    return values


def mc_residuals(pres, values: dict, f: FieldCtx):
    """Evaluate every classical equation block at a point; returns
    {degree-2 label: SparseMatrix residual}."""
    out = {}
    for eq in pres.classical_equations:
        nrows = len(eq.matrix)
        ncols = len(eq.matrix[0]) if nrows else 0
        res = SparseMatrix(nrows, ncols, field=f)
        for r in range(nrows):
            for c in range(ncols):
                res.set(r, c, poly_eval(eq.matrix[r][c], values, f, coeff_field=pres.field))
        out[eq.label] = res
    return out


def mc_vanishes(pres, values: dict, f: FieldCtx) -> bool:
    return all(m.is_zero() for m in mc_residuals(pres, values, f).values())
