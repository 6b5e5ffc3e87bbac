"""Sparse exact linear algebra: dict-backed matrices and one elimination kernel.

Rows and vectors are dicts mapping an orderable key (a column index, or
any sortable label) to a nonzero scalar: no zero value is stored, and a
key whose value cancels is removed.  Scalars are Python ints and
Fractions, so a value is zero exactly when it is falsy, and + and * on
them are exact in every field: a residue mod p and a rational alike.
That is the kernel's rule: it adds raw products, with no field call per
term, and turns each entry it touches into a field scalar once, through
the field's `of_fraction`.  `reduce_sums` is the one finisher of a dict
of raw sums: it normalizes each value and drops the zeros.  `add_into`
(acc[key] += c) is the one incremental accumulator.  `SparseMatrix.mul`,
`matvec` and `apply_linear` (the image of a vector under a map given by
its columns) build raw sums and end with `reduce_sums`, and so does the
relation residual of `ainf._check_arities`, once per arity.

Every rank, kernel, span test and inverse in the package is computed by
`Echelon`, which holds the reduced row echelon form of the span of the
vectors added so far: each row's least key is its pivot, the row is 1
there, and every row is zero at every other pivot.  That form is unique for the span, so pivots and
values do not depend on the order in which vectors are added; only the
key order inside the row dicts may.  A key -> rows index finds the rows
to clear when a pivot is added, so the cost of elimination is the size
of the row updates it performs.  `rref`, `rank_kernel_image`, `solve`
and `invert` are batch uses of the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from .field import FieldCtx, QQ


def add_into(field: FieldCtx, acc: dict, key, c) -> None:
    """acc[key] += c for an exact int or Fraction c, keeping every value
    of acc a nonzero field scalar: one `of_fraction` call per update."""
    if not c:
        return
    s = field.of_fraction(acc.get(key, 0) + c)
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def apply_linear(field: FieldCtx, mapping: dict, vec: dict) -> dict:
    """sum of c * mapping[x] over the terms c * x of vec, as a new dict; a
    key mapping lacks maps to zero."""
    raw = {}
    for x, c in vec.items():
        for y, cy in mapping.get(x, {}).items():
            raw[y] = raw.get(y, 0) + c * cy
    return reduce_sums(field, raw)


def reduce_sums(field: FieldCtx, acc: dict) -> dict:
    """The sparse dict of field scalars that acc's raw sums (exact ints
    and Fractions) stand for: canonical over QQ, reduced mod p over
    GF(p), with the zeros dropped; one `of_fraction` call per nonzero sum."""
    out = {}
    for key, v in acc.items():
        if v:  # a raw sum that is 0 is 0 in every field
            c = field.of_fraction(v)
            if c:
                out[key] = c
    return out


class Echelon:
    """Reduced row echelon basis of the span of sparse vectors.

    rows maps each pivot to its row; the basis is the unique RREF of the
    span, whatever the insertion order.
    """

    def __init__(self, field: FieldCtx, vectors=()):
        self.field = field
        self.rows = {}           # pivot -> row
        self._holders = {}       # non-pivot key -> pivots of the rows holding it
        for vec in vectors:
            self.add(vec)

    def _reduce(self, vec, record=None):
        """A new dict: vec minus its part in the span.  With record, the
        coefficient of each pivot row subtracted is stored under its pivot."""
        out = dict(vec)
        rows = self.rows
        # a stored row is zero at every pivot but its own, so subtracting it
        # leaves vec's other pivot entries alone: the pivots to clear are
        # exactly those present in vec now, their coefficients are vec's own
        # scalars, and each clears to an exact raw 0
        for piv in [k for k in out if k in rows and out[k]]:
            c = out[piv]
            if record is not None:
                record[piv] = c
            for k, v in rows[piv].items():
                out[k] = out.get(k, 0) - c * v
        return reduce_sums(self.field, out)

    def reduce(self, vec) -> dict:
        """vec modulo the span; empty exactly when vec lies in it."""
        return self._reduce(vec)

    def coefficients(self, vec):
        """Pivot -> coefficient expressing vec over the basis, or None."""
        record = {}
        return None if self._reduce(vec, record) else record

    def add(self, vec) -> bool:
        """Extend the span by vec; False when vec already lies in it."""
        f = self.field
        red = self._reduce(vec)
        if not red:
            return False
        piv = min(red)
        inv = f.inv(red[piv])
        if inv != 1:
            red = {k: f.mul(inv, v) for k, v in red.items()}
        holders = self._holders
        # red is zero at every old pivot, so clearing column piv from the
        # rows that hold it adds no entry at any pivot
        for p in holders.pop(piv, ()):
            row = self.rows[p]
            c = row.pop(piv)
            for k, v in red.items():
                if k == piv:
                    continue
                s = f.of_fraction(row.get(k, 0) - c * v)
                if s:
                    if k not in row:
                        holders.setdefault(k, set()).add(p)
                    row[k] = s
                elif k in row:
                    del row[k]
                    holders[k].discard(p)
        for k in red:
            if k != piv:
                holders.setdefault(k, set()).add(piv)
        self.rows[piv] = red
        return True

    def basis(self):
        return [dict(self.rows[p]) for p in sorted(self.rows)]

    def dim(self) -> int:
        return len(self.rows)


@dataclass
class SparseMatrix:
    """Sparse matrix with entries[(row, col)] = nonzero scalar."""

    nrows: int
    ncols: int
    field: FieldCtx = QQ
    entries: dict = dfield(default_factory=dict)

    def set(self, r: int, c: int, v) -> None:
        if self.field.is_zero(v):
            self.entries.pop((r, c), None)
        else:
            self.entries[(r, c)] = v

    @classmethod
    def from_rows(cls, rows, ncols: int, field: FieldCtx = QQ) -> "SparseMatrix":
        m = cls(len(rows), ncols, field)
        for i, row in enumerate(rows):
            for j, v in row.items():
                m.set(i, j, v)
        return m

    @classmethod
    def from_dense(cls, rows, field: FieldCtx = QQ) -> "SparseMatrix":
        ncols = len(rows[0]) if rows else 0
        m = cls(len(rows), ncols, field)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                m.set(i, j, v)
        return m

    @classmethod
    def identity(cls, n: int, field: FieldCtx = QQ) -> "SparseMatrix":
        m = cls(n, n, field)
        one = field.one()
        for i in range(n):
            m.set(i, i, one)
        return m

    def rows(self):
        out = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def matvec(self, v: dict) -> dict:
        """Apply to a column vector {col: scalar}."""
        raw = {}
        for (r, c), a in self.entries.items():
            x = v.get(c)
            if x is not None:
                raw[r] = raw.get(r, 0) + a * x
        return reduce_sums(self.field, raw)

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        f = self.field
        out = SparseMatrix(self.nrows, other.ncols, f)
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        raw = {}
        for (r, k), a in self.entries.items():
            for c, b in by_row.get(k, ()):
                raw[r, c] = raw.get((r, c), 0) + a * b
        out.entries = reduce_sums(f, raw)
        return out

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        f = self.field
        out = SparseMatrix(self.nrows, self.ncols, f)
        acc = dict(self.entries)
        for key, v in other.entries.items():
            add_into(f, acc, key, v)
        out.entries = acc
        return out

    def scale(self, c) -> "SparseMatrix":
        f = self.field
        out = SparseMatrix(self.nrows, self.ncols, f)
        if not f.is_zero(c):
            out.entries = {k: f.mul(c, v) for k, v in self.entries.items()}
        return out

    def neg(self) -> "SparseMatrix":
        return self.scale(self.field.neg(self.field.one()))

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.entries == other.entries)


def rref(rows, field: FieldCtx):
    """Reduced row echelon form of a list of sparse rows.

    Returns (pivot_cols, reduced_rows), sorted by pivot; reduced_rows[i]
    has its 1 at pivot_cols[i], its least key, and is zero at every other
    pivot.  The form is unique for the row space, so it does not depend
    on the order of the rows.  The caller's row dicts are not modified.

    Cost: the rows are added to one `Echelon` in input order, so the work
    is the size of the row updates it performs.
    """
    ech = Echelon(field, rows)
    pivots = sorted(ech.rows)
    return pivots, [ech.rows[p] for p in pivots]


def rank_kernel_image(mat: SparseMatrix):
    """Rank, kernel basis and image basis of a sparse matrix.

    kernel: column vectors {col: scalar} spanning ker(mat), one per free
    column, ordered by free column index, each normalized with a 1 in its
    free slot followed by the pivot entries in pivot order.  image: the
    original pivot columns of mat, as {row: scalar} vectors.  Both come
    from one pass each (over the reduced rows, over mat.entries) and are
    deterministic.
    """
    field = mat.field
    pivots, reduced = rref(mat.rows(), field)
    pivset = set(pivots)
    one = field.one()
    by_free = {free: {free: one} for free in range(mat.ncols) if free not in pivset}
    for prow, pcol in zip(reduced, pivots):
        for k, a in prow.items():
            if k != pcol:
                by_free[k][pcol] = field.neg(a)
    by_pivot = {c: {} for c in pivots}
    for (r, c), v in mat.entries.items():
        col = by_pivot.get(c)
        if col is not None:
            col[r] = v
    return len(pivots), list(by_free.values()), list(by_pivot.values()), pivots


def solve(mat: SparseMatrix, rhs: dict):
    """One solution x of mat*x = rhs with free variables set to zero,
    or None if inconsistent.  rhs is {row: scalar}."""
    field = mat.field
    aug = mat.rows()
    bcol = mat.ncols
    for i in range(mat.nrows):
        v = rhs.get(i)
        if v is not None and not field.is_zero(v):
            aug[i][bcol] = v
    pivots, reduced = rref(aug, field)
    if bcol in pivots:
        return None
    x = {}
    for prow, pcol in zip(reduced, pivots):
        v = prow.get(bcol)
        if v is not None:
            x[pcol] = v
    return x


def invert(mat: SparseMatrix):
    """Exact inverse of mat, or None when it is singular or not square:
    the right half of the reduced row echelon form of [mat | I]."""
    n = mat.nrows
    if n != mat.ncols:
        return None
    f = mat.field
    aug = mat.rows()
    for i, row in enumerate(aug):
        row[n + i] = f.one()
    pivots, reduced = rref(aug, f)
    if pivots != list(range(n)):
        return None
    out = SparseMatrix(n, n, f)
    for i, row in enumerate(reduced):
        for k, v in row.items():
            if k >= n:
                out.entries[(i, k - n)] = v
    return out
