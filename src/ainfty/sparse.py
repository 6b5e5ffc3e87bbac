"""Sparse exact linear algebra: dict-backed matrices and row reduction.

Rows and vectors are dicts mapping column index to a nonzero scalar.
Row reduction (`rref`) takes pivot columns left to right and, for each,
the lowest input row that has an entry there.  That tie-break fixes every
rank, kernel and image computation, down to the key order of the returned
dicts, so reports built from them stay byte-stable for a fixed input.
`rref` keeps a column -> rows index, so its cost is the size of the row
updates it performs plus O(ncols), not a scan of every row per column;
`rank_kernel_image` reads its kernel and image off in one pass each.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from .field import FieldCtx, QQ


def vec_addmul(field: FieldCtx, u: dict, c, v: dict) -> dict:
    """u + c*v, in place on a copy."""
    if field.is_zero(c):
        return dict(u)
    out = dict(u)
    for k, val in v.items():
        s = field.add(out.get(k, field.zero()), field.mul(c, val))
        if field.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


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

    def get(self, r: int, c: int):
        return self.entries.get((r, c), self.field.zero())

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

    def row(self, r: int) -> dict:
        return {c: v for (i, c), v in self.entries.items() if i == r}

    def rows(self):
        out = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def transpose(self) -> "SparseMatrix":
        t = SparseMatrix(self.ncols, self.nrows, self.field)
        for (r, c), v in self.entries.items():
            t.entries[(c, r)] = v
        return t

    def take_columns(self, cols) -> "SparseMatrix":
        """Submatrix of the listed columns, reindexed in list order."""
        pos = {c: i for i, c in enumerate(cols)}
        m = SparseMatrix(self.nrows, len(cols), self.field)
        for (r, c), v in self.entries.items():
            i = pos.get(c)
            if i is not None:
                m.entries[(r, i)] = v
        return m

    def matvec(self, v: dict) -> dict:
        """Apply to a column vector {col: scalar}."""
        f = self.field
        out = {}
        for (r, c), a in self.entries.items():
            x = v.get(c)
            if x is None:
                continue
            s = f.add(out.get(r, f.zero()), f.mul(a, x))
            if f.is_zero(s):
                out.pop(r, None)
            else:
                out[r] = s
        return out

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        f = self.field
        out = SparseMatrix(self.nrows, other.ncols, f)
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc = {}
        for (r, k), a in self.entries.items():
            for c, b in by_row.get(k, ()):
                key = (r, c)
                s = f.add(acc.get(key, f.zero()), f.mul(a, b))
                if f.is_zero(s):
                    acc.pop(key, None)
                else:
                    acc[key] = s
        out.entries = acc
        return out

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        f = self.field
        out = SparseMatrix(self.nrows, self.ncols, f)
        acc = dict(self.entries)
        for key, v in other.entries.items():
            s = f.add(acc.get(key, f.zero()), v)
            if f.is_zero(s):
                acc.pop(key, None)
            else:
                acc[key] = s
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

    def to_dense(self):
        z = self.field.zero()
        return [[self.get(r, c) for c in range(self.ncols)] for r in range(self.nrows)]

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.entries == other.entries)


def rref(rows, ncols: int, field: FieldCtx):
    """Reduced row echelon form of a list of sparse rows.

    Returns (pivot_cols, reduced_rows); reduced_rows[i] has pivot 1 at
    pivot_cols[i].  The caller's row dicts are not modified.

    Pivot rule: columns are taken left to right, and the pivot row of a
    column is the lowest-numbered input row, among those not yet used as
    pivots, that has a nonzero there.  Each row receives its updates in
    pivot-column order, so the reduced rows, down to their dict key order,
    are a function of the input alone; byte-stable reports rely on this.

    Cost: a column -> rows index over pending and reduced rows finds the
    pivot candidates and the rows to clear without scanning, so the work
    is O(ncols) plus the size of the row updates themselves.
    """
    work = {}                    # input row index -> row, pending or reduced
    where = {}                   # column -> indices of rows with a nonzero there
    for i, r in enumerate(rows):
        if r:
            work[i] = dict(r)
            for k in r:
                where.setdefault(k, set()).add(i)
    pending = set(work)
    pivots = []
    reduced = []
    for col in range(ncols):
        if not pending:
            break
        holders = where.get(col)
        if not holders:
            continue
        cands = holders & pending
        if not cands:
            continue
        p = min(cands)
        pending.discard(p)
        c = field.inv(work[p][col])
        prow = work[p] = {k: field.mul(c, v) for k, v in work[p].items()}
        # after this pivot only prow keeps column col, and keeps it for good
        del where[col]
        holders.discard(p)
        for i in holders:
            r = work[i]
            a = field.neg(r[col])
            for k, v in prow.items():
                s = field.add(r.get(k, field.zero()), field.mul(a, v))
                if field.is_zero(s):
                    r.pop(k, None)
                    if k != col:
                        where[k].discard(i)
                elif k not in r:
                    r[k] = s
                    where.setdefault(k, set()).add(i)
                else:
                    r[k] = s
            if not r:
                pending.discard(i)
                del work[i]
        pivots.append(col)
        reduced.append(prow)
    return pivots, reduced


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
    pivots, reduced = rref(mat.rows(), mat.ncols, field)
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
    pivots, reduced = rref(aug, mat.ncols + 1, field)
    if bcol in pivots:
        return None
    x = {}
    for prow, pcol in zip(reduced, pivots):
        v = prow.get(bcol)
        if v is not None:
            x[pcol] = v
    return x
