"""Relations, change of basis and invariance of quiver representations,
evaluated directly, for the tests.

eval_relations multiplies out the path matrices of every term of a
presented relation; the package decides the preprojective relations
through repmod.moment_map instead, and the tests check that the two agree.
conjugate changes basis by per-vertex invertible matrices, which the
equivariance tests need, and invariant reduces each arrow's image of the
given subspaces against their echelon form, which the subspace
enumeration and the radical layers are checked against.  radical_oracle
takes the Jacobson radical from one trace form over a basis of the whole
acting algebra, where the package pairs it block by block.
"""

from dataclasses import dataclass

from ainfty.quiver import DGQuiverAlgebra
from ainfty.repmod import MatrixRep, RepError
from ainfty.sparse import (Echelon, SparseMatrix, add_into, invert,
                           rank_kernel_image)

from quiver_oracle import degree_zero_truncation


def path_matrix(rep: MatrixRep, path, vertex=None) -> SparseMatrix:
    """Matrix of a path (operator order: path[0] applied last)."""
    if not path:
        if vertex is None:
            raise RepError("trivial path needs a vertex")
        return SparseMatrix.identity(rep.d[vertex], rep.field)
    out = rep.mats[path[0]]
    for name in path[1:]:
        out = out.mul(rep.mats[name])
    return out


def conjugate(rep: MatrixRep, g: dict) -> MatrixRep:
    """Change of basis by invertible per-vertex matrices g."""
    gmap, ginv = {}, {}
    for v in rep.quiver.vertices:
        gv = g.get(v)
        if gv is None:
            gv = SparseMatrix.identity(rep.d[v], rep.field)
        inv = invert(gv)
        if inv is None:
            raise RepError("change of basis at %r is singular" % (v,))
        gmap[v] = gv
        ginv[v] = inv
    mats = {}
    for a in rep.quiver.arrows:
        mats[a.name] = gmap[a.tgt].mul(rep.mats[a.name]).mul(ginv[a.src])
    return MatrixRep(rep.quiver, dict(rep.d), mats, rep.field)


@dataclass
class RelationReport:
    ok: bool
    residuals: tuple         # ((vertex, SparseMatrix), ...)


def eval_relations(rep: MatrixRep, alg) -> RelationReport:
    """Residuals of the algebra relations at the representation.

    alg is a PresentedAlgebra (or a nonpositively graded DGQuiverAlgebra,
    which contributes its degree-0 presentation)."""
    if isinstance(alg, DGQuiverAlgebra):
        alg = degree_zero_truncation(alg)
    f = rep.field
    residuals = []
    for v, terms in alg.relations:
        acc = SparseMatrix(rep.d[v], rep.d[v], f)
        for coeff, path in terms:
            acc = acc.add(path_matrix(rep, path, v).scale(f.of_fraction(coeff)))
        residuals.append((v, acc))
    ok = all(m.is_zero() for _, m in residuals)
    return RelationReport(ok, tuple(residuals))


def invariant(rep: MatrixRep, spaces: dict) -> bool:
    """Whether every arrow maps the subspace at its source into the one
    at its target (spaces: vertex -> spanning rows)."""
    f = rep.field
    echs = {v: Echelon(f, spaces.get(v, [])) for v in rep.quiver.vertices}
    for a in rep.quiver.arrows:
        for vec in spaces.get(a.src, []):
            img = rep.mats[a.name].matvec(vec)
            if echs[a.tgt].reduce(img):
                return False
    return True


def radical_oracle(rep: MatrixRep, basis) -> list:
    """Reduced echelon basis of the Jacobson radical of the algebra that
    basis spans ({(row, col): scalar} matrices of the total space), over
    the rationals: the kernel of the Gram matrix tr(ab) of the trace form
    of the defining module on the whole basis."""
    f = rep.field

    def trace(a, b):
        tot = f.zero()
        for (r, c), v in a.items():
            w = b.get((c, r))
            if w is not None:
                tot = f.add(tot, f.mul(v, w))
        return tot

    n = len(basis)
    gram = SparseMatrix.from_rows([{j: trace(a, b) for j, b in enumerate(basis)}
                                   for a in basis], n, f)
    ech = Echelon(f)
    for kv in rank_kernel_image(gram)[1]:
        vec = {}
        for j, c in kv.items():
            for key, v in basis[j].items():
                add_into(f, vec, key, f.mul(c, v))
        ech.add(vec)
    return ech.basis()
