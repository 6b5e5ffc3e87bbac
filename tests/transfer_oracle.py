"""Independent checks of homological transfer: the oracle for transfer.

check_contraction verifies every side condition of a contraction by applying
its maps to basis vectors, and cohomology_dims reads b_1-cohomology off ranks
alone.  Neither shares the splitting or the inverse readout of
hom_contraction.
"""

from ainfty.sparse import SparseMatrix, add_into, rank_kernel_image
from ainfty.transfer import apply_linear


def check_contraction(cat, con):
    """Exact verification of all side conditions; returns failures."""
    f = cat.field
    bad = []
    labs = [lab for lab, _ in cat.hom.get(con.pair, ())]
    d = {lab: dict(cat.b_value((lab,))) for lab in labs}

    for mlab, _ in con.min_basis:
        got = apply_linear(f, con.proj, con.inc[mlab])
        if got != {mlab: f.one()}:
            bad.append(("proj.inc != id", mlab))
        if apply_linear(f, con.htp, con.inc[mlab]):
            bad.append(("htp.inc != 0", mlab))
    for lab in labs:
        if apply_linear(f, con.htp, con.htp.get(lab, {})):
            bad.append(("htp.htp != 0", lab))
        if apply_linear(f, con.proj, con.htp.get(lab, {})):
            bad.append(("proj.htp != 0", lab))
        acc = {lab: f.one()}
        for z, c in apply_linear(f, d, con.htp.get(lab, {})).items():
            add_into(f, acc, z, f.neg(c))
        for z, c in apply_linear(f, con.htp, d.get(lab, {})).items():
            add_into(f, acc, z, f.neg(c))
        ip = apply_linear(f, con.inc, con.proj.get(lab, {}))
        for z, c in ip.items():
            add_into(f, acc, z, f.neg(c))
        if acc:
            bad.append(("homotopy identity fails", lab))
    return bad



def cohomology_dims(cat, pair=None):
    """b_1-cohomology dimensions by degree, computed directly from ranks
    (dim H^k = dim V^k - rank d^k - rank d^{k-1}); no transfer involved."""
    pairs = [pair] if pair is not None else sorted(cat.hom)
    f = cat.field
    out = {}
    for pr in pairs:
        basis = cat.hom.get(pr, ())
        by_deg = {}
        for lab, deg in basis:
            by_deg.setdefault(deg, []).append(lab)
        pos = {}
        for deg, labs in by_deg.items():
            for t, lab in enumerate(labs):
                pos[lab] = (deg, t)
        ranks = {}
        for deg, labs in by_deg.items():
            up = by_deg.get(deg + 1, [])
            m = SparseMatrix(len(up), len(labs), f)
            for c, lab in enumerate(labs):
                for z, cz in cat.b_value((lab,)).items():
                    m.set(pos[z][1], c, cz)
            r, _, _, _ = rank_kernel_image(m)
            ranks[deg] = r
        dims = {}
        for deg, labs in by_deg.items():
            h = len(labs) - ranks.get(deg, 0) - ranks.get(deg - 1, 0)
            if h:
                dims[deg] = h
        out[pr] = dims
    return out if pair is None else out[pair]
