"""Independent checks of homological transfer: the oracle for transfer.

check_contraction verifies every side condition of a contraction by applying
its maps to basis vectors, and cohomology_dims reads b_1-cohomology off ranks
alone.  Neither shares the splitting of hom_contraction.
hom_contraction_oracle builds the same contraction the older way: it
completes the boundaries to the cycles greedily with a second `Echelon`, and
reads proj and htp off the inverse of the whole change-of-basis matrix.
"""

from ainfty.ainf import StructureError
from ainfty.sparse import (Echelon, SparseMatrix, add_into, apply_linear,
                           invert, rank_kernel_image)
from ainfty.transfer import Contraction


def hom_contraction_oracle(cat, pair, unit_label=None):
    """transfer.hom_contraction by greedy completion and one n x n inverse
    per (degree, weight) block.  The unit, when given, must be a cycle."""
    f = cat.field
    name_prefix = "[%s>%s]" % pair
    blocks = {}
    for lab, deg in cat.hom.get(pair, ()):
        w = cat.weights.get(lab, 0) if cat.weights else 0
        blocks.setdefault((deg, w), []).append(lab)
    pos = {lab: (key, t) for key, labs in blocks.items()
           for t, lab in enumerate(labs)}
    kern, images, pivots = {}, {}, {}
    for (deg, w), labs in blocks.items():
        m = SparseMatrix(len(blocks.get((deg + 1, w), [])), len(labs), f)
        for c, lab in enumerate(labs):
            for z, cz in cat.b_value((lab,)).items():
                m.set(pos[z][1], c, cz)
        _, kern[(deg, w)], images[(deg, w)], pivots[(deg, w)] = \
            rank_kernel_image(m)

    inc, proj, htp = {}, {}, {}
    min_basis, min_weights, counters = [], {}, {}
    for key in sorted(blocks):
        deg, w = key
        labs = blocks[key]
        n = len(labs)
        below = (deg - 1, w)
        bvecs = images.get(below, [])
        candidates = list(kern[key])
        if unit_label is not None and pos.get(unit_label, (None,))[0] == key:
            candidates = [{pos[unit_label][1]: f.one()}] + candidates
        ech = Echelon(f, bvecs)
        hreps = [dict(c) for c in candidates if ech.add(c)]
        cols = bvecs + hreps + [{c: f.one()} for c in pivots[key]]
        if len(cols) != n:
            raise StructureError("splitting dimension mismatch at %r" % (key,))
        basis = SparseMatrix(n, n, f)
        for j, v in enumerate(cols):
            for t, c in v.items():
                basis.set(t, j, c)
        inv_rows = invert(basis).rows()
        nb, nh = len(bvecs), len(hreps)
        mlabels = []
        for rep in hreps:
            idx = counters.get(deg, 0)
            counters[deg] = idx + 1
            mlab = "%s%d.%d" % (name_prefix, deg, idx)
            mlabels.append(mlab)
            min_basis.append((mlab, deg))
            if cat.weights:
                min_weights[mlab] = w
            inc[mlab] = {labs[t]: c for t, c in rep.items()}
        # row j < nb of the inverse is the htp coordinate along the j-th
        # pivot label below, row nb + j2 the proj coordinate along
        # mlabels[j2]
        below_labs, piv_in = blocks.get(below, []), pivots.get(below, [])
        hvecs, pvecs = {}, {}
        for j, row in enumerate(inv_rows[:nb + nh]):
            vecs, coord = (hvecs, below_labs[piv_in[j]]) if j < nb \
                else (pvecs, mlabels[j - nb])
            for t, c in row.items():
                vecs.setdefault(t, {})[coord] = c
        for t in sorted(pvecs):
            proj[labs[t]] = pvecs[t]
        for t in sorted(hvecs):
            htp[labs[t]] = hvecs[t]
    return Contraction(pair, tuple(min_basis), inc, proj, htp, min_weights)


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
