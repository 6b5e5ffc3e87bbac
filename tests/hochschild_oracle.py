"""Windowed Hochschild homology cap by cap: the oracle for windowed_homology.

Deliberately direct: b is assembled as one matrix per total degree over
every chain of the window, and for each length cap n the cycles of length
<= n are a fresh kernel of the submatrix of those columns; the graded piece
is the rank they add to the boundaries, and the stability flag rebuilds the
window-(N+1) complex from scratch.  It shares only `hochschild_b`,
`HochschildChainWindow.basis` and the batch `sparse` routines with the
module under test, none of the one-pass filtration bookkeeping.

`identity_witnesses_oracle` is the oracle for the CLI's identity checks:
b^2, B^2 and bB + Bb applied to every chain of the window by composing
`hochschild_b` and `connes_B` call on call, with no b or B of a chain
reused.
"""

from ainfty.hochschild import HochschildChainWindow, connes_B, hochschild_b
from ainfty.sparse import SparseMatrix, add_into, rank_kernel_image, rref


def chain_degree(cat, tup) -> int:
    """Total degree of a Hochschild chain: the label degrees less one per
    tensor sign."""
    return sum(cat.deg(lab) for lab in tup) - len(tup) + 1


def _assemble_b(window):
    """Index of the chains of each total degree (length first) and the
    block matrix of b from each degree to the next."""
    cat = window.cat
    f = cat.field
    spaces = {}
    for n in range(1, window.max_length + 1):
        for tup in window.basis(n):
            spaces.setdefault(chain_degree(cat, tup), []).append(tup)
    index = {deg: {tup: i for i, tup in
                   enumerate(sorted(tups, key=lambda t: (len(t), t)))}
             for deg, tups in spaces.items()}
    mats = {}
    for deg, idx in index.items():
        tgt = index.get(deg + 1, {})
        m = SparseMatrix(len(tgt), len(idx), f)
        for tup, col in idx.items():
            for out, c in hochschild_b(window, {tup: f.one()}).items():
                m.set(tgt[out], col, c)
        mats[deg] = m
    return index, mats


def _columns(m, cols):
    """The submatrix of the listed columns, reindexed in list order."""
    pos = {c: i for i, c in enumerate(cols)}
    sub = SparseMatrix(m.nrows, len(cols), m.field)
    for (r, c), v in m.entries.items():
        if c in pos:
            sub.entries[(r, pos[c])] = v
    return sub


def graded_dims(window, length_margin):
    """(length, degree) -> dim F_n H / F_{n-1} H for n <= N - margin."""
    f = window.cat.field
    index, mats = _assemble_b(window)
    report_cap = window.max_length - length_margin
    dims = {}
    for deg, idx in sorted(index.items()):
        prev = mats.get(deg - 1)
        boundary = []
        if prev is not None and prev.nrows:
            boundary = rank_kernel_image(prev)[2]
        last = 0
        for cap in range(1, report_cap + 1):
            cols = [i for tup, i in idx.items() if len(tup) <= cap]
            if not cols:
                continue
            kernel = rank_kernel_image(_columns(mats[deg], cols))[1]
            cycles = [{cols[pos]: c for pos, c in kv.items()} for kv in kernel]
            # the boundary columns are independent, so their rank is their count
            dim = len(rref(boundary + cycles, f)[0]) - len(boundary)
            if dim - last:
                dims[(cap, deg)] = dim - last
            last = dim
    return dims


def windowed_homology_oracle(cat, max_length, length_margin=1):
    """(dims, by_degree, stable), recomputed cap by cap and window by window."""
    dims = graded_dims(HochschildChainWindow(cat, max_length), length_margin)
    by_degree = {}
    for (_cap, deg), d in dims.items():
        by_degree[deg] = by_degree.get(deg, 0) + d
    grown = graded_dims(HochschildChainWindow(cat, max_length + 1),
                        length_margin + 1)
    return dims, by_degree, grown == dims


def identity_witnesses_oracle(window):
    """Chains of the window on which b^2, B^2 or bB+Bb is nonzero, in the
    CLI's order."""
    f, top, witnesses = window.cat.field, window.max_length, []

    def addc(a, b):
        out = dict(a)
        for k, c in b.items():
            add_into(f, out, k, c)
        return out

    for n in range(1, top + 1):
        for tup in window.basis(n):
            c = {tup: f.of_int(1)}
            if hochschild_b(window, hochschild_b(window, c)):
                witnesses.append({"identity": "b^2", "chain": list(tup)})
            if n + 2 <= top and connes_B(window, connes_B(window, c)):
                witnesses.append({"identity": "B^2", "chain": list(tup)})
            if n + 1 <= top:
                anti = addc(hochschild_b(window, connes_B(window, c)),
                            connes_B(window, hochschild_b(window, c)))
                if anti:
                    witnesses.append({"identity": "bB+Bb", "chain": list(tup)})
    return witnesses
