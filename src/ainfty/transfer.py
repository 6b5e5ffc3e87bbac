"""Minimal models of dg categories by homological transfer.

The contraction data per hom space is a triple (proj, inc, htp) with

    proj . inc = id,   inc . proj = 1 - (b_1 htp + htp b_1),
    htp . htp = 0,     htp . inc = 0,    proj . htp = 0,

built degreewise from the splitting V = B (+) H (+) L where B = im(b_1),
L is spanned by the pivot coordinates of b_1 (so b_1|_L is injective onto
the next B, in matching order), and H completes B to ker(b_1).

The splitting of a (degree, weight) block is read from one elimination.
`rank_kernel_image` of b_1 on the block gives L, on which proj and htp
vanish, and one kernel vector k_t per free column t; a cycle is determined
by its entries on the free columns.  The boundaries, the image columns of
the block below, are restricted to the free columns and added to one
`Echelon`, keyed so that a row's pivot is its free column latest in the
order "the unit (when it is a cycle), then ascending", and extended by one
entry recording the boundary's index.  The free columns no row pivots on
are H, represented by their k_t: the greedy choice of each candidate in
that order that the boundaries and the earlier choices do not span.  The
row of any other free column t expresses k_t through B and H: its index
entries give htp(e_t) and its negated H entries give proj(e_t).

With these side conditions the transferred operations are given by planar
trees:

    theta_1 = inc,
    theta_n = htp . sum_{j=1}^{n-1} b_2(theta_j (x) theta_{n-j}),
    btilde_n = proj . (the same sum),

with no Koszul signs since all tree maps have shifted degree 0.

When the input category carries weights (operations add them, outputs above
weight_cap vanish) the splitting is refined weight by weight, the
transferred basis inherits weights, and trees of total weight above the cap
are pruned as exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ainf import (AInfCategory, AInfMorphism, StructureError,
                   _strict_unit_failures)
from .sparse import (Echelon, SparseMatrix, add_into, apply_linear,
                     rank_kernel_image)


@dataclass
class Contraction:
    pair: tuple
    min_basis: tuple   # ((min_label, degree), ...)
    inc: dict          # min_label -> {big_label: coeff}
    proj: dict         # big_label -> {min_label: coeff}
    htp: dict          # big_label -> {big_label: coeff}, degree -1
    weights: dict      # min_label -> weight (empty when unweighted)


def hom_contraction(cat: AInfCategory, pair, unit_label=None) -> Contraction:
    """Deterministic contraction of one hom space onto its b_1-cohomology.

    If unit_label is given and is a cycle, it is preferred as the first
    representative in its block, so proj(unit) is a basis vector and
    inc(its class) is the unit itself; a unit that is not a cycle is
    treated like any other label.
    """
    f = cat.field
    basis = cat.hom.get(pair, ())
    name_prefix = "[%s>%s]" % pair
    if unit_label is not None and cat.b_value((unit_label,)):
        unit_label = None
    blocks = {}
    for lab, deg in basis:
        w = cat.weights.get(lab, 0) if cat.weights else 0
        blocks.setdefault((deg, w), []).append(lab)
    pos = {}
    for key, labs in blocks.items():
        for t, lab in enumerate(labs):
            pos[lab] = (key, t)

    mats = {}
    for (deg, w), labs in blocks.items():
        up = blocks.get((deg + 1, w), [])
        m = SparseMatrix(len(up), len(labs), f)
        for c, lab in enumerate(labs):
            for z, cz in cat.b_value((lab,)).items():
                if pos[z][0] != (deg + 1, w):
                    raise StructureError(
                        "differential is not homogeneous at %r" % (lab,))
                m.set(pos[z][1], c, cz)
        mats[(deg, w)] = m

    kern, images, pivots = {}, {}, {}
    for key, m in mats.items():
        _, kern[key], images[key], pivots[key] = rank_kernel_image(m)

    inc, proj, htp = {}, {}, {}
    min_basis, min_weights = [], {}
    counters = {}
    for key in sorted(blocks):
        deg, w = key
        labs = blocks[key]
        n = len(labs)
        below = (deg - 1, w)
        below_labs = blocks.get(below, [])
        piv_in = pivots.get(below, [])
        # the free columns of b_1 in the order the complement is chosen:
        # the unit first, then ascending; order[i] has Echelon key nf-1-i,
        # so a row's pivot is its column latest in that order
        pivset = set(pivots[key])
        free = [t for t in range(n) if t not in pivset]
        kvec = dict(zip(free, kern[key]))
        order = free
        if unit_label is not None and pos.get(unit_label, (None,))[0] == key:
            u = pos[unit_label][1]
            order = [u] + [t for t in free if t != u]
        nf = len(order)
        okey = {t: nf - 1 - i for i, t in enumerate(order)}
        # the boundaries, each restricted to the free columns (a cycle is
        # determined there) with key nf + j recording its index j; that
        # needs each boundary to be a cycle, so b_1 b_1 = 0 is checked on
        # the pivot columns below, which span the boundaries
        ech = Echelon(f)
        for j, bvec in enumerate(images.get(below, [])):
            dd = {}
            for t, c in bvec.items():
                for z, cz in cat.b_value((labs[t],)).items():
                    add_into(f, dd, z, f.mul(c, cz))
            if dd:
                raise StructureError("b_1 does not square to zero at %r"
                                     % (below_labs[piv_in[j]],))
            row = {okey[t]: c for t, c in bvec.items() if t in okey}
            row[nf + j] = f.one()
            ech.add(row)
        # the free columns no boundary row pivots on are the complement H,
        # represented by their kernel vectors
        mlab_of = {}
        for t in order:
            if okey[t] in ech.rows:
                continue
            idx = counters.get(deg, 0)
            counters[deg] = idx + 1
            mlab = mlab_of[okey[t]] = "%s%d.%d" % (name_prefix, deg, idx)
            min_basis.append((mlab, deg))
            if cat.weights:
                min_weights[mlab] = w
            inc[mlab] = {labs[s]: c for s, c in kvec[t].items()}
        # proj and htp vanish on the pivot columns; s in H has proj(e_s) =
        # [s] and htp(e_s) = 0; the row of any other free column t reads
        # k_t = sum_j c_j bvec_j - sum_s a_s k_s (s in H), so htp(e_t) =
        # sum_j c_j e_j below and proj(e_t) = -sum_s a_s [s]; ascending t,
        # H in choice order and j ascending keep emitted models byte-stable
        for t in free:
            row = ech.rows.get(okey[t])
            if row is None:
                proj[labs[t]] = {mlab_of[okey[t]]: f.one()}
                continue
            keys = sorted(row)
            pvec = {mlab_of[k]: f.neg(row[k]) for k in reversed(keys)
                    if k in mlab_of}
            if pvec:
                proj[labs[t]] = pvec
            hvec = {below_labs[piv_in[k - nf]]: row[k] for k in keys if k >= nf}
            if hvec:
                htp[labs[t]] = hvec
    return Contraction(pair, tuple(min_basis), inc, proj, htp, min_weights)


class _Trees:
    """theta_n and the planar tree sums of minimal_model, memoized per
    tuple of cohomology labels.  theta and tree_sum call each other through
    the instance, so the recursion holds no reference to itself and the
    memos are freed with the instance, without a cyclic collection."""

    def __init__(self, cat, inc, htp, units, weights, wcap):
        self.cat, self.f = cat, cat.field
        self.inc, self.htp = inc, htp
        self.units = units        # tuples holding one have theta = 0
        self.weights, self.wcap = weights, wcap
        self.tree_memo, self.theta_memo = {}, {}

    def tree_sum(self, tup):
        """sum_j b_2(theta(tup[:j]) (x) theta(tup[j:])), as a big vector."""
        acc = self.tree_memo.get(tup)
        if acc is not None:
            return acc
        f, b_value, theta = self.f, self.cat.b_value, self.theta
        acc = {}
        for split in range(1, len(tup)):
            v = theta(tup[:split])
            w = theta(tup[split:])
            if not v or not w:
                continue
            for x, cx in v.items():
                for y, cy in w.items():
                    val = b_value((x, y))
                    if not val:
                        continue
                    c = f.mul(cx, cy)
                    for z, cz in val.items():
                        add_into(f, acc, z, f.mul(c, cz))
        self.tree_memo[tup] = acc
        return acc

    def theta(self, tup):
        # theta_n = -htp . tree_sum; the sign makes the collection (theta_n)
        # an A-infinity functor from the transferred structure (the n = 2
        # axiom forces it: inc(btilde_2) = b_2(inc (x) inc) - b_1(htp b_2))
        if len(tup) == 1:
            return self.inc[tup[0]]
        res = self.theta_memo.get(tup)
        if res is not None:
            return res
        f = self.f
        if ((self.units and any(x in self.units for x in tup))
                or (self.wcap is not None
                    and sum(self.weights.get(x, 0) for x in tup) > self.wcap)):
            res = {}
        else:
            res = {z: f.neg(c) for z, c in
                   apply_linear(f, self.htp, self.tree_sum(tup)).items()}
        self.theta_memo[tup] = res
        return res


def minimal_model(cat: AInfCategory, arity_cap: int | None = None):
    """Transfer a dg category onto its cohomology.

    Returns (minimal category, inclusion functor, contractions by pair).
    Requires b_n = 0 for n >= 3.  The minimal category has b_1 = 0 and,
    when the input has strict units, strict units induced on cohomology.
    """
    for n, table in cat.ops.items():
        if n >= 3 and table:
            raise StructureError("transfer input must be a dg category")
    cap = arity_cap if arity_cap is not None else cat.arity_cap
    f = cat.field

    units_strict = not _strict_unit_failures(cat)

    cons = {}
    min_hom = {}
    min_units = {}
    min_weights = {}
    for pair in sorted(cat.hom):
        i, j = pair
        unit = cat.units.get(i) if i == j else None
        con = hom_contraction(cat, pair, unit_label=unit)
        cons[pair] = con
        min_hom[pair] = con.min_basis
        min_weights.update(con.weights)
        if unit is not None and not cat.b_value((unit,)):
            for mlab, _ in con.min_basis:
                if con.inc[mlab] == {unit: f.one()}:
                    min_units[i] = mlab
                    break

    inc_all, proj_all, htp_all = {}, {}, {}
    for con in cons.values():
        inc_all.update(con.inc)
        proj_all.update(con.proj)
        htp_all.update(con.htp)

    unit_set = set(min_units.values())
    wcap = cat.weight_cap if cat.weights else None
    if wcap is not None and any(w < 0 for w in cat.weights.values()):
        wcap = None  # pruning assumes nonnegative weights

    trees = _Trees(cat, inc_all, htp_all, unit_set if units_strict else (),
                   min_weights, wcap)

    # composability fan-out: labels whose target is a given object
    by_tgt = {}
    info = {}
    for pair, basis in min_hom.items():
        for mlab, deg in basis:
            info[mlab] = pair
            by_tgt.setdefault(pair[1], []).append(mlab)

    min_ops = {1: {}}
    f_comps = {1: {(mlab,): dict(inc_all[mlab]) for mlab in info}}

    # depth-first enumeration of composable tuples in operator order, each
    # grown to the right (next element's target = current source) and
    # visited before its extensions.  With strict units, b_n and theta_n
    # (n >= 3) vanish on every tuple that holds a unit, so no such tuple is
    # visited.
    stack = [((start,), min_weights.get(start, 0))
             for start in sorted(info, reverse=True)]
    while stack:
        tup, wsum = stack.pop()
        if len(tup) >= 2:
            bt = apply_linear(f, proj_all, trees.tree_sum(tup))
            if bt:
                min_ops.setdefault(len(tup), {})[tup] = bt
            th = trees.theta(tup)
            if th:
                f_comps.setdefault(len(tup), {})[tup] = th
        if len(tup) == cap:
            continue
        nexts = by_tgt.get(info[tup[-1]][0], ())
        if units_strict and len(tup) >= 2:
            if any(x in unit_set for x in tup):
                continue
            nexts = [x for x in nexts if x not in unit_set]
        grown = []
        for nxt in nexts:
            w2 = wsum + min_weights.get(nxt, 0)
            if wcap is not None and w2 > wcap:
                continue
            grown.append((tup + (nxt,), w2))
        stack.extend(reversed(grown))

    # drop exactly-zero tables, keep structure of knowns
    min_ops = {n: t for n, t in min_ops.items() if n == 1 or t}
    for n in range(2, cap + 1):
        min_ops.setdefault(n, {})

    complete = False
    if (units_strict and wcap is not None and cat.complete and
            all(min_weights.get(m, 0) >= 1 for m in info
                if m not in unit_set) and cap >= wcap):
        complete = True

    min_cat = AInfCategory(
        objects=cat.objects, hom=min_hom, ops=min_ops, field=f,
        arity_cap=cap, units=min_units, complete=complete,
        weights=min_weights if cat.weights else {},
        weight_cap=wcap)
    functor = AInfMorphism(
        source=min_cat, target=cat,
        components={n: t for n, t in f_comps.items() if t},
        arity_cap=cap, complete=complete)
    return min_cat, functor, cons


def hom_dims(cat: AInfCategory):
    """Dimensions of hom spaces by (pair, degree)."""
    out = {}
    for pair, basis in cat.hom.items():
        dd = {}
        for _, deg in basis:
            dd[deg] = dd.get(deg, 0) + 1
        out[pair] = dd
    return out
