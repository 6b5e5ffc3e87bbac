"""Matrix representations of quiver algebras.

A representation assigns to each arrow an exact matrix over a FieldCtx;
everything downstream is exact linear algebra.  The module computes
moment maps for doubled quivers, whose zero fibre the preprojective
relations cut out, and realizes semisimplification as the associated graded
of the radical filtration of the acting algebra A, the image of the path
algebra.  A path from v to w maps V_v to V_w and is zero elsewhere, so A
is the direct sum of its blocks e_w A e_v, and A, its radical J and the
filtration are computed block by block, in each vertex's own coordinates.
Over the rationals J comes from the trace form of the defining module,
which pairs e_w A e_v only with e_v A e_w; over a prime field the same
endpoint is reached by an exhaustive Jordan-Hoelder computation, which
doubles as an independent oracle for the characteristic-zero path.  King
(semi)stability is decided exactly over prime fields by enumerating all
invariant subspace tuples.
"""

from __future__ import annotations

import itertools
import random as _random
from dataclasses import dataclass
from fractions import Fraction

from .field import GF, FieldCtx, QQ
from .quiver import Quiver, dimension_vector, star_name
from .ratpoly import RatPolynomial, factor_rational_poly
from .sparse import (Echelon, SparseMatrix, add_into, apply_linear, invert,
                     rank_kernel_image, solve)


class RepError(Exception):
    pass


# largest total dimension the exhaustive prime-field searches accept
BRUTEFORCE_BOUND = 6


# ---------------------------------------------------------------------------
# representations

@dataclass
class MatrixRep:
    quiver: Quiver
    d: dict                  # vertex -> dimension
    mats: dict               # arrow name -> SparseMatrix, d[tgt] x d[src]
    field: FieldCtx = QQ

    def __post_init__(self):
        self.d = dimension_vector(self.quiver.vertices, self.d)
        names = {a.name for a in self.quiver.arrows}
        extra = set(self.mats) - names
        if extra:
            raise RepError("matrices for unknown arrows %s" % sorted(extra))
        for a in self.quiver.arrows:
            m = self.mats.get(a.name)
            want = (self.d[a.tgt], self.d[a.src])
            if m is None:
                self.mats[a.name] = SparseMatrix(want[0], want[1], self.field)
            elif (m.nrows, m.ncols) != want:
                raise RepError("arrow %r wants shape %s, got %s"
                               % (a.name, want, (m.nrows, m.ncols)))

    def total_dim(self) -> int:
        return sum(self.d.values())

    def offsets(self) -> dict:
        out = {}
        pos = 0
        for v in self.quiver.vertices:
            out[v] = pos
            pos += self.d[v]
        return out


def zero_rep(q: Quiver, d, field: FieldCtx = QQ) -> MatrixRep:
    return MatrixRep(q, d, {}, field)


def random_rep(q: Quiver, seed: int, d=None, field: FieldCtx = QQ,
               max_abs: int = 9, max_total: int = 4) -> MatrixRep:
    """Deterministic random representation; Fraction entries with numerator
    and denominator bounded by max_abs, then mapped into the field."""
    rng = _random.Random(seed)
    if d is None:
        while True:
            d = {v: rng.randint(0, 2) for v in q.vertices}
            if 0 < sum(d.values()) <= max_total:
                break
    d = dimension_vector(q.vertices, d)
    mats = {}
    for a in q.arrows:
        m = SparseMatrix(d[a.tgt], d[a.src], field)
        for r in range(m.nrows):
            for c in range(m.ncols):
                if rng.random() < 0.7:
                    if field.p == 0:
                        val = field.of_fraction(
                            Fraction(rng.randint(-max_abs, max_abs),
                                     rng.randint(1, max_abs)))
                    else:
                        val = field.of_int(rng.randint(0, field.p - 1))
                    m.set(r, c, val)
        mats[a.name] = m
    return MatrixRep(q, d, mats, field)


# ---------------------------------------------------------------------------
# moment maps

def _require_doubled(rep: MatrixRep):
    arrows = {a.name: a for a in rep.quiver.arrows}
    for a in arrows.values():
        partner = arrows.get(star_name(a.name))
        if partner is None or (partner.src, partner.tgt) != (a.tgt, a.src):
            raise RepError("moment map needs a doubled-quiver representation: "
                           "quiver is not doubled: %r has no reversed partner"
                           % (a.name,))


def moment_map(rep: MatrixRep) -> dict:
    """Vertex components of sum_a [A_a, A_{a*}] over the unstarred arrows."""
    _require_doubled(rep)
    f = rep.field
    out = {v: SparseMatrix(rep.d[v], rep.d[v], f) for v in rep.quiver.vertices}
    for a in rep.quiver.arrows:
        if a.name.endswith("*"):
            continue
        st = star_name(a.name)
        out[a.tgt] = out[a.tgt].add(rep.mats[a.name].mul(rep.mats[st]))
        out[a.src] = out[a.src].add(rep.mats[st].mul(rep.mats[a.name]).neg())
    return out


# ---------------------------------------------------------------------------
# the acting algebra and its radical

# the prime of the fullness certificate in acting_algebra: below 2^15, so
# a product of two residues is still a one-digit Python int
CERTIFICATE_PRIME = 32749


def _span_blocks(quiver: Quiver, d: dict, mats: dict, f: FieldCtx,
                 full=()) -> dict:
    """(v, w) -> Echelon of the block e_w A e_v, in local (row, col) keys.

    Each block is spanned on its own: from the vertex identities and the
    arrows, every element that grows its block is multiplied on the left
    by each arrow leaving w, which reaches every path.  The blocks named
    in `full` are known to be the whole d_w x d_v matrix space: they start
    as its unit matrices, whose products are pushed like those of any
    other element.  A todo entry (v, w, arrow, m) stands for the product
    of the arrow's matrix (none: the identity) with m, in block (v, w).
    It is pushed only while that block can grow, and the product is
    formed when it is popped, only if the block still can: a block that
    is the whole matrix space cannot grow."""
    one = f.one()

    def units(v, w):
        return [{(r, c): one} for r in range(d[w]) for c in range(d[v])]

    blocks = {(v, w): Echelon(f, units(v, w) if (v, w) in full else ())
              for v in quiver.vertices for w in quiver.vertices}
    todo = []

    def push(v, w, m):
        for a in quiver.arrows_from(w):
            if blocks[v, a.tgt].dim() < d[a.tgt] * d[v]:
                todo.append((v, a.tgt, a.name, m))

    for v, w in full:
        for u in units(v, w):
            push(v, w, SparseMatrix(d[w], d[v], f, u))
    todo += [(v, v, None, SparseMatrix.identity(d[v], f))
             for v in quiver.vertices]
    todo += [(a.src, a.tgt, None, mats[a.name]) for a in quiver.arrows]
    while todo:
        v, w, arrow, m = todo.pop()
        if blocks[v, w].dim() < d[w] * d[v]:
            if arrow is not None:
                m = mats[arrow].mul(m)
            if blocks[v, w].add(m.entries):
                push(v, w, m)
    return blocks


def acting_algebra(rep: MatrixRep) -> dict:
    """Image A of the path algebra in End of the total space, block by block.

    A is the direct sum of its blocks e_w A e_v, each spanned by the
    matrices of the paths from v to w (see _span_blocks).  The result maps
    every pair (v, w) of vertices to the reduced echelon basis of e_w A e_v,
    as d_w x d_v matrices in local {(row, col): scalar} keys.

    Over the rationals the blocks that are the whole d_w x d_v matrix
    space are first certified modulo CERTIFICATE_PRIME: the worklist runs
    on the arrow matrices reduced entrywise mod p, and a block whose span
    there has dimension d_w * d_v is full over the rationals too.  The
    entries lie in Z_(p) and reduction commutes with products, so that
    span is spanned by the reductions of d_w d_v paths; the determinant of
    those paths' flattened matrices lies in Z_(p) and reduces to a nonzero
    determinant mod p, so it is nonzero over the rationals and the same
    paths span the block there.  The reduced echelon basis of a
    full block is its unit matrices, so the rational worklist spans only
    the other blocks.  When p divides a denominator there is no reduction,
    and every block is spanned over the rationals.  A block that is full
    over the rationals but not mod p is merely not certified: the rational
    worklist spans it like any other.
    """
    f = rep.field
    full = ()
    if f.p == 0:
        fp = GF(CERTIFICATE_PRIME)
        reduced = {name: _reduce_matrix(m, fp) for name, m in rep.mats.items()}
        if None not in reduced.values():
            full = {vw for vw, ech in
                    _span_blocks(rep.quiver, rep.d, reduced, fp).items()
                    if ech.dim() == rep.d[vw[1]] * rep.d[vw[0]] > 0}
    blocks = _span_blocks(rep.quiver, rep.d, rep.mats, f, full)
    return {vw: ech.basis() for vw, ech in blocks.items()}


def _trace_kernel(alg: dict, dims: dict, f: FieldCtx) -> dict:
    """(v, w) -> echelon basis of the kernel of the trace form on e_w B e_v,
    for B a subalgebra of End of the total space given by its blocks as
    acting_algebra gives them, over a field of characteristic zero; the
    blocks where the kernel is zero are left out.  The kernel is the
    Jacobson radical of B (Dickson's criterion).

    tr(ab) vanishes unless a lies in e_w B e_v and b in e_v B e_w, so the
    kernel in e_w B e_v is that of the pairing of the block with its
    opposite.  When both blocks are whole matrix spaces that pairing is
    perfect and the part is zero."""
    if f.p != 0:
        raise RepError("trace-form radical needs characteristic zero; "
                       "use the brute-force path over prime fields")
    out = {}
    for (v, w), basis in alg.items():
        opposite = alg[w, v]
        if not basis or len(basis) == len(opposite) == dims[v] * dims[w]:
            continue
        # row j: tr(a_i b_j) = sum of a_i[r, c] b_j[c, r], column i
        gram = SparseMatrix.from_rows(
            [{i: f.of_fraction(sum(x * b.get((c, r), 0)
                                   for (r, c), x in a.items()))
              for i, a in enumerate(basis)} for b in opposite],
            len(basis), f)
        kern = rank_kernel_image(gram)[1]
        if kern:
            span = dict(enumerate(basis))
            out[v, w] = Echelon(f, [apply_linear(f, span, x)
                                    for x in kern]).basis()
    return out


def radical_char0(rep: MatrixRep) -> dict:
    """(v, w) -> echelon basis of e_w J e_v, for the blocks where the
    Jacobson radical J of the acting algebra is nonzero: the kernel of
    the trace form of the defining module (_trace_kernel), exact and
    complete in characteristic zero."""
    return _trace_kernel(acting_algebra(rep), rep.d, rep.field)


def radical_filtration(rep: MatrixRep, alg: dict) -> tuple:
    """M >= JM >= J^2 M >= ... for J the radical of the acting algebra.

    alg is acting_algebra(rep), which the caller computes once and may
    read again.  layers[k] maps each vertex to the local echelon basis of
    J^k M there; an element of e_w J e_v carries the layer's vectors at v
    into the next layer at w.  The last layer is zero."""
    f = rep.field
    rad = [(v, w, SparseMatrix(rep.d[w], rep.d[v], f, j))
           for (v, w), part in _trace_kernel(alg, rep.d, f).items()
           for j in part]
    layers = [{v: [{i: f.one()} for i in range(rep.d[v])]
               for v in rep.quiver.vertices}]
    while any(layers[-1].values()):
        cur = layers[-1]
        echs = {v: Echelon(f) for v in rep.quiver.vertices}
        for v, w, j in rad:
            for vec in cur[v]:
                echs[w].add(j.matvec(vec))
        nxt = {v: ech.basis() for v, ech in echs.items()}
        if sum(map(len, nxt.values())) >= sum(map(len, cur.values())):
            raise RepError("radical filtration failed to decrease")
        layers.append(nxt)
    return tuple(layers)


# ---------------------------------------------------------------------------
# semisimplification

def _adapted_basis(rep: MatrixRep, layers: tuple) -> tuple:
    """(g, depth): per vertex, the matrix whose columns are a basis adapted
    to the filtration (layer by layer, echelon order inside each layer),
    and the layer of each column."""
    f = rep.field
    gmats = {}
    depth = {}
    for v in rep.quiver.vertices:
        chosen = []
        depth[v] = []
        for k in range(len(layers) - 1):
            # reduce layer k only against layer k+1 (and residuals already
            # taken in this layer): each residual then still lies in F_k,
            # and vectors from distinct layers are independent anyway
            below = Echelon(f, layers[k + 1][v])
            for vec in layers[k][v]:
                red = below.reduce(vec)
                if red:
                    below.add(red)
                    chosen.append(red)
                    depth[v].append(k)
        if len(chosen) != rep.d[v]:
            raise RepError("adapted basis does not span vertex %r" % (v,))
        g = SparseMatrix(rep.d[v], rep.d[v], f)
        for col, vec in enumerate(chosen):
            for r, x in vec.items():
                g.set(r, col, x)
        gmats[v] = g
    return gmats, depth


def _graded(m: SparseMatrix, rows: list, cols: list) -> tuple:
    """(part, stable): the entries of m between basis vectors of equal
    depth (rows and cols list the depths), and whether m maps no basis
    vector into a shallower one."""
    part = SparseMatrix(m.nrows, m.ncols, m.field)
    stable = True
    for (r, c), val in m.entries.items():
        if rows[r] == cols[c]:
            part.entries[r, c] = val
        elif rows[r] < cols[c]:
            stable = False
    return part, stable


def semisimplify(rep: MatrixRep) -> tuple:
    """(ss, layer_dims, semisimple): the semisimplification, its radical
    layers, and whether ss is certified semisimple.

    Over the rationals ss is the associated graded of radical_filtration,
    in a deterministic adapted basis g (layer by layer, echelon order
    inside each layer), and layer_dims lists {vertex: dim} for each layer.
    ss has the dimension vector and Jordan-Hoelder multiset of rep.

    semisimple is read off the acting algebra A of rep, computed once.
    When every arrow keeps the layers F_k = J^k M (no entry of g^-1 M_a g
    maps a vector of depth k into a shallower one), so does A, and taking
    the depth-diagonal part of g^-1 x g is an algebra map gr from A to
    End(ss).  Its image holds the images of the vertex identities and the
    arrows, so it is the acting algebra of ss, spanned block by block by
    gr of A's basis.  In characteristic zero ss is semisimple exactly when
    the trace form on that image has zero kernel, and a representation
    with zero radical semisimplifies to itself: semisimple is true exactly
    when a second run would return the identical matrices.

    Over a prime field ss is the exhaustive Jordan-Hoelder oracle's
    endpoint, layer_dims is None, and semisimple says that the oracle
    returns ss unchanged on ss.
    """
    f = rep.field
    if f.p != 0:
        ss = ss_bruteforce(rep)
        again = ss_bruteforce(ss)
        return ss, None, all(again.mats[a].entries == m.entries
                             for a, m in ss.mats.items())
    alg = acting_algebra(rep)
    layers = radical_filtration(rep, alg)
    gmats, depth = _adapted_basis(rep, layers)
    ginv = {v: invert(gmats[v]) for v in rep.quiver.vertices}
    mats = {}
    stable = True
    for a in rep.quiver.arrows:
        m = ginv[a.tgt].mul(rep.mats[a.name]).mul(gmats[a.src])
        mats[a.name], keeps = _graded(m, depth[a.tgt], depth[a.src])
        stable = stable and keeps
    image = {}
    for (v, w), basis in alg.items():
        ech = Echelon(f)
        for x in basis:
            m = ginv[w].mul(SparseMatrix(rep.d[w], rep.d[v], f, x))
            m = m.mul(gmats[v])
            ech.add(_graded(m, depth[w], depth[v])[0].entries)
        image[v, w] = ech.basis()
    semisimple = stable and not _trace_kernel(image, rep.d, f)
    layer_dims = tuple({v: len(bs) for v, bs in layer.items()}
                       for layer in layers)
    return (MatrixRep(rep.quiver, dict(rep.d), mats, f), layer_dims,
            semisimple)


# ---------------------------------------------------------------------------
# subrepresentations, restrictions, quotients

def restrict_rep(rep: MatrixRep, spaces: dict) -> MatrixRep:
    """Subrepresentation on invariant subspaces (echelon bases per vertex)."""
    f = rep.field
    echs = {v: Echelon(f, spaces.get(v, [])) for v in rep.quiver.vertices}
    d = {v: echs[v].dim() for v in rep.quiver.vertices}
    order = {v: sorted(echs[v].rows) for v in rep.quiver.vertices}
    mats = {}
    for a in rep.quiver.arrows:
        m = SparseMatrix(d[a.tgt], d[a.src], f)
        for col, piv in enumerate(order[a.src]):
            img = rep.mats[a.name].matvec(echs[a.src].rows[piv])
            coeffs = echs[a.tgt].coefficients(img)
            if coeffs is None:
                raise RepError("subspaces are not invariant under %r"
                               % (a.name,))
            for p, c in coeffs.items():
                m.set(order[a.tgt].index(p), col, c)
        mats[a.name] = m
    return MatrixRep(rep.quiver, d, mats, f)


def quotient_rep(rep: MatrixRep, spaces: dict) -> MatrixRep:
    """Quotient by invariant subspaces, on the non-pivot coordinates."""
    f = rep.field
    echs = {v: Echelon(f, spaces.get(v, [])) for v in rep.quiver.vertices}
    coords = {v: [i for i in range(rep.d[v]) if i not in echs[v].rows]
              for v in rep.quiver.vertices}
    d = {v: len(coords[v]) for v in rep.quiver.vertices}
    mats = {}
    for a in rep.quiver.arrows:
        m = SparseMatrix(d[a.tgt], d[a.src], f)
        pos = {i: k for k, i in enumerate(coords[a.tgt])}
        for col, i in enumerate(coords[a.src]):
            img = rep.mats[a.name].matvec({i: f.one()})
            red = echs[a.tgt].reduce(img)
            for r, val in red.items():
                if r not in pos:
                    raise RepError("quotient reduction left a pivot entry")
                m.set(pos[r], col, val)
        mats[a.name] = m
    return MatrixRep(rep.quiver, d, mats, f)


def subspaces_fp(dim: int, p: int):
    """All subspaces of F_p^dim as tuples of reduced echelon rows (dicts),
    ordered by dimension then by encoding."""
    yield ()
    for k in range(1, dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            free = []
            for i, piv in enumerate(pivots):
                for c in range(piv + 1, dim):
                    if c not in pivots:
                        free.append((i, c))
            for vals in itertools.product(range(p), repeat=len(free)):
                rows = [{pivots[i]: 1} for i in range(k)]
                for (i, c), val in zip(free, vals):
                    if val:
                        rows[i][c] = val
                yield tuple(rows)


def _space_key(rows):
    return (len(rows), tuple(tuple(sorted(r.items())) for r in rows))


def invariant_subspace_tuples(rep: MatrixRep):
    """All invariant subspace tuples over a prime field, ordered by total
    dimension then encoding; includes the zero and full tuples.

    A tuple (S_v) is invariant exactly when every arrow a: v -> w maps S_v
    into S_w.  Each of those conditions depends on two chosen subspaces
    only, so tuples grow one vertex at a time in quiver order, each arrow is
    tested as soon as both its ends have a subspace (a loop at its own
    vertex), and a prefix that fails a test is never extended: the pruning
    loses no invariant tuple.  The survivors are then sorted."""
    f = rep.field
    if f.p == 0:
        raise RepError("subspace enumeration needs a prime field")
    vs = list(rep.quiver.vertices)
    pos = {v: k for k, v in enumerate(vs)}
    spaces = [list(subspaces_fp(rep.d[v], f.p)) for v in vs]
    mats = [rep.mats[a.name] for a in rep.quiver.arrows]
    # due[k]: (arrow, source position, target position) of the arrows
    # whose later end is vertex k
    due = [[] for _ in vs]
    for n, a in enumerate(rep.quiver.arrows):
        s, t = pos[a.src], pos[a.tgt]
        due[max(s, t)].append((n, s, t))
    echelons, images = {}, {}

    def maps_into(n, s, i, t, j):
        """Does arrow n map subspace i at vertex s into subspace j at t?
        Images are computed as the test reaches them, and kept."""
        if (t, j) not in echelons:
            echelons[t, j] = Echelon(f, spaces[t][j])
        ech = echelons[t, j]
        imgs = images.setdefault((n, i), [])
        for m, vec in enumerate(spaces[s][i]):
            if m == len(imgs):
                imgs.append(mats[n].matvec(vec))
            if ech.reduce(imgs[m]):
                return False
        return True

    found = [()]
    for k in range(len(vs)):
        found = [tup for pre in found
                 for tup in (pre + (j,) for j in range(len(spaces[k])))
                 if all(maps_into(n, s, tup[s], t, tup[t])
                        for n, s, t in due[k])]
    chosen = [[spaces[k][i] for k, i in enumerate(tup)] for tup in found]
    chosen.sort(key=lambda rows: (sum(map(len, rows)),
                                  tuple(map(_space_key, rows))))
    for rows in chosen:
        yield sum(map(len, rows)), dict(zip(vs, rows))


def jh_bruteforce(rep: MatrixRep) -> list:
    """Jordan-Hoelder factors by exhaustive minimal-submodule search."""
    if rep.field.p == 0:
        raise RepError("the exhaustive oracle needs a prime field")
    if rep.total_dim() > BRUTEFORCE_BOUND:
        raise RepError("total dimension %d exceeds bound %d"
                       % (rep.total_dim(), BRUTEFORCE_BOUND))
    if rep.total_dim() == 0:
        return []
    for total, spaces in invariant_subspace_tuples(rep):
        if total == 0:
            continue
        sub = restrict_rep(rep, spaces)
        if total == rep.total_dim():
            return [sub]
        return [sub] + jh_bruteforce(quotient_rep(rep, spaces))
    raise RepError("no invariant subspace found")


def _rep_sort_key(rep: MatrixRep):
    dims = tuple(rep.d[v] for v in rep.quiver.vertices)
    ents = tuple(sorted((a.name, r, c, int(v))
                        for a in rep.quiver.arrows
                        for (r, c), v in rep.mats[a.name].entries.items()))
    return (rep.total_dim(), dims, ents)


def direct_sum(reps, quiver: Quiver, field: FieldCtx) -> MatrixRep:
    d = {v: sum(r.d[v] for r in reps) for v in quiver.vertices}
    mats = {}
    for a in quiver.arrows:
        m = SparseMatrix(d[a.tgt], d[a.src], field)
        ro = co = 0
        for r in reps:
            for (i, j), v in r.mats[a.name].entries.items():
                m.set(ro + i, co + j, v)
            ro += r.d[a.tgt]
            co += r.d[a.src]
        mats[a.name] = m
    return MatrixRep(quiver, d, mats, field)


def ss_bruteforce(rep: MatrixRep) -> MatrixRep:
    """Direct sum of the Jordan-Hoelder factors in canonical order."""
    factors = jh_bruteforce(rep)
    factors.sort(key=_rep_sort_key)
    return direct_sum(factors, rep.quiver, rep.field)


def _reduce_matrix(m: SparseMatrix, fp: FieldCtx):
    """m reduced entrywise into fp, or None when fp.p divides the
    denominator of an entry."""
    red = SparseMatrix(m.nrows, m.ncols, fp)
    for (r, c), v in m.entries.items():
        if v.denominator % fp.p == 0:
            return None
        red.set(r, c, fp.of_fraction(v))
    return red


def good_reduction(rep: MatrixRep, p: int):
    """(reduced rep, "ok"), or (None, reason) when p divides a denominator
    or collapses the rank of an arrow matrix."""
    if rep.field.p != 0:
        raise RepError("reduction starts from a rational representation")
    fp = GF(p)
    mats = {}
    for a in rep.quiver.arrows:
        m = rep.mats[a.name]
        red = _reduce_matrix(m, fp)
        if red is None:
            return None, "denominator of %r entry divisible by %d" % (a.name, p)
        if rank_kernel_image(red)[0] != rank_kernel_image(m)[0]:
            return None, "rank of %r collapses mod %d" % (a.name, p)
        mats[a.name] = red
    return MatrixRep(rep.quiver, dict(rep.d), mats, fp), "ok"


# ---------------------------------------------------------------------------
# homs and isotypic decomposition

def hom_space(r1: MatrixRep, r2: MatrixRep) -> list:
    """Echelon basis of intertwiners r1 -> r2 as {vertex: SparseMatrix}."""
    if r1.quiver is not r2.quiver and r1.quiver != r2.quiver:
        raise RepError("intertwiners need a common quiver")
    f = r1.field
    cols = {}
    for v in r1.quiver.vertices:
        for r in range(r2.d[v]):
            for c in range(r1.d[v]):
                cols[(v, r, c)] = len(cols)
    rows = []
    for a in r1.quiver.arrows:
        for r in range(r2.d[a.tgt]):
            for c in range(r1.d[a.src]):
                row = {}
                for (i, j), val in r1.mats[a.name].entries.items():
                    if j == c:
                        add_into(f, row, cols[(a.tgt, r, i)], val)
                for (i, j), val in r2.mats[a.name].entries.items():
                    if i == r:
                        add_into(f, row, cols[(a.src, j, c)], f.neg(val))
                if row:
                    rows.append(row)
    if not rows:
        kern = [{i: f.one()} for i in range(len(cols))]
    else:
        kern = rank_kernel_image(SparseMatrix.from_rows(rows, len(cols), f))[1]
    index = {i: key for key, i in cols.items()}
    out = []
    for kv in kern:
        blocks = {v: SparseMatrix(r2.d[v], r1.d[v], f)
                  for v in r1.quiver.vertices}
        for i, val in kv.items():
            v, r, c = index[i]
            blocks[v].set(r, c, val)
        out.append(blocks)
    return out


def _block_minpoly(rep: MatrixRep, blocks: dict) -> RatPolynomial:
    """Minimal polynomial of a per-vertex block endomorphism, via the first
    linear dependence among its flattened powers."""
    f = rep.field
    if f.p != 0:
        raise RepError("minimal polynomials are computed over the rationals")
    off = rep.offsets()
    n = rep.total_dim()
    gen = SparseMatrix(n, n, f)
    for v, m in blocks.items():
        for (r, c), val in m.entries.items():
            gen.entries[(off[v] + r, off[v] + c)] = val
    powers = [SparseMatrix.identity(n, f)]
    while True:
        power = powers[-1].mul(gen)
        m = len(powers)
        cols = SparseMatrix(n * n, m, f)
        for k, pw in enumerate(powers):
            for (r, c), val in pw.entries.items():
                cols.set(r * n + c, k, val)
        rhs = {r * n + c: val for (r, c), val in power.entries.items()}
        sol = solve(cols, rhs)
        if sol is not None:
            coeffs = [-sol.get(k, f.zero()) for k in range(m)] + [Fraction(1)]
            return RatPolynomial.of([Fraction(c) for c in coeffs])
        powers.append(power)


def _apply_poly(rep: MatrixRep, blocks: dict, poly: RatPolynomial) -> dict:
    f = rep.field
    out = {}
    for v, m in blocks.items():
        n = rep.d[v]
        acc = SparseMatrix(n, n, f)
        for k in range(poly.degree, -1, -1):
            acc = acc.mul(m) if k < poly.degree else acc
            c = f.of_fraction(poly.coeff(k))
            acc = acc.add(SparseMatrix.identity(n, f).scale(c))
        out[v] = acc
    return out


@dataclass
class IsotypicBlock:
    simple: MatrixRep
    multiplicity: int
    endo_dim: int
    status: str              # "split" | "galois" | "undecided"
    min_poly: RatPolynomial = None


def _split_candidates(basis):
    for b in basis:
        yield b
    for i, b1 in enumerate(basis):
        for b2 in basis[i + 1:]:
            yield _blocks_combine(b1, b2, 1)
            yield _blocks_combine(b1, b2, -1)
            yield _blocks_mul(b1, b2)


def _blocks_combine(b1, b2, c):
    out = {}
    for v in b1:
        out[v] = b1[v].add(b2[v].scale(b1[v].field.of_int(c)))
    return out


def _blocks_mul(b1, b2):
    return {v: b1[v].mul(b2[v]) for v in b1}


def _decompose_semisimple(rep: MatrixRep) -> list:
    """Split a semisimple rational rep into simple pieces, honestly: each
    piece carries a status telling whether it was fully split over the
    rationals, is simple with a genuine field of endomorphisms (galois),
    or resisted the deterministic idempotent search (undecided)."""
    if rep.total_dim() == 0:
        return []
    comm = hom_space(rep, rep)
    if len(comm) == 1:
        return [(rep, "split", None, 1)]
    for cand in _split_candidates(comm):
        mp = _block_minpoly(rep, cand)
        if mp.degree < 1:
            continue
        _, factors = factor_rational_poly(mp)
        if len(factors) == 1 and factors[0][1] == 1:
            continue
        g = factors[0][0]
        proj = _apply_poly(rep, cand, g)
        spaces = {}
        for v in rep.quiver.vertices:
            kern = rank_kernel_image(proj[v])[1]
            spaces[v] = kern
        total = sum(len(s) for s in spaces.values())
        if total == 0 or total == rep.total_dim():
            continue
        sub = restrict_rep(rep, spaces)
        quo = quotient_rep(rep, spaces)
        return _decompose_semisimple(sub) + _decompose_semisimple(quo)
    # no rational split: field of endomorphisms, or an undecided block
    center = _commutant_center(rep, comm)
    for cand in center:
        mp = _block_minpoly(rep, cand)
        if mp.degree == len(comm):
            _, factors = factor_rational_poly(mp)
            if len(factors) == 1 and factors[0][1] == 1:
                return [(rep, "galois", factors[0][0], len(comm))]
    return [(rep, "undecided", None, len(comm))]


def _commutant_center(rep: MatrixRep, comm) -> list:
    """Central elements of the commutant, as candidate field generators:
    basis elements plus small combinations, filtered by centrality."""
    f = rep.field
    out = []
    cands = list(comm)
    for i, b1 in enumerate(comm):
        for b2 in comm[i + 1:]:
            cands.append(_blocks_combine(b1, b2, 1))
            cands.append(_blocks_combine(b1, b2, 2))
    for cand in cands:
        if all(_blocks_equal(_blocks_mul(cand, b), _blocks_mul(b, cand))
               for b in comm):
            out.append(cand)
    return out


def _blocks_equal(b1, b2) -> bool:
    return all(b1[v].add(b2[v].neg()).is_zero() for v in b1)


def isotypic_decompose(rep: MatrixRep) -> list:
    """Isotypic pieces of a semisimple representation with multiplicities.

    Requires zero radical.  Pieces whose splitting would need a proper
    field extension are reported as galois blocks with their minimal
    polynomial rather than silently mis-split.
    """
    f = rep.field
    if f.p != 0:
        # socle count: dim Hom(ss, M) = dim Hom(ss, soc M) reaches
        # dim End(ss) exactly when soc M carries the full multiplicity
        # of every simple, which forces soc M = M
        ss = ss_bruteforce(rep)
        if len(hom_space(ss, rep)) != len(hom_space(ss, ss)):
            raise RepError("isotypic decomposition needs zero radical")
        pieces = [(s, "split", None, None) for s in jh_bruteforce(rep)]
    else:
        if radical_char0(rep):
            raise RepError("isotypic decomposition needs zero radical")
        pieces = _decompose_semisimple(rep)
    blocks = []
    for piece, status, mp, endo in pieces:
        matched = False
        for blk in blocks:
            if blk.status == "undecided" or status == "undecided":
                continue
            if blk.simple.total_dim() != piece.total_dim():
                continue
            if hom_space(piece, blk.simple):
                blk.multiplicity += 1
                matched = True
                break
        if not matched:
            endo_dim = endo if endo is not None else len(hom_space(piece, piece))
            blocks.append(IsotypicBlock(piece, 1, endo_dim, status, mp))
    total = sum(b.multiplicity * b.simple.total_dim() for b in blocks)
    if total != rep.total_dim():
        raise RepError("isotypic pieces do not add up")
    return blocks


# ---------------------------------------------------------------------------
# stability

def slope(d: dict, zeta: dict) -> Fraction:
    """The King slope sum zeta_v d_v / sum d_v of a dimension vector, for
    zeta a {vertex: Fraction} map; a vertex zeta leaves out weighs 0."""
    total = sum(d.values())
    if total == 0:
        raise RepError("slope of the zero dimension vector")
    return Fraction(sum(zeta.get(v, 0) * n for v, n in d.items()), total)


@dataclass
class StabilityReport:
    verdict: str             # "stable" | "semistable" | "unstable"
    slope: Fraction
    destabilizer: dict = None    # {vertex: echelon rows} when unstable
    destabilizer_dims: dict = None


def semistable_bruteforce(rep: MatrixRep, zeta: dict) -> StabilityReport:
    """Exact King (semi)stability over a prime field by enumerating every
    invariant subspace tuple; unstable verdicts carry a maximal-slope
    destabilizer."""
    if rep.field.p == 0:
        raise RepError("the brute-force stability check needs a prime field")
    if rep.total_dim() > BRUTEFORCE_BOUND:
        raise RepError("total dimension %d exceeds bound %d"
                       % (rep.total_dim(), BRUTEFORCE_BOUND))
    mu = slope(rep.d, zeta)
    tight = False
    worst = None
    for total, spaces in invariant_subspace_tuples(rep):
        if total == 0 or total == rep.total_dim():
            continue
        sd = {v: len(spaces[v]) for v in rep.quiver.vertices}
        s = slope(sd, zeta)
        if s > mu:
            key = (-s, total, tuple(_space_key(spaces[v])
                                    for v in rep.quiver.vertices))
            if worst is None or key < worst[0]:
                worst = (key, spaces, sd)
        elif s == mu:
            tight = True
    if worst is not None:
        _, spaces, sd = worst
        return StabilityReport("unstable", mu, spaces, sd)
    return StabilityReport("semistable" if tight else "stable", mu)
