"""Length-windowed Hochschild and cyclic complexes of a finite dg category.

Chains of length n are tuples (a_1, ..., a_n) of hom-basis labels in
operator order (src(a_k) = tgt(a_{k+1})) closing up cyclically
(src(a_n) = tgt(a_1)).  The total degree is sum |a_k| - n + 1: every tensor
factor is shifted and the whole chain is shifted back once, which makes the
length-1 convention (plain endomorphism spaces) the n = 1 case of the same
formula rather than a special seam.

The differential is b = b_1 + d_Hoch where d_Hoch contracts adjacent pairs
with b_2 plus one wraparound term through the cyclic permutation F_n (the
last factor moved to the front); every sign is a rule of signs.py on the
shifted factor degrees.  b never raises length, so a window of lengths
1..N is a subcomplex and the reported homology is exact for the window;
the stability flag records whether growing the window moves the reported
part.

Each column of b and of B is computed once per window.  The window keeps
the column of a chain (b or B of it with coefficient one) from the first
time the chain is used: windowed_homology eliminates these columns, and
hochschild_b and connes_B return sums of them, so the CLI's identity
checks reread what the homology computed.  check_chain runs only on
chains that have no kept column in the memo being read, and the units are
checked once per window.

Both reports come from at most one elimination per block of the
window-(N+1) complex.  The b-columns enter in order of chain length, and
target chains are keyed longest first, so the pivot of a row is the
longest chain in it: the pivots of length <= n count the boundaries of
length <= n.  The pivot set only grows as columns are added, so the
pivots present after the columns of length <= N are those of the
window-N complex.  An elimination runs only as far as the reported
lengths <= cap = N - margin read it: the columns of length <= cap give
the cycle counts, and the longer ones enter only where a reported
boundary can have its pivot.  The stored b_1 and b_2 of path and bar
categories keep total weight (a chain weighs the sum of its labels'
weights), so b splits by (degree, weight): a longer column enters only
when the block of the next degree and its own weight holds a chain of
length <= cap.  Weights are >= 0, so a chain heavier than every chain of
length <= cap is read by no report and is never built.  Where the weights
are absent, negative or not kept by b, every chain weighs 0 and the
blocks are the degrees alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dc_field

from .ainf import AInfCategory, check_relations
from .signs import block_sign, rotations
from .sparse import Echelon, add_into, apply_linear


class HochschildError(Exception):
    pass


@dataclass
class HochschildChainWindow:
    """The chains of lengths 1..max_length of cat, with their b- and
    B-columns.

    The column of b (of B) on a chain is b (B) of that chain with
    coefficient one, {chain: coefficient}; _b (_B) keeps it from the first
    time the chain is used, and a chain with a kept column needs no
    check_chain.  The b_1 and b_2 tables, the shifted parity and the
    (source, target) of every label and whether every object has a unit
    are read once, here."""
    cat: AInfCategory
    max_length: int
    _bases: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.max_length < 1:
            raise HochschildError("window needs max_length >= 1")
        cat = self.cat
        higher = [n for n in cat.known_arities()
                  if n >= 3 and cat.op_table(n)]
        if higher:
            raise HochschildError(
                "the windowed complex implements the dg differential; "
                "input has operations of arity %s" % higher)
        self._b1, self._b2 = cat.op_table(1) or {}, cat.op_table(2) or {}
        self._parity = {lab: cat.sdeg(lab) & 1 for lab in cat.labels()}
        self._ends = {lab: ends for ends, basis in cat.hom.items()
                      for lab, _ in basis}
        self._units = set(cat.units) == set(cat.objects)
        self._one = cat.field.one()
        self._b, self._B = {}, {}

    def basis(self, n: int):
        """All cyclically composable chains of length n, sorted."""
        if n < 1 or n > self.max_length:
            raise HochschildError("length %d outside window 1..%d"
                                  % (n, self.max_length))
        if n not in self._bases:
            self._bases[n] = cyclic_chains(self.cat, n)
        return self._bases[n]

    def check_chain(self, chain) -> None:
        ends = self._ends
        for tup in chain:
            if not 1 <= len(tup) <= self.max_length:
                raise HochschildError("chain length %d outside window"
                                      % len(tup))
            try:
                # src(a_k) = tgt(a_{k+1}), and src(a_n) = tgt(a_1)
                src = ends[tup[-1]][0]
                for lab in tup:
                    nxt, tgt = ends[lab]
                    if tgt != src:
                        raise HochschildError(
                            "chain %s not cyclically composable" % (tup,))
                    src = nxt
            except KeyError as e:
                raise HochschildError("chain %s names label %r the category"
                                      " lacks" % (tup, e.args[0])) from None

    def _admit(self, chain, cols: dict) -> None:
        """check_chain on the chains without a kept column in cols."""
        self.check_chain([tup for tup in chain if tup not in cols])

    def _column(self, memo: dict, terms, tup) -> dict:
        """memo[tup], the column of terms (_b_terms or _B_terms) on a
        cyclically composable tup, computed if missing and kept when tup
        is a chain of the window.  Not to be mutated."""
        col = memo.get(tup)
        if col is None:
            f, col = self.cat.field, {}
            for out, c in terms(self, tup, self._one):
                add_into(f, col, out, c)
            if len(tup) <= self.max_length:
                memo[tup] = col
        return col


def cyclic_chains(cat: AInfCategory, n: int, weight=None, budget=None):
    """The cyclically composable chains of length n, sorted.  Given a map
    weight from labels to weights >= 0 and a budget, only those whose
    weight, the sum over their factors, is at most budget: a partial chain
    is dropped as soon as it is heavier."""
    if budget is None:
        weight, budget = dict.fromkeys(cat.labels(), 0), 0
    labels = sorted(cat.labels())
    # (target of the first factor, source of the last, weight) -> chains,
    # sorted: chains grow at the front, label by label in order
    groups = {}
    for lab in labels:
        if weight[lab] <= budget:
            groups.setdefault((cat.tgt(lab), cat.src(lab), weight[lab]),
                              []).append((lab,))
    for _ in range(n - 1):
        after = {}          # object -> groups whose first factor ends there
        for (first, last, w), tups in groups.items():
            after.setdefault(first, []).append((last, w, tups))
        groups = {}
        for lab in labels:
            v = weight[lab]
            for last, w, tups in after.get(cat.src(lab), ()):
                if v + w <= budget:
                    groups.setdefault((cat.tgt(lab), last, v + w), []).extend(
                        [(lab,) + tup for tup in tups])
    # a few sorted runs, which sorted merges
    return sorted(tup for (first, last, _w), tups in groups.items()
                  if first == last for tup in tups)


def hochschild_b(window: HochschildChainWindow, chain: dict) -> dict:
    """b = b_1 + d_Hoch; lowers length by at most one.  A new dict: the sum
    of the kept b-columns of the chain's chains."""
    cols = window._b
    if not chain.keys() <= cols.keys():
        window._admit(chain, cols)
        for tup in chain:
            window._column(cols, _b_terms, tup)
    return _image(window, cols, chain)


def _image(window: HochschildChainWindow, cols: dict, chain: dict) -> dict:
    """sum c * cols[tup] over the chain, as a new dict."""
    if len(chain) == 1:
        [(tup, c)] = chain.items()
        if c == window._one:
            return dict(cols[tup])
    return apply_linear(window.cat.field, cols, chain)


def _b_terms(window: HochschildChainWindow, tup, coeff):
    """The terms (chain, coefficient) of b on coeff * tup, for a cyclically
    composable tup; no checks, and a chain may come more than once.  This
    is the one place where the terms of b and their signs are written."""
    f, parity = window.cat.field, window._parity
    b1, b2 = window._b1, window._b2
    last = len(tup) - 1
    neg = f.neg(coeff)
    # b_1 on the factor r and b_2 on the factors r, r + 1, past the prefix
    # tup[:r] of shifted parity odd
    odd = 0
    for r, x in enumerate(tup):
        c = neg if odd else coeff
        out = b1.get((x,)) if b1 else None
        if out:
            for z, cz in out.items():
                yield tup[:r] + (z,) + tup[r + 1:], f.mul(c, cz)
        if r < last:
            out = b2.get(tup[r:r + 2])
            if out:
                for z, cz in out.items():
                    yield tup[:r] + (z,) + tup[r + 2:], f.mul(c, cz)
        elif r:
            # wraparound: b_2 on the first two factors of F_n(tup), where
            # odd is the parity of tup[:-1]
            out = b2.get((x, tup[0]))
            if out:
                c = coeff if block_sign(parity[x], odd) > 0 else neg
                for z, cz in out.items():
                    yield (z,) + tup[1:-1], f.mul(c, cz)
        odd ^= parity[x]


def connes_B(window: HochschildChainWindow, chain: dict) -> dict:
    """Connes operator B = (1 - F)(eta (x) -)N; raises length by 1.  A new
    dict: the sum of the kept B-columns of the chain's chains."""
    cols = window._B
    # while the memo is empty the units are not yet checked
    if not (cols and chain.keys() <= cols.keys()):
        window._admit(chain, cols)
        if not window._units:
            raise HochschildError("Connes operator needs designated units")
        for tup in chain:
            if len(tup) + 1 > window.max_length:
                raise HochschildError(
                    "insufficient window: length %d chain needs max_length"
                    " >= %d" % (len(tup), len(tup) + 1))
            window._column(cols, _B_terms, tup)
    return _image(window, cols, chain)


def _B_terms(window: HochschildChainWindow, tup, coeff):
    """The terms of B on coeff * tup, for a cyclically composable tup; the
    one place where the terms of B and their signs are written.

    N averages over all rotations of the chain, eta inserts the unit of the
    matching object in front, and the extra rotation of the widened chain
    enters with a minus sign; B^2 = bB + Bb = 0 pins the sign.
    """
    cat, parity = window.cat, window._parity
    neg = cat.field.neg(coeff)
    degs = [parity[lab] for lab in tup]
    total = sum(degs)
    for rot, rsign in rotations(tup, degs):
        unit = cat.units[cat.tgt(rot[0])]
        yield (unit,) + rot, coeff if rsign > 0 else neg
        # F on (unit,) + rot moves rot's last factor past the rest
        last = parity[rot[-1]]
        s2 = block_sign(last, total - last + parity[unit])
        yield (rot[-1], unit) + rot[:-1], neg if rsign * s2 > 0 else coeff


# ---------------------------------------------------------------------------
# windowed homology

@dataclass
class WindowedHomology:
    dims: dict              # (length, degree) -> dim of the length-graded piece
    by_degree: dict         # degree -> total dim over reported lengths
    stable: bool            # True when window growth leaves the report fixed


def windowed_homology(window: HochschildChainWindow,
                      length_margin: int = 1) -> WindowedHomology:
    """Homology of the window subcomplex, refined by the length filtration.

    Reported lengths stop at cap = max_length - length_margin.  Each
    (length, degree) entry is the graded dimension F_n H / F_{n-1} H for
    the filtration by chain length; summing over lengths gives the homology
    of the window complex in that degree.

    One elimination per block gives every length cap of both the window
    and its growth by one, which the stability flag compares.  The
    columns of b on the chains of a block of degree d of the window-(N+1)
    complex enter one Echelon in order of length, keyed longest chain
    first, so a pivot is the longest chain of its row; summed over the
    blocks of degree d:
      * dim Z_n in degree d is the number of columns of length <= n that
        the echelon already spanned;
      * the rows whose pivot has length <= n span the boundaries of
        length <= n in degree d + 1, so dim (B ∩ F_n) counts them;
      * pivots are never removed, so the pivots present once the columns
        of length <= N are in are those of the window-N complex.
    dim F_n H = dim Z_n - dim (B ∩ F_n).

    When every stored entry of b_1 and b_2 weighs what its inputs weigh
    together, b keeps the total weight of a chain, and the elimination of
    degree d is the direct sum of one per weight w: a column of weight w
    reduces only against rows of weight w, and its pivot has weight w.
    So blocks are (degree, weight) pairs, eliminated apart, and block
    (d, w) is eliminated only as far as the report reads it:
      * whether a column is spanned depends only on the columns before
        it, so the cycle counts of block (d, w) are fixed once its
        columns of length <= cap are in;
      * a boundary count reads a pivot of length <= cap, and such a pivot
        is a chain of block (d + 1, w), so when that block has no chain
        of length <= cap (its first chain is its shortest) the longer
        columns of block (d, w) are not needed, for the window or its
        growth.
    So those blocks take only their columns of length <= cap, and a block
    with none is skipped.  Weights are >= 0, so a chain longer than cap
    and heavier than every chain of length <= cap lies in a block that
    takes no long column: the enumeration drops it while it grows.  When
    cat.weights is empty, has a negative value, or some stored entry is
    not weight-homogeneous, every chain weighs 0 and the blocks are the
    degrees alone, in the same code.
    """
    if length_margin < 1:
        raise HochschildError("length_margin must be >= 1")
    cat = window.cat
    rep = check_relations(cat)
    if not rep.ok:
        raise HochschildError("input category fails its structure "
                              "relations: %s" % (rep.witnesses[:2],))
    shifted = {lab: cat.sdeg(lab) for lab in cat.labels()}
    weight = _check_gradings(cat, shifted)
    top = window.max_length
    cap = top - length_margin
    # (degree, weight) -> chains of the window-(N+1) complex, shortest
    # first: every chain of length <= cap, and the longer ones no heavier
    # than the heaviest of those
    blocks, budget = {}, None
    for n in range(1, top + 2):
        if n > cap and budget is None:
            budget = max((w for _deg, w in blocks), default=-1)
        for tup in (window.basis(n) if n <= cap
                    else cyclic_chains(cat, n, weight, budget)):
            blocks.setdefault((sum(map(shifted.__getitem__, tup)) + 1,
                               sum(map(weight.__getitem__, tup))),
                              []).append(tup)
    f = cat.field
    # degree -> [dim Z_n - dim Z_{n-1} for n = 0..cap], and the same for
    # B ∩ F_n in the window-N and the window-(N+1) complex
    cycles, bounds = {}, ({}, {})
    for (deg, w), tups in blocks.items():
        tgt_tups = blocks.get((deg + 1, w), ())
        # blocks are shortest chain first, so block (deg + 1, w) holds a
        # chain of length <= cap exactly when its first chain is that short
        if not tgt_tups or len(tgt_tups[0]) > cap:
            tups = tups[:bisect_right(tups, cap, key=len)]
            if not tups:
                continue
        # keys count down, so the least key of a row, its pivot, is its
        # longest chain
        tgt = {tup: -i for i, tup in enumerate(tgt_tups)}
        ech = Echelon(f)
        z = cycles.setdefault(deg, [0] * (cap + 1))
        split = bisect_right(tups, top, key=len)
        for part, bound in ((tups[:split], bounds[0]), (tups[split:], bounds[1])):
            for tup in part:
                col = {tgt[out]: c for out, c in
                       window._column(window._b, _b_terms, tup).items()}
                # a zero column is a cycle without an elimination step
                if not (col and ech.add(col)) and len(tup) <= cap:
                    z[len(tup)] += 1
            b = bound.setdefault(deg + 1, [0] * (cap + 1))
            for piv in ech.rows:
                if len(tgt_tups[-piv]) <= cap:
                    b[len(tgt_tups[-piv])] += 1
    dims, grown = (_graded(cycles, bound, cap) for bound in bounds)
    by_degree = {}
    for (_cap, deg), d in dims.items():
        by_degree[deg] = by_degree.get(deg, 0) + d
    # the report only covers lengths <= max_length - margin, so growing the
    # window (and the margin with it) must reproduce it when the cutoff is
    # honest; a disagreement flags boundary contamination
    return WindowedHomology(dims, by_degree, grown == dims)


def _check_gradings(cat: AInfCategory, shifted: dict) -> dict:
    """Every stored output of b_1 and b_2 runs from the source of its last
    input to the target of its first, in shifted degree one above the sum
    of theirs.  Then b maps each chain into the block of the next total
    degree, whichever columns are computed.

    Returns a label -> weight map that b keeps: cat.weights (0 where
    missing) when they are all >= 0 and every stored output weighs what
    its inputs weigh together, and weight 0 for every label otherwise."""
    weight = {lab: cat.weights.get(lab, 0) for lab in shifted}
    kept = bool(cat.weights) and min(weight.values(), default=0) >= 0
    for s in (1, 2):
        for ins, out in (cat.op_table(s) or {}).items():
            want = (cat.src(ins[-1]), cat.tgt(ins[0]),
                    sum(map(shifted.__getitem__, ins)) + 1)
            w = sum(map(weight.__getitem__, ins))
            for z in out:
                if (z not in shifted
                        or (cat.src(z), cat.tgt(z), shifted[z]) != want):
                    raise HochschildError("differential is not degree 1")
                kept = kept and weight[z] == w
    return weight if kept else dict.fromkeys(weight, 0)


def _graded(cycles, bounds, cap):
    """(length, degree) -> dim F_n H - dim F_{n-1} H, where nonzero."""
    dims = {}
    for deg in sorted(cycles):
        z, b = cycles[deg], bounds.get(deg, [0] * (cap + 1))
        for n in range(1, cap + 1):
            if z[n] != b[n]:
                dims[(n, deg)] = z[n] - b[n]
    return dims


def hh0_dimension(window: HochschildChainWindow) -> int:
    """Degree-0 windowed homology total; for ordinary algebras this is
    dim A / [A, A] once the window is long enough to be stable."""
    rep = windowed_homology(window)
    return rep.by_degree.get(0, 0)
