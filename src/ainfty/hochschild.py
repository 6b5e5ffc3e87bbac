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
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .ainf import AInfCategory, check_relations
from .ncword import NCContext, canonical_cyclic
from .signs import block_sign, prefix_parities, rotations
from .sparse import SparseMatrix, add_into, rank_kernel_image, rref


class HochschildError(Exception):
    pass


def chain_degree(cat: AInfCategory, tup) -> int:
    return sum(cat.deg(lab) for lab in tup) - len(tup) + 1


def chain_composable(cat: AInfCategory, tup) -> bool:
    n = len(tup)
    return all(cat.src(tup[k]) == cat.tgt(tup[(k + 1) % n]) for k in range(n))


@dataclass
class HochschildChainWindow:
    cat: AInfCategory
    max_length: int
    _bases: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.max_length < 1:
            raise HochschildError("window needs max_length >= 1")
        higher = [n for n in self.cat.known_arities()
                  if n >= 3 and self.cat.op_table(n)]
        if higher:
            raise HochschildError(
                "the windowed complex implements the dg differential; "
                "input has operations of arity %s" % higher)

    def labels(self):
        for pair, basis in sorted(self.cat.hom.items()):
            for lab, _ in basis:
                yield lab

    def basis(self, n: int):
        """All cyclically composable chains of length n, sorted."""
        if n < 1 or n > self.max_length:
            raise HochschildError("length %d outside window 1..%d"
                                  % (n, self.max_length))
        if n not in self._bases:
            cat = self.cat
            out = []
            partial = [()]
            for k in range(n):
                nxt = []
                for tup in partial:
                    for lab in self.labels():
                        if tup and cat.src(tup[-1]) != cat.tgt(lab):
                            continue
                        nxt.append(tup + (lab,))
                partial = nxt
            for tup in partial:
                if cat.src(tup[-1]) == cat.tgt(tup[0]):
                    out.append(tup)
            self._bases[n] = sorted(out)
        return self._bases[n]

    def basis_by_degree(self, n: int):
        by_deg = {}
        for tup in self.basis(n):
            by_deg.setdefault(chain_degree(self.cat, tup), []).append(tup)
        return by_deg

    def check_chain(self, chain: dict) -> None:
        for tup in chain:
            if not 1 <= len(tup) <= self.max_length:
                raise HochschildError("chain length %d outside window"
                                      % len(tup))
            if not chain_composable(self.cat, tup):
                raise HochschildError("chain %s not cyclically composable"
                                      % (tup,))


def hochschild_b(window: HochschildChainWindow, chain: dict) -> dict:
    """b = b_1 + d_Hoch; lowers length by at most one."""
    window.check_chain(chain)
    cat = window.cat
    f = cat.field
    b2 = cat.op_table(2) or {}
    slots = ((1, cat.op_table(1) or {}), (2, b2))
    acc = {}
    for tup, coeff in chain.items():
        n = len(tup)
        pre = prefix_parities([cat.deg(lab) - 1 for lab in tup])
        neg = f.neg(coeff)
        # b_s on the factors r..r+s-1, past the prefix tup[:r]
        for s, bs in slots:
            for r in range(n - s + 1):
                out = bs.get(tup[r:r + s])
                if out:
                    c = neg if pre[r] else coeff
                    for z, cz in out.items():
                        add_into(f, acc, tup[:r] + (z,) + tup[r + s:], f.mul(c, cz))
        if n == 1:
            continue
        # wraparound: b_2 on the first two factors of F_n(tup)
        out = b2.get((tup[-1], tup[0]))
        if out:
            last = (pre[n] - pre[n - 1]) % 2      # parity of tup[-1]
            c = coeff if block_sign(last, pre[n - 1]) > 0 else neg
            for z, cz in out.items():
                add_into(f, acc, (z,) + tup[1:-1], f.mul(c, cz))
    return acc


def connes_B(window: HochschildChainWindow, chain: dict) -> dict:
    """Connes operator B = (1 - F)(eta (x) -)N; raises length by 1.

    N averages over all rotations of the chain, eta inserts the unit of the
    matching object in front, and the extra rotation of the widened chain
    enters with a minus sign; B^2 = bB + Bb = 0 pins the sign.
    """
    window.check_chain(chain)
    cat = window.cat
    f = cat.field
    if set(cat.units) != set(cat.objects):
        raise HochschildError("Connes operator needs designated units")
    acc = {}
    for tup, coeff in chain.items():
        n = len(tup)
        if n + 1 > window.max_length:
            raise HochschildError(
                "insufficient window: length %d chain needs max_length >= %d"
                % (n, n + 1))
        degs = [cat.deg(lab) - 1 for lab in tup]
        total = sum(degs)
        for rot, rsign in rotations(tup, degs):
            unit = cat.units[cat.tgt(rot[0])]
            add_into(f, acc, (unit,) + rot, f.mul(coeff, f.of_int(rsign)))
            # F on (unit,) + rot moves rot's last factor past the rest
            last = cat.deg(rot[-1]) - 1
            s2 = block_sign(last, total - last + cat.deg(unit) - 1)
            add_into(f, acc, (rot[-1], unit) + rot[:-1],
                     f.mul(coeff, f.of_int(-rsign * s2)))
    return acc


# ---------------------------------------------------------------------------
# the cyclic quotient

def _dual_config(tup):
    return tuple((lab, 0) for lab in reversed(tup))


def _config_chain(cfg):
    return tuple(lab for lab, _ in reversed(cfg))


@dataclass
class CyclicQuotient:
    """coker(1 - F) with the induced differential.

    Classes are canonicalized through the shared cyclic-word machinery: a
    chain maps to the dual configuration read backwards, whose rotation
    signs are the F_n signs mod 2.  Chains whose orbit is sign-conflicted
    represent zero and are dropped.
    """
    window: HochschildChainWindow
    ctx: NCContext = None

    def __post_init__(self):
        if self.ctx is None:
            self.ctx = NCContext.from_category(self.window.cat)

    def push_tuple(self, tup):
        """Canonical (tuple, sign) for one chain, or None when the class is 0."""
        got = canonical_cyclic(self.ctx, _dual_config(tup))
        if got is None:
            return None
        cfg, sign = got
        return _config_chain(cfg), sign

    def push(self, chain: dict) -> dict:
        f = self.window.cat.field
        acc = {}
        for tup, coeff in chain.items():
            got = self.push_tuple(tup)
            if got is None:
                continue
            key, sign = got
            add_into(f, acc, key, f.mul(coeff, f.of_int(sign)))
        return acc

    def basis(self, n: int):
        reps = []
        seen = set()
        for tup in self.window.basis(n):
            got = self.push_tuple(tup)
            if got is None:
                continue
            key, _ = got
            if key not in seen:
                seen.add(key)
                reps.append(key)
        return sorted(reps)

    def b(self, chain: dict) -> dict:
        return self.push(hochschild_b(self.window, chain))


def cyclic_quotient(window: HochschildChainWindow) -> CyclicQuotient:
    return CyclicQuotient(window)


# ---------------------------------------------------------------------------
# windowed homology

@dataclass
class WindowedHomology:
    max_length: int
    margin: int
    dims: dict              # (length, degree) -> dim of the length-graded piece
    by_degree: dict         # degree -> total dim over reported lengths
    stable: bool            # True when window growth leaves the report fixed
    cyclic: bool = False


def _assemble_b(window, degrees=None):
    """Block matrices of b per total degree, over all window lengths."""
    cat = window.cat
    f = cat.field
    spaces = {}
    for n in range(1, window.max_length + 1):
        for deg, tups in window.basis_by_degree(n).items():
            spaces.setdefault(deg, []).extend(tups)
    index = {deg: {tup: i for i, tup in enumerate(sorted(tups, key=_len_first))}
             for deg, tups in spaces.items()}
    mats = {}
    for deg, idx in index.items():
        tgt = index.get(deg + 1, {})
        m = SparseMatrix(len(tgt), len(idx), f)
        for tup, col in idx.items():
            img = hochschild_b(window, {tup: f.of_int(1)})
            for out, c in img.items():
                if out in tgt:
                    m.set(tgt[out], col, c)
                elif chain_degree(cat, out) != deg + 1:
                    raise HochschildError("differential is not degree 1")
        mats[deg] = m
    return index, mats


def _len_first(tup):
    return (len(tup), tup)


def windowed_homology(window: HochschildChainWindow, length_margin: int = 1,
                      _check: bool = True) -> WindowedHomology:
    """Homology of the window subcomplex, refined by the length filtration.

    Reported lengths stop at max_length - length_margin.  Each (length,
    degree) entry is the graded dimension F_n H / F_{n-1} H for the
    filtration by chain length; summing over lengths gives the homology of
    the window complex in that degree.
    """
    if length_margin < 1:
        raise HochschildError("length_margin must be >= 1")
    cat = window.cat
    if _check:
        rep = check_relations(cat)
        if not rep.ok:
            raise HochschildError("input category fails its structure "
                                  "relations: %s" % (rep.witnesses[:2],))
    dims = _graded_dims(window, length_margin)
    by_degree = {}
    for (_cap, deg), d in dims.items():
        by_degree[deg] = by_degree.get(deg, 0) + d
    # the report only covers lengths <= max_length - margin, so growing the
    # window (and the margin with it) must reproduce it when the cutoff is
    # honest; a disagreement flags boundary contamination
    bigger = HochschildChainWindow(cat, window.max_length + 1)
    stable = _graded_dims(bigger, length_margin + 1) == dims
    return WindowedHomology(window.max_length, length_margin, dims,
                            by_degree, stable)


def _graded_dims(window, length_margin):
    f = window.cat.field
    index, mats = _assemble_b(window)
    report_cap = window.max_length - length_margin
    dims = {}
    for deg, idx in sorted(index.items()):
        m = mats[deg]
        prev = mats.get(deg - 1)
        boundary_cols = []
        if prev is not None and prev.nrows:
            boundary_cols = rank_kernel_image(prev)[2]
        # kernel of b restricted to lengths <= n, for each cutoff n
        last = 0
        for cap in range(1, report_cap + 1):
            cols = [i for tup, i in idx.items() if len(tup) <= cap]
            if not cols:
                continue
            sub = m.take_columns(cols)
            kern = rank_kernel_image(sub)[1]
            cycle_vecs = []
            for kv in kern:
                vec = {}
                for pos, c in kv.items():
                    vec[cols[pos]] = c
                cycle_vecs.append(vec)
            # boundary_cols are independent image columns, so their rank is
            # their count
            dim_fn = (len(rref(boundary_cols + cycle_vecs, len(idx), f)[0])
                      - len(boundary_cols))
            if dim_fn - last:
                dims[(cap, deg)] = dim_fn - last
            last = dim_fn
    return dims


def hh0_dimension(window: HochschildChainWindow) -> int:
    """Degree-0 windowed homology total; for ordinary algebras this is
    dim A / [A, A] once the window is long enough to be stable."""
    rep = windowed_homology(window)
    return rep.by_degree.get(0, 0)
