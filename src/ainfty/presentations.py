"""Concrete dg categories from quiver data.

Two constructions, both weight-truncated so every hom space is finite:

* truncated_path_category: the free dg path category of a weighted dg
  quiver modulo paths of weight > weight_cap.  The differential preserves
  weight and composition adds it, so the high-weight span is a dg ideal and
  the quotient is an honest dg category.

* bar_ext_category: the convolution dg category of the reduced bar
  coalgebra with values in the vertex semisimple algebra.  Its cohomology
  in each weight computes the corresponding weight piece of the Yoneda
  algebra Ext(+S_i, +S_j) of the vertex simples; truncating the weight
  keeps every piece it retains exact.

Both come with strict units, a weight filtration usable for pruning, and
complete operation tables (no hidden higher operations).
"""

from __future__ import annotations

from .ainf import AInfCategory
from .field import FieldCtx, QQ
from .quiver import DGQuiverAlgebra, d_path, path_degree
from .signs import block_sign, parity_sign, prefix_parities
from .sparse import add_into


def path_label(path, vertex=None) -> str:
    if not path:
        return "e@%s" % vertex
    return ".".join(path)


def enumerate_paths(alg: DGQuiverAlgebra, weight_cap: int,
                    include_trivial: bool = True):
    """All paths of weight <= weight_cap, as (path, src, tgt, degree,
    weight) tuples; paths are tuples of arrow names in operator order
    (path[0] applied last).  Deterministic order: weight, then length,
    then names."""
    q = alg.quiver
    out = []
    if include_trivial:
        for v in q.vertices:
            out.append(((), v, v, 0, 0))
    frontier = [((), v, v, 0, 0) for v in q.vertices]
    while frontier:
        nxt = []
        for path, src, tgt, deg, wt in frontier:
            # extend on the right: precompose with arrows into src
            for a in sorted(q.arrows, key=lambda a: a.name):
                if a.tgt != src:
                    continue
                w2 = wt + alg.weight_of(a.name)
                if w2 > weight_cap:
                    continue
                item = (path + (a.name,), a.src, tgt, deg + a.degree, w2)
                nxt.append(item)
                out.append(item)
        frontier = nxt
    out.sort(key=lambda t: (t[4], len(t[0]), t[0]))
    return out


def truncated_path_category(alg: DGQuiverAlgebra, weight_cap: int,
                            field: FieldCtx = QQ,
                            arity_cap: int = 6) -> AInfCategory:
    """Weight-truncated free dg path category of alg, in shifted form.

    b_1(p) = d(p), b_2(p, q) = (-1)^deg(p) p.q, higher operations zero;
    trivial paths are strict units.
    """
    q = alg.quiver
    paths = enumerate_paths(alg, weight_cap)
    hom = {(i, j): [] for i in q.vertices for j in q.vertices}
    meta = {}
    for path, src, tgt, deg, wt in paths:
        lab = path_label(path, src)
        hom[(src, tgt)].append((lab, deg))
        meta[lab] = (path, src, tgt, deg, wt)
    hom = {k: tuple(v) for k, v in hom.items()}

    ops1 = {}
    for lab, (path, src, tgt, deg, wt) in meta.items():
        img = {}
        for new, coeff in sorted(d_path(alg, path).items()):
            img[path_label(new, src)] = field.of_fraction(coeff)
        if img:
            ops1[(lab,)] = img
    ops2 = {}
    items = list(meta.items())
    by_tgt = {}
    for lab, m in items:
        by_tgt.setdefault(m[2], []).append((lab, m))
    for lab1, (p1, s1, t1, d1, w1) in items:
        for lab2, (p2, s2, t2, d2, w2) in by_tgt.get(s1, ()):
            if w1 + w2 > weight_cap:
                continue
            prod = p1 + p2
            out = path_label(prod, s2)
            ops2[(lab1, lab2)] = {out: field.of_int(parity_sign(d1))}
    units = {v: path_label((), v) for v in q.vertices}
    weights = {lab: m[4] for lab, m in meta.items()}
    return AInfCategory(
        objects=tuple(q.vertices), hom=hom, ops={1: ops1, 2: ops2},
        field=field, arity_cap=arity_cap, units=units, complete=True,
        weights=weights, weight_cap=weight_cap)


def word_label(word, vertex=None) -> str:
    if not word:
        return "<@%s>" % vertex
    return "<" + "|".join(".".join(p) for p in word) + ">"


def enumerate_words(alg: DGQuiverAlgebra, weight_cap: int):
    """Composable tuples of positive-weight paths (bar words), total weight
    <= weight_cap, in operator order, plus the empty word at each vertex.
    Yields (word, src, tgt, dual_degree, weight)."""
    q = alg.quiver
    letters = [t for t in enumerate_paths(alg, weight_cap,
                                          include_trivial=False)]
    by_tgt = {}
    for path, src, tgt, deg, wt in letters:
        by_tgt.setdefault(tgt, []).append((path, src, tgt, deg, wt))
    out = []
    for v in q.vertices:
        out.append(((), v, v, 0, 0))
    frontier = [((), v, v, 0, 0) for v in q.vertices]
    # grow on the right: next letter's target = current source
    while frontier:
        nxt = []
        for word, src, tgt, ddeg, wt in frontier:
            for path, ps, pt, pdeg, pwt in by_tgt.get(src, ()):
                w2 = wt + pwt
                if w2 > weight_cap:
                    continue
                item = (word + (path,), ps, tgt, ddeg + 1 - pdeg, w2)
                nxt.append(item)
                out.append(item)
        frontier = nxt
    out.sort(key=lambda t: (t[4], len(t[0]), t[0]))
    return out


def bar_differential(alg: DGQuiverAlgebra, word):
    """Codifferential of the reduced bar coalgebra on one word: internal
    terms 1^r (x) b_1 (x) ... and merge terms 1^r (x) b_2 (x) ..., with the
    prefix sign (signs.py) of the shifted letter degrees left of the slot
    and the product sign (-1)^deg(first merged letter).  Degree +1,
    preserves weight, never produces trivial letters.  Returns
    {word: QQ scalar}."""
    q = alg.quiver
    out = {}
    degs = [path_degree(q, p) for p in word]
    pre = prefix_parities([d - 1 for d in degs])
    for k, p in enumerate(word):
        sgn = parity_sign(pre[k])
        for new, coeff in d_path(alg, p).items():
            w2 = word[:k] + (new,) + word[k + 1:]
            add_into(QQ, out, w2, QQ.mul(coeff, sgn))
        if k + 1 < len(word):
            merged = word[:k] + (p + word[k + 1],) + word[k + 2:]
            add_into(QQ, out, merged, sgn * parity_sign(degs[k]))
    return out


def bar_ext_category(alg: DGQuiverAlgebra, weight_cap: int,
                     field: FieldCtx = QQ,
                     arity_cap: int = 6) -> AInfCategory:
    """Convolution dg category of evaluation functionals on bar words.

    Basis of hom(i, j): duals [w]* of bar words w from i to j of weight
    <= weight_cap, with deg [w]* = (number of letters) - (sum of letter
    degrees).  Structure:

        b_1([w]*) = -(-1)^deg([w]*) sum_{w in bar_differential(w')} [w']*,
        b_2([w1]*, [w2]*) = (-1)^(deg [w1]* (deg [w2]* + 1)) [w1.w2]*,

    empty words are strict units.  Cohomology in weight o equals the weight
    o piece of the Yoneda algebra of the vertex simples, for every o
    retained by the truncation.
    """
    q = alg.quiver
    words = enumerate_words(alg, weight_cap)
    hom = {(i, j): [] for i in q.vertices for j in q.vertices}
    meta = {}
    for word, src, tgt, ddeg, wt in words:
        lab = word_label(word, src)
        hom[(src, tgt)].append((lab, ddeg))
        meta[lab] = (word, src, tgt, ddeg, wt)
    hom = {k: tuple(v) for k, v in hom.items()}
    label_of = {}
    for lab, (word, src, tgt, ddeg, wt) in meta.items():
        label_of[(word, src)] = lab

    ops1 = {}
    for lab2, (w2, src, tgt, ddeg2, wt) in meta.items():
        for w1, coeff in bar_differential(alg, w2).items():
            lab1 = label_of[(w1, src)]
            ddeg1 = meta[lab1][3]
            c = field.of_fraction(-parity_sign(ddeg1) * coeff)
            if field.is_zero(c):
                continue
            entry = ops1.setdefault((lab1,), {})
            add_into(field, entry, lab2, c)
    ops1 = {k: v for k, v in ops1.items() if v}

    ops2 = {}
    items = list(meta.items())
    by_tgt = {}
    for lab, m in items:
        by_tgt.setdefault(m[2], []).append((lab, m))
    for lab1, (w1, s1, t1, d1, wt1) in items:
        for lab2, (w2, s2, t2, d2, wt2) in by_tgt.get(s1, ()):
            if wt1 + wt2 > weight_cap:
                continue
            prod = w1 + w2
            out = label_of[(prod, s2)]
            ops2[(lab1, lab2)] = {out: field.of_int(block_sign(d1, d2 + 1))}
    units = {v: word_label((), v) for v in q.vertices}
    weights = {lab: m[4] for lab, m in meta.items()}
    return AInfCategory(
        objects=tuple(q.vertices), hom=hom, ops={1: ops1, 2: ops2},
        field=field, arity_cap=arity_cap, units=units, complete=True,
        weights=weights, weight_cap=weight_cap)


def perturbed(cat: AInfCategory, which: int, delta=None) -> tuple:
    """Copy of cat with one structure constant shifted by delta (default 1).

    which indexes the deterministic enumeration of stored (arity, tuple,
    out_label) entries.  Returns (new_cat, description)."""
    from dataclasses import replace
    f = cat.field
    if delta is None:
        delta = f.one()
    entries = []
    for n in sorted(cat.ops):
        for tup in sorted(cat.ops[n]):
            for z in sorted(cat.ops[n][tup]):
                entries.append((n, tup, z))
    n, tup, z = entries[which % len(entries)]
    ops = {m: {t: dict(v) for t, v in tab.items()}
           for m, tab in cat.ops.items()}
    old = ops[n][tup][z]
    add_into(f, ops[n][tup], z, delta)
    new = ops[n][tup].get(z, f.zero())
    if not ops[n][tup]:
        ops[n].pop(tup)
    return (replace(cat, ops=ops),
            {"arity": n, "inputs": tup, "output": z,
             "old": old, "new": new})
