"""Concrete dg categories from quiver data.

Both constructions are word categories.  An alphabet is a list of letters
(letter, src, tgt, degree, weight) with positive weights; a word is a
composable tuple of letters in operator order (word[0] applied last), its
degree and weight the sums over its letters.  The category has one object
per vertex and hom(i, j) spanned by the words from i to j of weight
<= weight_cap.  b_2 concatenates two words, times a sign each construction
fixes; the empty words are strict units; there are no higher operations, so
the tables are complete.  Composition adds weight and b_1 preserves it, so
the words above the cap span a dg ideal and the truncation is an honest dg
category; the weights are kept as a filtration for pruning.

* truncated_path_category: letters are arrows; the free dg path category of
  a weighted dg quiver.
* bar_ext_category: letters are positive-weight paths; the convolution dg
  category of the reduced bar coalgebra with values in the vertex
  semisimple algebra.  Its cohomology in each weight computes that weight
  piece of the Yoneda algebra Ext(+S_i, +S_j) of the vertex simples.
"""

from __future__ import annotations

from .ainf import AInfCategory
from .field import FieldCtx, QQ
from .quiver import DGQuiverAlgebra, d_path, path_degree
from .signs import block_sign, parity_sign, prefix_parities
from .sparse import add_into


def _words(vertices, letters, weight_cap):
    """Composable words in letters of total weight <= weight_cap, as
    (word, src, tgt, degree, weight) tuples, the empty word at each vertex
    first.  Deterministic order: weight, then length, then letters."""
    by_tgt = {}
    for item in letters:
        by_tgt.setdefault(item[2], []).append(item)
    frontier = [((), v, v, 0, 0) for v in vertices]
    out = list(frontier)
    while frontier:
        # grow on the right: the next letter's target is the word's source
        frontier = [(word + (letter,), ls, tgt, deg + ldeg, wt + lwt)
                    for word, src, tgt, deg, wt in frontier
                    for letter, ls, _, ldeg, lwt in by_tgt.get(src, ())
                    if wt + lwt <= weight_cap]
        out += frontier
    out.sort(key=lambda t: (t[4], len(t[0]), t[0]))
    return out


def _word_category(vertices, words, label, b1, sign, field, weight_cap,
                   arity_cap):
    """The word category on words (from _words).  label(word, src) names a
    basis element; b1(word, deg) lists the b_1 structure constants
    (input word, output word, QQ scalar) the word contributes, each pair of
    words at most once over all words;
    sign(d1, d2) is the sign of b_2 on words of degrees d1 and d2."""
    hom = {(i, j): [] for i in vertices for j in vertices}
    label_of, by_tgt, weights = {}, {}, {}
    for word, src, tgt, deg, wt in words:
        lab = label_of[(word, src)] = label(word, src)
        hom[(src, tgt)].append((lab, deg))
        weights[lab] = wt
        by_tgt.setdefault(tgt, []).append((lab, word, src, deg, wt))
    ops1 = {}
    for word, src, tgt, deg, wt in words:
        for w_in, w_out, coeff in b1(word, deg):
            c = field.of_fraction(coeff)
            if not field.is_zero(c):
                row = ops1.setdefault((label_of[(w_in, src)],), {})
                row[label_of[(w_out, src)]] = c
    ops2 = {}
    for word1, s1, t1, d1, wt1 in words:
        lab1 = label_of[(word1, s1)]
        for lab2, word2, s2, d2, wt2 in by_tgt.get(s1, ()):
            if wt1 + wt2 <= weight_cap:
                ops2[(lab1, lab2)] = {label_of[(word1 + word2, s2)]:
                                      field.of_int(sign(d1, d2))}
    return AInfCategory(
        objects=tuple(vertices), hom={k: tuple(v) for k, v in hom.items()},
        ops={1: ops1, 2: ops2},
        field=field, arity_cap=arity_cap,
        units={v: label((), v) for v in vertices}, complete=True,
        weights=weights, weight_cap=weight_cap)


def path_label(path, vertex=None) -> str:
    if not path:
        return "e@%s" % vertex
    return ".".join(path)


def enumerate_paths(alg: DGQuiverAlgebra, weight_cap: int,
                    include_trivial: bool = True):
    """All paths of weight <= weight_cap, as (path, src, tgt, degree,
    weight) tuples; paths are tuples of arrow names in operator order
    (path[0] applied last), ordered as _words orders them."""
    q = alg.quiver
    paths = _words(q.vertices, [(a.name, a.src, a.tgt, a.degree,
                                 alg.weight_of(a.name)) for a in q.arrows],
                   weight_cap)
    return paths if include_trivial else paths[len(q.vertices):]


def truncated_path_category(alg: DGQuiverAlgebra, weight_cap: int,
                            field: FieldCtx = QQ,
                            arity_cap: int = 6) -> AInfCategory:
    """Weight-truncated free dg path category of alg, in shifted form.

    Letters: the arrows, with their degrees and weights.  b_1(p) = d(p) by
    the Leibniz rule; b_2(p, q) = (-1)^deg(p) p.q.
    """
    def b1(path, deg):
        return [(path, new, c) for new, c in sorted(d_path(alg, path).items())]

    return _word_category(alg.quiver.vertices, enumerate_paths(alg, weight_cap),
                          path_label, b1, lambda d1, d2: parity_sign(d1),
                          field, weight_cap, arity_cap)


def word_label(word, vertex=None) -> str:
    if not word:
        return "<@%s>" % vertex
    return "<" + "|".join(".".join(p) for p in word) + ">"


def enumerate_words(alg: DGQuiverAlgebra, weight_cap: int):
    """Bar words: composable tuples of positive-weight paths, total weight
    <= weight_cap, in operator order, plus the empty word at each vertex.
    Yields (word, src, tgt, dual_degree, weight); a path of degree d
    contributes 1 - d to the dual degree."""
    letters = [(p, s, t, 1 - d, w) for p, s, t, d, w in
               enumerate_paths(alg, weight_cap, include_trivial=False)]
    return _words(alg.quiver.vertices, letters, weight_cap)


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

    Letters: the paths of positive weight; a path of degree d has degree
    1 - d, so deg [w]* = (number of letters) - (sum of path degrees) for
    the dual [w]* of a bar word w.  With deg [w']* = deg [w]* + 1,

        b_1([w]*) = -(-1)^deg([w]*) sum_{w in bar_differential(w')} [w']*,
        b_2([w1]*, [w2]*) = (-1)^(deg [w1]* (deg [w2]* + 1)) [w1.w2]*.

    Cohomology in weight o equals the weight o piece of the Yoneda algebra
    of the vertex simples, for every o retained by the truncation.
    """
    def b1(word, deg):
        return [(w_in, word, parity_sign(deg) * c)
                for w_in, c in bar_differential(alg, word).items()]

    return _word_category(alg.quiver.vertices, enumerate_words(alg, weight_cap),
                          word_label, b1, lambda d1, d2: block_sign(d1, d2 + 1),
                          field, weight_cap, arity_cap)
