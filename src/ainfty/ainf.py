"""A-infinity categories in shifted form, with exact relation checking.

Conventions, fixed once for the whole package:

* Morphism tuples are stored in operator order: (x_1, ..., x_n) stands for
  the tensor factor chain whose composite is x_1 o x_2 o ... o x_n, so
  src(x_k) == tgt(x_{k+1}).  Composites have src = src(x_n), tgt = tgt(x_1).
* The structure operations are the shifted b_n of degree +1 with respect to
  shifted degree |x|' = deg(x) - 1.  The defining relations are
      sum_{r+s+t=n} b_{r+1+t} (1^r (x) b_s (x) 1^t) = 0,
  where evaluating 1^r (x) b_s (x) 1^t on (x_1,...,x_n) carries the prefix
  sign of signs.py on the shifted degrees of x_1, ..., x_r.
* The package stores only the b_n.  The unshifted m_n differ from them
  by a suspension sign (the tests convert between the two), so m_1 = b_1.
* A strict unit 1_i has degree 0 and satisfies b_1(1_i) = 0,
  b_2(x, 1_i) = (-1)^deg(x) x, b_2(1_j, x) = x, and b_n vanishes on every
  tuple containing a unit for n >= 3.  These laws make the terms of every
  relation on a composable tuple holding a unit cancel in pairs, so
  check_relations leaves such tuples out when the units are strict.

Operations with arity beyond a category's arity_cap are unknown, not zero,
unless the category is flagged complete; checkers report such arities as
truncated instead of silently passing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .field import FieldCtx, QQ
from .signs import parity_sign
from .sparse import (Echelon, SparseMatrix, add_into, rank_kernel_image,
                     reduce_sums)


class StructureError(ValueError):
    pass


@dataclass
class AInfCategory:
    """Finite A-infinity category with sparse operation tables.

    hom[(i, j)] is a tuple of (label, degree) pairs, the basis of the space
    of morphisms from i to j.  Labels are globally unique strings.
    ops[n][(lab_1, ..., lab_n)] = {out_label: coeff} stores b_n on basis
    tuples in operator order; missing tuples are zero.  units maps an object
    to the label of its designated unit.  pairing[(x, y)] is the cyclic
    pairing on shifted elements, nonzero only for deg(x) + deg(y) = 2 and
    opposite hom pairs.
    """

    objects: tuple
    hom: dict
    ops: dict
    field: FieldCtx = QQ
    arity_cap: int = 6
    units: dict = dfield(default_factory=dict)
    pairing: dict = dfield(default_factory=dict)
    complete: bool = False
    # optional auxiliary filtration: every operation adds weights, and
    # outputs of weight > weight_cap are identically zero (quotient by the
    # high-weight ideal).  Used for pruning, never for correctness.
    weights: dict = dfield(default_factory=dict)
    weight_cap: int | None = None

    def __post_init__(self):
        self._info = {}
        for (i, j), basis in self.hom.items():
            for lab, deg in basis:
                if lab in self._info:
                    raise StructureError("duplicate basis label %r" % (lab,))
                self._info[lab] = (i, j, deg)

    def labels(self):
        return tuple(self._info)

    def src(self, lab: str) -> str:
        return self._info[lab][0]

    def tgt(self, lab: str) -> str:
        return self._info[lab][1]

    def deg(self, lab: str) -> int:
        return self._info[lab][2]

    def sdeg(self, lab: str) -> int:
        return self._info[lab][2] - 1

    def has_label(self, lab: str) -> bool:
        return lab in self._info

    def op_table(self, n: int):
        """Table of b_n, or None when that arity is unknown (beyond cap)."""
        if n in self.ops:
            return self.ops[n]
        if self.complete or n <= self.arity_cap:
            return {}
        return None

    def known_arities(self):
        return sorted(n for n in self.ops if self.ops[n])

    def b_value(self, tup):
        """b_n on a basis tuple, as {out_label: coeff}; {} when zero."""
        table = self.op_table(len(tup))
        if table is None:
            raise StructureError("b_%d is unknown at arity cap %d"
                                 % (len(tup), self.arity_cap))
        return table.get(tuple(tup), {})


@dataclass
class RelationReport:
    ok: bool
    checked: tuple
    truncated: tuple
    witnesses: tuple  # (arity, tuple, out_label, residual) of violations
    # the designated units satisfy the strict unit laws, so the tuples
    # holding one were left out (check_relations only)
    units_strict: bool = False


def _insert_into(residual, outputs, outer, u, parity, units):
    """residual[(tuple, out)] += sum_r outer(1^r (x) inner (x) 1^t), the
    inner table given by its _output_index, as raw sums of products.  Each
    entry of the arity-u outer table is walked once, its prefix parity
    kept from parity; slot r looks up the inner products that output its
    label, unless a label of units sits in another slot."""
    # a unit's slot reads only a unit that some inner product outputs
    unit_out = units.intersection(outputs)
    for tup, out in outer.items():
        slots = range(u)
        if units and not units.isdisjoint(tup):
            if unit_out:
                slots = [r for r, x in enumerate(tup) if x in units]
            if not unit_out or len(slots) > 1:
                continue
        odd = 0
        for r, x in enumerate(tup):
            entries = outputs.get(x) if r in slots else None
            if entries:
                pre, suf, items = tup[:r], tup[r + 1:], out.items()
                for tup_s, cz in entries:
                    full = pre + tup_s + suf
                    c = -cz if odd else cz
                    for w, cw in items:
                        key = (full, w)
                        residual[key] = residual.get(key, 0) + c * cw
            odd ^= parity[x]


def _known_through(cap, *lookups):
    """The largest n <= cap such that every lookup(k), k <= n, is a known
    table (not None)."""
    n = 0
    while n < cap and all(look(n + 1) is not None for look in lookups):
        n += 1
    return n


def _check_arities(cat, cap, known, max_witnesses, terms_at,
                   units=frozenset()):
    """The arity loop shared by check_relations and check_functor, over
    the field of cat, whose labels the insertions read.

    Truncation is decided first: arity n is checked iff n <= known, the
    caller's bound below which every table the relations use is known, and
    terms_at is never called for a truncated arity.  terms_at(n) returns
    the arity-n relation as (insertions, composites): insertions (inner,
    outer, u) add sum_r outer(1^r (x) inner (x) 1^t) for the arity-u outer
    table, composites (trie, inners) subtract b_l(inner_1 (x) ... (x)
    inner_l) in the form _accumulate_composite reads.  The _output_index
    of each inner table is built once per call, and _insert_into walks
    the outer table against it, with signs from parity (label -> shifted
    degree mod 2 in cat).  The residual of a checked arity lists its
    violations, sorted and cut at max_witnesses overall.

    units is a set of labels whose tuples the insertions skip: the output
    index leaves out inner tuples holding one, and _insert_into skips an
    outer entry at slot r when one sits in a slot other than r.  A unit
    at slot r stays, because a product of two non-units can output a
    unit; so exactly the tuples free of units are summed, each with all
    of its terms.  The composites are not filtered.
    """
    parity = {lab: cat.sdeg(lab) & 1 for lab in cat.labels()}
    outputs = {}
    checked, truncated, witnesses = [], [], []
    for n in range(1, cap + 1):
        if n > known:
            truncated.append(n)
            continue
        insertions, composites = terms_at(n)
        residual = {}
        for inner, outer, u in insertions:
            if inner and outer:
                idx = outputs.get(n + 1 - u)
                if idx is None:
                    idx = outputs[n + 1 - u] = _output_index(inner, units)
                _insert_into(residual, idx, outer, u, parity, units)
        for trie, inners in composites:
            _accumulate_composite(residual, trie, inners, -1)
        checked.append(n)
        for (tup, z), c in sorted(reduce_sums(cat.field, residual).items()):
            witnesses.append((n, tup, z, c))
            if len(witnesses) >= max_witnesses:
                break
        if len(witnesses) >= max_witnesses:
            break
    return RelationReport(not witnesses, tuple(checked), tuple(truncated),
                          tuple(witnesses))


def check_relations(cat: AInfCategory, max_arity: int | None = None,
                    max_witnesses: int = 10) -> RelationReport:
    """Exact check of the shifted A-infinity relations.

    The relation of total arity n needs every b_s, b_u with s + u = n + 1;
    arities where some required operation is unknown are reported as
    truncated, not checked.  So are the arities above cap that the stored
    tables can break: with a nonempty table of arity k and none above, the
    relations of every arity up to 2k - 1 can be nonzero.

    When the designated units are strict (_strict_unit_failures), tuples
    holding a unit are not summed: their residual is zero, so the report
    is the full sum's.  The report says so in units_strict, which is then
    check_unitality's verdict "strict".
    """
    cap = max_arity if max_arity is not None else cat.arity_cap
    try:
        strict = not _strict_unit_failures(cat)
    except StructureError:  # b_1 or b_2 unknown: strictness undecided
        strict = False
    units = frozenset(cat.units.values()) if strict else frozenset()

    def terms_at(n):
        return [(cat.op_table(s), cat.op_table(n + 1 - s), n + 1 - s)
                for s in range(1, n + 1)], []
    rep = _check_arities(cat, cap, _known_through(cap, cat.op_table),
                         max_witnesses, terms_at, units)
    k = max(cat.known_arities(), default=0)
    rep.truncated += tuple(range(cap + 1, 2 * k))
    rep.units_strict = strict
    return rep


def _strict_unit_failures(cat: AInfCategory) -> bool:
    """Whether the designated units break a strict unit law of
    check_unitality, or some object has no designated unit; False when the
    units are strict.  Stops at the first broken law.  A StructureError
    when b_1 or b_2 is unknown."""
    if not cat.units or any(i not in cat.units for i in cat.objects):
        return True
    b1, b2 = cat.op_table(1), cat.op_table(2)
    if b1 is None or b2 is None:
        raise StructureError("b_%d is unknown at arity cap %d"
                             % (1 if b1 is None else 2, cat.arity_cap))
    f = cat.field
    unit_labels = set(cat.units.values())
    if any(b1.get((e,)) for e in cat.units.values()):
        return True
    for (i, j), basis in cat.hom.items():
        ej, ei = cat.units[j], cat.units[i]
        for lab, deg in basis:
            if (b2.get((lab, ei), {}) != {lab: f.of_int(parity_sign(deg))}
                    or b2.get((ej, lab), {}) != {lab: f.one()}):
                return True
    return any(out and any(x in unit_labels for x in tup)
               for n, table in cat.ops.items() if n >= 3
               for tup, out in table.items())


def check_unitality(cat: AInfCategory) -> str:
    """Classify designated units as "strict", "weak" or "none".

    Strict: b_1(1) = 0, b_2(x, 1) = (-1)^deg(x) x, b_2(1, x) = x, and every
    stored b_n (n >= 3) kills tuples containing a unit.  Weak: the unit is a
    cycle acting as the identity up to im(b_1) on cycles.  "none" also when
    some object has no designated unit.
    """
    if not cat.units or any(i not in cat.units for i in cat.objects):
        return "none"
    if not _strict_unit_failures(cat):
        return "strict"
    return "weak" if _weak_unit_check(cat) else "none"


def _weak_unit_check(cat: AInfCategory) -> bool:
    """Whether every designated unit is a weak unit; stops at the first
    unit or cohomology class that fails."""
    f = cat.field
    if any(cat.b_value((e,)) for e in cat.units.values()):
        return False
    for (i, j), basis in cat.hom.items():
        labs = [lab for lab, _ in basis]
        pos = {lab: k for k, lab in enumerate(labs)}
        # dmat[z, x] = coeff of z in b_1(x): its kernel is the cycles
        dmat = SparseMatrix(len(labs), len(labs), f)
        for k, lab in enumerate(labs):
            for z, c in cat.b_value((lab,)).items():
                dmat.set(pos[z], k, c)
        _, cycles, images, _ = rank_kernel_image(dmat)
        boundaries = Echelon(f, images)
        for cyc in cycles:
            for side in ("right", "left"):
                acc = {}
                for lab_idx, c in cyc.items():
                    lab = labs[lab_idx]
                    if side == "right":
                        val = cat.b_value((lab, cat.units[i]))
                        sgn = parity_sign(cat.deg(lab))
                    else:
                        val = cat.b_value((cat.units[j], lab))
                        sgn = 1
                    for z, cz in val.items():
                        add_into(f, acc, pos[z], f.mul(c, cz))
                    unit_part = f.mul(c, f.of_int(sgn))
                    add_into(f, acc, lab_idx, f.neg(unit_part))
                if boundaries.reduce(acc):
                    return False
    return True


@dataclass
class AInfMorphism:
    """A-infinity functor given by sparse component tables.

    components[n][(x_1,...,x_n)] = {out_label: coeff}, inputs in the source,
    outputs in the target; all components have shifted degree 0.  Strict
    functors have components[n] empty for n >= 2.
    """

    source: AInfCategory
    target: AInfCategory
    components: dict
    arity_cap: int = 6
    complete: bool = False

    def component(self, n: int):
        if n in self.components:
            return self.components[n]
        if self.complete or n <= self.arity_cap:
            return {}
        return None


def _compositions(n: int, parts, length: int):
    """Ordered compositions of n into exactly length parts drawn from the
    ascending tuple parts, by first part."""
    if length == 0:
        if n == 0:
            yield ()
        return
    for k in parts:
        rest = n - k
        if rest < (length - 1) * parts[0]:
            break
        if rest > (length - 1) * parts[-1]:
            continue
        for tail in _compositions(rest, parts, length - 1):
            yield (k,) + tail


def _prefix_trie(table):
    """The stored input tuples of one operation table as a trie: node[z] is
    the node after label z, and the node after a whole tuple is its output
    {label: coeff}.  So a node's keys are the labels that can follow its
    prefix in a stored tuple."""
    root = {}
    for tup, out in table.items():
        node = root
        for z in tup[:-1]:
            node = node.setdefault(z, {})
        node[tup[-1]] = out
    return root


def _output_index(table, units=frozenset()):
    """idx[z] lists (tuple, coeff of z in its value) for the entries of an
    operation or component table whose value holds label z, leaving out
    the tuples that hold a label of units."""
    idx = {}
    for tup, out in table.items():
        if units and not units.isdisjoint(tup):
            continue
        for z, c in out.items():
            idx.setdefault(z, []).append((tup, c))
    return idx


def _accumulate_composite(residual, trie, inners, coeff):
    """residual[(tuple, out)] += coeff * b_l(inner_1 (x) ... (x) inner_l),
    the target table b_l given by its _prefix_trie and each inner
    component by its _output_index, as raw sums of products.

    A join: slot k descends only through labels z that both the trie node
    (b_l stores a tuple with this prefix) and inner_k's index (some entry
    of inner_k has z in its value) hold, so every leaf reached is a stored
    product of b_l.  Each step walks the smaller of the two key sets.  The
    walk keeps its own stack of (slot, node, inputs so far, coefficient),
    so no closure refers to itself."""
    last = len(inners)
    stack = [(0, trie, (), coeff)]
    while stack:
        k, node, tup_acc, c = stack.pop()
        if k == last:
            for w, cw in node.items():
                key = (tup_acc, w)
                residual[key] = residual.get(key, 0) + c * cw
            continue
        idx = inners[k]
        if len(idx) < len(node):
            pairs = ((z, node.get(z), entries) for z, entries in idx.items())
        else:
            pairs = ((z, child, idx.get(z)) for z, child in node.items())
        for z, child, entries in pairs:
            if child is None or entries is None:
                continue
            for tup, cz in entries:
                stack.append((k + 1, child, tup_acc + tup, c * cz))


def check_functor(fm: AInfMorphism, max_arity: int | None = None,
                  max_witnesses: int = 10) -> RelationReport:
    """Exact check of the A-infinity functor relations
    sum f_{r+1+t}(1^r (x) b_s (x) 1^t) = sum b_l(f_{i_1} (x) ... (x) f_{i_l})
    with the same prefix signs as the structure relations on the left and
    no signs on the right (components have shifted degree 0).

    Truncation first: arity n is checked iff src b_k, f_k and tgt b_k are
    known for every k <= n.  The composite side then sums only over
    compositions (i_1, ..., i_l) of n whose parts all have a nonempty
    component and whose length l has a nonempty target table, and each
    composite is a join (_accumulate_composite).  The prefix trie of each
    nonempty target table and the output index of each nonempty component
    are built once per call."""
    src, tgt = fm.source, fm.target
    cap = max_arity if max_arity is not None else fm.arity_cap
    known = _known_through(cap, src.op_table, fm.component, tgt.op_table)
    outputs = {i: _output_index(fm.component(i))
               for i in range(1, known + 1) if fm.component(i)}
    tries = {l: _prefix_trie(tgt.op_table(l))
             for l in range(1, known + 1) if tgt.op_table(l)}
    parts = tuple(outputs)

    def composites(n):
        for l, trie in tries.items():
            if l > n:
                break
            for comp in _compositions(n, parts, l):
                yield trie, [outputs[i] for i in comp]

    def terms_at(n):
        insertions = [(src.op_table(s), fm.component(n + 1 - s), n + 1 - s)
                      for s in range(1, n + 1)]
        return insertions, composites(n)
    return _check_arities(src, cap, known, max_witnesses, terms_at)
