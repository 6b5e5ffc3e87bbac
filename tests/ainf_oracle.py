"""Degree and sign helpers of A-infinity tables that only the tests read,
a fixture that plants one error in a table, and the per-term residual
kernels of the relation checks.

b_from_m suspends unshifted m-tables to shifted b-tables, m_from_b undoes
it, and degree_support_bound lists the input degrees that degree arithmetic
alone leaves open for b_n.  perturbed shifts one stored structure constant,
so a test can check that the relation checks see it.  per_term_kernels reduces every term of a
relation residual as it is added, where ainf sums raw products and reduces
once per arity.
"""

from dataclasses import replace

from ainfty.ainf import AInfCategory
from ainfty.signs import prefix_parities
from ainfty.sparse import add_into

from signs_oracle import suspension_sign


def perturbed(cat: AInfCategory, which: int, delta=None) -> tuple:
    """Copy of cat with one structure constant shifted by delta (default 1).

    which indexes the deterministic enumeration of stored (arity, tuple,
    out_label) entries.  Returns (new_cat, description)."""
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


def b_from_m(cat_degrees, m_ops, field):
    """Convert unshifted m-tables to shifted b-tables.  cat_degrees maps
    label -> unshifted degree."""
    out = {}
    for n, table in m_ops.items():
        conv = {}
        for tup, val in table.items():
            sgn = suspension_sign([cat_degrees[x] for x in tup])
            entry = {z: c if sgn > 0 else field.neg(c) for z, c in val.items()}
            if entry:
                conv[tup] = entry
        out[n] = conv
    return out


def m_from_b(cat_degrees, b_ops, field):
    """Inverse of b_from_m; the suspension sign is an involution."""
    return b_from_m(cat_degrees, b_ops, field)


def degree_support_bound(cat: AInfCategory, arities, use_strict_units: bool = True):
    """Input-degree tuples not excluded by degree arithmetic.

    For each requested arity n, lists the tuples (d_1, ..., d_n) of unshifted
    degrees, drawn from degrees present in the hom spaces, whose b_n target
    degree sum(d_i) - n + 2 is again present.  When use_strict_units is set
    and a degree's graded piece consists entirely of designated units, slots
    in that degree are excluded (b_{>=3} kills unit tuples).  Object-pair
    bookkeeping is ignored, so this is an upper bound for the support.
    """
    degrees = set()
    unit_only = set()
    unit_labels = set(cat.units.values())
    by_deg = {}
    for basis in cat.hom.values():
        for lab, deg in basis:
            degrees.add(deg)
            by_deg.setdefault(deg, []).append(lab)
    for deg, labs in by_deg.items():
        if labs and all(l in unit_labels for l in labs):
            unit_only.add(deg)
    out = {}
    for n in arities:
        slot = sorted(degrees - unit_only) if (use_strict_units and n >= 3) \
            else sorted(degrees)
        tuples = []
        def rec(k, acc, total):
            if k == n:
                if total - n + 2 in degrees:
                    tuples.append(tuple(acc))
                return
            for d in slot:
                acc.append(d)
                rec(k + 1, acc, total + d)
                acc.pop()
        rec(0, [], 0)
        out[n] = tuple(tuples)
    return out


def per_term_kernels(f):
    """The relation-residual kernels of ainf as they were before the raw
    sums, bound to the field f: every term goes through add_into with field
    arithmetic, so the residual stays reduced and zero-free at every step.
    They take ainf's kernel arguments, unit set included, and ignore the
    units: every tuple is summed, units or not.  The insertion runs the
    other way round from ainf's, so the two share no loop: it indexes the
    outer table by slot and walks the inner table's products.  Returns
    replacements for ainf._output_index, ainf._insert_into and
    ainf._accumulate_composite."""

    def output_index(table, units=frozenset()):
        idx = {}
        for tup, out in table.items():
            for z, c in out.items():
                idx.setdefault(z, []).append((tup, c))
        return idx

    def insert_into(residual, outputs, outer, u, parity, units):
        slots = [dict() for _ in range(u)]
        for tup, out in outer.items():
            pre = prefix_parities([parity[x] for x in tup])
            for r in range(u):
                slots[r].setdefault(tup[r], []).append((tup, out, pre[r]))
        for z, entries in outputs.items():
            for tup_s, cz in entries:
                neg_z = f.neg(cz)
                for r, slot in enumerate(slots):
                    for tup_u, out_u, odd in slot.get(z, ()):
                        full = tup_u[:r] + tup_s + tup_u[r + 1:]
                        c = neg_z if odd else cz
                        for w, cw in out_u.items():
                            add_into(f, residual, (full, w), f.mul(c, cw))

    def accumulate_composite(residual, trie, inners, coeff):
        def rec(k, node, tup_acc, c):
            if k == len(inners):
                for w, cw in node.items():
                    add_into(f, residual, (tup_acc, w), f.mul(c, cw))
                return
            for z, entries in inners[k].items():
                child = node.get(z)
                if child is not None:
                    for tup, cz in entries:
                        rec(k + 1, child, tup_acc + tup, f.mul(c, cz))
        rec(0, trie, (), f.of_int(coeff))

    return output_index, insert_into, accumulate_composite
