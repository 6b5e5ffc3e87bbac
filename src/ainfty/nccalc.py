"""Noncommutative differential calculus on the formal neighbourhood.

One container, NCForm, holds every element: a linear combination of cyclic
words in the dual generators xi_y, where a letter may carry a d-mark.  The
alphabet is the A-infinity category itself: every form and vector field
holds the category whose basis labels are its letters and reads degrees and
endpoints from it (ncword).  A function is a form with no marked letter (as
in Kontsevich's formal symplectic geometry, a function is a 0-form), so d,
the contraction iota_X and the action of a vector field X on functions are
one derivation loop, which ncword.apply_letterwise runs on each word; the
same loop applies a field to open words.  A capped category determines a
degree one vector field Q with [Q,Q] = 0 iff the arity relations hold; a
nondegenerate pairing determines a constant symplectic 2-form omega and the
potential W solving dW = iota_Q omega.  Strictification of units runs an
order-by-order loop on W whose steps are flows exp(L_h) of Hamiltonian
fields h, L_h = d iota_h + iota_h d, and whose linear system reads the
Poisson bracket {s, W_3} as the Hamiltonian field of W_3 acting on s: every
step is the same derivation loop.

A pairing is validated and inverted once, when make_pairing builds it
(degree two, endpoints, graded symmetry, nondegeneracy); everything
downstream takes a CyclicPairing as given.  Since omega is constant, its
inverse bivector pi gives the Hamiltonian field in closed form (pi
contracted with the 1-form, Kontsevich), so no linear system is solved
for it.

All operations are exact up to one truncation rule: a form carries an
order cap (maximal letter count), and the derivation loop drops every new
word longer than the cap of the form it acts on, so its result keeps that
cap.  Vector fields carry no cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .field import FieldCtx
from .sparse import (SparseMatrix, add_into, apply_linear, invert,
                     rank_kernel_image, solve as sparse_solve)
from .ainf import AInfCategory, AInfMorphism, check_relations, check_unitality
from .localmodel import verify_sigma
from .signs import block_sign, reversal_sign
from .ncword import (NCError, add_cyclic_term, apply_letterwise, cfg_degree,
                     enumerate_cyclic_words, rotate_mark_last, xi_degree,
                     xi_src, xi_tgt, word_composable)


class OrderCapError(NCError):
    """A cap below the words a step needs: the window cannot decide it."""

    def __init__(self, what, length, order_cap):
        self.order_cap = order_cap
        super().__init__("%s needs words of length %d, above the order cap %d"
                         % (what, length, order_cap))


class NotCyclicError(NCError):
    def __init__(self, witnesses):
        self.witnesses = witnesses
        super().__init__("pairing is not cyclic; %d violating terms" % len(witnesses))


# ---------------------------------------------------------------------------
# the container


@dataclass
class NCForm:
    """Linear combination of cyclic configurations, keyed by canonical
    words; a function is a form with no marked letter."""

    ctx: AInfCategory            # the alphabet
    terms: dict                  # cfg -> coeff
    order_cap: int

    @property
    def field(self) -> FieldCtx:
        return self.ctx.field

    def order_part(self, n: int) -> "NCForm":
        t = {cfg: c for cfg, c in self.terms.items() if len(cfg) == n}
        return NCForm(self.ctx, t, self.order_cap)

    def nonreduced_part(self) -> "NCForm":
        units = set(self.ctx.units.values())
        t = {cfg: c for cfg, c in self.terms.items()
             if any(lab in units for lab, _ in cfg)}
        return NCForm(self.ctx, t, self.order_cap)

    def scale(self, c) -> "NCForm":
        f = self.field
        if f.is_zero(c):
            return NCForm(self.ctx, {}, self.order_cap)
        return NCForm(self.ctx, {k: f.mul(v, c) for k, v in self.terms.items()},
                      self.order_cap)

    def add(self, other: "NCForm") -> "NCForm":
        t = dict(self.terms)
        for k, v in other.terms.items():
            add_into(self.field, t, k, v)
        return NCForm(self.ctx, t, min(self.order_cap, other.order_cap))

    def is_zero(self) -> bool:
        return not self.terms


@dataclass
class VectorField:
    """Degree-homogeneous continuous derivation, stored on generators."""

    ctx: AInfCategory            # the alphabet
    images: dict = dc_field(default_factory=dict)  # label -> {open cfg -> coeff}
    degree: int = 0

    def validate(self):
        cat, errs = self.ctx, []
        for lab, vec in self.images.items():
            xi = xi_degree(cat, lab)
            for cfg in vec:
                if cfg_degree(cat, cfg) != xi + self.degree:
                    errs.append(("degree", lab, cfg))
                if not word_composable(cat, tuple(l for l, _ in cfg)):
                    errs.append(("composability", lab, cfg))
                if (xi_src(cat, cfg[-1][0]) != xi_src(cat, lab)
                        or xi_tgt(cat, cfg[0][0]) != xi_tgt(cat, lab)):
                    errs.append(("endpoints", lab, cfg))
        return errs

    def image_of(self, lab: str) -> dict:
        return self.images.get(lab, {})


def euler_field(cat: AInfCategory) -> VectorField:
    one = cat.field.of_int(1)
    return VectorField(cat, {lab: {((lab, 0),): one} for lab in cat.labels()},
                       degree=0)


@dataclass
class CyclicPairing:
    """Nondegenerate pairing hom(i,j)^p x hom(j,i)^{2-p} -> k, with its
    inverse.

    Stored on both orientations; make_pairing enforces the graded symmetry
    <x,y> = (-1)^{|x||y|} <y,x> in unshifted degrees, which is the unique
    convention making the associated cyclic 2-form well defined.  It also
    stores the inverse bivector, inverse[y][x] = pi(y, x) with
    sum_y <x', y> pi(y, x) = delta(x', x), which the Hamiltonian field
    reads; it is None on an unchecked pairing (a decoded document) until
    make_pairing builds the checked one.
    """

    field: FieldCtx
    entries: dict = dc_field(default_factory=dict)   # (xlab, ylab) -> coeff
    inverse: dict | None = None                      # ylab -> {xlab: coeff}


def make_pairing(cat: AInfCategory, entries: dict) -> CyclicPairing:
    """Build a pairing from entries given in either orientation; the only
    place a pairing is checked and inverted."""
    f = cat.field
    full = {}
    for (x, y), c in entries.items():
        if f.is_zero(c):
            continue
        for lab in (x, y):
            if not cat.has_label(lab):
                raise NCError("unknown letter %r" % (lab,))
        if cat.deg(x) + cat.deg(y) != 2:
            raise NCError("pairing entry (%s,%s) violates degree two" % (x, y))
        if cat.src(x) != cat.tgt(y) or cat.tgt(x) != cat.src(y):
            raise NCError("pairing entry (%s,%s) violates endpoints" % (x, y))
        sym = block_sign(cat.deg(x), cat.deg(y))
        mirror = f.mul(c, f.of_int(sym))
        for key, val in (((x, y), c), ((y, x), mirror)):
            if key in full:
                if full[key] != val:
                    raise NCError("pairing entries conflict with graded symmetry at %s" % (key,))
            else:
                full[key] = val
    return CyclicPairing(f, full, invert_pairing_blocks(cat, full))


def _pairing_blocks(cat: AInfCategory):
    blocks = {}
    for (i, j), basis in cat.hom.items():
        for lab, deg in basis:
            blocks.setdefault((i, j, deg), []).append(lab)
    return {k: sorted(v) for k, v in blocks.items()}


def invert_pairing_blocks(cat: AInfCategory, entries: dict) -> dict:
    """The inverse bivector {y: {x: pi(y, x)}} of full pairing entries, one
    Gram block rows (i, j, d) x cols (j, i, 2 - d) at a time; raises
    listing every block that is not square or is singular."""
    f = cat.field
    blocks = _pairing_blocks(cat)
    inv = {}
    bad = []
    for (i, j, d), rows in blocks.items():
        cols = blocks.get((j, i, 2 - d), [])
        ginv = None
        if len(cols) == len(rows):
            ginv = invert(SparseMatrix.from_dense(
                [[entries.get((x, y), f.of_int(0)) for y in cols] for x in rows], f))
        if ginv is None:
            bad.append((i, j, d))
            continue
        # row r of the inverse is indexed by cols, its columns by rows
        for (r, c), v in ginv.entries.items():
            inv.setdefault(cols[r], {})[rows[c]] = v
    if bad:
        raise NCError("pairing degenerate on blocks %s" % (sorted(bad),))
    return inv


# ---------------------------------------------------------------------------
# the derivation loop

def _derive(form: NCForm, image_of, mark: int, parity: int) -> NCForm:
    """The derivation loop behind d, iota_X and X acting on functions:
    apply_letterwise on every term (letters carrying `mark` go to their
    images), accumulated onto canonical words.  A new word longer than the
    form's order cap is dropped, so the result is exact up to that cap and
    keeps it; d keeps word lengths."""
    cat, f, cap = form.ctx, form.field, form.order_cap
    acc = {}
    for cfg, coeff in form.terms.items():
        for c2, new in apply_letterwise(cat, cfg, image_of, mark, parity):
            if len(new) <= cap:
                add_cyclic_term(cat, acc, new, f.mul(coeff, c2))
    return NCForm(cat, acc, cap)


def de_rham(form: NCForm) -> NCForm:
    """De Rham differential: xi_y goes to the marked d(xi_y), marked letters
    to zero."""
    one = form.field.of_int(1)
    return _derive(form, lambda lab: {((lab, 1),): one}, 0, 1)


def contraction(vf: VectorField, form: NCForm) -> NCForm:
    """iota_vf: marked letters map to vf images, unmarked to zero."""
    return _derive(form, vf.image_of, 1, vf.degree + 1)


def vf_apply_open(vf: VectorField, cfg):
    """Derivation action on one open word; returns {cfg: coeff}."""
    acc = {}
    for c2, new in apply_letterwise(vf.ctx, cfg, vf.image_of, 0, vf.degree):
        add_into(vf.ctx.field, acc, new, c2)
    return acc


# ---------------------------------------------------------------------------
# the dictionary between categories and vector fields

def category_to_vectorfield(cat: AInfCategory) -> VectorField:
    """The derivation Q with Q(xi_z) the dual of the operations hitting z."""
    f = cat.field
    images = {}
    for n in cat.known_arities():
        table = cat.op_table(n) or {}
        for tup, out in table.items():
            sgn = reversal_sign([cat.deg(lab) - 1 for lab in tup])
            word = tuple((lab, 0) for lab in reversed(tup))
            for z, c in out.items():
                coeff = f.mul(c, f.of_int(sgn))
                vec = images.setdefault(z, {})
                add_into(f, vec, word, coeff)
    vf = VectorField(cat, {k: v for k, v in images.items() if v}, degree=1)
    errs = vf.validate()
    if errs:
        raise NCError("dualized field inconsistent: %s" % (errs[:3],))
    return vf


def _dual_tables(cat: AInfCategory, images) -> dict:
    """{n: table} dual to generator images {z: {word: c}}: the word
    xi_{x_n} ... xi_{x_1} in the image of xi_z is the entry z of the tuple
    (x_1, ..., x_n), with the reversal sign of the shifted degrees."""
    f = cat.field
    ops = {}
    for z, vec in images.items():
        for cfg, c in vec.items():
            tup = tuple(lab for lab, _ in reversed(cfg))
            sgn = reversal_sign([cat.sdeg(lab) for lab in tup])
            table = ops.setdefault(len(tup), {})
            add_into(f, table.setdefault(tup, {}), z, f.mul(c, f.of_int(sgn)))
    ops = {n: {t: o for t, o in tab.items() if o} for n, tab in ops.items()}
    return {n: tab for n, tab in ops.items() if tab}


# ---------------------------------------------------------------------------
# symplectic structure

def omega_from_pairing(cat: AInfCategory, pairing: CyclicPairing,
                       order_cap: int) -> NCForm:
    """Constant cyclic 2-form of a pairing, one term per unordered pair."""
    acc = {}
    for (x, y), c in pairing.entries.items():
        if x < y:
            add_cyclic_term(cat, acc, ((x, 1), (y, 1)), c)
    return NCForm(cat, acc, order_cap)


def _word_system(f: FieldCtx, columns, rhs=None):
    """Matrix with one column per {word: coeff} dict and one row per word,
    rows numbered in order of first appearance in the columns, then in
    rhs; returns (matrix, rhs as {row: coeff})."""
    rhs = rhs or {}
    rows = {}
    for terms in columns:
        for key in terms:
            rows.setdefault(key, len(rows))
    for key in rhs:
        rows.setdefault(key, len(rows))
    mat = SparseMatrix(max(len(rows), 1), len(columns), f)
    for cidx, terms in enumerate(columns):
        for key, c in terms.items():
            mat.set(rows[key], cidx, c)
    return mat, {rows[key]: c for key, c in rhs.items()}


def contraction_solve(omega: NCForm, pairing: CyclicPairing,
                      rhs: NCForm) -> VectorField:
    """The unique homogeneous X with iota_X omega = rhs, for omega the
    constant 2-form of pairing: each term r of rhs, rotated to u d(xi_z)
    with sign s, adds s r pi(z, y) u to X(xi_y) (Kontsevich's inverse
    pairing).  The forward check iota_X omega = rhs refuses a term no image
    reaches, one with no letter before its mark or one omega's cap clips;
    the last case names the cap."""
    cat, f = omega.ctx, omega.field
    if rhs.is_zero():
        return VectorField(cat, {}, degree=0)
    effs = {cfg_degree(cat, cfg) for cfg in rhs.terms}
    omega_effs = {cfg_degree(cat, cfg) for cfg in omega.terms}
    if len(effs) != 1 or len(omega_effs) != 1:
        raise NCError("contraction solve needs homogeneous data")
    deg_x = effs.pop() - omega_effs.pop() + 1

    images = {}
    for stored, r in rhs.terms.items():
        cfg, sign = rotate_mark_last(cat, stored)
        u = cfg[:-1]
        if not u:
            continue
        c = f.mul(r, f.of_int(sign))
        for y, piv in pairing.inverse.get(cfg[-1][0], {}).items():
            add_into(f, images.setdefault(y, {}), u, f.mul(c, piv))
    images = {y: vec for y, vec in images.items() if vec}
    if not images:
        raise NCError("contraction equation has no candidate images")
    vf = VectorField(cat, images, degree=deg_x)
    if contraction(vf, omega).terms != rhs.terms:
        longest = max(len(cfg) for cfg in rhs.terms)
        if longest > omega.order_cap:
            raise OrderCapError("contraction equation", longest, omega.order_cap)
        raise NCError("contraction equation unsolvable; omega degenerate?")
    return vf


def hamiltonian_field(fn: NCForm, omega: NCForm,
                      pairing: CyclicPairing) -> VectorField:
    return contraction_solve(omega, pairing, de_rham(fn))


# ---------------------------------------------------------------------------
# potentials

def potential_from_category(cat: AInfCategory, pairing: CyclicPairing) -> NCForm:
    """Solve dW = iota_Q omega for the function W, with order cap one more
    than the arity cap, so that b_n of every arity up to the cap reaches W;
    error with witnesses when not cyclic."""
    q = category_to_vectorfield(cat)
    f = cat.field
    cap = cat.arity_cap + 1
    omega = omega_from_pairing(cat, pairing, order_cap=cap)
    alpha = contraction(q, omega)
    closed = de_rham(alpha)
    if not closed.is_zero():
        witnesses = sorted(closed.terms.items())[:10]
        raise NotCyclicError(witnesses)
    # Euler homotopy: the order-n part of W is iota_E(alpha_n)/n
    e = euler_field(cat)
    closed_up = contraction(e, alpha)
    terms = {cfg: f.div(c, f.of_int(len(cfg)))
             for cfg, c in closed_up.terms.items()}
    w = NCForm(cat, terms, order_cap=cap)
    check = de_rham(w).add(alpha.scale(f.of_int(-1)))
    if not check.is_zero():
        raise NCError("internal: dW does not reproduce iota_Q omega")
    return w


def category_from_potential(w: NCForm, pairing: CyclicPairing,
                            order_cap: int) -> AInfCategory:
    """Rebuild operation tables on the objects and hom spaces of W's
    category via its Hamiltonian field.  order_cap caps omega and sets the
    arity cap order_cap - 1; it may be below W's own cap (strictify_units
    passes the caller's cap).  At arity cap 1 the category has no b_2, so
    the potential has no cubic words, and the reason names the cap."""
    skeleton = w.ctx
    omega = omega_from_pairing(skeleton, pairing, order_cap=order_cap)
    q = hamiltonian_field(w, omega, pairing)
    if q.degree != 1:
        if skeleton.arity_cap < 2:
            raise OrderCapError("potential", 3, skeleton.arity_cap)
        raise NCError("potential has wrong degree")
    ops = _dual_tables(skeleton, q.images)
    return AInfCategory(
        objects=skeleton.objects,
        hom=skeleton.hom,
        ops=ops,
        field=skeleton.field,
        arity_cap=min(skeleton.arity_cap, order_cap - 1),
        units=dict(skeleton.units),
        pairing=dict(pairing.entries),
        complete=False,
        weights=dict(skeleton.weights),
        weight_cap=skeleton.weight_cap,
    )


def check_cyclicity(cat: AInfCategory, pairing: CyclicPairing) -> list:
    """Cyclicity as exactness: the terms (arity, word, "", coefficient) of
    d(iota_Q omega), in word order; the category is cyclic exactly when
    there are none."""
    q = category_to_vectorfield(cat)
    omega = omega_from_pairing(cat, pairing, order_cap=cat.arity_cap + 1)
    closed = de_rham(contraction(q, omega))
    return [(len(cfg) - 1, cfg, "", c) for cfg, c in sorted(closed.terms.items())]


# ---------------------------------------------------------------------------
# Hamiltonian flows

def flow(h: VectorField, form: NCForm) -> NCForm:
    """exp(L_h) form = sum_k L_h^k form / k! for a degree-zero field h, with
    L_h = d iota_h + iota_h d: the pullback of form along the automorphism
    exp(h).  Every image word of h has at least two letters, so L_h
    lengthens each word and the sum stops once the form's cap has clipped
    every term; it is exact up to that cap."""
    f = form.field
    if f.p != 0:
        raise NCError("flows need characteristic zero")
    if any(len(w) < 2 for vec in h.images.values() for w in vec):
        raise NCError("flow field has an image word of fewer than 2 letters; "
                      "its series does not converge formally")
    total, term, k = form, form, 0
    while not term.is_zero():
        k += 1
        term = de_rham(contraction(h, term)).add(contraction(h, de_rham(term)))
        term = term.scale(f.of_fraction(Fraction(1, k)))
        total = total.add(term)
    return total


def _exp_open(h: VectorField, vec: dict, cap: int) -> dict:
    """exp(h) on a combination of open words {cfg: coeff}: sum_k h^k(vec) / k!,
    dropping words longer than cap; the sum stops at the first h^k(vec)
    with no word left."""
    f = h.ctx.field
    acc, term, k = dict(vec), vec, 0
    while term:
        k += 1
        inv_k = f.of_fraction(Fraction(1, k))
        nxt = {}
        for cfg, c in term.items():
            for new, c2 in vf_apply_open(h, cfg).items():
                if len(new) <= cap:
                    add_into(f, nxt, new, f.mul(f.mul(c, c2), inv_k))
        term = nxt
        for cfg, c in term.items():
            add_into(f, acc, cfg, c)
    return acc


# ---------------------------------------------------------------------------
# strictification

@dataclass
class StrictifyReport:
    processed_orders: list
    omega_preserved: bool
    identity: bool


def strictify_units(cat: AInfCategory, pairing: CyclicPairing, order_cap=None):
    """Make W_{>=4} reduced by an order-by-order loop of Hamiltonian flows.

    At order n + 1 the loop solves {s_n, W_3} = -(nonreduced part of W_{n+1})
    for a degree-zero function s_n of order n and moves W by the flow of its
    Hamiltonian field h; omega is pulled along the same flows, and the
    images of the letters under exp(h) compose into the coordinate change.
    The bracket {s, W_3} is H_{W_3} acting on s, one pass of the derivation
    loop; flows never change W_3, so its field is taken once, at the first
    order with a nonreduced part.  Orders run up to order_cap (default W's
    own cap, the arity cap plus one); W keeps its cap, and the letter images
    are cut at order_cap.

    Returns (cat2, iso, report).  Requires characteristic zero, minimality,
    designated units and a cyclic pairing; potential_from_category raises
    NotCyclicError when the pairing is not cyclic.  The A-infinity
    relations are the caller's to check (check_relations), once.
    """
    if cat.field.p != 0:
        raise NCError("strictification needs characteristic zero")
    if cat.op_table(1):
        raise NCError("input not minimal: b_1 is nonzero")
    if set(cat.units) != set(cat.objects):
        raise NCError("weak units must be designated on every object")

    w = potential_from_category(cat, pairing)
    cap = order_cap if order_cap is not None else w.order_cap
    f = cat.field
    one = f.of_int(1)
    omega = omega_from_pairing(cat, pairing, order_cap=cap)
    pulled = omega
    images = {lab: {((lab, 0),): one} for lab in cat.labels()}
    h3 = None
    processed = []

    for n in range(3, cap):
        bad = w.order_part(n + 1).nonreduced_part()
        if bad.is_zero():
            continue
        candidates = enumerate_cyclic_words(cat, n, degree=0)
        if not candidates:
            raise NCError("strictification obstructed at order %d" % (n + 1))
        if h3 is None:
            h3 = hamiltonian_field(w.order_part(3), omega, pairing)
        columns = [_derive(NCForm(cat, {cfg: one}, cap), h3.image_of, 0,
                           h3.degree).nonreduced_part().terms
                   for cfg in candidates]
        sol = sparse_solve(*_word_system(
            f, columns, {key: f.neg(c) for key, c in bad.terms.items()}))
        if sol is None:
            raise NCError("strictification obstructed at order %d "
                          "(input not cyclic/minimal as claimed)" % (n + 1))
        s_n = NCForm(cat, {candidates[i]: c for i, c in sol.items()}, cap)
        if s_n.is_zero():
            continue
        h = hamiltonian_field(s_n, omega, pairing)
        w = flow(h, w)
        pulled = flow(h, pulled)
        images = {lab: _exp_open(h, vec, cap) for lab, vec in images.items()}
        processed.append(n + 1)

    for n in range(4, cap + 1):
        if not w.order_part(n).nonreduced_part().is_zero():
            raise NCError("internal: order %d still nonreduced" % n)

    cat2 = category_from_potential(w, pairing, cap)
    # the coordinate change w_new = exp(h_k) ... exp(h_1) w_old dualizes to
    # a functor out of the strictified category into the input one
    iso = AInfMorphism(source=cat2, target=cat,
                       components=_dual_tables(cat, images),
                       arity_cap=cat2.arity_cap, complete=False)
    report = StrictifyReport(
        processed_orders=processed,
        omega_preserved=pulled.add(omega.scale(f.of_int(-1))).is_zero(),
        identity=all(vec == {((lab, 0),): one} for lab, vec in images.items()))
    return cat2, iso, report


# ---------------------------------------------------------------------------
# formality certificates

@dataclass
class FormalityCertificate:
    ok: bool
    profile: dict                # object -> g
    checks: list                 # (name, ok, detail)
    conclusion: str
    category: AInfCategory | None = None   # the strictified category


def certify_sigma_formality(cat: AInfCategory,
                            pairing: CyclicPairing) -> FormalityCertificate:
    """Strictify, then certify m_n = 0 for all n >= 3 by the degree argument.

    The argument is arity-uniform: once units are strict and the potential
    is reduced beyond the cubic, no word on letters of primal degree 1 or 2
    has the degree of a potential term, so W_{>=4} = 0 and the structure is
    the underlying graded category.
    """
    checks = []
    sigma = verify_sigma(cat)
    checks.append(("sigma_profile", sigma.verdict, "; ".join(sigma.failures[:4])))
    profile = sigma.genus
    minimal = not cat.op_table(1)
    checks.append(("minimal", minimal, "" if minimal else "b_1 nonzero"))
    rel = check_relations(cat)
    checks.append(("relations", rel.ok,
                   "" if rel.ok else str(rel.witnesses[:2])))
    cyc = check_cyclicity(cat, pairing)
    checks.append(("cyclicity", not cyc, str(cyc[:2]) if cyc else ""))
    if not all(c[1] for c in checks):
        return FormalityCertificate(False, profile, checks,
                                    "hypotheses of the rigidity lemma fail")

    cat2, _, report = strictify_units(cat, pairing)
    checks.append(("strictify_omega", report.omega_preserved, ""))
    units = check_unitality(cat2)
    checks.append(("strict_units", units == "strict", units))
    higher = [n for n in cat2.known_arities() if n >= 3 and cat2.op_table(n)]
    checks.append(("stored_higher_operations_vanish", not higher,
                   "" if not higher else "nonzero arities %s" % higher))
    ok = all(c[1] for c in checks)
    conclusion = (
        "m_n = 0 for all n >= 3: reduced potential terms need total xi-degree "
        "one, but every non-unit letter has xi-degree <= 0"
        if ok else "certificate not issued")
    return FormalityCertificate(ok, profile, checks, conclusion, category=cat2)


# ---------------------------------------------------------------------------
# pairing search

# sums of kernel vectors solve_cyclic_pairing tries, in bit-mask order
PAIRING_COMBINATIONS = 256


def solve_cyclic_pairing(cat: AInfCategory) -> CyclicPairing:
    """Find a nondegenerate pairing making the category cyclic.

    The constraints (graded symmetry plus d iota_Q omega = 0) are linear in
    the pairing entries; search the solution space for a nondegenerate
    point, deterministically.
    """
    f = cat.field
    blocks = _pairing_blocks(cat)
    unknowns = []
    for (i, j, d), rows in sorted(blocks.items()):
        for x in rows:
            for y in blocks.get((j, i, 2 - d), []):
                if (y, x) in unknowns or (x, y) in unknowns:
                    continue
                if x == y:
                    continue   # forced zero by graded symmetry
                unknowns.append((x, y))
    if not unknowns:
        raise NCError("no pairing slots available")

    q = category_to_vectorfield(cat)
    columns = []
    for (x, y) in unknowns:
        # omega of the pairing with <x, y> = 1, its graded mirror and nothing else
        probe = {}
        add_cyclic_term(cat, probe, ((x, 1), (y, 1)), f.of_int(1))
        omega = NCForm(cat, probe, cat.arity_cap + 1)
        columns.append(de_rham(contraction(q, omega)).terms)
    _, kernel, _, _ = rank_kernel_image(_word_system(f, columns)[0])
    if not kernel:
        raise NCError("no cyclic pairing exists at this cap")

    # try the sums of kernel vectors in the order of their bit masks
    n, one = len(kernel), f.one()
    by_bit = dict(enumerate(kernel))
    for mask in range(1, min(2 ** n, PAIRING_COMBINATIONS)):
        combo = apply_linear(f, by_bit, {bit: one for bit in range(n)
                                         if mask >> bit & 1})
        entries = {unknowns[cidx]: c for cidx, c in combo.items()}
        try:
            return make_pairing(cat, entries)
        except NCError:
            continue
    raise NCError("no nondegenerate cyclic pairing found")
