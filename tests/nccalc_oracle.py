"""Derived operators of the noncommutative calculus, and the necklace
bracket, for the tests.

The package needs d, the contraction iota_X and the Hamiltonian field; the
tests check identities that tie these together through operators built on
top of them: the Lie derivative [d, iota_X], X acting on functions, Q.Q on
generators, which vanishes exactly when the category's relations hold, and
substitution of letter images as a second route to Hamiltonian flows.

The necklace bracket is the independent route to {f, g}: it cuts f and g
at one letter each and splices the rest through the inverse pairing, with
its own sign rule and no derivation loop.  The tests check it against
{f, g} = H_f(g) (bracket_via_hamiltonian), which is how strictify_units
reads {s, W_3}, and use it for the master equation {W, W} = 0.
enumerate_forms lists the canonical configurations the identities run over.
"""

from ainfty.nccalc import (NCForm, VectorField, _derive, contraction, de_rham,
                           hamiltonian_field, vf_apply_open)
from ainfty.ncword import (add_cyclic_term, canonical_cyclic, cfg_degree,
                           slot_degree, xi_src, xi_tgt)
from ainfty.signs import parity_sign, rotations
from ainfty.sparse import add_into


def lie_derivative(vf: VectorField, form: NCForm) -> NCForm:
    """L_vf = [d, iota_vf] as a graded commutator in total degree."""
    first = de_rham(contraction(vf, form))
    second = contraction(vf, de_rham(form))
    # [d, iota] = d iota - (-1)^{|iota|} iota d, |iota| = |vf| - 1
    return first.add(second.scale(form.field.of_int(parity_sign(vf.degree))))


def vf_apply_function(vf: VectorField, fn: NCForm) -> NCForm:
    """Derivation action on cyclic functions."""
    return _derive(fn, vf.image_of, 0, vf.degree)


def bracket_via_hamiltonian(f: NCForm, g: NCForm, omega: NCForm,
                            pairing) -> NCForm:
    """{f,g} = H_f(g), the derivation route to the necklace bracket."""
    h = hamiltonian_field(f, omega, pairing)
    return vf_apply_function(h, g)


def necklace_bracket(f: NCForm, g: NCForm, pairing):
    """{f, g} by the necklace rule: for every rotation of each word of f
    ending in xi_x and every rotation of each word of g starting in xi_y,
    splice the two strands through pi(x, y).  Returns (form, constant):
    the words up to the smaller cap, and {object: coeff} for the empty
    words (brackets of two letters)."""
    ctx = f.ctx
    k = ctx.field
    cap = min(f.order_cap, g.order_cap)
    rots = {w: list(rotations(w, [slot_degree(ctx, s) for s in w]))
            for w in list(f.terms) + list(g.terms)}
    acc = {}
    const = {}
    for wf, cf in f.terms.items():
        for wg, cg in g.terms.items():
            base = k.mul(cf, cg)
            for rot_f, s1 in rots[wf]:
                x = rot_f[-1][0]
                u = rot_f[:-1]
                pi_x = pairing.inverse.get(x, {})
                for rot_g, s2 in rots[wg]:
                    y = rot_g[0][0]
                    z = rot_g[1:]
                    piv = pi_x.get(y)
                    if piv is None:
                        continue
                    # contracting the adjacent pair xi_x xi_y moves past the
                    # strand U; pinned against the iota/omega route (letters
                    # coupled by the pairing have equal degree parity)
                    s3 = parity_sign(cfg_degree(ctx, u))
                    coeff = k.mul(base, k.mul(piv, k.of_int(s1 * s2 * s3)))
                    word = u + z
                    if not word:
                        add_into(k, const, xi_src(ctx, x), coeff)
                        continue
                    if len(word) > cap:
                        continue
                    add_cyclic_term(ctx, acc, word, coeff)
    return NCForm(ctx, acc, cap), const


def substitute(fn: NCForm, images: dict) -> NCForm:
    """Replace each letter of a cyclic function by its image {open word:
    coeff} and multiply out, dropping words longer than the function's cap.
    For the images of a degree-zero automorphism no sign arises: every
    letter keeps its place and its degree."""
    ctx, f, cap = fn.ctx, fn.field, fn.order_cap
    acc = {}
    for cfg, coeff in fn.terms.items():
        partial = [(coeff, ())]
        for lab, _ in cfg:
            partial = [(f.mul(c0, c1), w0 + w1) for c0, w0 in partial
                       for w1, c1 in images[lab].items()
                       if len(w0) + len(w1) <= cap]
        for c, word in partial:
            add_cyclic_term(ctx, acc, word, c)
    return NCForm(ctx, acc, cap)


def vf_compose_on_letters(outer: VectorField, inner: VectorField) -> dict:
    """Images of the composite derivation outer . inner on generators."""
    f = outer.ctx.field
    out = {}
    for lab, vec in inner.images.items():
        acc = {}
        for cfg, c in vec.items():
            for new, c2 in vf_apply_open(outer, cfg).items():
                add_into(f, acc, new, f.mul(c, c2))
        if acc:
            out[lab] = acc
    return out


def vf_square_obstruction(q: VectorField) -> dict:
    """Images of Q.Q; zero iff [Q,Q] = 0 for odd Q."""
    return vf_compose_on_letters(q, q)


def enumerate_forms(cat, order: int, form_degree: int):
    """Canonical configurations with the given letter count and mark count."""
    labels = sorted(cat.labels())
    found = set()

    def extend(cfg, marks_left):
        if len(cfg) == order:
            if marks_left:
                return
            if xi_src(cat, cfg[-1][0]) != xi_tgt(cat, cfg[0][0]):
                return
            canon = canonical_cyclic(cat, cfg)
            if canon is not None:
                found.add(canon[0])
            return
        for lab in labels:
            if cfg and xi_src(cat, cfg[-1][0]) != xi_tgt(cat, lab):
                continue
            for mark in (0, 1):
                if mark and not marks_left:
                    continue
                extend(cfg + ((lab, mark),), marks_left - mark)

    extend((), form_degree)
    return sorted(found)
