"""Differential calculus on cyclic words: the identity battery.

Everything here pins a sign convention.  The letters dual to hom-space
elements carry degree 1 - |y|, words are cyclic with Koszul rotation signs,
and the structure operations dualize to a square-zero derivation Q.  The
tests cross-check every operator against an independent route: Q against
check_relations, the necklace bracket against the Hamiltonian route, the
potential against the structure tables it came from, and the strictifier
against direct unitality checks on its output.
"""

import gc
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfty import docio, presentations, quiver
from ainfty.cli import main
from ainfty.field import QQ, GF
from ainfty.sparse import SparseMatrix, rank_kernel_image
from ainfty.transfer import minimal_model
from ainfty.ainf import check_functor, check_relations, check_unitality
from ainfty.localmodel import verify_sigma
from ainfty.ncword import (canonical_cyclic, cfg_degree, enumerate_cyclic_words,
                           slot_degree, xi_degree, xi_src, xi_tgt)
from ainfty import nccalc as nc
from ainfty.nccalc import NCError, NCForm, NotCyclicError

from ainf_oracle import perturbed
from nccalc_oracle import (bracket_via_hamiltonian, enumerate_forms,
                           lie_derivative, necklace_bracket, substitute,
                           vf_apply_function, vf_square_obstruction)
from signs_oracle import koszul_sign
from test_massey import exterior_fixture


def minimal_fixture(kind, arity_cap=6):
    q = {"jordan": quiver.jordan_quiver, "a2": quiver.a2_quiver,
         "two_loop": quiver.two_loop_quiver}[kind]()
    dg = presentations.bar_ext_category(quiver.derived_preprojective(q),
                                        weight_cap=2, arity_cap=arity_cap)
    cat, _, _ = minimal_model(dg)
    return cat


@pytest.fixture(scope="module", params=["jordan", "a2"])
def pack(request):
    cat = minimal_fixture(request.param)
    pairing = nc.solve_cyclic_pairing(cat)
    return request.param, cat, pairing


@pytest.fixture(scope="module")
def jordan_pack():
    cat = minimal_fixture("jordan")
    pairing = nc.solve_cyclic_pairing(cat)
    pot = nc.potential_from_category(cat, pairing)
    omega = nc.omega_from_pairing(cat, pairing, pot.order_cap)
    return cat, pairing, pot, omega


def test_cyclic_word_enumeration_leaves_no_reference_cycle():
    # the chain walk builds no reference cycle, so a call leaves nothing
    # for the cyclic collector
    cat = minimal_fixture("a2")
    gc.collect()
    gc.disable()
    try:
        assert enumerate_cyclic_words(cat, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def homogeneous_samples(cat, field, orders=(3, 4), per_degree=2):
    """Degree-homogeneous test functions with small mixed coefficients."""
    by_deg = {}
    for n in orders:
        for w in enumerate_cyclic_words(cat, n):
            by_deg.setdefault(cfg_degree(cat, w), []).append(w)
    out = []
    for deg, words in sorted(by_deg.items()):
        for i in range(0, min(len(words), 2 * per_degree), 2):
            terms = {words[i]: field.of_int(2 + i)}
            if i + 1 < len(words):
                terms[words[i + 1]] = field.of_int(-1 - i)
            out.append((deg, NCForm(cat, terms, 7)))
    return out


# ---------------------------------------------------------------------------
# cyclic words

def all_rotations(cat, cfg):
    """(rotation, sign) pairs with cfg == sign * rotation in the quotient."""
    total = sum(slot_degree(cat, x) for x in cfg)
    out = []
    cur, sign = tuple(cfg), 1
    for _ in range(len(cfg)):
        out.append((cur, sign))
        last = cur[-1]
        step = slot_degree(cat, last) * (total - slot_degree(cat, last))
        sign *= -1 if step % 2 else 1
        cur = (last,) + cur[:-1]
    return out


def test_rotated_configurations_agree_up_to_koszul_sign(pack):
    _, cat, _ = pack
    f = cat.field
    for n in (2, 3, 4):
        for w in enumerate_cyclic_words(cat, n)[:12]:
            for rot, sign in all_rotations(cat, w):
                acc = {}
                nc.add_cyclic_term(cat, acc, w, f.of_int(1))
                nc.add_cyclic_term(cat, acc, rot, f.of_int(-sign))
                assert not acc, (w, rot)


def test_sign_conflicted_orbits_are_dropped(pack):
    # a configuration fixed by a rotation with Koszul sign -1 represents 0;
    # squares of odd self-composable letters (unit duals) are the examples
    _, cat, _ = pack
    f = cat.field
    found = 0
    for a in sorted(cat.labels()):
        if xi_src(cat, a) != xi_tgt(cat, a) or xi_degree(cat, a) % 2 == 0:
            continue
        w = ((a, 0), (a, 0))
        assert canonical_cyclic(cat, w) is None
        acc = {}
        nc.add_cyclic_term(cat, acc, w, f.of_int(1))
        assert not acc
        found += 1
    assert found


def test_enumeration_filters_by_degree(pack):
    _, cat, _ = pack
    for n in (2, 3):
        for deg in (-1, 0, 1):
            words = enumerate_cyclic_words(cat, n, degree=deg)
            assert all(cfg_degree(cat, w) == deg for w in words)
        full = enumerate_cyclic_words(cat, n)
        got = {d: 0 for d in range(-n, n + 1)}
        for w in full:
            got[cfg_degree(cat, w)] = got.get(cfg_degree(cat, w), 0) + 1
        for deg, cnt in got.items():
            assert len(enumerate_cyclic_words(cat, n, degree=deg)) == cnt


# ---------------------------------------------------------------------------
# de Rham differential, contraction, Lie derivative

def test_differential_squares_to_zero(pack):
    _, cat, _ = pack
    f = cat.field
    for n in (2, 3, 4):
        for w in enumerate_cyclic_words(cat, n)[:10]:
            fn = NCForm(cat, {w: f.of_int(3)}, 7)
            dd = nc.de_rham(nc.de_rham(fn))
            assert dd.is_zero()
    for w in enumerate_forms(cat, 3, 1)[:10]:
        form = NCForm(cat, {w: f.of_int(1)}, 7)
        assert nc.de_rham(nc.de_rham(form)).is_zero()


def test_euler_field_counts_order(pack):
    _, cat, _ = pack
    f = cat.field
    e = nc.euler_field(cat)
    for n in (1, 2, 3, 4):
        for w in enumerate_cyclic_words(cat, n)[:8]:
            fn = NCForm(cat, {w: f.of_int(1)}, 7)
            lie = lie_derivative(e, fn)
            want = fn.scale(f.of_int(n))
            assert lie.add(want.scale(f.of_int(-1))).is_zero()
    for k in (1, 2):
        for w in enumerate_forms(cat, 3, k)[:8]:
            form = NCForm(cat, {w: f.of_int(1)}, 7)
            lie = lie_derivative(e, form)
            assert lie.add(form.scale(f.of_int(-3))).is_zero()


def test_contraction_of_exact_function_is_the_derivation_action(pack):
    # iota_psi(d g) = psi(g) for vector fields of either parity
    _, cat, _ = pack
    f = cat.field
    q = nc.category_to_vectorfield(cat)
    e = nc.euler_field(cat)
    for vf in (q, e):
        for n in (1, 2, 3):
            for w in enumerate_cyclic_words(cat, n)[:8]:
                fn = NCForm(cat, {w: f.of_int(1)}, 7)
                via_forms = nc.contraction(vf, nc.de_rham(fn))
                direct = vf_apply_function(vf, fn)
                assert via_forms.add(direct.scale(f.of_int(-1))).is_zero()


def test_lie_derivative_is_the_graded_commutator(pack):
    # spot-check d iota + (-1)^{|psi|} iota d against the packaged operator
    _, cat, _ = pack
    f = cat.field
    q = nc.category_to_vectorfield(cat)
    for w in enumerate_forms(cat, 3, 1)[:8]:
        form = NCForm(cat, {w: f.of_int(1)}, 7)
        first = nc.de_rham(nc.contraction(q, form))
        second = nc.contraction(q, nc.de_rham(form))
        sgn = f.of_int(1 if q.degree % 2 == 0 else -1)
        byhand = first.add(second.scale(sgn))
        packaged = lie_derivative(q, form)
        assert byhand.add(packaged.scale(f.of_int(-1))).is_zero()


# ---------------------------------------------------------------------------
# the derivation loop against a brute-force expansion

def brute_derivation(form, image_of, mark, parity, cap=None):
    """Expand a derivation of the given parity term by term: at slot k of a
    word, a letter carrying `mark` is replaced by each word of its image,
    with the Koszul sign of moving the operator from the front of the word
    past the k letters before it (koszul_sign of that explicit move).
    Words longer than cap are dropped."""
    cat, f = form.ctx, form.field
    acc = {}
    for cfg, coeff in form.terms.items():
        degs = [slot_degree(cat, slot) for slot in cfg]
        for k, (lab, m) in enumerate(cfg):
            if m != mark:
                continue
            # (D, x_0, ..., x_{k-1}) -> (x_0, ..., x_{k-1}, D)
            sign = koszul_sign([parity] + degs[:k], list(range(1, k + 1)) + [0])
            for w, c in image_of(lab).items():
                nc.add_cyclic_term(cat, acc, cfg[:k] + w + cfg[k + 1:],
                                   f.mul(coeff, f.mul(c, f.of_int(sign))))
    if cap is not None:
        acc = {w: c for w, c in acc.items() if len(w) <= cap}
    return acc


def oracle_forms(kind):
    """Forms on the alphabet of a minimal model: for jordan and a2 the
    potential W, dW and omega; for every model, sums of seeded random words
    with up to two marked letters."""
    if kind == "massey":
        cat, _, _ = minimal_model(exterior_fixture(), arity_cap=6)
    else:
        cat = minimal_fixture(kind)
    f = cat.field
    forms = []
    if kind != "massey":
        pairing = nc.solve_cyclic_pairing(cat)
        w = nc.potential_from_category(cat, pairing)
        forms += [w, nc.de_rham(w), nc.omega_from_pairing(cat, pairing, 7)]
    rng = random.Random(11)
    for order in (1, 2, 3, 4):
        for marks in (0, 1, 2):
            words = enumerate_forms(cat, order, marks)
            if not words:
                continue
            picked = rng.sample(words, min(len(words), 4))
            forms.append(NCForm(cat, {cfg: f.of_int(rng.choice([-3, -1, 1, 2]))
                                      for cfg in picked}, 5))
    return cat, forms


@pytest.mark.parametrize("kind", ["jordan", "a2", "massey"])
def test_derivation_loop_matches_brute_force(kind):
    cat, forms = oracle_forms(kind)
    one = cat.field.of_int(1)
    q = nc.category_to_vectorfield(cat)
    fields = [q, nc.euler_field(cat)]
    checked = 0
    for form in forms:
        got = nc.de_rham(form)
        want = brute_derivation(form, lambda lab: {((lab, 1),): one}, 0, 1)
        assert got.terms == want
        assert got.order_cap == form.order_cap
        for vf in fields:
            # the result is clipped at the cap of the form it acts on
            for op, mark, parity in ((nc.contraction, 1, vf.degree + 1),
                                     (vf_apply_function, 0, vf.degree)):
                got = op(vf, form)
                assert got.terms == brute_derivation(form, vf.image_of, mark,
                                                     parity, form.order_cap)
                assert got.order_cap == form.order_cap
                checked += bool(got.terms)
    assert checked


# ---------------------------------------------------------------------------
# the dictionary

def test_structure_dualizes_to_square_zero_field(pack):
    _, cat, _ = pack
    q = nc.category_to_vectorfield(cat)
    assert q.degree == 1
    assert not vf_square_obstruction(q)


def test_square_zero_fails_iff_relations_fail():
    cat = minimal_fixture("jordan")
    for which in range(6):
        bad, info = perturbed(cat, which)
        rep = check_relations(bad)
        qq = vf_square_obstruction(nc.category_to_vectorfield(bad))
        assert rep.ok == (not qq), info


def test_dualization_round_trip(pack):
    _, cat, _ = pack
    q = nc.category_to_vectorfield(cat)
    assert nc._dual_tables(q.ctx, q.images) == {n: cat.op_table(n)
                                           for n in cat.known_arities()
                                           if cat.op_table(n)}


def test_massey_model_also_dualizes_square_zero():
    # nonzero b_3 makes this the discriminating case for the reversal sign
    cat, _, _ = minimal_model(exterior_fixture(), arity_cap=6)
    q = nc.category_to_vectorfield(cat)
    assert not vf_square_obstruction(q)
    assert nc._dual_tables(q.ctx, q.images) == {n: cat.op_table(n)
                                           for n in cat.known_arities()
                                           if cat.op_table(n)}


# ---------------------------------------------------------------------------
# pairings and the symplectic form

def test_solved_pairing_is_cyclic_and_nondegenerate(pack):
    _, cat, pairing = pack
    f = cat.field
    # the stored inverse is a right inverse: sum_y <x', y> pi(y, x) = delta
    for x2 in cat.labels():
        for x in cat.labels():
            total = f.of_int(0)
            for y, row in pairing.inverse.items():
                if x in row:
                    total = f.add(total, f.mul(pairing.entries.get((x2, y), 0),
                                               row[x]))
            assert total == f.of_int(1 if x == x2 else 0), (x2, x)
    assert nc.check_cyclicity(cat, pairing) == []
    for (x, y), c in pairing.entries.items():
        # symmetry is graded in the unshifted degrees 1 - |xi|
        dx = 1 - xi_degree(cat, x)
        dy = 1 - xi_degree(cat, y)
        sym = -1 if (dx * dy) % 2 else 1
        assert pairing.entries[(y, x)] == cat.field.mul(c, cat.field.of_int(sym))


def test_pairing_rejects_wrong_degree_or_symmetry(jordan_pack):
    cat, pairing, _, _ = jordan_pack
    f = cat.field
    entries = dict(pairing.entries)
    (x, y) = next(k for k in entries if x_deg_one(cat, k))
    entries[(y, x)] = f.neg(entries[(y, x)])
    with pytest.raises(NCError):
        nc.make_pairing(cat, entries)
    bad = {(x, x): f.of_int(1)}
    with pytest.raises(NCError):
        nc.make_pairing(cat, bad)


@pytest.mark.parametrize("entry, message", [
    (("zz", "[1>1]0.0"), "unknown letter 'zz'"),
    (("[1>1]2.0", "[1>1]2.0"), "violates degree two"),
    (("[1>1]0.0", "[2>2]2.0"), "violates endpoints"),
], ids=["unknown", "degree", "endpoints"])
def test_make_pairing_refuses_what_the_category_does_not_allow(entry, message):
    # the category is the alphabet: a label it lacks, a degree sum other
    # than two, or hom spaces that are not opposite
    cat = minimal_fixture("a2")
    with pytest.raises(NCError, match=message):
        nc.make_pairing(cat, {entry: cat.field.of_int(1)})


def x_deg_one(cat, key):
    return xi_degree(cat, key[0]) == 0 and xi_degree(cat, key[1]) == 0


def test_omega_of_a_pairing_is_closed(jordan_pack):
    _, _, _, omega = jordan_pack
    assert nc.de_rham(omega).is_zero()


def test_cyclicity_check_flags_perturbations(jordan_pack):
    cat, pairing, _, _ = jordan_pack
    bad, info = perturbed(cat, 3)
    witnesses = nc.check_cyclicity(bad, pairing)
    rel = check_relations(bad)
    assert witnesses or not rel.ok, info


# ---------------------------------------------------------------------------
# potentials

def test_potential_terms_sit_in_a_single_degree(pack):
    _, cat, pairing = pack
    pot = nc.potential_from_category(cat, pairing)
    assert {cfg_degree(cat, w) for w in pot.terms} <= {1}


def test_cubic_part_contains_unit_letters(pack):
    # the pairing couples degree 0 with degree 2, so <b_2(x,y), unit> terms
    # force unit letters into the cubic part; reducedness starts at order 4
    _, cat, pairing = pack
    pot = nc.potential_from_category(cat, pairing)
    w3 = pot.order_part(3)
    assert not w3.nonreduced_part().is_zero()


def assert_round_trip(cat, pairing):
    pot = nc.potential_from_category(cat, pairing)
    back = nc.category_from_potential(pot, pairing, pot.order_cap)
    assert {n: back.op_table(n) for n in back.known_arities() if back.op_table(n)} \
        == {n: cat.op_table(n) for n in cat.known_arities() if cat.op_table(n)}
    # the objects, hom spaces, units and caps are those of the category W
    # is written in
    assert (back.objects, back.hom, back.units, back.weights, back.field,
            back.arity_cap) == (cat.objects, cat.hom, cat.units, cat.weights,
                                cat.field, cat.arity_cap)


def test_potential_category_round_trip(pack):
    _, cat, pairing = pack
    assert_round_trip(cat, pairing)


def test_two_loop_potential_category_round_trip():
    cat = minimal_fixture("two_loop")
    assert_round_trip(cat, nc.solve_cyclic_pairing(cat))


def test_potential_category_round_trip_keeps_the_top_arity(planted):
    # b_6 at arity cap 6 reaches W through words of length 7, W's cap
    _, bad_cat, pairing = planted
    assert bad_cat.op_table(bad_cat.arity_cap)
    assert_round_trip(bad_cat, pairing)


def test_potential_requires_cyclic_input(jordan_pack):
    cat, pairing, _, _ = jordan_pack
    bad, _ = perturbed(cat, 2)
    if not nc.check_cyclicity(bad, pairing):
        pytest.skip("perturbation happened to stay cyclic")
    with pytest.raises(NotCyclicError) as exc:
        nc.potential_from_category(bad, pairing)
    assert exc.value.witnesses


def test_master_equation_on_the_nose(pack):
    _, cat, pairing = pack
    pot = nc.potential_from_category(cat, pairing)
    br, const = necklace_bracket(pot, pot, pairing)
    assert br.is_zero() and not const


def test_hamiltonian_field_of_potential_is_q(pack):
    _, cat, pairing = pack
    pot = nc.potential_from_category(cat, pairing)
    omega = nc.omega_from_pairing(cat, pairing, pot.order_cap)
    h = nc.hamiltonian_field(pot, omega, pairing)
    q = nc.category_to_vectorfield(cat)
    assert h.images == q.images and h.degree == 1


def random_one_forms(cat, field, rng, orders=(2, 3, 4), per_order=4):
    """Seeded homogeneous one-mark 1-forms: de Rham differentials of
    functions (exact) and sums of random one-mark words (mostly not)."""
    out = []
    for n in orders:
        groups = {}
        for w in enumerate_cyclic_words(cat, n):
            groups.setdefault(("exact", cfg_degree(cat, w)), []).append(w)
        for w in enumerate_forms(cat, n, 1):
            groups.setdefault(("form", cfg_degree(cat, w)), []).append(w)
        keys = sorted(groups)
        for _ in range(per_order):
            kind, deg = rng.choice(keys)
            words = rng.sample(groups[(kind, deg)], min(3, len(groups[(kind, deg)])))
            form = NCForm(cat, {w: field.of_int(rng.choice([-3, -2, -1, 1, 2, 3]))
                                for w in words}, 7)
            out.append(nc.de_rham(form) if kind == "exact" else form)
    return out


@pytest.mark.parametrize("kind", ["jordan", "a2", "two_loop"])
def test_contraction_solve_inverts_the_contraction(kind):
    # X from the inverse pairing satisfies iota_X omega = rhs on exact and
    # non-exact 1-forms, and is a well-formed homogeneous field
    cat = minimal_fixture(kind)
    pairing = nc.solve_cyclic_pairing(cat)
    omega = nc.omega_from_pairing(cat, pairing, 7)
    forms = random_one_forms(cat, cat.field, random.Random(kind))
    assert any(not nc.de_rham(rhs).is_zero() for rhs in forms)
    for rhs in forms:
        x = nc.contraction_solve(omega, pairing, rhs)
        assert nc.contraction(x, omega).terms == rhs.terms
        assert x.validate() == []


def test_contraction_solve_refuses_a_term_without_a_letter_before_its_mark(
        jordan_pack):
    cat, pairing, _, omega = jordan_pack
    f = cat.field
    lone = nc.de_rham(NCForm(cat, {((sorted(cat.labels())[0], 0),): f.of_int(1)}, 7))
    with pytest.raises(NCError, match="no candidate images"):
        nc.contraction_solve(omega, pairing, lone)
    # next to a solvable term of the same degree, the forward check refuses it
    deg = cfg_degree(cat, next(iter(lone.terms)))
    other = next(w for w in enumerate_forms(cat, 2, 1) if cfg_degree(cat, w) == deg)
    with pytest.raises(NCError, match="unsolvable"):
        nc.contraction_solve(omega, pairing,
                             lone.add(NCForm(cat, {other: f.of_int(1)}, 7)))


def test_master_equation_detects_broken_potentials(jordan_pack):
    # perturb the potential itself (automatically cyclic) and compare
    # {W,W} = 0 against check_relations on the rebuilt category, both ways
    cat, pairing, pot, omega = jordan_pack
    f = cat.field
    nonzero_failures = 0
    for word in enumerate_cyclic_words(cat, 5, degree=1)[:8]:
        bump = NCForm(cat, {word: f.of_int(1)}, pot.order_cap)
        w2 = pot.add(bump)
        br, const = necklace_bracket(w2, w2, pairing)
        cat_bad = nc.category_from_potential(w2, pairing, pot.order_cap)
        rel = check_relations(cat_bad)
        assert rel.ok == (br.is_zero() and not const), word
        if not rel.ok:
            nonzero_failures += 1
    assert nonzero_failures


# ---------------------------------------------------------------------------
# the bracket

def test_order_one_brackets_reproduce_the_inverse_pairing(pack):
    _, cat, pairing = pack
    f = cat.field
    seen = 0
    for x, row in pairing.inverse.items():
        for y, val in row.items():
            fx = NCForm(cat, {((x, 0),): f.of_int(1)}, 7)
            fy = NCForm(cat, {((y, 0),): f.of_int(1)}, 7)
            br, const = necklace_bracket(fx, fy, pairing)
            assert not br.terms
            obj = xi_src(cat, x)
            assert const == {obj: val}
            seen += 1
    assert seen


def test_bracket_routes_agree(pack):
    _, cat, pairing = pack
    f = cat.field
    omega = nc.omega_from_pairing(cat, pairing, 7)
    samples = homogeneous_samples(cat, f)
    assert samples
    for _, g1 in samples:
        for _, g2 in samples:
            a, _ = necklace_bracket(g1, g2, pairing)
            b = bracket_via_hamiltonian(g1, g2, omega, pairing)
            assert a.terms == b.terms


def test_bracket_symmetry_law(pack):
    # {f,g} = (-1)^{(|f|+1)(|g|+1)} {g,f}; degree-1 entries may be symmetric,
    # which is what lets {W,W} carry the relations
    _, cat, pairing = pack
    f = cat.field
    samples = homogeneous_samples(cat, f)
    for d1, g1 in samples:
        for d2, g2 in samples:
            a, a_const = necklace_bracket(g1, g2, pairing)
            b, b_const = necklace_bracket(g2, g1, pairing)
            s = 1 if ((d1 + 1) * (d2 + 1)) % 2 == 0 else -1
            flip = b.scale(f.of_int(s))
            assert a.terms == flip.terms
            assert a_const == {k: f.mul(v, f.of_int(s))
                               for k, v in b_const.items()}


def test_bracket_adds_orders_minus_two(jordan_pack):
    cat, pairing, pot, _ = jordan_pack
    f = cat.field
    samples = homogeneous_samples(cat, f, orders=(3,), per_degree=1)
    for _, g1 in samples:
        for _, g2 in samples:
            br, _ = necklace_bracket(g1, g2, pairing)
            assert {len(cfg) for cfg in br.terms} <= {4}


# ---------------------------------------------------------------------------
# Hamiltonian flows

def letter_images(h, cat, cap):
    """exp(h) on every letter, words up to cap."""
    one = cat.field.of_int(1)
    return {lab: nc._exp_open(h, {((lab, 0),): one}, cap) for lab in cat.labels()}


def seeded_functions(cat, f, rng, orders=(1, 2, 3, 4), per_order=3):
    """Sums of seeded random cyclic words of each order, capped at 6."""
    out = []
    for n in orders:
        words = enumerate_cyclic_words(cat, n)
        for _ in range(per_order):
            picked = rng.sample(words, min(len(words), 3))
            out.append(NCForm(cat, {w: f.of_int(rng.choice([-3, -1, 1, 2]))
                                    for w in picked}, 6))
    return out


@pytest.mark.parametrize("want_unit", [True, False], ids=["unit", "reduced"])
def test_flow_matches_substitution(jordan_pack, want_unit):
    # exp(L_h) on a function is the substitution of exp(h) into its letters
    cat, pairing, pot, omega = jordan_pack
    f = cat.field
    s = pick_degree_zero_cubic(cat, f, want_unit).scale(f.of_int(2))
    h = nc.hamiltonian_field(s, omega, pairing)
    fns = [pot] + seeded_functions(cat, f, random.Random(want_unit))
    moved = 0
    for fn in fns:
        got = nc.flow(h, fn)
        assert got.order_cap == fn.order_cap
        assert got.terms == substitute(fn, letter_images(h, cat, fn.order_cap)).terms
        moved += got.terms != fn.terms
    assert moved


def test_exposed_flow_is_invertible_and_symplectic(jordan_pack):
    cat, pairing, pot, omega = jordan_pack
    f = cat.field
    s = pick_degree_zero_cubic(cat, f, want_unit=False)
    h = nc.hamiltonian_field(s, omega, pairing)
    # H_{-s} = -H_s, so the flow of -s is the inverse
    back = nc.hamiltonian_field(s.scale(f.of_int(-1)), omega, pairing)
    for fn in [pot] + seeded_functions(cat, f, random.Random(5)):
        assert nc.flow(back, nc.flow(h, fn)).terms == fn.terms
        assert nc.flow(h, nc.flow(back, fn)).terms == fn.terms
    cap = pot.order_cap
    forth = letter_images(h, cat, cap)
    for lab in cat.labels():
        for first, second in ((h, back), (back, h)):
            there = nc._exp_open(first, {((lab, 0),): f.of_int(1)}, cap)
            assert nc._exp_open(second, there, cap) == {((lab, 0),): f.of_int(1)}
    assert any(vec != {((lab, 0),): f.of_int(1)} for lab, vec in forth.items())
    pulled = nc.flow(h, omega)
    assert pulled.add(omega.scale(f.of_int(-1))).is_zero()


def test_flow_of_zero_is_identity(jordan_pack):
    cat, pairing, pot, omega = jordan_pack
    h = nc.hamiltonian_field(NCForm(cat, {}, 7), omega, pairing)
    assert not h.images
    assert nc.flow(h, pot).terms == pot.terms
    assert nc.flow(h, omega).terms == omega.terms
    one = cat.field.of_int(1)
    assert all(vec == {((lab, 0),): one}
               for lab, vec in letter_images(h, cat, 7).items())


def test_flow_rejects_low_order_and_finite_characteristic(jordan_pack):
    cat, pairing, pot, omega = jordan_pack
    f = cat.field
    # an order-2 function has a Hamiltonian field with one-letter images,
    # which keep word lengths: the series would never end
    word = next(w for w in enumerate_cyclic_words(cat, 2, degree=0)
                if not nc.de_rham(NCForm(cat, {w: f.of_int(1)}, 7)).is_zero())
    h = nc.hamiltonian_field(NCForm(cat, {word: f.of_int(1)}, 7), omega, pairing)
    with pytest.raises(NCError, match="fewer than 2 letters"):
        nc.flow(h, pot)
    cat7 = replace(cat, field=GF(7))
    fn7 = NCForm(cat7, {next(iter(pot.terms)): 1}, 7)
    with pytest.raises(NCError, match="characteristic zero"):
        nc.flow(nc.VectorField(cat7, {}, 0), fn7)


def pick_degree_zero_cubic(cat, f, want_unit):
    units = set(cat.units.values())
    for w in enumerate_cyclic_words(cat, 3, degree=0):
        has_unit = any(l in units for l, _ in w)
        if has_unit == want_unit:
            return NCForm(cat, {w: f.of_int(1)}, 7)
    raise RuntimeError("no cubic generator with the requested support")


# ---------------------------------------------------------------------------
# strictification

def plant(cat, coeff):
    """cat moved by the flow of coeff times a cubic unit word: cyclic, with
    weak units and b_n != 0 up to the arity cap; returns (moved, pairing)."""
    f = cat.field
    pairing = nc.solve_cyclic_pairing(cat)
    pot = nc.potential_from_category(cat, pairing)
    omega = nc.omega_from_pairing(cat, pairing, pot.order_cap)
    s = pick_degree_zero_cubic(cat, f, want_unit=True)
    h = nc.hamiltonian_field(s.scale(f.of_int(coeff)), omega, pairing)
    w = nc.flow(h, pot)
    return nc.category_from_potential(w, pairing, pot.order_cap), pairing


@pytest.fixture(scope="module")
def planted():
    cat = minimal_fixture("jordan")
    bad_cat, pairing = plant(cat, -1)
    return cat, bad_cat, pairing


def planted_document(cat):
    """cat as a document; the flow breaks weight homogeneity, so the
    weights are left out."""
    doc = docio.to_document("ainf_category", cat)
    del doc["payload"]["weights"]
    return doc


def test_planted_fixture_is_honestly_broken(planted):
    cat, bad_cat, pairing = planted
    assert check_relations(bad_cat).ok
    assert nc.check_cyclicity(bad_cat, pairing) == []
    assert check_unitality(bad_cat) != "strict"
    pot = nc.potential_from_category(bad_cat, pairing)
    assert not pot.order_part(4).nonreduced_part().is_zero()


def test_planted_flow_preserves_the_cubic_part(planted):
    cat, bad_cat, pairing = planted
    f = cat.field
    w = nc.potential_from_category(cat, pairing)
    w_bad = nc.potential_from_category(bad_cat, pairing)
    assert w_bad.order_part(3).add(w.order_part(3).scale(f.of_int(-1))).is_zero()


def test_strictify_clears_the_planted_terms(planted):
    cat, bad_cat, pairing = planted
    cat2, iso, report = nc.strictify_units(bad_cat, pairing)
    assert report.omega_preserved
    assert report.processed_orders
    assert check_unitality(cat2) == "strict"
    assert check_relations(cat2).ok
    pot2 = nc.potential_from_category(cat2, pairing)
    for n in {len(cfg) for cfg in pot2.terms}:
        if n >= 4:
            assert pot2.order_part(n).nonreduced_part().is_zero()
    rep = check_functor(iso, max_arity=5)
    assert rep.ok, rep.witnesses[:2]
    lin = iso.components.get(1, {})
    f = cat.field
    assert all(out == {tup[0]: f.of_int(1)} for tup, out in lin.items())


def test_strictify_is_idempotent(planted):
    cat, bad_cat, pairing = planted
    cat2, _, _ = nc.strictify_units(bad_cat, pairing)
    cat3, iso2, report2 = nc.strictify_units(cat2, pairing)
    assert report2.identity and not report2.processed_orders
    f = cat.field
    assert all(out == {tup[0]: f.of_int(1)}
               for tup, out in iso2.components.get(1, {}).items())
    assert {n: cat3.op_table(n) for n in cat3.known_arities() if cat3.op_table(n)} \
        == {n: cat2.op_table(n) for n in cat2.known_arities() if cat2.op_table(n)}


@pytest.mark.parametrize("kind, arity_cap, coeff",
                         [("jordan", 6, -1), ("two_loop", 4, 2)])
def test_cli_strictify_clears_planted_documents(tmp_path, capsys, kind,
                                               arity_cap, coeff):
    # W keeps b_n up to the arity cap, so the strictified category and the
    # coordinate change agree there: strict units and a passing functor
    bad_cat, _ = plant(minimal_fixture(kind, arity_cap), coeff)
    path = tmp_path / "planted.json"
    path.write_text(json.dumps(planted_document(bad_cat)), encoding="utf-8")
    assert main(["strictify", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)["payload"]
    assert report["verdict"] == "pass" and report["witnesses"] == []
    assert report["result"]["units"] == "strict"
    assert report["result"]["omega_preserved"] is True
    assert report["result"]["processed_orders"]


@pytest.mark.parametrize("kind, arity_cap, coeff, columns",
                         [("jordan", 6, -1, 240), ("jordan", 6, 3, 240),
                          ("two_loop", 4, 2, 152), ("two_loop", 5, -1, 640)])
def test_strictify_columns_are_necklace_brackets(kind, arity_cap, coeff,
                                                 columns):
    # strictify_units reads the column {s, W_3} of each degree-zero word s
    # as H_{W_3}(s), one pass of the derivation loop; the necklace cuts and
    # splices through the inverse pairing instead, and the two agree
    # without a sign on every order the loop can reach
    bad_cat, pairing = plant(minimal_fixture(kind, arity_cap), coeff)
    pot = nc.potential_from_category(bad_cat, pairing)
    cap, one = pot.order_cap, bad_cat.field.of_int(1)
    w3 = pot.order_part(3)
    h3 = nc.hamiltonian_field(w3, nc.omega_from_pairing(bad_cat, pairing, cap),
                              pairing)
    seen = 0
    for n in range(3, cap):
        for cfg in enumerate_cyclic_words(bad_cat, n, degree=0):
            s = NCForm(bad_cat, {cfg: one}, cap)
            br, const = necklace_bracket(s, w3, pairing)
            assert vf_apply_function(h3, s).terms == br.terms, cfg
            assert not const
            seen += 1
    assert seen == columns


def test_formality_flags_a_non_cyclic_top_arity(tmp_path, capsys, planted):
    # tripling the first arity-6 coefficient leaves the relations checked
    # up to the cap intact (b_1 = 0) and breaks only cyclicity at arity 6
    _, bad_cat, _ = planted
    doc = planted_document(bad_cat)
    top = next(rec for rec in doc["payload"]["ops"] if rec["arity"] == 6)
    entry = top["table"][0]["output"][0]
    entry[1] = str(3 * Fraction(entry[1]))
    path = tmp_path / "tripled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["formality", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)["payload"]
    assert [w["check"] for w in report["witnesses"]] == ["cyclicity"]


def test_strictify_requires_characteristic_zero():
    cat = minimal_fixture("jordan")
    pairing = nc.solve_cyclic_pairing(cat)
    from dataclasses import replace
    f7 = GF(7)
    with pytest.raises(NCError):
        nc.strictify_units(replace(cat, field=f7), pairing)


def test_strictify_rejects_non_cyclic_input(jordan_pack):
    cat, pairing, _, _ = jordan_pack
    bad, _ = perturbed(cat, 1)
    with pytest.raises((NCError, NotCyclicError)):
        nc.strictify_units(bad, pairing)


# ---------------------------------------------------------------------------
# de Rham cohomology of the cyclic complex

def test_cyclic_de_rham_acyclic_in_positive_form_degree(pack):
    _, cat, _ = pack
    f = cat.field
    for order in (1, 2, 3):
        bases = {k: enumerate_forms(cat, order, k) for k in range(order + 2)}
        mats = {}
        for k in range(order + 1):
            rows = {w: i for i, w in enumerate(bases[k + 1])}
            m = SparseMatrix(len(rows), len(bases[k]), f)
            for c_idx, w in enumerate(bases[k]):
                img = nc.de_rham(NCForm(cat, {w: f.of_int(1)}, 9))
                for w2, c in img.terms.items():
                    m.set(rows[w2], c_idx, c)
            mats[k] = m
        for k in range(1, order + 1):
            dim_ker = len(bases[k]) - rank_kernel_image(mats[k])[0]
            assert dim_ker == rank_kernel_image(mats[k - 1])[0], (order, k)


# ---------------------------------------------------------------------------
# formality certificates

def test_formality_certificates_for_the_standard_fixtures(pack):
    kind, cat, pairing = pack
    cert = nc.certify_sigma_formality(cat, pairing)
    assert cert.ok, cert.checks
    want = {"jordan": {1}, "a2": {0}}[kind]
    assert set(cert.profile.values()) == want
    names = [n for n, ok, _ in cert.checks if ok]
    assert "stored_higher_operations_vanish" in names


def test_certified_potential_is_purely_cubic(pack):
    _, cat, pairing = pack
    cat2, _, _ = nc.strictify_units(cat, pairing)
    pot = nc.potential_from_category(cat2, pairing)
    assert {len(cfg) for cfg in pot.terms} == {3}


def test_profile_rejects_wide_hom_spaces():
    # the certificate's sigma_profile check is localmodel.verify_sigma
    cert = verify_sigma(exterior_fixture())
    assert not cert.verdict
    assert any("Ext" in f for f in cert.failures)


# ---------------------------------------------------------------------------
# property-based spot checks

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bracket_is_biadditive(data):
    cat = _CACHE.setdefault("jordan", minimal_fixture("jordan"))
    pairing = _CACHE.setdefault("pairing", nc.solve_cyclic_pairing(cat))
    f = cat.field
    samples = _CACHE.setdefault(
        "samples", [s for _, s in homogeneous_samples(cat, f, per_degree=3)])
    g1, g2, g3 = (data.draw(st.sampled_from(samples)) for _ in range(3))
    lhs, _ = necklace_bracket(g1, g2.add(g3), pairing)
    b12, _ = necklace_bracket(g1, g2, pairing)
    b13, _ = necklace_bracket(g1, g3, pairing)
    assert lhs.terms == b12.add(b13).terms


_CACHE = {}
