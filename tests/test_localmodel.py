"""Local models: Ext-profile certificates, halved quivers, Maurer-Cartan
matrix equations, the Euler-form cross-check, and HN-type enumeration.

The MC equations are validated pointwise against the representation-side
relation checker: a matrix point satisfies the presented equations exactly
when the corresponding module over the preprojective algebra satisfies its
defining relations.  The HN enumerator is validated against a padded
brute-force oracle that re-derives every inequality from scratch.
"""

import functools
import gc
import itertools
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfty import localmodel, presentations, quiver, repmod
from ainfty import nccalc as nc
from ainfty.ainf import AInfCategory
from ainfty.field import GF, QQ
from ainfty.localmodel import (LocalModelError, SigmaCertificate,
                               check_hn_type, euler_compare, ext_quiver_halve,
                               first_failing_hn_type, hn_enumerate,
                               mc_presentation, monic_equations, poly_str,
                               verify_sigma)
from ainfty.quiver import double, star_name
from ainfty.ratpoly import RatPolynomial
from ainfty.sparse import SparseMatrix, add_into, invert
from ainfty.transfer import minimal_model

from hn_oracle import (_box, brute_force_types, check_hn_type_oracle,
                       reduced_polynomial, type_key)
from localmodel_oracle import mc_point, mc_residuals, mc_vanishes
from repmod_oracle import conjugate, eval_relations

F7 = GF(7)


@functools.lru_cache(maxsize=None)
def strict_fixture(kind):
    """Strictified minimal model of the derived preprojective algebra,
    with its formality certificate."""
    q = {"jordan": quiver.jordan_quiver, "a2": quiver.a2_quiver}[kind]()
    dg = presentations.bar_ext_category(quiver.derived_preprojective(q),
                                        weight_cap=2, arity_cap=6)
    cat, _, _ = minimal_model(dg)
    pairing = nc.solve_cyclic_pairing(cat)
    cert = nc.certify_sigma_formality(cat, pairing)
    assert cert.ok
    strict, _, _ = nc.strictify_units(cat, pairing)
    return q, strict, cert


def synthetic_cat(hom):
    return AInfCategory(objects=tuple(sorted({i for i, _ in hom} | {j for _, j in hom})),
                        hom=hom, ops={})


# ---------------------------------------------------------------------------
# profile certificates


def test_sigma_passes_on_genus_one_fixture():
    _, cat, _ = strict_fixture("jordan")
    cert = verify_sigma(cat)
    assert cert.verdict and not cert.failures
    assert cert.genus == {"1": 1}
    assert (cert.ext("1", "1", 0), cert.ext("1", "1", 1), cert.ext("1", "1", 2)) == (1, 2, 1)


def test_sigma_passes_on_two_object_fixture():
    _, cat, _ = strict_fixture("a2")
    cert = verify_sigma(cat)
    assert cert.verdict
    assert cert.genus == {"1": 0, "2": 0}
    assert cert.ext("1", "2", 1) == 1 and cert.ext("2", "1", 1) == 1
    assert cert.ext("1", "2", 0) == 0 and cert.ext("1", "2", 2) == 0


def test_sigma_rejects_third_degree():
    cat = synthetic_cat({("X", "X"): (("e", 0), ("f", 1), ("g", 1), ("z", 2), ("w", 3))})
    cert = verify_sigma(cat)
    assert not cert.verdict
    assert any("Ext^3" in msg for msg in cert.failures)
    assert cert.genus == {}


def test_sigma_rejects_asymmetric_cross_terms():
    cat = synthetic_cat({
        ("X", "X"): (("eX", 0), ("zX", 2)),
        ("Y", "Y"): (("eY", 0), ("zY", 2)),
        ("X", "Y"): (("u", 1),),
    })
    cert = verify_sigma(cat)
    assert not cert.verdict
    assert any("not symmetric" in msg for msg in cert.failures)


def test_sigma_rejects_odd_diagonal():
    cat = synthetic_cat({("X", "X"): (("e", 0), ("f", 1), ("z", 2))})
    cert = verify_sigma(cat)
    assert not cert.verdict
    assert any("odd self-Ext^1" in msg for msg in cert.failures)


def test_sigma_rejects_fat_degree_zero():
    cat = synthetic_cat({("X", "X"): (("e", 0), ("e2", 0), ("z", 2))})
    assert not verify_sigma(cat).verdict


def test_sigma_rejects_cross_terms_outside_degree_one():
    cat = synthetic_cat({
        ("X", "X"): (("eX", 0), ("zX", 2)),
        ("Y", "Y"): (("eY", 0), ("zY", 2)),
        ("X", "Y"): (("u", 0),),
        ("Y", "X"): (("v", 0),),
    })
    cert = verify_sigma(cat)
    assert not cert.verdict
    assert any("off the diagonal" in msg for msg in cert.failures)


# ---------------------------------------------------------------------------
# halved Ext quivers


def test_halve_reproduces_one_loop_quiver():
    _, cat, _ = strict_fixture("jordan")
    q = ext_quiver_halve(verify_sigma(cat))
    assert q == quiver.jordan_quiver()


def test_halve_reproduces_two_vertex_quiver():
    _, cat, _ = strict_fixture("a2")
    q = ext_quiver_halve(verify_sigma(cat))
    assert q == quiver.a2_quiver()


def test_halve_genus_two_gives_two_loops():
    cat = synthetic_cat({("X", "X"): (("e", 0), ("f1", 1), ("f2", 1),
                                      ("f3", 1), ("f4", 1), ("z", 2))})
    q = ext_quiver_halve(verify_sigma(cat))
    assert q.vertices == ("X",)
    assert [(a.src, a.tgt) for a in q.arrows] == [("X", "X"), ("X", "X")]
    assert len({a.name for a in q.arrows}) == 2


def test_halve_splits_odd_cross_term_toward_earlier_object():
    hom = {
        ("X", "X"): (("eX", 0), ("zX", 2)),
        ("Y", "Y"): (("eY", 0), ("zY", 2)),
        ("X", "Y"): (("u1", 1), ("u2", 1), ("u3", 1)),
        ("Y", "X"): (("v1", 1), ("v2", 1), ("v3", 1)),
    }
    q = ext_quiver_halve(verify_sigma(synthetic_cat(hom)))
    fwd = [a for a in q.arrows if (a.src, a.tgt) == ("X", "Y")]
    bwd = [a for a in q.arrows if (a.src, a.tgt) == ("Y", "X")]
    assert (len(fwd), len(bwd)) == (2, 1)
    # doubling restores the full Ext^1 count in each direction
    dq = double(q)
    assert sum(1 for a in dq.arrows if (a.src, a.tgt) == ("X", "Y")) == 3
    assert sum(1 for a in dq.arrows if (a.src, a.tgt) == ("Y", "X")) == 3


def test_halve_refuses_failing_certificate():
    cat = synthetic_cat({("X", "X"): (("e", 0), ("f", 1), ("z", 2))})
    with pytest.raises(LocalModelError, match="not 2CY-consistent"):
        ext_quiver_halve(verify_sigma(cat))


def test_halve_is_deterministic():
    _, cat, _ = strict_fixture("a2")
    q1 = ext_quiver_halve(verify_sigma(cat))
    q2 = ext_quiver_halve(verify_sigma(cat))
    assert q1 == q2


# ---------------------------------------------------------------------------
# Maurer-Cartan presentations


def deg1_labels(cat):
    out = []
    for (i, j) in sorted(cat.hom):
        out.extend(lab for lab, deg in cat.hom[(i, j)] if deg == 1)
    return out


def test_one_dimensional_loop_block_has_zero_equation():
    _, cat, cert = strict_fixture("jordan")
    pres = mc_presentation(cat, (1,), certificate=cert)
    assert pres.exactness == "exact"
    assert len(pres.classical_equations) == 1
    eq = pres.classical_equations[0]
    assert eq.matrix == (({},),)


def test_loop_block_equation_is_the_commutator():
    _, cat, cert = strict_fixture("jordan")
    pres = mc_presentation(cat, (2,), certificate=cert)
    x, y = deg1_labels(cat)
    (eq,) = monic_equations(pres)
    # entry (0,0) of [X, Y] up to global sign: x01 y10 - x10 y01
    assert eq.matrix[0][0] == {
        ((x, 0, 1), (y, 1, 0)): Fraction(1),
        ((x, 1, 0), (y, 0, 1)): Fraction(-1),
    }
    # trace of the equation matrix vanishes identically
    trace = dict(eq.matrix[0][0])
    for mono, c in eq.matrix[1][1].items():
        add_into(pres.field, trace, mono, c)
    assert trace == {}


def test_two_vertex_rank_one_equation_is_xy():
    _, cat, cert = strict_fixture("a2")
    pres = mc_presentation(cat, (1, 1), certificate=cert)
    u, v = deg1_labels(cat)
    eqs = monic_equations(pres)
    assert len(eqs) == 2
    for eq in eqs:
        assert eq.matrix == (({((u, 0, 0), (v, 0, 0)): Fraction(1)},),)


def test_two_vertex_rank_two_equation_is_the_outer_product():
    _, cat, cert = strict_fixture("a2")
    pres = mc_presentation(cat, (1, 2), certificate=cert)
    u, v = deg1_labels(cat)
    by_pair = {eq.pair: eq for eq in monic_equations(pres)}
    big = by_pair[("2", "2")]
    for r in range(2):
        for c in range(2):
            assert big.matrix[r][c] == {((u, r, 0), (v, 0, c)): Fraction(1)}
    small = by_pair[("1", "1")]
    assert small.matrix[0][0] == {
        ((u, 0, 0), (v, 0, 0)): Fraction(1),
        ((u, 1, 0), (v, 0, 1)): Fraction(1),
    }


def test_presentation_without_certificate_is_truncated():
    _, cat, _ = strict_fixture("jordan")
    # the rule reads whether a degree-1 label exists, not the multiplicities
    for d in ((2,), (0,)):
        assert mc_presentation(cat, d).exactness.startswith("truncated:cap=")
    no_deg1 = synthetic_cat({("X", "X"): (("e", 0), ("z", 2))})
    assert mc_presentation(no_deg1, (2,)).exactness == "exact"


def test_stored_products_above_the_cap_truncate_only_when_they_count():
    # a category with no degree-1 label has no variables: a stored b_3 above
    # the cap cannot add to the equations, so the presentation stays exact
    no_deg1 = AInfCategory(objects=("X",), hom={("X", "X"): (("e", 0), ("z", 2))},
                           ops={3: {("e", "e", "z"): {"z": Fraction(1)}}},
                           arity_cap=3, complete=True)
    assert mc_presentation(no_deg1, (2,), arity_cap=2).exactness == "exact"
    # with degree-1 labels, an entry above the cap counts only when all its
    # inputs have degree 1 and it has a nonzero degree-2 output
    hom = {("X", "X"): (("e", 0), ("x", 1), ("y", 1), ("z", 2))}
    for b3, exactness in [
            ({("x", "x", "e"): {"z": Fraction(1)}}, "exact"),
            ({("x", "x", "y"): {"x": Fraction(1)}}, "exact"),
            ({("x", "x", "y"): {"z": Fraction(0)}}, "exact"),
            ({("x", "x", "y"): {"z": Fraction(2)}}, "truncated:cap=2")]:
        cat = AInfCategory(objects=("X",), hom=hom, ops={3: b3},
                           arity_cap=3, complete=True)
        assert mc_presentation(cat, (1,), arity_cap=2).exactness == exactness
        assert mc_presentation(cat, (1,)).exactness == "exact"


def test_presentation_rejects_nonminimal_input():
    q = quiver.jordan_quiver()
    dg = presentations.bar_ext_category(quiver.derived_preprojective(q),
                                        weight_cap=2, arity_cap=6)
    with pytest.raises(LocalModelError, match="not minimal"):
        mc_presentation(dg, (1,))


def test_presentation_rejects_high_degrees():
    cat = synthetic_cat({("X", "X"): (("e", 0), ("w", 3))})
    with pytest.raises(LocalModelError, match="degree"):
        mc_presentation(cat, (1,))


def test_presentation_rejects_bad_multiplicities():
    _, cat, _ = strict_fixture("a2")
    with pytest.raises(LocalModelError, match="length"):
        mc_presentation(cat, (1,))
    with pytest.raises(LocalModelError, match="negative"):
        mc_presentation(cat, (1, -1))


def test_commutator_equation_detects_commuting_matrices():
    _, cat, cert = strict_fixture("jordan")
    pres = mc_presentation(cat, (2,), certificate=cert)
    x, y = deg1_labels(cat)

    def point(mx, my):
        mats = {x: SparseMatrix.from_dense(mx), y: SparseMatrix.from_dense(my)}
        return mc_point(pres, mats, QQ)

    commuting = point([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]],
                      [[Fraction(3), Fraction(4)], [Fraction(0), Fraction(3)]])
    assert mc_vanishes(pres, commuting, QQ)
    noncommuting = point([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]],
                         [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]])
    assert not mc_vanishes(pres, noncommuting, QQ)
    res = mc_residuals(pres, noncommuting, QQ)
    (zlab,) = res
    assert res[zlab].entries.get((0, 0), 0) != 0


# ---------------------------------------------------------------------------
# pointwise agreement with the representation side


def mc_dictionary(cat, q):
    """Match degree-1 labels to arrows of the doubled quiver, per source and
    target pair, both sides in their stored order."""
    dq = double(q)
    arrows_by_pair = {}
    for a in dq.arrows:
        arrows_by_pair.setdefault((a.src, a.tgt), []).append(a.name)
    for pr in arrows_by_pair:
        arrows_by_pair[pr].sort()
    out = {}
    used = {pr: 0 for pr in arrows_by_pair}
    for (i, j) in sorted(cat.hom):
        for lab, deg in cat.hom[(i, j)]:
            if deg != 1:
                continue
            pr = (str(i), str(j))
            out[lab] = arrows_by_pair[pr][used[pr]]
            used[pr] += 1
    return out


def rand_invertible(n, f, rng):
    while True:
        m = SparseMatrix(n, n, field=f)
        for r in range(n):
            for c in range(n):
                m.set(r, c, f.of_int(rng.randrange(7)))
        if invert(m) is not None:
            return m


def mu_zero_point(q, d, f, rng):
    """Random representation of the doubled quiver lying on the zero fiber
    of the moment map: a structured solution conjugated by random change of
    basis."""
    dq = double(q)
    verts = list(q.vertices)
    base = {}
    if len(verts) == 1 and d[verts[0]] == 1:
        for a in q.arrows:
            for name in (a.name, star_name(a.name)):
                base[name] = SparseMatrix(1, 1, field=f,
                                          entries={(0, 0): f.of_int(rng.randrange(7))})
    elif len(verts) == 1 and d[verts[0]] == 2:
        # A random, A* a polynomial in A, so they commute
        A = SparseMatrix(2, 2, field=f)
        for r in range(2):
            for c in range(2):
                A.set(r, c, f.of_int(rng.randrange(7)))
        c0, c1 = f.of_int(rng.randrange(7)), f.of_int(rng.randrange(7))
        eye = SparseMatrix(2, 2, field=f, entries={(0, 0): c0, (1, 1): c0})
        a = q.arrows[0]
        base[a.name] = A
        base[star_name(a.name)] = A.scale(c1).add(eye)
    else:
        # one direction of each doubled pair is zero
        for a in q.arrows:
            ns, nt = d[a.src], d[a.tgt]
            M = SparseMatrix(nt, ns, field=f)
            Ms = SparseMatrix(ns, nt, field=f)
            if rng.random() < 0.5:
                for r in range(nt):
                    for c in range(ns):
                        M.set(r, c, f.of_int(rng.randrange(7)))
            else:
                for r in range(ns):
                    for c in range(nt):
                        Ms.set(r, c, f.of_int(rng.randrange(7)))
            base[a.name] = M
            base[star_name(a.name)] = Ms
    rep = repmod.MatrixRep(dq, d, base, field=f)
    g = {v: rand_invertible(d[v], f, rng) for v in verts}
    rep = conjugate(rep, g)
    assert all(m.is_zero() for m in repmod.moment_map(rep).values())
    return rep


def random_double_rep(q, d, f, rng):
    dq = double(q)
    base = {}
    for a in dq.arrows:
        m = SparseMatrix(d[a.tgt], d[a.src], field=f)
        for r in range(d[a.tgt]):
            for c in range(d[a.src]):
                m.set(r, c, f.of_int(rng.randrange(7)))
        base[a.name] = m
    return repmod.MatrixRep(dq, d, base, field=f)


MC_CASES = [
    ("jordan", {"1": 1}),
    ("jordan", {"1": 2}),
    ("a2", {"1": 1, "2": 1}),
    ("a2", {"1": 1, "2": 2}),
]


@pytest.mark.parametrize("kind,dvec", MC_CASES)
def test_mc_locus_matches_preprojective_relations(kind, dvec):
    q, cat, cert = strict_fixture(kind)
    pres = mc_presentation(cat, [dvec[v] for v in q.vertices], certificate=cert)
    dic = mc_dictionary(cat, q)
    pi = quiver.preprojective(q)
    rng = random.Random(2026)
    for _ in range(25):
        rep = mu_zero_point(q, dvec, F7, rng)
        vals = mc_point(pres, {lab: rep.mats[arr] for lab, arr in dic.items()}, F7)
        assert mc_vanishes(pres, vals, F7)
        assert eval_relations(rep, pi).ok
        other = random_double_rep(q, dvec, F7, rng)
        ovals = mc_point(pres, {lab: other.mats[arr] for lab, arr in dic.items()}, F7)
        assert mc_vanishes(pres, ovals, F7) == eval_relations(other, pi).ok


def test_mc_locus_is_conjugation_invariant():
    q, cat, cert = strict_fixture("a2")
    dvec = {"1": 1, "2": 2}
    pres = mc_presentation(cat, (1, 2), certificate=cert)
    dic = mc_dictionary(cat, q)
    rng = random.Random(5)
    for _ in range(10):
        rep = mu_zero_point(q, dvec, F7, rng)
        other = random_double_rep(q, dvec, F7, rng)
        for r in (rep, other):
            vals = mc_point(pres, {lab: r.mats[arr] for lab, arr in dic.items()}, F7)
            g = {v: rand_invertible(dvec[v], F7, rng) for v in q.vertices}
            rg = conjugate(r, g)
            gvals = mc_point(pres, {lab: rg.mats[arr] for lab, arr in dic.items()}, F7)
            assert mc_vanishes(pres, vals, F7) == mc_vanishes(pres, gvals, F7)


def test_mc_point_fills_missing_blocks_with_zero():
    _, cat, cert = strict_fixture("jordan")
    pres = mc_presentation(cat, (2,), certificate=cert)
    vals = mc_point(pres, {}, QQ)
    assert set(vals) == set(pres.coordinates)
    assert all(v == Fraction(0) for v in vals.values())
    assert mc_vanishes(pres, vals, QQ)


# ---------------------------------------------------------------------------
# The index-path expansion against matrix products


@functools.lru_cache(maxsize=None)
def bar_minimal(kind, p):
    """Minimal model of the weight-2 bar category of the derived
    preprojective algebra of a quiver, over QQ (p = 0) or GF(p)."""
    q = getattr(quiver, kind + "_quiver")()
    dg = presentations.bar_ext_category(quiver.derived_preprojective(q),
                                        weight_cap=2, field=GF(p) if p else QQ)
    return minimal_model(dg)[0]


def b3_cat(f, b3=5):
    """Objects A, B with degree-1 morphisms x: A -> B, y: B -> A and a loop
    l at A, a degree-2 class at each object, b_2 on three composable pairs
    and b_3(l, y, x) = b3 zA.  No A-infinity relation is claimed; only the
    presentation reads the tables."""
    hom = {("A", "A"): (("eA", 0), ("l", 1), ("zA", 2)),
           ("B", "B"): (("eB", 0), ("zB", 2)),
           ("A", "B"): (("x", 1),), ("B", "A"): (("y", 1),)}
    ops = {2: {("y", "x"): {"zA": f.one()}, ("x", "y"): {"zB": f.of_int(-1)},
               ("l", "l"): {"zA": f.of_int(2)}},
           3: {("l", "y", "x"): {"zA": f.of_int(b3)}}}
    return AInfCategory(objects=("A", "B"), hom=hom, ops=ops, field=f,
                        arity_cap=3)


def product_sums(cat, mats):
    """{z: entries of sum c M_{x_1} ... M_{x_n}} over the stored
    all-degree-1 tuples with output c z, z of degree 2, by SparseMatrix.mul."""
    f = cat.field
    out = {}
    for n in range(2, cat.arity_cap + 1):
        for tup, outs in cat.ops.get(n, {}).items():
            if any(cat.deg(x) != 1 for x in tup):
                continue
            prod = mats[tup[0]]
            for x in tup[1:]:
                prod = prod.mul(mats[x])
            for z, c in outs.items():
                if cat.deg(z) == 2:
                    acc = out.setdefault(z, {})
                    for key, v in prod.scale(c).entries.items():
                        add_into(f, acc, key, v)
    return out


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("kind", ["jordan", "a2", "two_loop", "b3"])
def test_equations_are_the_matrix_products(kind, p):
    f = GF(p) if p else QQ
    cat = b3_cat(f) if kind == "b3" else bar_minimal(kind, p)
    deg1 = [(lab, i, j) for (i, j), basis in sorted(cat.hom.items())
            for lab, deg in basis if deg == 1]
    rng = random.Random(26 + p)
    for d in itertools.product(range(4), repeat=len(cat.objects)):
        pres = mc_presentation(cat, d)
        sizes = pres.block_sizes
        for _ in range(3):
            mats = {}
            for lab, i, j in deg1:
                mats[lab] = SparseMatrix(sizes[j], sizes[i], field=f)
                for r in range(sizes[j]):
                    for c in range(sizes[i]):
                        mats[lab].set(r, c, f.of_int(rng.randint(-4, 4)))
            got = mc_residuals(pres, mc_point(pres, mats, f), f)
            assert {z: m.entries for z, m in got.items() if m.entries} \
                == {z: e for z, e in product_sums(cat, mats).items() if e}, d


def test_b3_entry_contradicts_a_passing_certificate():
    passing = types.SimpleNamespace(ok=True)
    with pytest.raises(LocalModelError,
                       match="certificate claims vanishing higher operations"):
        mc_presentation(b3_cat(QQ), (1, 1), certificate=passing)
    # a zero coefficient is no higher operation
    zero = mc_presentation(b3_cat(QQ, b3=0), (1, 1), certificate=passing)
    assert zero.exactness == "exact"


# ---------------------------------------------------------------------------
# Euler-form comparison


def test_euler_identity_for_the_loop():
    q, cat, _ = strict_fixture("jordan")
    rep = euler_compare(q, (1,), cat)
    assert rep.lhs == rep.rhs == 0
    assert rep.by_degree == ((0, 1), (1, 2), (2, 1))


def test_euler_identity_for_two_vertices():
    q, cat, _ = strict_fixture("a2")
    rep = euler_compare(q, (1, 1), cat)
    assert rep.lhs == rep.rhs == 2
    assert euler_compare(q, (1, 2), cat).lhs == 6
    rep = euler_compare(q, (3, 1), cat)
    assert rep.lhs == rep.rhs


def test_euler_identity_scales_with_genus():
    cat = synthetic_cat({("X", "X"): (("e", 0), ("f1", 1), ("f2", 1),
                                      ("f3", 1), ("f4", 1), ("z", 2))})
    q = ext_quiver_halve(verify_sigma(cat))
    rep = euler_compare(q, (1,), cat)
    assert rep.lhs == rep.rhs == 2 - 2 * 2


def test_euler_mismatch_is_a_hard_failure():
    cat = synthetic_cat({("1", "1"): (("e", 0), ("f1", 1), ("f2", 1),
                                      ("f3", 1), ("f4", 1), ("z", 2))})
    with pytest.raises(LocalModelError, match="Euler form mismatch"):
        euler_compare(quiver.jordan_quiver(), (1,), cat)


def test_euler_rejects_vertex_mismatch():
    _, cat, _ = strict_fixture("jordan")
    with pytest.raises(LocalModelError, match="do not match"):
        euler_compare(quiver.a2_quiver(), (1, 1), cat)


# ---------------------------------------------------------------------------
# HN types


def poly(*coeffs):
    return RatPolynomial.of([Fraction(c) for c in coeffs])


def crude_bound(c2, c1):
    return Fraction(-3) * c2 - abs(c1)


def test_reduced_polynomial_calibration():
    assert reduced_polynomial(poly(4, 2)).coeffs == (Fraction(2), Fraction(1))
    assert reduced_polynomial(poly(0, 0, 3)).coeffs == (Fraction(0), Fraction(0), Fraction(1, 2))
    assert reduced_polynomial(poly(7)).coeffs == (Fraction(1),)
    with pytest.raises(LocalModelError):
        reduced_polynomial(poly())


def test_two_part_worked_example():
    types = hn_enumerate(poly(0, 2), poly(-1, 1))
    keys = [type_key(t) for t in types]
    assert ((Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1))) in keys
    assert ((Fraction(0), Fraction(2)),) in keys
    assert len(types) == 2


def test_tight_bound_leaves_only_the_singleton():
    types = hn_enumerate(poly(2, 2), poly(1, 1))
    assert [type_key(t) for t in types] == [((Fraction(2), Fraction(2)),)]


def test_bound_above_the_total_slope_leaves_nothing():
    assert hn_enumerate(poly(2, 2), poly(2, 1)) == []


def test_degree_zero_is_trivial():
    types = hn_enumerate(poly(5), poly(1))
    assert [type_key(t) for t in types] == [((Fraction(5),),)]
    # every reduced part of degree 0 is 1, so no two parts decrease: a
    # total of 40 has its one type at once, with no walk over the 2^39
    # compositions of 40
    types = hn_enumerate(poly(40), poly(1))
    assert [type_key(t) for t in types] == [((Fraction(40),),)]


def test_finer_lattice_admits_new_splits():
    coarse = hn_enumerate(poly(2, 2), poly(Fraction(3, 4), 1), lattice=(1, 1))
    fine = hn_enumerate(poly(2, 2), poly(Fraction(3, 4), 1), lattice=(4, 1))
    assert len(coarse) == 1
    fine_keys = [type_key(t) for t in fine]
    assert ((Fraction(5, 4), Fraction(1)), (Fraction(3, 4), Fraction(1))) in fine_keys
    assert len(fine) == 2


DEG1_SETS = [
    (poly(0, 2), poly(-1, 1), (1, 1)),
    (poly(1, 3), poly(-2, 1), (1, 1)),
    (poly(-2, 3), poly(-2, 1), (1, 1)),
    (poly(0, 4), poly(-1, 1), (1, 1)),
    (poly(3, 2), poly(0, 1), (1, 1)),
    (poly(2, 2), poly(Fraction(3, 4), 1), (4, 1)),
    (poly(Fraction(1, 2), 2), poly(-1, 1), (2, 1)),
    (poly(5, 1), poly(-3, 1), (1, 1)),
    (poly(-1, 3), poly(-1, 1), (1, 1)),
    (poly(1, 1), poly(Fraction(-3, 2), 1), (2, 2)),
]

DEG2_SETS = [
    (poly(1, 0, 2), poly(-2, -1, Fraction(1, 2)), (1, 1, 1)),
    (poly(0, 1, 2), poly(-2, 0, Fraction(1, 2)), (1, 1, 1)),
    (poly(2, 2, 2), poly(-1, 0, Fraction(1, 2)), (1, 1, 1)),
    (poly(-1, 1, 2), poly(-1, -1, Fraction(1, 2)), (1, 1, 1)),
    (poly(1, 1, 2), poly(Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2)), (2, 2, 1)),
]


@pytest.mark.parametrize("P,q,lat", DEG1_SETS)
def test_degree_one_agrees_with_brute_force(P, q, lat):
    types = hn_enumerate(P, q, lattice=lat)
    got = {type_key(t) for t in types}
    want = brute_force_types(P, q, pad=4, lattice=lat)
    assert got == want
    for t in types:
        assert check_hn_type(P, q, t, lattice=lat)


@pytest.mark.parametrize("P,q,lat", DEG2_SETS)
def test_degree_two_agrees_with_brute_force(P, q, lat):
    types = hn_enumerate(P, q, bogomolov_param=crude_bound, lattice=lat)
    got = {type_key(t) for t in types}
    want = brute_force_types(P, q, pad=3, bogomolov_param=crude_bound, lattice=lat)
    assert got == want
    for t in types:
        assert check_hn_type(P, q, t, bogomolov_param=crude_bound, lattice=lat)


def test_types_are_closed_under_the_defining_inequalities():
    P, q = poly(1, 3), poly(-2, 1)
    types = hn_enumerate(P, q)
    assert types
    for t in types:
        assert sum(t, RatPolynomial.zero()) == P
        reduced = [reduced_polynomial(p) for p in t]
        for a, b in zip(reduced, reduced[1:]):
            assert tuple(a.coeffs) != tuple(b.coeffs)
        # perturbed variants must fail re-verification
        if len(t) > 1:
            swapped = tuple(reversed(t))
            assert not check_hn_type(P, q, swapped)
        bumped = (t[0] + 1,) + t[1:]
        assert not check_hn_type(P, q, bumped)


def test_enumeration_is_deterministic():
    P, q = poly(1, 3), poly(-2, 1)
    a = hn_enumerate(P, q)
    b = hn_enumerate(P, q)
    assert [type_key(t) for t in a] == [type_key(t) for t in b]
    c = hn_enumerate(poly(1, 0, 2), poly(-2, -1, Fraction(1, 2)), bogomolov_param=crude_bound)
    d = hn_enumerate(poly(1, 0, 2), poly(-2, -1, Fraction(1, 2)), bogomolov_param=crude_bound)
    assert [type_key(t) for t in c] == [type_key(t) for t in d]


def test_enumeration_input_validation():
    with pytest.raises(LocalModelError, match="degree mismatch"):
        hn_enumerate(poly(0, 1), poly(1))
    with pytest.raises(LocalModelError, match="bogomolov"):
        hn_enumerate(poly(0, 0, 1), poly(0, 0, Fraction(1, 2)))
    with pytest.raises(LocalModelError, match="reduced"):
        hn_enumerate(poly(0, 2), poly(0, 2))
    with pytest.raises(LocalModelError, match="degree"):
        hn_enumerate(poly(0, 0, 0, 1), poly(0, 0, 0, Fraction(1, 6)))
    with pytest.raises(LocalModelError, match="lattice"):
        hn_enumerate(poly(Fraction(1, 2), 1), poly(0, 1))
    with pytest.raises(LocalModelError, match="positive leading"):
        hn_enumerate(poly(1, -1), poly(0, 1))


@settings(max_examples=20, deadline=None)
@given(a1=st.integers(min_value=1, max_value=3),
       a0=st.integers(min_value=-3, max_value=3),
       q0=st.integers(min_value=-3, max_value=1))
def test_random_degree_one_sets_agree_with_brute_force(a1, a0, q0):
    P, q = poly(a0, a1), poly(q0, 1)
    got = {type_key(t) for t in hn_enumerate(P, q)}
    want = brute_force_types(P, q, pad=4)
    assert got == want


@settings(max_examples=20, deadline=None)
@given(a2=st.integers(min_value=1, max_value=2),
       a1=st.integers(min_value=-2, max_value=2),
       a0=st.integers(min_value=-2, max_value=2),
       q1=st.integers(min_value=-1, max_value=0),
       q0=st.integers(min_value=-2, max_value=0))
def test_random_degree_two_sets_agree_with_brute_force(a2, a1, a0, q1, q0):
    # a part's t-coefficient is at least -2 per unit of lead, so with
    # |a1|, |a0| <= 2 every type lies inside the oracle's box at pad 4
    P, q = poly(a0, a1, a2), poly(q0, q1, Fraction(1, 2))
    got = {type_key(t) for t in hn_enumerate(P, q, bogomolov_param=crude_bound)}
    want = brute_force_types(P, q, pad=4, bogomolov_param=crude_bound)
    assert got == want


def test_enumeration_leaves_no_reference_cycle():
    # the walk keeps an explicit stack, so a call leaves nothing for the
    # cyclic collector
    gc.collect()
    gc.disable()
    try:
        assert hn_enumerate(poly(0, 6), poly(-1, 1))
        assert hn_enumerate(poly(1, 0, 3), poly(-2, -1, Fraction(1, 2)),
                            bogomolov_param=crude_bound)
        assert gc.collect() == 0
    finally:
        gc.enable()


def fractional_bound(c2, c1):
    # the docio form A c2 + B |c1| + C with fractional A, B, C
    return Fraction(-5, 2) * c2 - Fraction(1, 2) * abs(c1) - Fraction(1, 3)


F = Fraction
# denominators 1 to 4 in every position, fractional and negative bounds,
# up to three parts; degree 2 under two Bogomolov bounds
LATTICE_SETS = [
    (poly(F(1, 3), 1), poly(F(-2, 3), 1), (3, 1), None),
    (poly(F(2, 3), 2), poly(F(-1, 3), 1), (3, 1), None),
    (poly(F(-1, 2), F(3, 2)), poly(F(-3, 4), 1), (4, 2), None),
    (poly(F(-1, 2), 1), poly(F(-5, 2), 1), (2, 3), None),
    (poly(F(5, 4), F(3, 4)), poly(-2, 1), (4, 4), None),
    (poly(F(-3, 2), 2), poly(F(-7, 4), 1), (4, 1), None),
    (poly(F(1, 2), F(1, 3), 2), poly(-1, F(-1, 3), F(1, 2)), (2, 3, 1),
     crude_bound),
    (poly(0, F(1, 2), 2), poly(-2, F(-1, 4), F(1, 2)), (4, 2, 1),
     crude_bound),
    (poly(F(-1, 3), 0, 2), poly(F(-3, 2), F(-1, 2), F(1, 2)), (3, 2, 1),
     fractional_bound),
    (poly(F(3, 4), F(-1, 2), 2), poly(-2, F(-3, 4), F(1, 2)), (4, 4, 1),
     fractional_bound),
]


def coefficient_key(typ):
    """The parts' coefficients, top degree first."""
    return [tuple(reversed(part)) for part in type_key(typ)]


@pytest.mark.parametrize("P,q,lat,bog", LATTICE_SETS)
def test_lattice_enumeration_agrees_with_brute_force(P, q, lat, bog):
    types = hn_enumerate(P, q, bogomolov_param=bog, lattice=lat)
    assert {type_key(t) for t in types} == brute_force_types(
        P, q, pad=3, bogomolov_param=bog, lattice=lat)
    keys = [coefficient_key(t) for t in types]
    assert keys == sorted(keys) and len(set(map(tuple, keys))) == len(keys)


def hn(*parts):
    return tuple(poly(*p) for p in parts)


@pytest.mark.parametrize("P,q,lat,bog,good,bad", [
    # off the lattice: t + 1/2 and t - 1/2 in (1, 1)
    (poly(0, 2), poly(-1, 1), (1, 1), None,
     hn((1, 1), (-1, 1)), hn((F(1, 2), 1), (F(-1, 2), 1))),
    # a part below the bound: slope -2 < -1
    (poly(0, 2), poly(-1, 1), (1, 1), None,
     hn((1, 1), (-1, 1)), hn((2, 1), (-2, 1))),
    # equal consecutive reduced polynomials
    (poly(2, 2), poly(-1, 1), (1, 1), None,
     hn((2, 1), (0, 1)), hn((1, 1), (1, 1))),
    # a constant term at the Bogomolov bound -3 c2 - |c1| = -3 holds, and
    # fails against the bound one higher
    (poly(-3, 0, 1), poly(-10, -1, F(1, 2)), (1, 1, 1), crude_bound,
     hn((-3, 0, 1)), None),
    # parts that do not add up to P
    (poly(0, 2), poly(-1, 1), (1, 1), None,
     hn((1, 1), (-1, 1)), hn((2, 1), (-1, 1))),
], ids=["off-lattice", "below-bound", "equal-reduced", "bogomolov", "total"])
def test_check_hn_type_rejects_each_broken_inequality(P, q, lat, bog, good, bad):
    assert check_hn_type(P, q, good, bogomolov_param=bog, lattice=lat)
    if bad is None:
        def bad_bog(c2, c1):
            return bog(c2, c1) + 1
        assert not check_hn_type(P, q, good, bogomolov_param=bad_bog, lattice=lat)
    else:
        assert not check_hn_type(P, q, bad, bogomolov_param=bog, lattice=lat)


def test_check_hn_type_refuses_a_lattice_that_is_not_positive():
    good = hn((1, 1), (-1, 1))
    for lat in ((0, 1), (1, -1)):
        with pytest.raises(LocalModelError, match="positive denominators"):
            check_hn_type(poly(0, 2), poly(-1, 1), good, lattice=lat)


def docio_bound(c2, c1):
    # the constant-term bound c0 >= -3 c2 - |c1| in the form docio builds
    return Fraction(-3) * c2 + Fraction(-1) * abs(c1) + Fraction(0)


# the twelve hn-enum queries of the moduli benchmark: total, bound, lattice
# and whether the degree-2 constant-term bound applies
BENCHMARK_QUERIES = [
    (poly(0, 2), poly(-1, 1), (1, 1), None),
    (poly(1, 3), poly(-2, 1), (1, 1), None),
    (poly(0, 4), poly(-1, 1), (1, 1), None),
    (poly(2, 2), poly(F(3, 4), 1), (4, 1), None),
    (poly(-1, 3), poly(-1, 1), (1, 1), None),
    (poly(1, 0, 2), poly(-2, -1, F(1, 2)), (1, 1, 1), docio_bound),
    (poly(2, 2, 2), poly(-1, 0, F(1, 2)), (1, 1, 1), docio_bound),
    (poly(1, 1, 2), poly(F(-3, 2), F(-1, 2), F(1, 2)), (2, 2, 1), docio_bound),
    (poly(0, 6), poly(-1, 1), (1, 1), None),
    (poly(0, 6), poly(-1, 1), (2, 1), None),
    (poly(1, 0, 3), poly(-2, -1, F(1, 2)), (1, 1, 1), docio_bound),
    (poly(2, 2, 3), poly(-1, 0, F(1, 2)), (1, 1, 1), docio_bound),
]


def mutations(P, q, lat, bog, typ):
    """(name, q, bog, type): the type with one defining inequality broken,
    where its shape allows, each under the query's bound unless named."""
    parts = list(typ)
    deg = P.degree
    half = F(1, 2 * lat[0])
    top = RatPolynomial.of([0] * deg + [1])
    out = [
        ("total", q, bog, (parts[0] + 1,) + tuple(parts[1:])),
        ("leading", q, bog, (P + top, -top)),
        ("bound", q + 1, bog, tuple(parts)),
        ("equal", q, bog, (P * F(1, 2), P * F(1, 2))),
    ]
    if len(parts) > 1:
        out.append(("lattice", q, bog,
                    (parts[0] + half,) + tuple(parts[1:-1]) + (parts[-1] - half,)))
        out.append(("order", q, bog, tuple(reversed(parts))))
    else:
        out.append(("lattice", q, bog, (parts[0] + half,)))
    if bog is not None:
        out.append(("bogomolov", q, lambda c2, c1: bog(c2, c1) + 1, tuple(parts)))
    return out


def test_check_hn_type_agrees_with_the_polynomial_oracle():
    """On every type of the benchmark queries, and on each type with one
    inequality broken, the coefficient-tuple check gives the verdict of the
    RatPolynomial check it replaced."""
    rejected = set()
    for P, q, lat, bog in BENCHMARK_QUERIES:
        for typ in hn_enumerate(P, q, bogomolov_param=bog, lattice=lat):
            assert check_hn_type_oracle(P, q, typ, bogomolov_param=bog,
                                        lattice=lat)
            for name, q2, bog2, bad in mutations(P, q, lat, bog, typ):
                verdict = check_hn_type(P, q2, bad, bogomolov_param=bog2,
                                        lattice=lat)
                assert verdict == check_hn_type_oracle(
                    P, q2, bad, bogomolov_param=bog2, lattice=lat), (name, bad)
                if not verdict:
                    rejected.add(name)
    assert rejected == {"total", "leading", "bound", "equal", "lattice",
                        "order", "bogomolov"}


# (name, P, q, lattice, Bogomolov bound, a valid type and a bad one in
# lattice coordinates (k, m_1, .., m_D)), each bad type breaking one
# inequality
BAD_ENUMERATIONS = [
    # the same part object twice: its checks are memoized, and the keys
    # still do not decrease
    ("repeated-part", poly(2, 2), poly(-1, 1), (1, 1), None,
     ((1, 2), (1, 0)), ((1, 1), (1, 1))),
    # valid parts in decreasing order that add up to 2t - 1
    ("total", poly(0, 2), poly(-1, 1), (1, 1), None,
     ((1, 1), (1, -1)), ((1, 0), (1, -1))),
    # the constant term -4 of t^2 - 4 is below -3 c2 - |c1| = -3
    ("bogomolov", poly(1, 0, 2), poly(-2, -1, F(1, 2)), (1, 1, 1), crude_bound,
     ((1, 0, 2), (1, 0, -1)), ((1, 0, 5), (1, 0, -4))),
    # t + 1/2 and t - 1/2 off the lattice (1, 1)
    ("lattice", poly(0, 2), poly(-1, 1), (1, 1), None,
     ((1, 1), (1, -1)), ((1, F(1, 2)), (1, F(-1, 2)))),
]


@pytest.mark.parametrize("name,P,q,lat,bog,good,bad", BAD_ENUMERATIONS,
                         ids=[case[0] for case in BAD_ENUMERATIONS])
def test_reverification_names_a_bad_enumerated_type(monkeypatch, name, P, q,
                                                    lat, bog, good, bad):
    def polys(parts):
        return tuple(RatPolynomial.of([Fraction(n, lat[k])
                                       for k, n in enumerate(reversed(part))])
                     for part in parts)

    assert check_hn_type(P, q, polys(good), bogomolov_param=bog, lattice=lat)
    monkeypatch.setattr(localmodel, "_hn_parts",
                        lambda total, q_bound, lat, bog: [good, bad])
    with pytest.raises(LocalModelError) as err:
        hn_enumerate(P, q, bogomolov_param=bog, lattice=lat)
    assert str(err.value) == ("enumerated type fails re-verification: %r"
                              % (polys(bad),))


def test_enumerated_types_share_their_part_objects():
    types = hn_enumerate(*BENCHMARK_QUERIES[2][:2])
    objects = {}
    for typ in types:
        for p in typ:
            assert objects.setdefault(p, p) is p
    assert sum(map(len, types)) > len(objects)


# small queries for the oracle: every one enumerates in milliseconds
ORACLE_QUERIES = ([(P, q, lat, None) for P, q, lat in DEG1_SETS]
                  + [(P, q, lat, crude_bound) for P, q, lat in DEG2_SETS]
                  + LATTICE_SETS)


@st.composite
def candidate_types(draw):
    """A query and a list of types: enumerated ones, which share their
    parts, and types built from a pool of parts drawn from the oracle's
    boxes, some on a lattice twice as fine as the query's, some of them
    completed by the remainder of P.  A pool part may stand in several
    types and twice in one."""
    P, q, lat, bog = draw(st.sampled_from(ORACLE_QUERIES))
    deg = P.degree
    enumerated = hn_enumerate(P, q, bogomolov_param=bog, lattice=lat)
    pool = [RatPolynomial.of([draw(st.sampled_from(_box(
                P.coeff(k), lat[k] * draw(st.sampled_from((1, 2))), 1)))
                              for k in range(deg + 1)])
            for _ in range(draw(st.integers(1, 4)))]
    types = []
    for _ in range(draw(st.integers(1, 6))):
        if enumerated and draw(st.booleans()):
            types.append(draw(st.sampled_from(enumerated)))
            continue
        parts = [pool[i] for i in draw(st.lists(
            st.integers(0, len(pool) - 1), min_size=1, max_size=3))]
        if draw(st.booleans()):
            parts.append(P - sum(parts, RatPolynomial.zero()))
        types.append(tuple(parts))
    return P, q, lat, bog, types


@settings(max_examples=150, deadline=None)
@given(case=candidate_types())
def test_verifier_returns_the_first_type_the_oracle_rejects(case):
    P, q, lat, bog, types = case
    verdicts = [check_hn_type_oracle(P, q, t, bogomolov_param=bog, lattice=lat)
                for t in types]
    want = next((t for t, ok in zip(types, verdicts) if not ok), None)
    assert first_failing_hn_type(P, q, types, bog, lat) is want
    for t, ok in zip(types, verdicts):
        assert check_hn_type(P, q, t, bogomolov_param=bog, lattice=lat) == ok
