"""Relation checking, units, suspension signs, perturbation detection."""

from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ainfty import ainf
from ainfty.ainf import (AInfCategory, AInfMorphism, check_functor,
                         check_relations, check_unitality)
from ainfty.field import GF, QQ
from ainfty.presentations import (bar_ext_category, enumerate_paths,
                                  enumerate_words, truncated_path_category)
from ainfty.quiver import (a2_quiver, derived_preprojective, jordan_quiver,
                           random_quiver, two_loop_quiver)
from ainfty.signs import prefix_parities
from ainfty.transfer import minimal_model

from ainf_oracle import (b_from_m, degree_support_bound, m_from_b,
                         per_term_kernels, perturbed)
from signs_oracle import suspension_sign
from test_massey import assert_well_formed, exterior_fixture


QUIVERS = {"jordan": jordan_quiver(), "a2": a2_quiver(),
           "two_loop": two_loop_quiver()}


def tpc(name, cap=3, field=QQ):
    return truncated_path_category(derived_preprojective(QUIVERS[name]), cap,
                                   field=field)


def bec(name, cap=3, field=QQ):
    return bar_ext_category(derived_preprojective(QUIVERS[name]), cap,
                            field=field)


def test_suspension_sign_frozen():
    # single input: no sign; two inputs: (-1)^deg(first)
    assert suspension_sign([5]) == 1
    assert suspension_sign([1, 1]) == -1
    assert suspension_sign([2, 1]) == 1
    assert suspension_sign([1, 2]) == -1
    # three inputs: (-1)^(2 d1 + d2)
    assert suspension_sign([1, 1, 1]) == -1
    assert suspension_sign([1, 2, 7]) == 1


def test_path_counts_frozen():
    # free algebra on a, a*, u with wt(a) = wt(a*) = 1, wt(u) = 2:
    # path counts per weight satisfy P(w) = 2 P(w-1) + P(w-2)
    alg = derived_preprojective(QUIVERS["jordan"])
    for cap, want in [(0, 1), (1, 3), (2, 8), (3, 20), (4, 49)]:
        assert len(enumerate_paths(alg, cap)) == want
    # bar words: N(w) = sum_k P(k) N(w-k) over letter weights k >= 1
    for cap, want in [(0, 1), (1, 3), (2, 12), (3, 52), (4, 230)]:
        assert len(enumerate_words(alg, cap)) == want


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_truncated_path_category_is_dg(name):
    cat = tpc(name)
    assert_well_formed(cat)
    rep = check_relations(cat)
    assert rep.ok, rep.witnesses[:3]
    assert set(rep.checked) == set(range(1, 7))
    assert check_unitality(cat) == "strict"


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_bar_category_is_dg(name):
    cat = bec(name)
    assert_well_formed(cat)
    rep = check_relations(cat, max_arity=4)
    assert rep.ok, rep.witnesses[:3]
    assert check_unitality(cat) == "strict"


def test_bar_category_mod_p():
    cat = bec("a2", cap=3, field=GF(7))
    assert_well_formed(cat)
    assert check_relations(cat, max_arity=3).ok


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), cap=st.integers(1, 3),
       build=st.sampled_from([bar_ext_category, truncated_path_category]),
       field=st.sampled_from([QQ, GF(3)]))
def test_constructed_categories_pass_the_validating_decode(seed, cap, build,
                                                           field):
    # what the package builds, the decoder accepts, and parse then
    # serialize gives the same payload back
    alg = derived_preprojective(random_quiver(seed))
    assert_well_formed(build(alg, cap, field=field))


def test_truncation_flagged_beyond_cap():
    cat = tpc("jordan")
    incomplete = AInfCategory(
        objects=cat.objects, hom=cat.hom, ops=cat.ops, field=cat.field,
        arity_cap=2, units=cat.units, complete=False)
    rep = check_relations(incomplete, max_arity=5)
    # with b_n unknown for n > 2, only the n <= 2 relations are decidable
    assert set(rep.checked) == {1, 2}
    assert set(rep.truncated) == {3, 4, 5}


def test_m_b_conversion_round_trip():
    for cat in (tpc("two_loop"), bec("jordan", cap=2)):
        degs = {lab: cat.deg(lab) for lab in cat.labels()}
        m_ops = m_from_b(degs, cat.ops, cat.field)
        assert b_from_m(degs, m_ops, cat.field) == cat.ops
    # bidegree (1, 1) multiplication flips sign, (0, d) does not
    cat = bec("jordan", cap=2)
    m_ops = m_from_b({lab: cat.deg(lab) for lab in cat.labels()},
                     cat.ops, cat.field)
    pair11 = [(t, o) for t, o in m_ops[2].items()
              if cat.deg(t[0]) == 1 and cat.deg(t[1]) == 1]
    assert pair11
    for t, out in pair11:
        b_out = cat.ops[2][t]
        assert out == {z: cat.field.neg(c) for z, c in b_out.items()}


@given(st.integers(0, 59))
@settings(max_examples=60, deadline=None)
def test_single_constant_perturbations_detected(which):
    cat = tpc("jordan", cap=3)
    bad, info = perturbed(cat, which)
    rep = check_relations(bad, max_arity=4)
    assert not rep.ok
    # the reported witness involves an arity adjacent to the broken table
    n_bad = info["arity"]
    arities = {w[0] for w in rep.witnesses}
    assert arities & {n_bad, n_bad + 1, n_bad + 2}


def test_perturbation_witness_names_instance():
    cat = tpc("a2", cap=2)
    bad, info = perturbed(cat, 7)
    rep = check_relations(bad, max_arity=4)
    assert not rep.ok
    n, tup, out, resid = rep.witnesses[0]
    assert isinstance(tup, tuple) and all(bad.has_label(x) for x in tup)
    assert bad.has_label(out)
    assert not bad.field.is_zero(resid)


def test_degree_support_bound_excludes_units():
    cat = bec("jordan", cap=2)
    # degrees present: 0 (unit + [a|a*] etc.), 1, 2
    sup = degree_support_bound(cat, [3])
    degs = {d for t in sup[3] for d in t}
    assert degs  # nonempty: degree-0 nonunit words exist at this cap
    support = degree_support_bound(cat, [2])
    assert all(sum(t) in (0, 1, 2, 3, 4) for t in support[2])


# ---------------------------------------------------------------------------
# brute-force oracle for the relation and functor checks: every composable
# tuple is evaluated on its own through b_value and the functor's components

UNCAPPED = 10 ** 9


def composable_tuples(cat, n):
    tuples = [(lab,) for lab in cat.labels()]
    for _ in range(n - 1):
        tuples = [t + (lab,) for t in tuples for lab in cat.labels()
                  if cat.src(t[-1]) == cat.tgt(lab)]
    return tuples


def compositions(n):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def accumulate(f, acc, w, c):
    acc[w] = f.add(acc.get(w, f.zero()), c)


def insertions(cat, outer_value, tup):
    """sum_{r+s+t=n} outer(1^r (x) b_s (x) 1^t) on tup, with the prefix
    sign of tup[:r], as {out: coeff}."""
    f = cat.field
    n = len(tup)
    pre = prefix_parities([cat.sdeg(x) for x in tup])
    acc = {}
    for s in range(1, n + 1):
        for r in range(n - s + 1):
            for z, cz in cat.b_value(tup[r:r + s]).items():
                for w, cw in outer_value(tup[:r] + (z,) + tup[r + s:]).items():
                    c = f.mul(cz, cw)
                    accumulate(f, acc, w, f.neg(c) if pre[r] else c)
    return acc


def oracle_report(known, max_arity, residual_of, tuples_of):
    checked, rows = [], []
    for n in range(1, max_arity + 1):
        if not known(n):
            continue
        checked.append(n)
        for tup in tuples_of(n):
            rows += [(n, tup, w, c) for w, c in residual_of(tup).items() if c != 0]
    return tuple(checked), tuple(sorted(rows))


def relation_oracle(cat, max_arity):
    return oracle_report(
        lambda n: all(cat.op_table(k) is not None for k in range(1, n + 1)),
        max_arity, lambda tup: insertions(cat, cat.b_value, tup),
        lambda n: composable_tuples(cat, n))


def functor_oracle(fm, max_arity):
    src, tgt = fm.source, fm.target
    f = src.field

    def f_value(tup):
        return fm.component(len(tup)).get(tup, {})

    def residual_of(tup):
        acc = insertions(src, f_value, tup)
        for parts in compositions(len(tup)):
            terms, k = [((), f.one())], 0
            for i in parts:
                block = f_value(tup[k:k + i])
                terms = [(zs + (z,), f.mul(c, cz))
                         for zs, c in terms for z, cz in block.items()]
                k += i
            for zs, c in terms:
                for w, cw in tgt.b_value(zs).items():
                    accumulate(f, acc, w, f.neg(f.mul(c, cw)))
        return acc
    return oracle_report(
        lambda n: all(t is not None for k in range(1, n + 1)
                      for t in (src.op_table(k), fm.component(k), tgt.op_table(k))),
        max_arity, residual_of, lambda n: composable_tuples(src, n))


def minimal_pair(name):
    dg = bar_ext_category(derived_preprojective(QUIVERS[name]), weight_cap=2,
                          arity_cap=6)
    mini, incl, _ = minimal_model(dg)
    return mini, incl


def massey_pair():
    mini, incl, _ = minimal_model(exterior_fixture(), arity_cap=6)
    return mini, incl


def planted_functor(fm, which):
    """fm with one component constant shifted by 1 (which-th stored entry)."""
    entries = [(n, tup, z) for n in sorted(fm.components)
               for tup in sorted(fm.components[n])
               for z in sorted(fm.components[n][tup])]
    n, tup, z = entries[which % len(entries)]
    comps = {m: {t: dict(v) for t, v in tab.items()}
             for m, tab in fm.components.items()}
    f = fm.source.field
    comps[n][tup][z] = f.add(comps[n][tup][z], f.one())
    comps[n][tup] = {w: c for w, c in comps[n][tup].items() if c != 0}
    return replace(fm, components=comps)


def identity_with_component(cat, n):
    """The identity functor of cat, complete, plus f_n sending every
    composable n-tuple of degree-1 labels to the first degree-1 label with
    the same ends; f_2, ..., f_{n-1} stay empty."""
    f = cat.field
    comps = {1: {(lab,): {lab: f.one()} for lab in cat.labels()}}
    for tup in composable_tuples(cat, n):
        ends = (cat.tgt(tup[0]), cat.src(tup[-1]))
        outs = [lab for lab in cat.labels() if cat.deg(lab) == 1
                and (cat.tgt(lab), cat.src(lab)) == ends]
        if outs and all(cat.deg(x) == 1 for x in tup):
            comps.setdefault(n, {})[tup] = {outs[0]: f.one()}
    return AInfMorphism(cat, cat, comps, arity_cap=cat.arity_cap, complete=True)


def relation_cases():
    for name in sorted(QUIVERS):
        mini, _ = minimal_pair(name)
        yield "minimal-" + name, mini, 6
        for which in (0, 8):
            yield "minimal-%s-planted%d" % (name, which), perturbed(mini, which)[0], 4
    mini = massey_pair()[0]
    yield "massey", mini, 6
    yield "massey-planted50", perturbed(mini, 50)[0], 4
    for which in (0, 13, 31, 47):
        yield "jordan-planted%d" % which, perturbed(tpc("jordan", cap=3), which)[0], 3
    yield "a2-planted7", perturbed(tpc("a2", cap=2), 7)[0], 4
    # b_3 unknown: arity 3 is truncated, not checked
    bad = perturbed(tpc("jordan", cap=3), 31)[0]
    yield "jordan-planted31-capped", replace(bad, arity_cap=2, complete=False), 3


def functor_cases():
    for name in sorted(QUIVERS):
        _, incl = minimal_pair(name)
        yield "minimal-" + name, incl, 5
        for which in (0, 3):
            yield "minimal-%s-planted%d" % (name, which), planted_functor(incl, which), 4
    incl = massey_pair()[1]
    yield "massey", incl, 4
    yield "massey-planted2", planted_functor(incl, 2), 4
    # above the arity cap of a complete functor, with f_2 and f_4.. empty:
    # b_2(f_3 (x) f_3) fails at arity 6
    yield ("a2-identity-f3-arity7",
           identity_with_component(minimal_pair("a2")[0], 3), 7)


@pytest.mark.parametrize("cat, max_arity", [pytest.param(*case[1:], id=case[0])
                                            for case in relation_cases()])
def test_check_relations_matches_brute_force(cat, max_arity):
    rep = check_relations(cat, max_arity=max_arity, max_witnesses=UNCAPPED)
    assert (rep.checked, rep.witnesses) == relation_oracle(cat, max_arity)
    assert rep.ok == (not rep.witnesses)


@pytest.mark.parametrize("fm, max_arity", [pytest.param(*case[1:], id=case[0])
                                           for case in functor_cases()])
def test_check_functor_matches_brute_force(fm, max_arity):
    rep = check_functor(fm, max_arity=max_arity, max_witnesses=UNCAPPED)
    assert (rep.checked, rep.witnesses) == functor_oracle(fm, max_arity)
    assert rep.ok == (not rep.witnesses)


def test_check_functor_sums_only_nonempty_compositions(monkeypatch):
    # the jordan minimal-model inclusion at arity cap 22 is complete, with
    # f_1, f_2 and target b_1, b_2 nonempty: of the 2^21 compositions of
    # arity 22 none has a term, and over all arities only those with parts
    # in {1, 2} and length in {1, 2} do
    dg = bar_ext_category(derived_preprojective(QUIVERS["jordan"]),
                          weight_cap=2, arity_cap=6)
    _, incl, _ = minimal_model(dg, arity_cap=22)
    assert incl.complete
    parts = [i for i in range(1, 23) if incl.component(i)]
    lengths = [l for l in range(1, 23) if incl.target.op_table(l)]
    assert parts == lengths == [1, 2]
    want = sum(1 for n in range(1, 23) for l in lengths
               for comp in product(parts, repeat=l) if sum(comp) == n)
    calls = []
    accumulate_composite = ainf._accumulate_composite

    def counted(*args):
        calls.append(args)
        assert len(calls) <= want, "composite terms beyond the nonempty ones"
        return accumulate_composite(*args)
    monkeypatch.setattr(ainf, "_accumulate_composite", counted)
    rep = check_functor(incl, max_arity=22)
    assert rep.ok and rep.checked == tuple(range(1, 23))
    assert len(calls) == want == 6


# ---------------------------------------------------------------------------
# the residual kernels sum raw products and reduce once per arity; the
# per-term kernels of ainf_oracle reduce every term as it is added

def residual_cases():
    thirds = Fraction(1, 3)
    for which, delta in ((0, thirds), (13, Fraction(-2, 5)), (31, thirds)):
        yield ("jordan-QQ-%d" % which,
               perturbed(tpc("jordan", cap=3), which, delta)[0])
    # two halves: witnesses -1 (an int), 1/2 and 3/4
    half = perturbed(tpc("a2", cap=2), 6, Fraction(1, 2))[0]
    yield "a2-QQ-6-16", perturbed(half, 16, Fraction(1, 2))[0]
    mini, _ = minimal_pair("a2")
    yield "minimal-a2-QQ", perturbed(mini, 8, Fraction(3, 2))[0]
    for p in (3, 7):
        field = GF(p)
        yield "a2-GF%d" % p, bec("a2", cap=3, field=field)
        for which in (4, 7):
            yield ("a2-GF%d-%d" % (p, which),
                   perturbed(tpc("a2", cap=3, field=field), which, p - 1)[0])
        yield ("two_loop-GF%d" % p,
               perturbed(bec("two_loop", cap=2, field=field), 20, 2)[0])


def functor_residual_cases():
    for p in (None, 3, 7):
        field = QQ if p is None else GF(p)
        dg = bec("a2", cap=3, field=field)
        _, incl, _ = minimal_model(dg, arity_cap=5)
        yield "a2-%s" % (p or "QQ"), incl, True
        entries = [(n, tup, z) for n in sorted(incl.components)
                   for tup in sorted(incl.components[n])
                   for z in sorted(incl.components[n][tup])]
        n, tup, z = entries[len(entries) // 2]
        comps = {m: {t: dict(v) for t, v in tab.items()}
                 for m, tab in incl.components.items()}
        delta = Fraction(1, 3) if p is None else field.of_int(2)
        comps[n][tup][z] = field.add(comps[n][tup][z], delta)
        comps[n][tup] = {w: c for w, c in comps[n][tup].items() if c != 0}
        yield ("a2-%s-planted" % (p or "QQ"),
               replace(incl, components=comps), False)


def per_term_witnesses(monkeypatch, field, check, *args):
    with monkeypatch.context() as m:
        for name, kernel in zip(("_output_index", "_insert_into",
                                 "_accumulate_composite"),
                                per_term_kernels(field)):
            m.setattr(ainf, name, kernel)
        return check(*args, max_witnesses=UNCAPPED).witnesses


def canonical(field, c):
    if field.p:
        return type(c) is int and 0 < c < field.p
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


@pytest.mark.parametrize("cat", [pytest.param(c, id=i)
                                 for i, c in residual_cases()])
def test_relation_residual_matches_per_term_kernels(monkeypatch, cat):
    raw = []
    reduce_sums = ainf.reduce_sums

    def recorded(field, acc):
        raw.extend(acc.values())
        return reduce_sums(field, acc)
    monkeypatch.setattr(ainf, "reduce_sums", recorded)
    rep = check_relations(cat, max_arity=4, max_witnesses=UNCAPPED)
    assert rep.witnesses == per_term_witnesses(
        monkeypatch, cat.field, check_relations, cat, 4)
    assert all(canonical(cat.field, w[3]) for w in rep.witnesses)
    if cat.field.p:
        # some raw sum is a nonzero integer that vanishes mod p
        assert any(v and v % cat.field.p == 0 for v in raw)


@pytest.mark.parametrize("fm, ok", [pytest.param(*case[1:], id=case[0])
                                    for case in functor_residual_cases()])
def test_functor_residual_matches_per_term_kernels(monkeypatch, fm, ok):
    rep = check_functor(fm, max_arity=4, max_witnesses=UNCAPPED)
    assert rep.ok == ok
    assert rep.witnesses == per_term_witnesses(
        monkeypatch, fm.source.field, check_functor, fm, 4)
    assert all(canonical(fm.source.field, w[3]) for w in rep.witnesses)


# ---------------------------------------------------------------------------
# strict units: check_relations leaves out tuples holding a unit, whose
# residual the unit laws make zero; the per-term kernels still sum every
# tuple, so they are the full sum these tests compare against

def unit_filter_cases():
    """(id, category, whether a perturbation that keeps the units strict
    breaks a relation): at weight cap 2 the products of two non-units
    reach the cap, so none does."""
    for build in (bec, tpc):
        for name in sorted(QUIVERS):
            for cap in (2, 3):
                for field in (QQ, GF(3)):
                    yield ("%s-%s-%d-%s" % (build.__name__, name, cap,
                                            field.p or "QQ"),
                           build(name, cap=cap, field=field), cap == 3)
    # stores b_3 on tuples free of units
    yield "minimal-tpc-a2-4", minimal_model(tpc("a2", cap=4))[0], True


def stored_entries(cat):
    """The (arity, tuple, out_label) entries in the order of perturbed."""
    return [(n, tup, z) for n in sorted(cat.ops) for tup in sorted(cat.ops[n])
            for z in sorted(cat.ops[n][tup])]


def holds_unit(cat, tup):
    return any(x in cat.units.values() for x in tup)


@pytest.mark.parametrize("cat, breaks", [pytest.param(*case[1:], id=case[0])
                                         for case in unit_filter_cases()])
def test_strict_unit_filter_matches_full_sum(monkeypatch, cat, breaks):
    size = len(stored_entries(cat))
    strict, strict_failing = 0, 0
    for which in range(0, size, max(1, size // 24)):
        bad = perturbed(cat, which)[0]
        rep = check_relations(bad, max_arity=4, max_witnesses=UNCAPPED)
        assert rep.witnesses == per_term_witnesses(
            monkeypatch, bad.field, check_relations, bad, 4)
        if not ainf._strict_unit_failures(bad):
            strict += 1
            strict_failing += bool(rep.witnesses)
            assert not any(holds_unit(bad, w[1]) for w in rep.witnesses)
    assert strict
    assert bool(strict_failing) == breaks


def inverse_pair():
    """Objects 1 and 2 with f: 1 -> 2 and g: 2 -> 1 inverse to each other,
    all in degree 0, and strict units: b_2(f, g) and b_2(g, f) are units."""
    hom = {("1", "1"): (("e1", 0),), ("2", "2"): (("e2", 0),),
           ("1", "2"): (("f", 0),), ("2", "1"): (("g", 0),)}
    units = {"1": "e1", "2": "e2"}
    one = QQ.one()
    b2 = {("f", "g"): {"e2": one}, ("g", "f"): {"e1": one}}
    for (i, j), basis in hom.items():
        for lab, _ in basis:
            b2[(lab, units[i])] = {lab: one}
            b2[(units[j], lab)] = {lab: one}
    return AInfCategory(objects=("1", "2"), hom=hom, ops={1: {}, 2: b2},
                        units=units, complete=True)


def test_strict_unit_filter_keeps_units_output_by_non_units(monkeypatch):
    cat = inverse_pair()
    assert check_unitality(cat) == "strict"
    assert check_relations(cat, max_arity=4).ok
    for which, (_, tup, _) in enumerate(stored_entries(cat)):
        if holds_unit(cat, tup):
            continue
        for delta in (1, -1, Fraction(1, 2)):
            bad = perturbed(cat, which, delta)[0]
            assert not ainf._strict_unit_failures(bad)
            rep = check_relations(bad, max_arity=4, max_witnesses=UNCAPPED)
            # (f, g, f) and (g, f, g) read b_2 at a unit that b_2(f, g)
            # or b_2(g, f) outputs
            assert rep.witnesses
            assert rep.witnesses == per_term_witnesses(
                monkeypatch, bad.field, check_relations, bad, 4)


def residual_sizes(monkeypatch, cat, full):
    """len of the raw residual of each checked arity; full makes the units
    count as not strict, so every tuple is summed."""
    sizes = []
    reduce_sums = ainf.reduce_sums

    def recorded(field, acc):
        sizes.append(len(acc))
        return reduce_sums(field, acc)
    with monkeypatch.context() as m:
        m.setattr(ainf, "reduce_sums", recorded)
        if full:
            m.setattr(ainf, "_strict_unit_failures", lambda cat: True)
        rep = check_relations(cat, max_arity=4, max_witnesses=UNCAPPED)
    return sizes, rep.witnesses


def non_strict_cases():
    for name in sorted(QUIVERS):
        cat = bec(name, cap=3)
        law = next(k for k, (n, tup, _) in enumerate(stored_entries(cat))
                   if n == 2 and holds_unit(cat, tup))
        yield "%s-unit-law-perturbed" % name, perturbed(cat, law)[0]
        yield "%s-no-units" % name, replace(cat, units={})
    a2 = bec("a2", cap=3)
    first = a2.objects[0]
    yield "a2-one-unit", replace(a2, units={first: a2.units[first]})
    mini = minimal_model(tpc("a2", cap=4))[0]
    e = next(iter(mini.units.values()))
    ops = dict(mini.ops)
    ops[3] = dict(ops[3])
    ops[3][(e, e, e)] = {e: QQ.one()}
    yield "minimal-tpc-a2-b3-on-units", replace(mini, ops=ops)


@pytest.mark.parametrize("cat", [pytest.param(c, id=i)
                                 for i, c in non_strict_cases()])
def test_units_not_strict_sum_every_tuple(monkeypatch, cat):
    assert ainf._strict_unit_failures(cat)
    assert (residual_sizes(monkeypatch, cat, False)
            == residual_sizes(monkeypatch, cat, True))


@pytest.mark.parametrize("cat", [pytest.param(c, id=i) for i, c in
                                 [("a2-strict", bec("a2", cap=3))]
                                 + list(non_strict_cases())])
def test_units_strict_is_the_strict_verdict_of_check_unitality(cat):
    assert (check_relations(cat, max_arity=4).units_strict
            == (check_unitality(cat) == "strict"))


def test_relation_check_without_b2_sums_every_tuple(monkeypatch):
    # units, arity cap 1 and no stored b_2: strictness is undecided, so the
    # check sums every tuple instead of raising as check_unitality does
    cat = tpc("jordan", cap=3)
    low = replace(cat, ops={1: cat.ops[1]}, arity_cap=1, complete=False)
    unit_sets = []
    insert_into = ainf._insert_into

    def recorded(residual, outputs, outer, u, parity, units):
        unit_sets.append(units)
        return insert_into(residual, outputs, outer, u, parity, units)
    monkeypatch.setattr(ainf, "_insert_into", recorded)
    rep = check_relations(low)
    assert rep.ok and rep.checked == (1,) and rep.truncated == ()
    assert unit_sets and not any(unit_sets) and not rep.units_strict
    with pytest.raises(ainf.StructureError, match="b_2 is unknown"):
        check_unitality(low)


def test_relation_check_indexes_each_inner_table_once_without_units(
        monkeypatch):
    # the insertions read each nonempty inner table (b_1 and b_2) through
    # one output index per call, built without the tuples that hold a
    # strict unit; no index of the outer tables is built
    cat = bec("two_loop", cap=3)
    unit_labels = set(cat.units.values())
    built = []
    output_index = ainf._output_index

    def recorded(table, units=frozenset()):
        idx = output_index(table, units)
        built.append((id(table), idx))
        return idx
    monkeypatch.setattr(ainf, "_output_index", recorded)
    for _ in range(2):
        assert check_relations(cat).ok
    inner = sorted(id(t) for t in cat.ops.values() if t)
    assert len(inner) == 2
    assert sorted(i for i, _ in built) == sorted(inner * 2)
    assert not any(unit_labels.intersection(tup) for _, idx in built
                   for entries in idx.values() for tup, _ in entries)
    assert not hasattr(ainf, "_slot_index")


def test_relation_check_skips_strict_unit_tuples(monkeypatch):
    # summing every tuple puts 2,784 keys in the raw residuals of this
    # category; leaving out the tuples that hold a unit leaves 320
    cat = bec("two_loop", cap=3)
    sizes, witnesses = residual_sizes(monkeypatch, cat, False)
    assert not witnesses
    assert 0 < sum(sizes) < 1000
