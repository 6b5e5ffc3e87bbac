"""Windowed Hochschild/cyclic complex checks.

Graded identities are asserted exactly on basis chains; the homology
oracles (commutator quotients, hand-expanded low-length differentials,
classical values of the Connes operator) are recomputed inside the tests
rather than taken from the module under test.
"""

import dataclasses
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfty import docio, hochschild, sparse
from ainfty.cli import _identity_witnesses, main
from ainfty.field import GF
from ainfty.hochschild import (HochschildChainWindow, HochschildError,
                               connes_B, hh0_dimension, hochschild_b,
                               windowed_homology)
from ainfty.signs import rotations
from ainfty.ainf import check_relations
from ainfty.presentations import bar_ext_category, truncated_path_category
from ainfty.quiver import (DGQuiverAlgebra, Quiver, a2_quiver,
                           derived_preprojective, jordan_quiver,
                           random_quiver, two_loop_quiver)
from ainf_oracle import perturbed
from cyclic_quotient import cyclic_quotient
from hochschild_oracle import (chain_degree, identity_witnesses_oracle,
                               windowed_homology_oracle)


def path_category(q, cap=2):
    return truncated_path_category(DGQuiverAlgebra(q, (), ()), weight_cap=cap)


def point_category():
    return path_category(Quiver.make(("1",), ()))


@pytest.fixture(scope="module")
def wk():
    return HochschildChainWindow(point_category(), 5)


@pytest.fixture(scope="module")
def wa2():
    return HochschildChainWindow(path_category(a2_quiver()), 5)


@pytest.fixture(scope="module")
def wjordan():
    return HochschildChainWindow(path_category(jordan_quiver()), 4)


@pytest.fixture(scope="module")
def wdpp():
    cat = truncated_path_category(derived_preprojective(a2_quiver()),
                                  weight_cap=2)
    return HochschildChainWindow(cat, 4)


def addc(f, a, b):
    out = dict(a)
    for k, v in b.items():
        s = f.add(out.get(k, f.of_int(0)), v)
        if f.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def every_chain(window, max_len=None):
    for n in range(1, (max_len or window.max_length) + 1):
        for tup in window.basis(n):
            yield tup


def cyclic_permute(window, tup):
    """F_n on one chain: the second of its rotations, with the Koszul sign
    of moving the last factor past the shifted degrees of the rest."""
    degs = [window.cat.deg(lab) - 1 for lab in tup]
    return list(rotations(tup, degs))[1 % len(tup)]


# ---------------------------------------------------------------------------
# chains and degrees

def test_degree_formula_has_no_length_seam(wdpp):
    cat = wdpp.cat
    for lab, in wdpp.basis(1):
        assert chain_degree(cat, (lab,)) == cat.deg(lab)
    for x, y in wdpp.basis(2):
        assert chain_degree(cat, (x, y)) == cat.deg(x) + cat.deg(y) - 1


def test_basis_contains_only_cyclically_closed_chains(wa2):
    cat = wa2.cat
    assert wa2.basis(1) == [("e@1",), ("e@2",)]
    # the arrow is not an endomorphism, so it heads no chain of any length
    for tup in every_chain(wa2):
        assert cat.src(tup[-1]) == cat.tgt(tup[0])
        for k in range(len(tup) - 1):
            assert cat.src(tup[k]) == cat.tgt(tup[k + 1])
    assert all("a" not in tup for tup in every_chain(wa2))


def test_basis_rejects_lengths_outside_window(wa2):
    with pytest.raises(HochschildError):
        wa2.basis(0)
    with pytest.raises(HochschildError):
        wa2.basis(wa2.max_length + 1)


def test_check_chain_rejects_bad_input(wa2):
    f = wa2.cat.field
    with pytest.raises(HochschildError):
        hochschild_b(wa2, {("a", "e@1"): f.of_int(1)})
    with pytest.raises(HochschildError):
        hochschild_b(wa2, {("e@1",) * (wa2.max_length + 1): f.of_int(1)})


def test_check_chain_names_a_label_the_category_lacks(wa2):
    one = wa2.cat.field.of_int(1)
    for op in (hochschild_b, connes_B):
        with pytest.raises(HochschildError, match="names label 'zz'"):
            op(wa2, {("zz",): one})
        with pytest.raises(HochschildError, match="names label 'zz'"):
            op(wa2, {("e@1", "zz"): one})


def test_window_rejects_higher_operations():
    cat = point_category()
    f = cat.field
    ops = {n: dict(tab) for n, tab in cat.ops.items()}
    ops[3] = {("e@1", "e@1", "e@1"): {"e@1": f.of_int(1)}}
    bad = dataclasses.replace(cat, ops=ops)
    with pytest.raises(HochschildError):
        HochschildChainWindow(bad, 3)
    with pytest.raises(HochschildError):
        HochschildChainWindow(cat, 0)


# ---------------------------------------------------------------------------
# the differential

def test_b_vanishes_on_unit_chains(wk, wa2, wdpp):
    for w in (wk, wa2, wdpp):
        f = w.cat.field
        for obj, e in w.cat.units.items():
            assert hochschild_b(w, {(e,): f.of_int(1)}) == {}


def test_b_is_degree_one_and_never_raises_length(wdpp):
    cat = wdpp.cat
    f = cat.field
    for tup in every_chain(wdpp):
        out = hochschild_b(wdpp, {tup: f.of_int(1)})
        for new in out:
            assert len(new) <= len(tup)
            assert chain_degree(cat, new) == chain_degree(cat, tup) + 1


def test_b_on_length_two_matches_hand_expansion(wdpp):
    # b(x|y) = b1 x (x) 1 terms + b2(x,y) + (-1)^{|x|'|y|'} b2(y,x)
    cat = wdpp.cat
    f = cat.field
    b1 = cat.op_table(1) or {}
    b2 = cat.op_table(2) or {}
    for x, y in wdpp.basis(2):
        want = {}
        for z, c in (b1.get((x,)) or {}).items():
            want = addc(f, want, {(z, y): c})
        sx = f.of_int(-1 if (cat.deg(x) - 1) % 2 else 1)
        for z, c in (b1.get((y,)) or {}).items():
            want = addc(f, want, {(x, z): f.mul(sx, c)})
        for z, c in (b2.get((x, y)) or {}).items():
            want = addc(f, want, {(z,): c})
        wrap = (cat.deg(x) - 1) * (cat.deg(y) - 1)
        sw = f.of_int(-1 if wrap % 2 else 1)
        for z, c in (b2.get((y, x)) or {}).items():
            want = addc(f, want, {(z,): f.mul(sw, c)})
        assert hochschild_b(wdpp, {(x, y): f.of_int(1)}) == want


def test_b_squared_zero_on_all_window_chains(wk, wa2, wjordan, wdpp):
    for w in (wk, wa2, wjordan, wdpp):
        f = w.cat.field
        for tup in every_chain(w):
            assert hochschild_b(w, hochschild_b(w, {tup: f.of_int(1)})) == {}


# ---------------------------------------------------------------------------
# the Connes operator

def test_connes_B_on_point_unit(wk):
    f = wk.cat.field
    e = wk.cat.units["1"]
    got = connes_B(wk, {(e,): f.of_int(1)})
    assert got == {(e, e): f.of_int(2)}
    assert connes_B(wk, got) == {}
    # 2(e|e) is the boundary of 2(e|e|e), so it dies in homology
    assert hochschild_b(wk, {(e, e, e): f.of_int(2)}) == got


def test_connes_B_on_degree_zero_loop(wjordan):
    # B(a) = (e|a) + (a|e) for an even loop a: both rotations insert the
    # unit in front and the extra rotation of (e|a) carries sign +1
    f = wjordan.cat.field
    e = wjordan.cat.units["1"]
    got = connes_B(wjordan, {("a",): f.of_int(1)})
    assert got == {(e, "a"): f.of_int(1), ("a", e): f.of_int(1)}


def test_connes_identities_exact(wa2, wjordan, wdpp):
    for w in (wa2, wjordan, wdpp):
        f = w.cat.field
        for tup in every_chain(w, w.max_length - 2):
            c = {tup: f.of_int(1)}
            assert connes_B(w, connes_B(w, c)) == {}
            anti = addc(f, hochschild_b(w, connes_B(w, c)),
                        connes_B(w, hochschild_b(w, c)))
            assert anti == {}, (tup, anti)


def test_connes_B_window_boundary_error(wa2):
    f = wa2.cat.field
    top = ("e@1",) * wa2.max_length
    with pytest.raises(HochschildError, match="insufficient window"):
        connes_B(wa2, {top: f.of_int(1)})


def test_connes_B_requires_units(wa2):
    cat = dataclasses.replace(wa2.cat, units={})
    w = HochschildChainWindow(cat, 3)
    with pytest.raises(HochschildError, match="unit"):
        connes_B(w, {("e@1",): cat.field.of_int(1)})


# ---------------------------------------------------------------------------
# cyclic quotient

def test_cyclic_permutation_has_order_n(wdpp):
    for tup in every_chain(wdpp):
        cur, sign = tup, 1
        for _ in range(len(tup)):
            cur, s = cyclic_permute(wdpp, cur)
            sign *= s
        assert cur == tup and sign == 1


def test_cyclic_quotient_point(wk):
    cyc = cyclic_quotient(wk)
    assert cyc.basis(1) == [("e@1",)]
    # (e|e) is fixed by the rotation up to sign -1, so its class is zero
    assert cyc.push_tuple(("e@1", "e@1")) is None
    assert cyc.basis(2) == []


def test_cyclic_quotient_a2_dims(wa2):
    cyc = cyclic_quotient(wa2)
    assert [len(cyc.basis(n)) for n in (1, 2, 3)] == [2, 0, 2]


def test_quotient_kills_one_minus_F_and_b_descends(wdpp):
    f = wdpp.cat.field
    cyc = cyclic_quotient(wdpp)
    for n in range(2, wdpp.max_length + 1):
        for tup in wdpp.basis(n):
            rot, s = cyclic_permute(wdpp, tup)
            chain = addc(f, {tup: f.of_int(1)}, {rot: f.of_int(-s)})
            assert cyc.push(chain) == {}
            assert cyc.b(chain) == {}


# ---------------------------------------------------------------------------
# windowed homology

def commutator_quotient_dim(cat):
    """dim of (degree-0 endomorphisms) / span{xy - yx} computed directly."""
    from ainfty.sparse import SparseMatrix, rank_kernel_image
    f = cat.field
    endos = sorted(lab for pair, basis in cat.hom.items()
                   if pair[0] == pair[1] for lab, d in basis if d == 0)
    idx = {lab: i for i, lab in enumerate(endos)}
    b2 = cat.op_table(2) or {}
    labels = [lab for pair, basis in cat.hom.items() for lab, _ in basis]
    rows = []
    for x in labels:
        for y in labels:
            if cat.src(x) != cat.tgt(y) or cat.src(y) != cat.tgt(x):
                continue
            row = {}
            for z, c in (b2.get((x, y)) or {}).items():
                sx = f.of_int(-1 if cat.deg(x) % 2 else 1)
                row[idx[z]] = f.add(row.get(idx[z], f.of_int(0)), f.mul(sx, c))
            for z, c in (b2.get((y, x)) or {}).items():
                sy = f.of_int(-1 if cat.deg(y) % 2 else 1)
                row[idx[z]] = f.add(row.get(idx[z], f.of_int(0)),
                                    f.neg(f.mul(sy, c)))
            row = {k: v for k, v in row.items() if not f.is_zero(v)}
            if row:
                rows.append(row)
    if not rows:
        return len(endos)
    mat = SparseMatrix.from_rows(rows, len(endos), f)
    return len(endos) - rank_kernel_image(mat)[0]


def test_homology_point(wk):
    rep = windowed_homology(wk)
    assert rep.dims == {(1, 0): 1}
    assert rep.by_degree == {0: 1}
    assert rep.stable is True
    assert hh0_dimension(wk) == 1


def test_hh0_matches_commutator_quotient(wk, wa2, wjordan):
    for w, expect in ((wk, 1), (wa2, 2), (wjordan, 3)):
        direct = commutator_quotient_dim(w.cat)
        assert direct == expect
        assert hh0_dimension(w) == direct


def test_hh0_commutator_oracle_on_random_path_categories():
    for seed in (3, 5, 11):
        cat = path_category(random_quiver(seed))
        w = HochschildChainWindow(cat, 3)
        assert hh0_dimension(w) == commutator_quotient_dim(cat)


def test_homology_rejects_margin_zero(wa2):
    with pytest.raises(HochschildError):
        windowed_homology(wa2, length_margin=0)


def test_homology_propagates_validity_failure(wjordan):
    cat = wjordan.cat
    bad = None
    for which in range(40):
        cand, _ = perturbed(cat, which)
        if not check_relations(cand).ok:
            bad = cand
            break
    assert bad is not None
    with pytest.raises(HochschildError, match="relations"):
        windowed_homology(HochschildChainWindow(bad, 3))


def test_wrong_degree_b2_entry_in_a_skipped_block_is_refused():
    # one loop x of degree 3 with x.x stored in degree 10, not 6: the only
    # b_2 entry of the wrong degree is b_2(x, x), and the relations still
    # hold (units only; x.x has the parity of the right degree)
    cat = path_category(Quiver.make(("1",), [("x", "1", "1", 3)]))
    hom = {pair: tuple((lab, 10 if lab == "x.x" else d) for lab, d in basis)
           for pair, basis in cat.hom.items()}
    bad = dataclasses.replace(cat, hom=hom)
    assert check_relations(bad).ok
    # window 2 reports length 1 only.  Every chain in which x meets x
    # cyclically has a degree d where no label has degree d + 1, so its
    # block takes only its columns of length 1, none of which meets b_2(x, x)
    label_degrees = {d for basis in hom.values() for _, d in basis}
    grown = HochschildChainWindow(bad, 3)
    fed = [tup for tup in every_chain(grown) if len(tup) > 1
           and any(tup[k - 1] == tup[k] == "x" for k in range(len(tup)))]
    assert fed and all(chain_degree(bad, tup) + 1 not in label_degrees
                       for tup in fed)
    with pytest.raises(HochschildError, match="differential is not degree 1"):
        windowed_homology(HochschildChainWindow(bad, 2))


def test_stability_flag_means_window_growth_is_silent(wjordan):
    rep = windowed_homology(wjordan, length_margin=2)
    assert isinstance(rep.stable, bool)
    grown = HochschildChainWindow(wjordan.cat, wjordan.max_length + 1)
    again = windowed_homology(grown, length_margin=3)
    assert (again.dims == rep.dims) == rep.stable


def test_graded_window_homology_is_stable():
    cat = truncated_path_category(derived_preprojective(a2_quiver()),
                                  weight_cap=2)
    rep = windowed_homology(HochschildChainWindow(cat, 3))
    assert rep.stable is True
    for (length, degree), dim in rep.dims.items():
        assert 1 <= length <= 2 and dim > 0


# every chain count below stays under this many chains in the window-(N+1)
# complex, which keeps the cap-by-cap oracle fast
ORACLE_CHAINS = 10000


def cyclic_chain_count(cat, max_length):
    """The number of chains of lengths 1..max_length, without building
    them: trace(A^n) counts the cyclically composable chains of length n,
    where A[i][j] is the number of basis labels in hom(j, i)."""
    objs = list(cat.objects)
    a = [[len(cat.hom.get((j, i), ())) for j in objs] for i in objs]
    power, total = a, 0
    for _ in range(max_length):
        total += sum(power[i][i] for i in range(len(objs)))
        power = [[sum(p * q for p, q in zip(row, col)) for col in zip(*a)]
                 for row in power]
    return total


def test_cyclic_chain_count_is_the_size_of_the_bases(wk, wa2, wjordan, wdpp):
    for w in (wk, wa2, wjordan, wdpp):
        assert cyclic_chain_count(w.cat, w.max_length) == sum(
            len(w.basis(n)) for n in range(1, w.max_length + 1))


@pytest.mark.parametrize("quiver", [jordan_quiver, a2_quiver, two_loop_quiver])
@pytest.mark.parametrize("kind, field", [("quiver", None), ("dg_algebra", None),
                                         ("dg_algebra", GF(3)), ("path", None),
                                         ("bar", None)])
def test_one_pass_homology_matches_cap_by_cap_oracle(quiver, kind, field):
    # quiver and dg_algebra documents are the CLI's weight-2 path
    # categories; the benchmark's path documents have weight cap 3; the
    # bar categories carry a nonzero b_1
    if kind == "bar":
        cat = bar_ext_category(derived_preprojective(quiver()), weight_cap=2)
        assert cat.op_table(1)
    else:
        alg = (DGQuiverAlgebra(quiver(), (), ()) if kind == "quiver"
               else derived_preprojective(quiver()))
        cat = truncated_path_category(alg, weight_cap=3 if kind == "path" else 2,
                                      **({"field": field} if field else {}))
    checked = []
    for window in (1, 2, 3, 4):
        if cyclic_chain_count(cat, window + 1) > ORACLE_CHAINS:
            break
        for margin in ((1, 2, 3) if window == 4 else (1, 2)):
            rep = windowed_homology(HochschildChainWindow(cat, window), margin)
            assert ((rep.dims, rep.by_degree, rep.stable)
                    == windowed_homology_oracle(cat, window, margin)), (window, margin)
            checked.append(rep.stable)
    assert checked


def wrap_everywhere(monkeypatch, module, name, around):
    """Replace module.name by around(module.name) in every ainfty namespace
    that binds it."""
    original = getattr(module, name)
    wrapped = around(original)
    for mod in [m for key, m in sys.modules.items() if key.startswith("ainfty")]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, wrapped)


def read_columns(cat, chains, cap, weigh):
    """The chains whose b-column a report of lengths <= cap reads, graded
    by weigh: those of length <= cap, and the longer ones whose (degree +
    1, weight) holds a chain of length <= cap, where a reported boundary
    can have its pivot."""
    grading = {tup: (chain_degree(cat, tup), sum(map(weigh, tup)))
               for tup in chains}
    short = {grading[tup] for tup in chains if len(tup) <= cap}
    return [tup for tup in chains if len(tup) <= cap
            or (grading[tup][0] + 1, grading[tup][1]) in short]


def grown_chains(cat, window):
    """Every chain of the window-(window + 1) complex, shortest first."""
    grown = HochschildChainWindow(cat, window + 1)
    return [tup for n in range(1, window + 2) for tup in grown.basis(n)]


def degree_rule_columns(cat, window):
    """read_columns with every chain of weight 0: the rule by degree alone."""
    return read_columns(cat, grown_chains(cat, window), window - 1,
                        lambda lab: 0)


@pytest.mark.parametrize("window", [2, 3])
def test_hochschild_job_computes_only_the_b_columns_of_read_weights(
        tmp_path, monkeypatch, window):
    alg = derived_preprojective(jordan_quiver())
    path, out = tmp_path / "dga.json", tmp_path / "dga.report.json"
    path.write_text(docio.dumps_document(docio.to_document("dg_algebra", alg)),
                    encoding="utf-8")
    depth, columns, eliminations = [0], Counter(), Counter()

    def inside(fn):
        def run(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return run

    def logged(name):
        def around(fn):
            def run(*args, **kwargs):
                if depth[0]:
                    if name == "_b_terms":
                        columns[args[1]] += 1
                    else:
                        eliminations[name] += 1
                return fn(*args, **kwargs)
            return run
        return around

    wrap_everywhere(monkeypatch, hochschild, "windowed_homology", inside)
    wrap_everywhere(monkeypatch, hochschild, "_b_terms", logged("_b_terms"))
    for name in ("rref", "rank_kernel_image"):
        wrap_everywhere(monkeypatch, sparse, name, logged(name))
    code = main(["hochschild", str(path), "--window=%d" % window,
                 "--report", str(out)])
    assert code in (0, 3)
    # the job reports lengths <= cap = window - 1.  b keeps weight, so a
    # column's pivot has its weight: a column of length <= cap gives a
    # cycle count, and a longer one is read only when its (degree + 1,
    # weight) holds a chain of length <= cap.  Each is computed once, no
    # batch elimination runs, and fewer columns are computed than the
    # rule by degree alone reads.
    cat = truncated_path_category(alg, weight_cap=2)
    read = read_columns(cat, grown_chains(cat, window), window - 1,
                        cat.weights.__getitem__)
    assert set(read) < set(degree_rule_columns(cat, window))
    assert columns == Counter(read)
    assert eliminations == Counter()


def computed_columns(monkeypatch, window, margin=1):
    """windowed_homology(window, margin) and the chains whose b-column it
    computed, counted."""
    columns, original = Counter(), hochschild._b_terms

    def counted(cat, tup, coeff):
        columns[tup] += 1
        return original(cat, tup, coeff)

    with monkeypatch.context() as patch:
        patch.setattr(hochschild, "_b_terms", counted)
        rep = windowed_homology(window, margin)
    return rep, columns


def test_heavy_chains_of_the_two_loop_path_category_are_never_built(
        monkeypatch):
    # 94 labels: the window-3 complex holds 94^3 = 830,584 chains of
    # length 3, but window 2 reports length 1 only, whose chains weigh at
    # most 3
    cat = truncated_path_category(derived_preprojective(two_loop_quiver()),
                                  weight_cap=3)
    rep, columns = computed_columns(
        monkeypatch, HochschildChainWindow(cat, 2))
    assert rep.dims == {(1, 0): 35} and rep.by_degree == {0: 35}
    assert rep.stable is True
    assert sum(columns.values()) < 2000
    assert set(columns.values()) == {1}


def stripped(cat):
    return dataclasses.replace(cat, weights={})


def inhomogeneous(cat):
    # b_2(a, a*) = a.a* now weighs 2 against inputs of weight 3
    return dataclasses.replace(cat, weights={**cat.weights, "a": 2})


def negated(cat):
    # b keeps these weights, but a partial chain can get lighter as it grows
    return dataclasses.replace(
        cat, weights={lab: -w for lab, w in cat.weights.items()})


@pytest.mark.parametrize("regrade", [stripped, inhomogeneous, negated])
@pytest.mark.parametrize("window", [2, 3])
def test_weights_b_does_not_keep_fall_back_to_the_rule_by_degree(
        monkeypatch, regrade, window):
    cat = regrade(truncated_path_category(derived_preprojective(jordan_quiver()),
                                          weight_cap=2))
    rep, columns = computed_columns(
        monkeypatch, HochschildChainWindow(cat, window))
    assert ((rep.dims, rep.by_degree, rep.stable)
            == windowed_homology_oracle(cat, window))
    assert columns == Counter(degree_rule_columns(cat, window))


# ---------------------------------------------------------------------------
# the column memo and the CLI's identity checks

# the category of every input shape of the benchmark's hochschild jobs
BENCHMARK_SHAPES = {
    "quiver-jordan": lambda: path_category(jordan_quiver()),
    "quiver-a2": lambda: path_category(a2_quiver()),
    "quiver-two_loop": lambda: path_category(two_loop_quiver()),
    "dga-jordan": lambda: truncated_path_category(
        derived_preprojective(jordan_quiver()), weight_cap=2),
    "dga-a2": lambda: truncated_path_category(
        derived_preprojective(a2_quiver()), weight_cap=2),
    "dga-two_loop": lambda: truncated_path_category(
        derived_preprojective(two_loop_quiver()), weight_cap=2),
    "path-jordan-c3": lambda: truncated_path_category(
        derived_preprojective(jordan_quiver()), weight_cap=3),
    "path-a2-c3": lambda: truncated_path_category(
        derived_preprojective(a2_quiver()), weight_cap=3),
}


@pytest.mark.parametrize("window", [2, 3])
@pytest.mark.parametrize("shape", sorted(BENCHMARK_SHAPES))
def test_identity_witnesses_match_the_oracle_on_benchmark_shapes(shape, window):
    cat = BENCHMARK_SHAPES[shape]()
    # as in the CLI, the homology fills the memo first
    w = HochschildChainWindow(cat, window)
    windowed_homology(w)
    assert (_identity_witnesses(w)
            == identity_witnesses_oracle(HochschildChainWindow(cat, window))
            == [])


@pytest.mark.parametrize("shape", ["quiver-two_loop", "dga-jordan", "path-a2-c3"])
def test_identity_checks_read_every_chain_of_the_window(monkeypatch, shape):
    # every chain of length 3 is passed to b on its own, not a sample of
    # them; a B-image that happens to be one chain does not count
    from ainfty import cli
    w = HochschildChainWindow(BENCHMARK_SHAPES[shape](), 3)
    one, seen, images = w.cat.field.one(), set(), []

    def recording_B(window, chain):
        images.append(connes_B(window, chain))  # kept alive: ids stay unique
        return images[-1]

    def recording_b(window, chain):
        if (len(chain) == 1 and one in chain.values()
                and id(chain) not in {id(image) for image in images}):
            seen.update(chain)
        return hochschild_b(window, chain)
    monkeypatch.setattr(cli, "connes_B", recording_B)
    monkeypatch.setattr(cli, "hochschild_b", recording_b)
    assert _identity_witnesses(w) == []
    assert len(w.basis(3)) >= 120  # a sample of every k-th chain, k >= 2, misses some
    assert set(w.basis(3)) <= seen


def flipped(cat, k):
    """cat with the first output of its k-th b_2 entry (sorted) negated."""
    b2 = {tup: dict(out) for tup, out in cat.ops[2].items()}
    tup = sorted(b2)[k]
    z = min(b2[tup])
    b2[tup][z] = cat.field.neg(b2[tup][z])
    return dataclasses.replace(cat, ops={**cat.ops, 2: b2})


@pytest.mark.parametrize("k, window, identities", [
    (6, 2, {"b^2"}), (10, 3, {"b^2", "bB+Bb"}), (18, 3, {"b^2"})])
def test_identity_witnesses_match_the_oracle_where_b_squared_is_not_zero(
        k, window, identities):
    # the Jordan dg category with one b_2 sign flipped fails its relations,
    # so the homology refuses it: the checks run on the window directly
    bad = flipped(truncated_path_category(derived_preprojective(jordan_quiver()),
                                          weight_cap=2), k)
    got = _identity_witnesses(HochschildChainWindow(bad, window))
    assert got == identity_witnesses_oracle(HochschildChainWindow(bad, window))
    assert {wit["identity"] for wit in got} == identities


@pytest.mark.parametrize("units", [{}, {"1": "e@1"}], ids=["none", "one"])
def test_identity_checks_without_units_raise_as_the_oracle_does(units):
    cat = dataclasses.replace(path_category(a2_quiver()), units=units)
    errors = []
    for check in (_identity_witnesses, identity_witnesses_oracle):
        with pytest.raises(HochschildError) as err:
            check(HochschildChainWindow(cat, 3))
        errors.append(str(err.value))
    assert errors[0] == errors[1] == "Connes operator needs designated units"


def fresh(window, terms, chain):
    """sum c * terms(window, tup, 1) over the chain, from the term
    generator itself: no memo is read or written."""
    f, acc = window.cat.field, {}
    for tup, c in chain.items():
        for out, v in terms(window, tup, f.one()):
            acc = addc(f, acc, {out: f.mul(c, v)})
    return acc


def test_b_and_B_are_sums_of_freshly_computed_columns(wjordan, wdpp):
    for w in (wjordan, wdpp):
        f = w.cat.field
        tups = [t for n in range(1, w.max_length) for t in w.basis(n)]
        coeffs = [f.of_int(1), f.of_int(-3), f.of_fraction(Fraction(1, 2))]
        vectors = [{tup: coeffs[i % 3]} for i, tup in enumerate(tups)]
        vectors += [dict(zip(tups[i::7], coeffs)) for i in range(7)]
        for v in vectors:
            # twice: once filling the memo, once reading it
            for _ in range(2):
                assert hochschild_b(w, v) == fresh(w, hochschild._b_terms, v)
                assert connes_B(w, v) == fresh(w, hochschild._B_terms, v)


def test_bad_chains_still_raise_once_the_memo_is_full():
    w = HochschildChainWindow(path_category(a2_quiver()), 3)
    windowed_homology(w)
    _identity_witnesses(w)
    f = w.cat.field
    good = w.basis(1)[0]
    for chain in ({("a", "e@1"): f.one()},
                  {good: f.one(), ("a", "e@1"): f.one()},
                  {("e@1",) * 4: f.one()}):
        with pytest.raises(HochschildError):
            hochschild_b(w, chain)
        with pytest.raises(HochschildError):
            connes_B(w, chain)
    with pytest.raises(HochschildError, match="insufficient window"):
        connes_B(w, {("e@1",) * 3: f.one()})


def test_mutating_a_returned_chain_changes_no_later_result(wdpp):
    f = wdpp.cat.field
    for tup in every_chain(wdpp, wdpp.max_length - 1):
        for chain in ({tup: f.one()}, {tup: f.of_int(2)}):
            for op in (hochschild_b, connes_B):
                want = dict(op(wdpp, chain))
                got = op(wdpp, chain)
                got[("x",)] = f.one()
                for out in want:
                    got[out] = f.of_int(7)
                assert op(wdpp, chain) == want


# ---------------------------------------------------------------------------
# randomized sweeps

def stride_sample(items, cap=60):
    step = max(1, len(items) // cap)
    return items[::step]


def test_identities_on_random_categories():
    for seed in range(20):
        q = random_quiver(seed)
        if seed % 2:
            cat = path_category(q)
        else:
            cat = truncated_path_category(derived_preprojective(q),
                                          weight_cap=2)
        w = HochschildChainWindow(cat, 4)
        f = cat.field
        for n in range(1, 5):
            chains = w.basis(n) if n <= 2 else stride_sample(w.basis(n))
            for tup in chains:
                c = {tup: f.of_int(1)}
                assert hochschild_b(w, hochschild_b(w, c)) == {}
                if n <= 2:
                    assert connes_B(w, connes_B(w, c)) == {}
                if n <= 3:
                    anti = addc(f, hochschild_b(w, connes_B(w, c)),
                                connes_B(w, hochschild_b(w, c)))
                    assert anti == {}, (seed, tup)


@st.composite
def jordan_chains(draw):
    w = _JORDAN[0]
    tups = [t for n in range(1, w.max_length + 1) for t in w.basis(n)]
    picks = draw(st.lists(st.sampled_from(tups), min_size=1, max_size=3))
    f = w.cat.field
    chain = {}
    for tup in picks:
        c = f.of_int(draw(st.integers(min_value=-4, max_value=4)))
        chain = addc(f, chain, {tup: c})
    return chain


@settings(max_examples=30, deadline=None)
@given(jordan_chains())
def test_b_is_linear_and_square_zero(chain):
    w = _JORDAN[0]
    f = w.cat.field
    assert hochschild_b(w, hochschild_b(w, chain)) == {}
    parts = [{t: c} for t, c in chain.items()]
    total = {}
    for p in parts:
        total = addc(f, total, hochschild_b(w, p))
    assert total == hochschild_b(w, chain)


_JORDAN = [HochschildChainWindow(path_category(jordan_quiver()), 4)]
