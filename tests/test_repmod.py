"""Matrix representations: relations, moment maps, semisimplification,
stability.

The rational radical route is cross-checked against the exhaustive
prime-field Jordan-Hoelder oracle on every instance with good reduction;
hand-computed fixtures (nilpotent blocks, outer products, companion
matrices, the quaternion regular representation) pin the endpoint
behaviour, including the honest refusals.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfty.field import GF, QQ, FieldCtx
from ainfty.quiver import (Quiver, a2_quiver, double, jordan_quiver,
                           preprojective, derived_preprojective,
                           random_quiver, two_loop_quiver)
from ainfty.sparse import Echelon, SparseMatrix, invert
from ainfty import repmod as R
from ainfty.repmod import MatrixRep, RepError

import subspace_oracle
from repmod_oracle import (conjugate, eval_relations, invariant, path_matrix,
                           radical_oracle)

F = Fraction
F5 = GF(5)
F7 = GF(7)


def mat(rows, field=QQ):
    conv = (lambda x: field.of_fraction(F(x))) if field.p == 0 else \
           (lambda x: field.of_int(int(x)))
    return SparseMatrix.from_dense([[conv(x) for x in row] for row in rows],
                                   field)


def dense(m):
    return [[m.entries.get((r, c), 0) for c in range(m.ncols)]
            for r in range(m.nrows)]


JQ = jordan_quiver()
A2 = a2_quiver()
TL = two_loop_quiver()
DA2 = double(A2)
DA3 = double(Quiver.make(("1", "2", "3"), [("a", "1", "2"), ("b", "2", "3")]))
PI_A2 = preprojective(A2)
PI_J = preprojective(JQ)


def j2_block(field=QQ):
    return MatrixRep(JQ, {"1": 2}, {"a": mat([[0, 1], [0, 0]], field)}, field)


def quaternion_rep():
    # left regular representation of the rational quaternions on (1, i, j, k)
    li = mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    lj = mat([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    return MatrixRep(TL, {"1": 4}, {"a": li, "b": lj})


# ---------------------------------------------------------------------------
# construction

def test_missing_matrices_are_zero():
    rep = R.zero_rep(DA2, {"1": 1, "2": 2})
    assert rep.mats["a"].nrows == 2 and rep.mats["a"].ncols == 1
    assert rep.mats["a*"].nrows == 1 and rep.mats["a*"].ncols == 2
    assert all(m.is_zero() for m in rep.mats.values())


def test_shape_and_name_validation():
    with pytest.raises(RepError, match="shape"):
        MatrixRep(A2, {"1": 1, "2": 2}, {"a": mat([[1]])})
    with pytest.raises(RepError, match="unknown"):
        MatrixRep(A2, {"1": 1, "2": 1}, {"b": mat([[1]])})
    with pytest.raises(ValueError):
        MatrixRep(A2, {"1": -1, "2": 1}, {})


def test_path_matrix_operator_order():
    rep = MatrixRep(TL, {"1": 2},
                    {"a": mat([[0, 1], [0, 0]]), "b": mat([[0, 0], [1, 0]])})
    # ("a", "b") is a o b: apply b first
    assert dense(path_matrix(rep, ("a", "b"))) == dense(
        rep.mats["a"].mul(rep.mats["b"]))
    assert dense(path_matrix(rep, (), "1")) == [[F(1), F(0)], [F(0), F(1)]]


# ---------------------------------------------------------------------------
# relations

def test_a2_preprojective_rank_one():
    # d = (1, 1): the relation is exactly xy = 0
    for x, y in [(2, 3), (2, 0), (0, 5), (0, 0)]:
        rep = MatrixRep(DA2, {"1": 1, "2": 1},
                        {"a": mat([[x]]), "a*": mat([[y]])})
        rel = eval_relations(rep, PI_A2)
        assert rel.ok == (x * y == 0)
    assert eval_relations(R.zero_rep(DA2, {"1": 2, "2": 2}), PI_A2).ok


def test_a2_preprojective_d_1_2_outer_product():
    # d = (1, 2): A = (a, b)^t, A* = (c, d); the vertex-2 residual is the
    # outer product, so the relations say ac = ad = bc = bd = 0
    a, b, c, d = F(1), F(2), F(3), F(-5)
    rep = MatrixRep(DA2, {"1": 1, "2": 2},
                    {"a": mat([[a], [b]]), "a*": mat([[c, d]])})
    rel = eval_relations(rep, PI_A2)
    by_vertex = dict(rel.residuals)
    assert dense(by_vertex["2"]) == [[a * c, a * d], [b * c, b * d]]
    assert dense(by_vertex["1"]) == [[-(c * a + d * b)]]
    # the outer product vanishes only when one side is zero
    ok = MatrixRep(DA2, {"1": 1, "2": 2}, {"a": mat([[a], [b]])})
    assert eval_relations(ok, PI_A2).ok


def test_relations_accept_dg_algebra():
    dpp = derived_preprojective(A2)
    assert eval_relations(R.zero_rep(DA2, {"1": 1, "2": 1}), dpp).ok


# ---------------------------------------------------------------------------
# moment map

def test_moment_map_values_rank_one():
    x, y = F(2), F(3)
    rep = MatrixRep(DA2, {"1": 1, "2": 1},
                    {"a": mat([[x]]), "a*": mat([[y]])})
    mu = R.moment_map(rep)
    assert dense(mu["1"]) == [[-y * x]]
    assert dense(mu["2"]) == [[x * y]]


def test_moment_map_needs_doubled_quiver():
    with pytest.raises(RepError, match="doubled"):
        R.moment_map(R.zero_rep(A2, {"1": 1, "2": 1}))


def test_moment_map_jordan_nilpotent():
    dj = double(JQ)
    rep = MatrixRep(dj, {"1": 2}, {"a": mat([[0, 1], [0, 0]])})
    assert all(m.is_zero() for m in R.moment_map(rep).values())


def test_moment_zero_iff_relations():
    for seed in range(25):
        rep = R.random_rep(DA2, seed, max_total=4)
        mu_zero = all(m.is_zero() for m in R.moment_map(rep).values())
        assert mu_zero == eval_relations(rep, PI_A2).ok


def test_moment_map_equivariance():
    rep = R.random_rep(DA2, 7, d={"1": 2, "2": 1})
    g = {"1": mat([[1, 2], [0, 1]]), "2": mat([[3]])}
    mu0 = R.moment_map(rep)
    mu1 = R.moment_map(conjugate(rep, g))
    for v in DA2.vertices:
        ginv = invert(g[v])
        assert mu1[v].add(g[v].mul(mu0[v]).mul(ginv).neg()).is_zero()


def test_conjugate_rejects_singular():
    rep = R.random_rep(DA2, 7, d={"1": 2, "2": 1})
    with pytest.raises(RepError, match="singular"):
        conjugate(rep, {"1": mat([[1, 1], [1, 1]])})


# ---------------------------------------------------------------------------
# acting algebra and radical

def flat_mul(rep, a, b):
    """Product of two {(row, col): scalar} matrices on the total space."""
    n = rep.total_dim()
    return SparseMatrix(n, n, rep.field, a).mul(
        SparseMatrix(n, n, rep.field, b)).entries


def flatten(rep, blocks):
    """The local matrices of {(v, w): [d_w x d_v matrices]} as
    {(row, col): scalar} dicts on the total space, by least key.  The
    reduced echelon bases of the blocks, so placed, are the reduced
    echelon basis of the space they span."""
    off = rep.offsets()
    return sorted(({(off[w] + r, off[v] + c): x for (r, c), x in m.items()}
                   for (v, w), part in blocks.items() for m in part), key=min)


def items(basis):
    return [sorted(b.items()) for b in basis]


def acting_algebra_oracle(rep):
    """Echelon basis of the span of the vertex idempotents and the arrows,
    closed under products by them on both sides, round after round, until
    a round adds nothing."""
    f = rep.field
    off = rep.offsets()
    gens = [{(off[v] + i, off[v] + i): f.one() for i in range(rep.d[v])}
            for v in rep.quiver.vertices]
    for a in rep.quiver.arrows:
        gens.append({(off[a.tgt] + r, off[a.src] + c): val
                     for (r, c), val in rep.mats[a.name].entries.items()})
    ech = Echelon(f, gens)
    while True:
        grew = False
        for x in ech.basis():
            for g in gens:
                grew |= ech.add(flat_mul(rep, g, x))
                grew |= ech.add(flat_mul(rep, x, g))
        if not grew:
            return ech.basis()


def oracle_reps():
    """Seeded representations of doubled A2, doubled Jordan, the two-loop
    quiver and doubled A3, over QQ and GF(5); dimensions 0 to 3 per vertex,
    so some vertices are zero-dimensional."""
    for qi, q in enumerate((DA2, double(JQ), TL, DA3)):
        for field in (QQ, F5):
            for seed in range(8):
                rng = random.Random(300 * qi + seed)
                d = {v: rng.randint(0, 3) for v in q.vertices}
                yield R.random_rep(q, 300 * qi + seed, d=d, field=field)


def test_acting_algebra_matches_two_sided_closure():
    zero_dim = 0
    for rep in oracle_reps():
        got = items(flatten(rep, R.acting_algebra(rep)))
        assert got == items(acting_algebra_oracle(rep))
        zero_dim += 0 in rep.d.values()
    assert zero_dim >= 5


def test_acting_algebra_closed_and_bounded():
    for rep in oracle_reps():
        basis = flatten(rep, R.acting_algebra(rep))
        ech = Echelon(rep.field, basis)
        for b1 in basis:
            for b2 in basis:
                assert not ech.reduce(flat_mul(rep, b1, b2))
        assert len(basis) <= rep.total_dim() ** 2


def dims(blocks):
    return {vw: len(part) for vw, part in blocks.items()}


def test_acting_algebra_fixtures():
    assert dims(R.acting_algebra(R.zero_rep(A2, {"1": 1, "2": 1}))) == {
        ("1", "1"): 1, ("1", "2"): 0, ("2", "1"): 0, ("2", "2"): 1}
    assert dims(R.acting_algebra(j2_block())) == {("1", "1"): 2}
    burn = MatrixRep(TL, {"1": 2},
                     {"a": mat([[0, 1], [0, 0]]), "b": mat([[0, 0], [1, 0]])})
    assert dims(R.acting_algebra(burn)) == {("1", "1"): 4}


def test_closure_forms_products_only_for_blocks_that_can_grow(monkeypatch):
    # a and b generate the whole 2 x 2 matrix algebra, so the one block
    # fills while products are still waiting: every product the closure
    # forms must be offered to the block while it is not yet full
    products, offered = [], []
    mul, add = SparseMatrix.mul, Echelon.add

    def recording_mul(self, other):
        out = mul(self, other)
        products.append(out.entries)
        return out

    def recording_add(self, vec):
        offered.append((vec, self.dim()))
        return add(self, vec)

    monkeypatch.setattr(SparseMatrix, "mul", recording_mul)
    monkeypatch.setattr(Echelon, "add", recording_add)
    for f in (QQ, F5, GF(R.CERTIFICATE_PRIME)):
        del products[:], offered[:]
        burn = MatrixRep(TL, {"1": 2}, {"a": mat([[0, 1], [0, 0]], f),
                                        "b": mat([[0, 0], [1, 0]], f)}, f)
        blocks = R._span_blocks(burn.quiver, burn.d, burn.mats, f)
        assert blocks["1", "1"].dim() == 4 and products
        for prod in products:
            dims = [dim for vec, dim in offered if vec is prod]
            assert dims and all(dim < 4 for dim in dims)


P_CERT = R.CERTIFICATE_PRIME


def certificate_cases():
    """(name, rep, blocks certified full mod P_CERT, or None when the
    certificate is skipped).  A block is (source vertex, target vertex)."""
    skipped = MatrixRep(DA2, {"1": 2, "2": 1},
                        {"a": mat([[F(1, P_CERT), 1]]), "a*": mat([[2], [3]])})
    yield "denominator-is-the-prime", skipped, None
    # a = [[p]] spans its 1 x 1 block over QQ but is zero mod p
    deficient = MatrixRep(A2, {"1": 1, "2": 1}, {"a": mat([[P_CERT]])})
    yield "full-over-QQ-only", deficient, {("1", "1"), ("2", "2")}
    # only e_2 A e_2 is full: e_1 A e_1 = span(1, a*a) has 2 of 4
    # dimensions, and the paths 1 -> 2 and 2 -> 1 span a and a* alone
    mixed = MatrixRep(DA2, {"1": 2, "2": 1},
                      {"a": mat([[1, 0]]), "a*": mat([[1], [0]])})
    yield "full-and-not-full", mixed, {("2", "2")}
    generic = MatrixRep(TL, {"1": 2}, {"a": mat([[0, 1], [0, 0]]),
                                      "b": mat([[F(1, 2), 0], [3, -1]])})
    yield "every-block-full", generic, {("1", "1")}
    # vertex 2 is zero-dimensional, so no path joins 1 and 3
    gap = MatrixRep(DA3, {"1": 2, "2": 0, "3": 1},
                    {"a": SparseMatrix(0, 2), "b": SparseMatrix(1, 0)})
    yield "zero-dimensional-vertex", gap, {("3", "3")}


@pytest.mark.parametrize("name, rep, certified",
                         list(certificate_cases()),
                         ids=[c[0] for c in certificate_cases()])
def test_acting_algebra_certificate_against_the_oracle(monkeypatch, name, rep,
                                                        certified):
    passes = []
    span = R._span_blocks

    def recording(quiver, d, mats, f, full=()):
        passes.append((f.p, set(full)))
        return span(quiver, d, mats, f, full)

    monkeypatch.setattr(R, "_span_blocks", recording)
    basis = flatten(rep, R.acting_algebra(rep))
    assert items(basis) == items(acting_algebra_oracle(rep))
    assert all(type(x) is int for b in basis for x in b.values()
               if F(x).denominator == 1)
    if certified is None:
        assert passes == [(0, set())]
    else:
        assert passes == [(P_CERT, set()), (0, certified)]


def test_radical_fixtures():
    # nilpotent 2x2 block: radical is the block itself
    assert dims(R.radical_char0(j2_block())) == {("1", "1"): 1}
    # upper triangular algebra: radical is strictly upper
    ut = MatrixRep(TL, {"1": 2},
                   {"a": mat([[1, 0], [0, 2]]), "b": mat([[0, 1], [0, 0]])})
    rad = R.radical_char0(ut)
    assert rad == {("1", "1"): [{(0, 1): F(1)}]}
    # full matrix algebra and a split torus are semisimple
    burn = MatrixRep(TL, {"1": 2},
                     {"a": mat([[0, 1], [0, 0]]), "b": mat([[0, 0], [1, 0]])})
    assert R.radical_char0(burn) == {}
    kk = MatrixRep(JQ, {"1": 2}, {"a": mat([[1, 0], [0, 2]])})
    assert R.radical_char0(kk) == {}
    # A2 with a nonzero arrow: e_2 A e_1 is all radical, as nothing pairs
    # with it from e_1 A e_2
    r11 = MatrixRep(A2, {"1": 1, "2": 1}, {"a": mat([[3]])})
    assert R.radical_char0(r11) == {("1", "2"): [{(0, 0): 1}]}


def test_block_radical_matches_the_whole_space_trace_form():
    # on the seeded rational representations and the certificate fixtures,
    # which hold a zero-dimensional vertex and blocks that are all full
    reps = [rep for rep in oracle_reps() if rep.field.p == 0]
    reps += [case[1] for case in certificate_cases()]
    radicals = 0
    for rep in reps:
        want = radical_oracle(rep, acting_algebra_oracle(rep))
        assert items(flatten(rep, R.radical_char0(rep))) == items(want)
        radicals += bool(want)
    assert 0 < radicals < len(reps)


def test_radical_is_nilpotent_two_sided_ideal():
    for seed in range(10):
        rep = R.random_rep(DA2, 100 + seed, max_total=4)
        basis = flatten(rep, R.acting_algebra(rep))
        rad = flatten(rep, R.radical_char0(rep))
        span = Echelon(rep.field, rad)
        for j in rad:
            for b in basis:
                assert not span.reduce(flat_mul(rep, j, b))
                assert not span.reduce(flat_mul(rep, b, j))
            power = dict(j)
            for _ in range(rep.total_dim()):
                power = flat_mul(rep, power, j)
            assert not power
    with pytest.raises(RepError, match="brute-force"):
        R.radical_char0(j2_block(F5))


def test_radical_filtration_layers():
    assert R.semisimplify(j2_block())[1] == ({"1": 2}, {"1": 1}, {"1": 0})
    # each layer is a subrepresentation
    rep = R.random_rep(DA2, 11, max_total=4)
    layers = R.radical_filtration(rep, R.acting_algebra(rep))
    for layer in layers:
        assert invariant(rep, layer)
    dims = [sum(len(b) for b in layer.values()) for layer in layers]
    assert dims == sorted(dims, reverse=True)
    assert len(set(dims)) == len(dims)


# ---------------------------------------------------------------------------
# semisimplification

def test_semisimplify_fixtures():
    assert R.semisimplify(j2_block())[0].mats["a"].is_zero()
    r11 = MatrixRep(A2, {"1": 1, "2": 1}, {"a": mat([[1]])})
    assert R.semisimplify(r11)[0].mats["a"].is_zero()
    kk = MatrixRep(JQ, {"1": 2}, {"a": mat([[1, 0], [0, 2]])})
    assert dense(R.semisimplify(kk)[0].mats["a"]) == dense(kk.mats["a"])


def test_semisimplify_invariants():
    quivers = [JQ, A2, TL, DA2]
    for qi, q in enumerate(quivers):
        for seed in range(12):
            rep = R.random_rep(q, 1000 * qi + seed, max_total=4)
            ss = R.semisimplify(rep)[0]
            assert ss.d == rep.d
            assert R.radical_char0(ss) == {}
            again = R.semisimplify(ss)[0]
            for a in q.arrows:
                assert dense(again.mats[a.name]) == dense(ss.mats[a.name])


def test_semisimplify_preserves_relation_status():
    # representations of the preprojective algebra stay representations
    count = 0
    for seed in range(40):
        rep = R.random_rep(DA2, seed, max_total=4)
        if not eval_relations(rep, PI_A2).ok:
            continue
        assert eval_relations(R.semisimplify(rep)[0], PI_A2).ok
        count += 1
    assert count >= 5


def test_semisimplify_prime_field_route():
    rep = j2_block(F5)
    ss = R.semisimplify(rep)[0]
    assert ss.field.p == 5 and ss.d == {"1": 2}
    assert ss.mats["a"].is_zero()
    again = R.semisimplify(ss)[0]
    assert dense(again.mats["a"]) == dense(ss.mats["a"])


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
def test_semisimplify_reports_layers_exactly_over_the_rationals(field):
    # the radical layers exist only on the trace-form route; over GF(p) the
    # Jordan-Hoelder oracle semisimplifies and reports none
    fixtures = [j2_block(field)] + [R.random_rep(q, seed, field=field)
                                    for q in (JQ, DA2, TL) for seed in range(4)]
    for rep in fixtures:
        ss, layer_dims, semisimple = R.semisimplify(rep)
        assert ss.field == field and ss.d == rep.d
        if field.p:
            assert layer_dims is None
            brute = R.ss_bruteforce(rep)
            assert all(dense(m) == dense(brute.mats[a])
                       for a, m in ss.mats.items())
            # semisimple is the oracle rerun on ss that the CLI made
            again = R.ss_bruteforce(ss)
            assert semisimple and all(dense(m) == dense(again.mats[a])
                                      for a, m in ss.mats.items())
        else:
            assert layer_dims == tuple(
                {v: len(basis) for v, basis in layer.items()}
                for layer in R.radical_filtration(rep, R.acting_algebra(rep)))


def qq_fixtures():
    """The rational representations of this module: the hand-made ones,
    the certificate cases, the seeded oracle representations and those
    of test_semisimplify_invariants."""
    yield j2_block()
    yield MatrixRep(TL, {"1": 2},
                    {"a": mat([[1, 0], [0, 2]]), "b": mat([[0, 1], [0, 0]])})
    yield MatrixRep(TL, {"1": 2},
                    {"a": mat([[0, 1], [0, 0]]), "b": mat([[0, 0], [1, 0]])})
    yield MatrixRep(JQ, {"1": 2}, {"a": mat([[1, 0], [0, 2]])})
    yield MatrixRep(A2, {"1": 1, "2": 1}, {"a": mat([[3]])})
    yield quaternion_rep()
    yield from (case[1] for case in certificate_cases())
    yield from (rep for rep in oracle_reps() if rep.field.p == 0)
    for qi, q in enumerate((JQ, A2, TL, DA2)):
        for seed in range(12):
            yield R.random_rep(q, 1000 * qi + seed, max_total=4)


def recheck(ss):
    """The certificate semisimplify replaced: a second run returns ss
    unchanged, and the trace form finds no radical in ss."""
    again = R.semisimplify(ss)[0]
    return (all(dense(again.mats[a]) == dense(m) for a, m in ss.mats.items())
            and R.radical_char0(ss) == {})


def test_semisimple_certificate_agrees_with_the_recheck():
    radicals = 0
    for rep in qq_fixtures():
        ss, _, semisimple = R.semisimplify(rep)
        assert semisimple and recheck(ss)
        radicals += bool(R.radical_char0(rep))
    # the certificate is tested on inputs that have a radical to remove
    assert radicals >= 10


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([DA2, JQ, TL]), st.integers(0, 10 ** 6))
def test_semisimple_certificate_on_random_representations(q, seed):
    rep = R.random_rep(q, seed, max_total=4)
    ss, _, semisimple = R.semisimplify(rep)
    assert semisimple and recheck(ss)


def test_certificate_sees_a_radical_the_graded_keeps(monkeypatch):
    # a graded that keeps the entries between layers leaves ss = rep in
    # the adapted basis, with its nonzero radical
    def keep_all(m, rows, cols):
        return SparseMatrix(m.nrows, m.ncols, m.field, dict(m.entries)), True
    monkeypatch.setattr(R, "_graded", keep_all)
    reps = [rep for rep in qq_fixtures() if R.radical_char0(rep)]
    assert len(reps) >= 10
    for rep in reps:
        ss, _, semisimple = R.semisimplify(rep)
        assert not semisimple
        assert R.radical_char0(ss)


def has_depths_0_and_1_at_a_vertex(rep):
    layers = R.radical_filtration(rep, R.acting_algebra(rep))
    return any(0 in ds and 1 in ds
               for ds in R._adapted_basis(rep, layers)[1].values())


def test_certificate_refuses_a_filtration_that_is_not_stable(monkeypatch):
    # the first depth-0 and depth-1 vectors at a vertex swap their labels.
    # On j2 the arrow maps the depth-0 vector onto the depth-1 one, and
    # after the swap a deeper vector into a shallower one; no entry of the
    # swapped graded is then off its diagonal, so the trace form alone
    # would pass it, and only the stability check refuses
    reps = [rep for rep in qq_fixtures()
            if has_depths_0_and_1_at_a_vertex(rep)]
    assert len(reps) >= 3
    adapted = R._adapted_basis

    def swapped(rep, layers):
        g, depth = adapted(rep, layers)
        ds = next(ds for ds in depth.values() if 0 in ds and 1 in ds)
        i, j = ds.index(0), ds.index(1)
        ds[i], ds[j] = ds[j], ds[i]
        return g, depth
    monkeypatch.setattr(R, "_adapted_basis", swapped)
    ss, _, semisimple = R.semisimplify(j2_block())
    assert ss.mats["a"].is_zero() and not semisimple
    for rep in reps:
        assert not R.semisimplify(rep)[2]


def test_semisimple_over_a_prime_field_sees_an_unchanged_input(monkeypatch):
    # an oracle whose first run returns its input: the rerun changes it
    brute = R.ss_bruteforce
    calls = []

    def first_unchanged(rep):
        calls.append(rep)
        return rep if len(calls) == 1 else brute(rep)
    monkeypatch.setattr(R, "ss_bruteforce", first_unchanged)
    ss, _, semisimple = R.semisimplify(j2_block(F5))
    assert not ss.mats["a"].is_zero() and not semisimple


# ---------------------------------------------------------------------------
# prime-field enumeration

def test_subspace_counts():
    # Gaussian binomial checks: F_2^2 has 5 subspaces, F_3^2 has 6
    assert len(list(R.subspaces_fp(2, 2))) == 5
    assert len(list(R.subspaces_fp(2, 3))) == 6
    assert len(list(R.subspaces_fp(1, 5))) == 2
    seen = set()
    for rows in R.subspaces_fp(3, 2):
        key = tuple(tuple(sorted(r.items())) for r in rows)
        assert key not in seen
        seen.add(key)


def test_jh_bruteforce_fixtures():
    fac = R.jh_bruteforce(j2_block(F5))
    assert [f.d for f in fac] == [{"1": 1}, {"1": 1}]
    assert all(f.mats["a"].is_zero() for f in fac)
    # t^2 - 2 is irreducible mod 5, so the companion block is simple
    comp = MatrixRep(JQ, {"1": 2}, {"a": mat([[0, 2], [1, 0]], F5)}, F5)
    assert [f.d for f in R.jh_bruteforce(comp)] == [{"1": 2}]
    with pytest.raises(RepError, match="prime"):
        R.jh_bruteforce(j2_block())
    with pytest.raises(RepError, match="bound"):
        R.jh_bruteforce(R.zero_rep(JQ, {"1": 7}, F5))


def test_jh_factors_assemble():
    for seed in range(10):
        rep = R.random_rep(DA2, seed, field=F7, max_total=4)
        fac = R.jh_bruteforce(rep)
        assert sum(f.total_dim() for f in fac) == rep.total_dim()
        for v in DA2.vertices:
            assert sum(f.d[v] for f in fac) == rep.d[v]


def test_good_reduction():
    bad = MatrixRep(A2, {"1": 1, "2": 1}, {"a": mat([[F(1, 5)]])})
    red, reason = R.good_reduction(bad, 5)
    assert red is None and "denominator" in reason
    collapse = MatrixRep(A2, {"1": 1, "2": 1}, {"a": mat([[5]])})
    red, reason = R.good_reduction(collapse, 5)
    assert red is None and "rank" in reason
    ok = MatrixRep(A2, {"1": 1, "2": 1}, {"a": mat([[F(2, 3)]])})
    red, reason = R.good_reduction(ok, 5)
    assert reason == "ok" and red.field.p == 5
    assert dense(red.mats["a"]) == [[4]]


def _jh_multisets_agree(fa, fb):
    if len(fa) != len(fb):
        return False
    used = [False] * len(fb)
    for f in fa:
        for i, g in enumerate(fb):
            if not used[i] and f.d == g.d and R.hom_space(f, g):
                used[i] = True
                break
        else:
            return False
    return True


def test_jh_agreement_under_reduction():
    # the characteristic-zero semisimplification and the prime-field oracle
    # see the same Jordan-Hoelder multiset whenever the reduction is good
    quivers = [JQ, A2, TL, DA2, random_quiver(3)]
    good = skipped = 0
    for qi, q in enumerate(quivers):
        for seed in range(20):
            rep = R.random_rep(q, 1000 * qi + seed, max_total=4)
            ss = R.semisimplify(rep)[0]
            for p in (5, 7):
                red, _ = R.good_reduction(rep, p)
                red_ss, _ = R.good_reduction(ss, p)
                if red is None or red_ss is None:
                    skipped += 1
                    continue
                assert _jh_multisets_agree(R.jh_bruteforce(red),
                                           R.jh_bruteforce(red_ss))
                good += 1
    assert good >= 50


# ---------------------------------------------------------------------------
# homs and isotypic pieces

def test_hom_space_solves_intertwiner_equations():
    r1 = R.random_rep(DA2, 3, max_total=4)
    r2 = R.random_rep(DA2, 4, max_total=4)
    for blocks in R.hom_space(r1, r2):
        for a in DA2.arrows:
            lhs = blocks[a.tgt].mul(r1.mats[a.name])
            rhs = r2.mats[a.name].mul(blocks[a.src])
            assert lhs.add(rhs.neg()).is_zero()


def test_hom_space_schur():
    r11 = MatrixRep(A2, {"1": 1, "2": 1}, {"a": mat([[1]], F5)}, F5)
    assert len(R.hom_space(r11, r11)) == 1
    s1 = R.zero_rep(A2, {"1": 1, "2": 0}, F5)
    s2 = R.zero_rep(A2, {"1": 0, "2": 1}, F5)
    assert R.hom_space(s1, s2) == []


def test_isotypic_fixtures():
    blocks = R.isotypic_decompose(R.zero_rep(JQ, {"1": 3}))
    assert [(b.multiplicity, b.simple.total_dim(), b.status)
            for b in blocks] == [(3, 1, "split")]
    blocks = R.isotypic_decompose(R.zero_rep(A2, {"1": 2, "2": 1}))
    assert sorted((b.multiplicity, b.simple.d["1"], b.simple.d["2"])
                  for b in blocks) == [(1, 0, 1), (2, 1, 0)]
    for b1 in blocks:
        for b2 in blocks:
            if b1 is not b2:
                assert not R.hom_space(b1.simple, b2.simple)


def test_isotypic_galois_block():
    comp = MatrixRep(JQ, {"1": 2}, {"a": mat([[0, 2], [1, 0]])})
    blocks = R.isotypic_decompose(comp)
    assert len(blocks) == 1
    b = blocks[0]
    assert b.status == "galois" and b.multiplicity == 1 and b.endo_dim == 2
    assert b.min_poly.coeffs == (F(-2), F(0), F(1))


def test_isotypic_undecided_quaternion():
    # End is a rational quaternion algebra: same dimension data as a split
    # matrix algebra, so the decomposition declines rather than guessing
    quat = quaternion_rep()
    assert dims(R.acting_algebra(quat)) == {("1", "1"): 4}
    blocks = R.isotypic_decompose(quat)
    assert [(b.multiplicity, b.endo_dim, b.status)
            for b in blocks] == [(1, 4, "undecided")]


def test_isotypic_splits_isomorphic_pair():
    s = MatrixRep(TL, {"1": 2},
                  {"a": mat([[0, 1], [0, 0]]), "b": mat([[0, 0], [1, 0]])})
    pair = R.direct_sum([s, s], TL, QQ)
    blocks = R.isotypic_decompose(pair)
    assert [(b.multiplicity, b.simple.total_dim(), b.status)
            for b in blocks] == [(2, 2, "split")]


def test_isotypic_requires_zero_radical():
    with pytest.raises(RepError, match="radical"):
        R.isotypic_decompose(j2_block())
    with pytest.raises(RepError, match="radical"):
        R.isotypic_decompose(j2_block(F5))


def test_isotypic_prime_field():
    rep = R.direct_sum([R.zero_rep(A2, {"1": 1, "2": 0}, F5),
                        R.zero_rep(A2, {"1": 1, "2": 0}, F5),
                        R.zero_rep(A2, {"1": 0, "2": 1}, F5)], A2, F5)
    blocks = R.isotypic_decompose(rep)
    assert sorted(b.multiplicity for b in blocks) == [1, 2]


# ---------------------------------------------------------------------------
# stability

def zeta_map(q, values):
    """The stability parameter {vertex: Fraction}, one value per vertex in
    vertex order."""
    return {v: F(x) for v, x in zip(q.vertices, values, strict=True)}


def test_slope_values():
    z = zeta_map(A2, (1, 0))
    assert R.slope({"1": 1, "2": 2}, z) == F(1, 3)
    assert R.slope({"1": 1, "2": 2}, zeta_map(A2, (1, 1))) == 1
    assert R.slope({"1": 2, "2": 4}, z) == F(1, 3)
    with pytest.raises(RepError, match="zero"):
        R.slope({"1": 0, "2": 0}, z)


def test_slope_of_sum_is_between_summands():
    z = zeta_map(A2, (3, -1))
    for d1, d2 in [({"1": 1, "2": 0}, {"1": 1, "2": 2}),
                   ({"1": 2, "2": 1}, {"1": 0, "2": 3})]:
        dsum = {v: d1[v] + d2[v] for v in d1}
        s = sorted([R.slope(d1, z), R.slope(d2, z)])
        assert s[0] <= R.slope(dsum, z) <= s[1]


def test_stability_fixtures():
    r11 = MatrixRep(A2, {"1": 1, "2": 1}, {"a": mat([[1]], F5)}, F5)
    rep = R.semistable_bruteforce(r11, zeta_map(A2, (1, -1)))
    assert rep.verdict == "stable" and rep.slope == 0
    rep = R.semistable_bruteforce(r11, zeta_map(A2, (-1, 1)))
    assert rep.verdict == "unstable"
    assert rep.destabilizer_dims == {"1": 0, "2": 1}
    s1s2 = R.zero_rep(A2, {"1": 1, "2": 1}, F5)
    rep = R.semistable_bruteforce(s1s2, zeta_map(A2, (1, 0)))
    assert rep.verdict == "unstable"
    assert rep.destabilizer_dims == {"1": 1, "2": 0}
    rep = R.semistable_bruteforce(s1s2, zeta_map(A2, (0, 0)))
    assert rep.verdict == "semistable" and rep.destabilizer is None


def test_destabilizer_reverifies():
    for seed in range(12):
        rep = R.random_rep(DA2, 200 + seed, field=F7, max_total=4)
        zeta = zeta_map(DA2, (1, -1))
        try:
            report = R.semistable_bruteforce(rep, zeta)
        except RepError:
            continue
        if report.verdict != "unstable":
            continue
        spaces = report.destabilizer
        assert invariant(rep, spaces)
        sd = {v: len(spaces[v]) for v in DA2.vertices}
        assert 0 < sum(sd.values()) < rep.total_dim()
        assert R.slope(sd, zeta) > report.slope


KRONECKER = Quiver.make(("1", "2"), [("a", "1", "2"), ("b", "1", "2")])

# (quiver, dimension vector, stability parameter): a single arrow, arrows
# both ways, loops, parallel arrows, and a zero-dimensional middle vertex
SUBSPACE_SHAPES = [
    (A2, {"1": 2, "2": 2}, (1, -1)),
    (DA2, {"1": 2, "2": 2}, (-1, 1)),
    (JQ, {"1": 3}, (1,)),
    (KRONECKER, {"1": 2, "2": 2}, (1, -1)),
    (DA3, {"1": 2, "2": 0, "3": 2}, (1, 0, -1)),
]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("q,d,zeta", SUBSPACE_SHAPES,
                         ids=["a2", "doubled-a2", "jordan", "kronecker",
                              "zero-vertex"])
def test_pruned_subspace_tuples_match_the_product_oracle(monkeypatch, p, q, d,
                                                         zeta):
    """The arrow-by-arrow enumeration yields the tuples of the full sorted
    product in the same order, so the first Jordan-Hoelder factor and the
    maximal destabilizer are unchanged."""
    for seed in range(3):
        rep = R.random_rep(q, 1000 * p + seed, d=d, field=GF(p))
        want = subspace_oracle.invariant_subspace_tuples(rep)
        assert list(R.invariant_subspace_tuples(rep)) == want
        param = zeta_map(q, zeta)
        got = (R.jh_bruteforce(rep), R.semistable_bruteforce(rep, param))
        with monkeypatch.context() as m:
            m.setattr(R, "invariant_subspace_tuples",
                      subspace_oracle.invariant_subspace_tuples)
            assert got == (R.jh_bruteforce(rep),
                           R.semistable_bruteforce(rep, param))


def test_stability_guards():
    with pytest.raises(RepError, match="prime"):
        R.semistable_bruteforce(R.zero_rep(A2, {"1": 1, "2": 1}),
                                zeta_map(A2, (0, 0)))
    with pytest.raises(RepError, match="bound"):
        R.semistable_bruteforce(R.zero_rep(A2, {"1": 4, "2": 4}, F5),
                                zeta_map(A2, (0, 0)))


# ---------------------------------------------------------------------------
# determinism and property checks

def test_deterministic_outputs():
    rep = R.random_rep(DA2, 23, max_total=4)
    assert R.acting_algebra(rep) == R.acting_algebra(rep)
    s1 = R.semisimplify(rep)[0]
    s2 = R.semisimplify(rep)[0]
    for a in DA2.arrows:
        assert dense(s1.mats[a.name]) == dense(s2.mats[a.name])
    r1 = R.random_rep(DA2, 23, max_total=4)
    for a in DA2.arrows:
        assert dense(r1.mats[a.name]) == dense(rep.mats[a.name])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_semisimplify_properties(seed):
    q = random_quiver(seed % 7)
    rep = R.random_rep(q, seed, max_total=4)
    ss = R.semisimplify(rep)[0]
    assert ss.d == rep.d
    assert R.radical_char0(ss) == {}
    total = sum(b.multiplicity * b.simple.total_dim()
                for b in R.isotypic_decompose(ss))
    assert total == ss.total_dim()
