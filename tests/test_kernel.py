"""Field contexts, sparse exact linear algebra, Koszul signs, polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfty.field import QQ, GF, FieldError
from ainfty.ratpoly import (RatPolynomial, factor_rational_poly, poly_gcd,
                            poly_xgcd)
from ainfty.signs import (block_sign, parity_sign, prefix_parities,
                          reversal_sign, rotations)
from ainfty import sparse
from ainfty.sparse import (Echelon, SparseMatrix, add_into, invert,
                           rank_kernel_image, rref, solve)
from kronecker_oracle import factor_kronecker, poly_value
from signs_oracle import koszul_sign


def test_field_rational_ops():
    f = QQ
    a = f.of_fraction(Fraction(2, 3))
    b = f.of_int(-4)
    assert f.add(a, b) == Fraction(-10, 3)
    assert f.mul(a, f.inv(a)) == f.one()
    assert f.scalar_from_str("7/2") == Fraction(7, 2)


def test_field_fp_ops():
    f = GF(7)
    assert f.add(f.of_int(5), f.of_int(4)) == 2
    assert f.mul(f.of_int(3), f.inv(f.of_int(3))) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero())
    with pytest.raises(FieldError):
        GF(6)


def test_scalar_json_round_trip():
    for f, val in [(QQ, Fraction(-3, 7)), (GF(11), 9)]:
        enc = f.scalar_to_json(val)
        assert f.scalar_from_json(enc) == val
    with pytest.raises(FieldError):
        QQ.scalar_from_json({"mod": 5, "val": 2})


scalars = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def canonical(q: Fraction):
    """The QQ form of a rational: an int when integral, else the Fraction."""
    return q.numerator if q.denominator == 1 else q


def assert_canonical_equal(got, want: Fraction):
    assert got == want
    assert type(got) is type(canonical(want))  # never a float or a Fraction n/1


@given(scalars.map(canonical), scalars.map(canonical), scalars,
       st.integers(-9, 9), st.integers(-9, 9).filter(bool))
@settings(max_examples=200, deadline=None)
def test_qq_ops_are_fraction_arithmetic_in_canonical_form(a, b, q, num, den):
    fa, fb = Fraction(a), Fraction(b)
    assert_canonical_equal(QQ.add(a, b), fa + fb)
    assert_canonical_equal(QQ.sub(a, b), fa - fb)
    assert_canonical_equal(QQ.mul(a, b), fa * fb)
    assert_canonical_equal(QQ.neg(a), -fa)
    assert_canonical_equal(QQ.of_fraction(q), q)
    assert_canonical_equal(QQ.of_int(num), Fraction(num))
    assert_canonical_equal(QQ.scalar_from_str(" %d " % num), Fraction(num))
    assert_canonical_equal(QQ.scalar_from_str("%d/%d" % (num, den)),
                           Fraction(num, den))
    assert_canonical_equal(QQ.scalar_from_json(str(q)), q)
    if b != 0:
        assert_canonical_equal(QQ.inv(b), 1 / fb)
        assert_canonical_equal(QQ.div(a, b), fa / fb)
    assert QQ.scalar_to_json(a) == QQ.scalar_to_json(fa)
    assert hash(a) == hash(fa)
    for unit in (QQ.zero(), QQ.one()):
        assert type(unit) is int
    # the inverse of a unit pivot is the int itself, no Fraction round trip
    for unit in (1, -1):
        assert_canonical_equal(QQ.inv(unit), Fraction(unit))


@given(st.sampled_from([2, 3, 7, 11]), st.integers(-30, 30),
       st.integers(-30, 30), st.integers(-9, 9), st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_prime_field_ops_are_arithmetic_mod_p(p, a, b, num, den):
    f = GF(p)
    x, y = f.of_int(a), f.of_int(b)
    assert (x, y) == (a % p, b % p)
    assert f.add(x, y) == (a + b) % p
    assert f.sub(x, y) == (a - b) % p
    assert f.mul(x, y) == (a * b) % p
    assert f.neg(x) == -a % p
    if y:
        assert f.mul(f.inv(y), y) == 1 and f.div(x, y) == f.mul(x, f.inv(y))
    frac = Fraction(num, den)
    if frac.denominator % p:
        q = f.of_fraction(frac)
        assert (q * frac.denominator - frac.numerator) % p == 0 and 0 <= q < p
        assert f.scalar_from_str("%d/%d" % (num, den)) == q
    else:
        with pytest.raises(FieldError):
            f.of_fraction(frac)
    assert f.scalar_from_json(f.scalar_to_json(x)) == x
    for val in (f.zero(), f.one(), x, y):
        assert type(val) is int


def test_rationals_and_prime_fields_are_distinct_contexts():
    assert QQ.p == 0 and GF(5).p == 5
    assert GF(5) == GF(5) and GF(5) != GF(7) and GF(5) != QQ
    with pytest.raises(FieldError):
        GF(0)
    with pytest.raises(FieldError, match="modulus mismatch"):
        GF(5).scalar_from_json({"mod": 7, "val": 2})


def test_one_prime_field_context_per_modulus():
    # the primality test runs once per p, not once per GF(p) call
    assert GF(2 ** 31 - 1) is GF(2 ** 31 - 1)
    assert GF(5) is GF(5) and GF(5) is not GF(7)
    for _ in range(2):
        with pytest.raises(FieldError, match="must be prime"):
            GF(4)


@st.composite
def sparse_matrices(draw, max_n=5):
    nr = draw(st.integers(1, max_n))
    nc = draw(st.integers(1, max_n))
    entries = draw(st.dictionaries(
        st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1)),
        scalars, max_size=nr * nc))
    m = SparseMatrix(nr, nc, QQ)
    for (r, c), v in entries.items():
        if v != 0:
            m.set(r, c, v)
    return m


@given(sparse_matrices())
@settings(max_examples=120, deadline=None)
def test_rank_nullity_and_kernel(m):
    rank, kernel, image, pivots = rank_kernel_image(m)
    assert rank + len(kernel) == m.ncols
    assert rank == len(image) == len(pivots)
    for k in kernel:
        assert not m.matvec(k)  # exact kernel


@given(sparse_matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_consistent_systems(m, data):
    x = {c: data.draw(scalars) for c in range(m.ncols)}
    x = {c: v for c, v in x.items() if v != 0}
    rhs = m.matvec(x)
    sol = solve(m, rhs)
    assert sol is not None
    assert m.matvec(sol) == rhs


@st.composite
def accumulations(draw):
    """A field and (key, coefficient) terms over five keys, so keys repeat;
    zero coefficients occur, and a "clear" step adds the negative of the
    key's running sum, so sums cancel exactly."""
    f = draw(st.sampled_from([QQ, GF(7)]))
    values = scalars if f.p == 0 else st.integers(0, 6)
    sums, terms = [f.zero()] * 5, []
    for key, v, clear in draw(st.lists(
            st.tuples(st.integers(0, 4), values, st.booleans()), max_size=30)):
        c = f.neg(sums[key]) if clear else (
            f.of_fraction(v) if f.p == 0 else f.of_int(v))
        sums[key] = f.add(sums[key], c)
        terms.append((key, c))
    return f, terms, sums


@given(accumulations())
@settings(max_examples=200, deadline=None)
def test_add_into_is_the_dense_sum_without_zeros(case):
    f, terms, sums = case
    acc = {}
    for key, c in terms:
        add_into(f, acc, key, c)
        assert not any(f.is_zero(v) for v in acc.values())
    assert acc == {k: v for k, v in enumerate(sums) if not f.is_zero(v)}


def dense_rref(rows, ncols, f):
    """Textbook Gauss-Jordan on a dense copy: the independent oracle."""
    a = [[r.get(c, f.zero()) for c in range(ncols)] for r in rows]
    pivots, top = [], 0
    for col in range(ncols):
        hit = next((i for i in range(top, len(a)) if not f.is_zero(a[i][col])), None)
        if hit is None:
            continue
        a[top], a[hit] = a[hit], a[top]
        inv = f.inv(a[top][col])
        a[top] = [f.mul(inv, x) for x in a[top]]
        for i in range(len(a)):
            if i != top and not f.is_zero(a[i][col]):
                c = a[i][col]
                a[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(a[i], a[top])]
        pivots.append(col)
        top += 1
    reduced = [{c: x for c, x in enumerate(row) if not f.is_zero(x)} for row in a[:top]]
    return pivots, reduced


@st.composite
def row_lists(draw, max_n=12):
    """Sparse rows over QQ or GF(7), with empty rows, repeated rows and
    columns that no row uses."""
    f = draw(st.sampled_from([QQ, GF(7)]))
    ncols = draw(st.integers(0, max_n))
    used = sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))) if ncols else []
    values = scalars if f.p == 0 else st.integers(0, 6)
    rows = []
    for _ in range(draw(st.integers(0, max_n))):
        kind = draw(st.sampled_from(["new", "new", "new", "empty", "repeat"]))
        if kind == "repeat" and rows:
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind == "empty" or not used:
            rows.append({})
        else:
            row = draw(st.dictionaries(st.sampled_from(used), values, max_size=len(used)))
            rows.append({c: f.of_fraction(v) if f.p == 0 else f.of_int(v)
                         for c, v in row.items() if v != 0})
    return f, rows, ncols


@given(row_lists())
@settings(max_examples=200, deadline=None)
def test_rref_kernel_image_match_dense_oracle(case):
    f, rows, ncols = case
    before = [list(r.items()) for r in rows]
    pivots, reduced = rref(rows, f)
    assert (pivots, reduced) == dense_rref(rows, ncols, f)  # RREF is unique
    assert [list(r.items()) for r in rows] == before

    m = SparseMatrix.from_rows(rows, ncols, f)
    rank, kernel, image, piv = rank_kernel_image(m)
    assert piv == pivots and rank == len(pivots)
    free = [c for c in range(ncols) if c not in pivots]
    assert len(kernel) == len(free)
    for c, v in zip(free, kernel):
        assert v[c] == f.one()
        assert set(v) - {c} <= set(pivots)
        assert not m.matvec(v)
    for i, vec in enumerate(image):
        column = (m.entries.get((r, pivots[i]), 0) for r in range(len(rows)))
        assert vec == {r: v for r, v in enumerate(column) if not f.is_zero(v)}


def rank(rows, ncols, f):
    return len(dense_rref(rows, ncols, f)[0])


@given(row_lists(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_echelon_basis_is_dense_rref_in_any_insertion_order(case, rnd):
    f, rows, ncols = case
    shuffled = [dict(r) for r in rows]
    rnd.shuffle(shuffled)
    ech = Echelon(f, shuffled)
    pivots, reduced = dense_rref(rows, ncols, f)
    assert sorted(ech.rows) == pivots and ech.dim() == len(pivots)
    assert ech.basis() == reduced


def draw_vector(data, f, ncols):
    values = scalars if f.p == 0 else st.integers(0, 6)
    if not ncols:
        return {}
    vec = data.draw(st.dictionaries(st.integers(0, ncols - 1), values))
    return {c: f.of_fraction(v) if f.p == 0 else f.of_int(v)
            for c, v in vec.items() if v != 0}


@given(row_lists(), st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_reduce_and_coefficients_decide_the_span(case, data):
    f, rows, ncols = case
    ech = Echelon(f, rows)
    combo = {}
    for r in rows:
        c = f.of_int(data.draw(st.integers(-3, 3)))
        for k, v in r.items():
            combo[k] = f.add(combo.get(k, f.zero()), f.mul(c, v))
    combo = {k: v for k, v in combo.items() if not f.is_zero(v)}
    for vec in (combo, draw_vector(data, f, ncols)):
        in_span = rank(rows + [vec], ncols, f) == rank(rows, ncols, f)
        red = ech.reduce(vec)
        assert (not red) == in_span
        assert not set(red) & set(ech.rows)
        coeffs = ech.coefficients(vec)
        assert (coeffs is not None) == in_span
        if coeffs is not None:
            rebuilt = {}
            for p, c in coeffs.items():
                for k, v in ech.rows[p].items():
                    rebuilt[k] = f.add(rebuilt.get(k, f.zero()), f.mul(c, v))
            assert {k: v for k, v in rebuilt.items() if not f.is_zero(v)} == vec
    assert ech.add(combo) is False


def dense(m):
    return [[m.entries.get((r, c), 0) for c in range(m.ncols)]
            for r in range(m.nrows)]


def dense_product(a, b, f):
    return [[sum_f(f, (f.mul(x, b[k][j]) for k, x in enumerate(row)))
             for j in range(len(b[0]) if b else 0)] for row in a]


def sum_f(f, items):
    out = f.zero()
    for x in items:
        out = f.add(out, x)
    return out


@given(row_lists(max_n=8))
@settings(max_examples=150, deadline=None)
def test_invert_matches_dense_oracle(case):
    f, rows, ncols = case
    if len(rows) != ncols:
        assert invert(SparseMatrix.from_rows(rows, ncols, f)) is None
    n = ncols
    square = (rows + [{}] * n)[:n]
    # upper unitriangular, so invertible whatever rows holds
    unitri = [{**{c: v for c, v in r.items() if c > i}, i: f.one()}
              for i, r in enumerate(square)]
    eye = [[f.one() if i == j else f.zero() for j in range(n)] for i in range(n)]
    for mat_rows in (square, unitri):
        m = SparseMatrix.from_rows(mat_rows, n, f)
        inv = invert(m)
        assert (inv is None) == (rank(mat_rows, n, f) < n)
        if inv is not None:
            assert (inv.nrows, inv.ncols) == (n, n)
            assert dense_product(dense(m), dense(inv), f) == eye
            assert dense_product(dense(inv), dense(m), f) == eye


def test_solve_inconsistent():
    m = SparseMatrix(2, 1, QQ)
    m.set(0, 0, Fraction(1))
    assert solve(m, {1: Fraction(1)}) is None


def test_rref_idempotent_pivots():
    rows = [{0: Fraction(2), 1: Fraction(4)}, {0: Fraction(1), 2: Fraction(3)}]
    piv, red = rref(rows, QQ)
    piv2, red2 = rref([dict(r) for r in red], QQ)
    assert piv == piv2 and red == red2
    for r, p in zip(red, piv):
        assert r[p] == Fraction(1)


def rotation_sign(degrees):
    """Sign of moving the last of the elements to the front."""
    return list(rotations(range(len(degrees)), degrees))[1][1]


def test_koszul_sign_frozen():
    # swapping two odd elements costs -1, odd past even costs +1 each
    assert koszul_sign([1, 1], [1, 0]) == -1
    assert koszul_sign([1, 2], [1, 0]) == 1
    assert koszul_sign([1, 1, 1], [2, 1, 0]) == -1
    assert rotation_sign([1, 1, 1]) == 1
    assert rotation_sign([1, 1, 2]) == 1
    assert rotation_sign([2, 1, 1]) == -1
    assert rotation_sign([3, 1, 1]) == 1
    assert parity_sign(prefix_parities([1, 2, 1])[2]) == -1


@given(st.lists(st.integers(-2, 3), min_size=2, max_size=5), st.data())
@settings(max_examples=60, deadline=None)
def test_koszul_sign_composition(degs, data):
    import itertools
    n = len(degs)
    p1 = data.draw(st.permutations(range(n)))
    # sign is multiplicative under composition
    p2 = data.draw(st.permutations(range(n)))
    comp = [p1[p2[i]] for i in range(n)]
    after_p1 = [degs[p1[i]] for i in range(n)]
    s1 = koszul_sign(degs, p1)
    s2 = koszul_sign(after_p1, p2)
    assert koszul_sign(degs, comp) == s1 * s2


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=7), st.data())
@settings(max_examples=150, deadline=None)
def test_sign_rules_are_koszul_signs_of_their_permutations(degs, data):
    n = len(degs)
    # rotations: the k-th is the word with its last k factors moved to the front
    for k, (rot, sign) in enumerate(rotations(range(n), degs)):
        perm = [(n - k + i) % n for i in range(n)]
        assert list(rot) == perm
        assert sign == koszul_sign(degs, perm)
    # block rotation: the first j elements move behind the others
    j = data.draw(st.integers(0, n))
    assert block_sign(sum(degs[:j]), sum(degs[j:])) == \
        koszul_sign(degs, list(range(j, n)) + list(range(j)))
    # reversal
    assert reversal_sign(degs) == koszul_sign(degs, list(range(n))[::-1])
    # prefix: an odd operator in front moves past the first r elements
    pre = prefix_parities(degs)
    assert len(pre) == n + 1
    for r in range(n + 1):
        perm = list(range(1, r + 1)) + [0] + list(range(r + 1, n + 1))
        assert parity_sign(pre[r]) == koszul_sign([1] + degs, perm)


def test_poly_basic():
    x = RatPolynomial.of([0, 1])
    p = (x - 1) * (x + 2) * (x + 2)
    q, r = divmod(p, x + 2)
    assert r.degree == -1
    assert q == (x - 1) * (x + 2)
    assert poly_value(p, Fraction(1)) == 0
    assert poly_gcd(p, x + 2) == (x + 2).monic()


def test_poly_xgcd():
    x = RatPolynomial.of([0, 1])
    a = (x * x + 1) * (x - 3)
    b = (x * x + 1) * (x + 5)
    g, s, t = poly_xgcd(a, b)
    assert g == (x * x + 1).monic()
    assert s * a + t * b == g


def test_factor_frozen():
    x = RatPolynomial.of([0, 1])
    p = RatPolynomial.of([6, 0, -6])  # 6 - 6 x^2 = -6 (x-1)(x+1)
    content, factors = factor_rational_poly(p)
    assert content == Fraction(-6)
    assert [(str(f), m) for f, m in factors] == [("t - 1", 1), ("t + 1", 1)]
    content, factors = factor_rational_poly((x * x + 1) * (x * x + 1))
    assert content == 1 and len(factors) == 1 and factors[0][1] == 2


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_factor_matches_exhaustive(coeffs):
    p = RatPolynomial.of([Fraction(c) for c in coeffs])
    if p.degree < 1 or p.degree > 4:
        return
    c1, f1 = factor_rational_poly(p)
    c2, f2 = factor_kronecker(p)
    assert c1 == c2
    assert sorted((f.sort_key(), m) for f, m in f1) == \
        sorted((f.sort_key(), m) for f, m in f2)
    prod = RatPolynomial.of([c1])
    for f, m in f1:
        for _ in range(m):
            prod = prod * f
    assert prod == p


# the kernel adds raw exact products and normalizes each touched entry once:
# its results must equal the dense products of the field operations, keep
# no zero and hold every value in the field's canonical form
FIELDS = [QQ, GF(2), GF(3), GF(32749)]


def field_values(f):
    return scalars.map(canonical) if f.p == 0 else st.integers(0, f.p - 1)


def assert_stored_scalars(f, values):
    for v in values:
        assert v, "a zero value is stored"
        if f.p:
            assert type(v) is int and 0 <= v < f.p
        else:
            assert type(v) is int or (type(v) is Fraction and v.denominator > 1)


def sparse_vector(dense_vec):
    return {i: x for i, x in enumerate(dense_vec) if x}


@st.composite
def planted_products(draw):
    """A field and matrices a (n x (k + 1)) and b ((k + 1) x m) over it in
    which column k of a repeats column j and row k of b is minus row j, so
    every term through j cancels exactly against one through k."""
    f = draw(st.sampled_from(FIELDS))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    values = field_values(f)

    def entries(nr, nc):
        ents = draw(st.dictionaries(
            st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1)),
            values, max_size=nr * nc))
        return {key: v for key, v in ents.items() if v}

    a, b = entries(n, k), entries(k, m)
    j = draw(st.integers(0, k - 1))
    a.update({(r, k): v for (r, c), v in list(a.items()) if c == j})
    b.update({(k, c): f.neg(v) for (r, c), v in list(b.items()) if r == j})
    return f, SparseMatrix(n, k + 1, f, a), SparseMatrix(k + 1, m, f, b)


@given(planted_products(), st.data())
@settings(max_examples=200, deadline=None)
def test_products_match_the_dense_oracle(case, data):
    f, a, b = case
    want = dense_product(dense(a), dense(b), f)
    prod = a.mul(b)
    assert (prod.nrows, prod.ncols) == (a.nrows, b.ncols)
    assert dense(prod) == want
    assert_stored_scalars(f, prod.entries.values())
    columns_of_a = {}
    for (r, c), v in a.entries.items():
        columns_of_a.setdefault(c, {})[r] = v
    for col in range(b.ncols):
        vec = {r: v for (r, c), v in b.entries.items() if c == col}
        expect = sparse_vector(row[col] for row in want)
        for got in (a.matvec(vec), sparse.apply_linear(f, columns_of_a, vec)):
            assert got == expect
            assert_stored_scalars(f, got.values())
    # a + c where c cancels a on a drawn part of its entries
    keys = sorted(a.entries)
    cancel = data.draw(st.sets(st.sampled_from(keys))) if keys else set()
    c = SparseMatrix(a.nrows, a.ncols, f,
                     {key: f.neg(a.entries[key]) for key in cancel})
    for key, v in data.draw(st.dictionaries(
            st.sampled_from([(r, col) for r in range(a.nrows)
                             for col in range(a.ncols)]),
            field_values(f), max_size=3)).items():
        if v and key not in cancel:
            c.entries[key] = v
    total = a.add(c)
    assert dense(total) == [[f.add(x, y) for x, y in zip(r1, r2)]
                            for r1, r2 in zip(dense(a), dense(c))]
    assert_stored_scalars(f, total.entries.values())


@st.composite
def cancelling_rows(draw):
    """Rows over FIELDS: drawn rows, and combinations of two earlier rows,
    some plus a unit vector, so that reduction and the updates of the rows
    holding a new pivot cancel entries."""
    f = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, 7))
    values = field_values(f)
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        if rows and draw(st.booleans()):
            r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(values)
            row = dict(r1)
            for key, v in r2.items():
                row[key] = f.add(row.get(key, 0), f.mul(c, v))
            if draw(st.booleans()):
                key = draw(st.integers(0, ncols - 1))
                row[key] = f.add(row.get(key, 0), f.one())
        else:
            row = draw(st.dictionaries(st.integers(0, ncols - 1), values))
        rows.append({key: v for key, v in row.items() if v})
    return f, rows, ncols


@given(cancelling_rows())
@settings(max_examples=200, deadline=None)
def test_echelon_rows_stay_canonical_through_cancelling_adds(case):
    f, rows, ncols = case
    ech = Echelon(f)
    for row in rows:
        ech.add(row)
        for piv, r in ech.rows.items():
            assert r[piv] == 1 and min(r) == piv
            assert not set(r) & set(ech.rows) - {piv}
            assert_stored_scalars(f, r.values())
        # the key -> rows index names exactly the rows holding each key
        held = {}
        for piv, r in ech.rows.items():
            for key in r:
                if key != piv:
                    held.setdefault(key, set()).add(piv)
        assert {k: ps for k, ps in ech._holders.items() if ps} == held
    assert ech.basis() == dense_rref(rows, ncols, f)[1]
    for row in rows:
        assert not ech.reduce(row)
        coeffs = ech.coefficients(row)
        assert coeffs is not None
        assert_stored_scalars(f, coeffs.values())
