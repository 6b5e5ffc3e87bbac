"""Local models at spherical collections.

Given a minimal category whose Ext profile matches a collection of genus-g
curve classes (diagonal (1, 2g, 1), off-diagonal concentrated in degree 1),
this module extracts the halved Ext quiver, presents the degree-one
Maurer-Cartan locus as explicit matrix equations, compares Euler forms,
and enumerates Harder-Narasimhan types of fixed Hilbert polynomial.

Conventions:

* MC coordinates live in the duals of degree-1 morphisms.  A degree-1
  basis label x with source i and target j contributes a d_j x d_i block
  of scalar variables (label, row, col); the matrix acts k^{d_i} -> k^{d_j}.
* Polynomials in those variables are dicts {monomial: coefficient} with
  commutative monomials stored as sorted tuples of variable ids.  In the
  degree >= 1 model all coordinates are even (symmetric-algebra degree 0),
  so no Koszul signs enter monomial reordering.
* The differential sends the dual of a degree-2 basis element z to the sum
  over stored operations of coeff(tuple -> z) times the product, in operator
  order, of the variable matrices of the inputs.  Only all-degree-1 input
  tuples contribute by degree count.  Duals of degree-1 elements map to zero.
* Hilbert polynomials use the calibration where the reduced polynomial of
  P has leading term t^d / d!.  Reduced polynomials are compared
  lexicographically from the top coefficient down.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from fractions import Fraction

from .field import FieldCtx, QQ
from .sparse import add_into
from .quiver import Quiver, Arrow, euler_form
from .ratpoly import RatPolynomial
from .ainf import AInfCategory


class LocalModelError(Exception):
    pass


# ---------------------------------------------------------------------------
# spherical-collection certificates


@dataclass(frozen=True)
class SigmaCertificate:
    """Outcome of the Ext-profile check for a collection of curve classes.

    ext_dims records dim Ext^n(i, j) for every nonzero graded piece; genus
    holds the diagonal genus g_i when the profile passes.
    """

    objects: tuple
    ext_dims: dict
    genus: dict
    verdict: bool
    failures: tuple = ()

    def ext(self, i, j, n):
        return self.ext_dims.get((i, j, n), 0)


def verify_sigma(cat: AInfCategory) -> SigmaCertificate:
    """Check that a minimal category has the Ext profile of a collection of
    smooth curve classes on a surface: diagonal (1, 2g_i, 1) in degrees
    0, 1, 2 and off-diagonal morphisms only in degree 1, with symmetric
    degree-1 dimensions between each pair of objects."""
    objects = tuple(cat.objects)
    ext_dims = {}
    for (i, j), basis in cat.hom.items():
        for _, deg in basis:
            key = (i, j, deg)
            ext_dims[key] = ext_dims.get(key, 0) + 1

    failures = []
    genus = {}
    for i in objects:
        d0 = ext_dims.get((i, i, 0), 0)
        d1 = ext_dims.get((i, i, 1), 0)
        d2 = ext_dims.get((i, i, 2), 0)
        if d0 != 1 or d2 != 1:
            failures.append("object %r: diagonal degrees (0, 2) have dims (%d, %d), want (1, 1)" % (i, d0, d2))
        if d1 % 2 != 0:
            failures.append("object %r: odd self-Ext^1 dimension %d" % (i, d1))
        else:
            genus[i] = d1 // 2
        for (a, b, n), dim in ext_dims.items():
            if a == i and b == i and n not in (0, 1, 2) and dim:
                failures.append("object %r: nonzero Ext^%d on the diagonal" % (i, n))
    for (a, b, n), dim in ext_dims.items():
        if a == b or not dim:
            continue
        if n != 1:
            failures.append("pair (%r, %r): nonzero Ext^%d off the diagonal" % (a, b, n))
    for ia, i in enumerate(objects):
        for j in objects[ia + 1:]:
            fwd = ext_dims.get((i, j, 1), 0)
            bwd = ext_dims.get((j, i, 1), 0)
            if fwd != bwd:
                failures.append("pair (%r, %r): Ext^1 dims %d vs %d are not symmetric" % (i, j, fwd, bwd))

    verdict = not failures
    if not verdict:
        genus = {}
    return SigmaCertificate(objects=objects, ext_dims=ext_dims, genus=genus,
                            verdict=verdict, failures=tuple(failures))


def _arrow_names():
    for ch in string.ascii_lowercase:
        yield ch
    k = 1
    while True:
        for ch in string.ascii_lowercase:
            yield "%s%d" % (ch, k)
        k += 1


def ext_quiver_halve(cert: SigmaCertificate) -> Quiver:
    """Extract the halved Ext quiver of a passing certificate: g_i loops at
    each vertex, and each symmetric off-diagonal Ext^1 pair split evenly
    between the two directions (odd remainder goes with the earlier object).

    The split direction is a convention; either choice yields isomorphic
    preprojective data, so we fix the deterministic one."""
    if not cert.verdict:
        raise LocalModelError("not 2CY-consistent: %s" % ("; ".join(cert.failures) or "certificate fails"))
    names = _arrow_names()
    arrows = []
    for i in cert.objects:
        for _ in range(cert.genus[i]):
            arrows.append(Arrow(next(names), str(i), str(i)))
    for ia, i in enumerate(cert.objects):
        for j in cert.objects[ia + 1:]:
            m = cert.ext(i, j, 1)
            fwd = (m + 1) // 2
            for _ in range(fwd):
                arrows.append(Arrow(next(names), str(i), str(j)))
            for _ in range(m - fwd):
                arrows.append(Arrow(next(names), str(j), str(i)))
    return Quiver(vertices=tuple(str(i) for i in cert.objects), arrows=tuple(arrows))


# ---------------------------------------------------------------------------
# polynomial scraps: dict {sorted tuple of variable ids: coefficient}


def poly_add(a, b, f: FieldCtx):
    out = dict(a)
    for mono, c in b.items():
        add_into(f, out, mono, c)
    return out


def poly_scale(a, c, f: FieldCtx):
    if f.is_zero(c):
        return {}
    return {mono: f.mul(c, v) for mono, v in a.items()}


def poly_mul(a, b, f: FieldCtx):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            add_into(f, out, tuple(sorted(m1 + m2)), f.mul(c1, c2))
    return out


def _poly_sort_key(mono):
    return (len(mono), mono)


def poly_str(a, f: FieldCtx) -> str:
    if not a:
        return "0"
    parts = []
    for mono in sorted(a, key=_poly_sort_key):
        c = a[mono]
        vars_txt = "*".join("%s[%d,%d]" % v for v in mono)
        if not mono:
            parts.append(str(c))
        elif c == f.one():
            parts.append(vars_txt)
        elif f.p == 0 and c == -f.one():
            parts.append("-" + vars_txt)
        else:
            parts.append("%s*%s" % (c, vars_txt))
    txt = " + ".join(parts)
    return txt.replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Maurer-Cartan presentations


@dataclass(frozen=True)
class MCEquation:
    """One block of the classical locus: the differential image of the dual
    of a degree-2 basis element, as a matrix of polynomials in the degree-1
    coordinates."""

    label: str
    pair: tuple
    matrix: tuple  # tuple of tuples of poly dicts, shape d_tgt x d_src


@dataclass(frozen=True)
class MCPresentation:
    objects: tuple
    block_sizes: dict
    coordinates: tuple        # variable ids (label, row, col) of degree-1 duals
    generators: tuple         # (label, pair, degree) for every basis label of degree >= 1
    differential: dict        # label -> MCEquation (degree-1 labels map to zero matrices)
    classical_equations: tuple  # MCEquation per degree-2 label
    exactness: str            # "exact" or "truncated:cap=N"
    arity_cap: int
    field: FieldCtx = QQ


def _zero_matrix_of_polys(nrows, ncols):
    return tuple(tuple({} for _ in range(ncols)) for _ in range(nrows))


def _symbolic_matrix(label, nrows, ncols, f):
    return [[{((label, r, c),): f.one()} for c in range(ncols)] for r in range(nrows)]


def _matmul_polys(a, b, f):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[{} for _ in range(m)] for _ in range(n)]
    for r in range(n):
        for c in range(m):
            acc = {}
            for t in range(k):
                acc = poly_add(acc, poly_mul(a[r][t], b[t][c], f), f)
            out[r][c] = acc
    return out


def mc_presentation(cat: AInfCategory, d, certificate=None,
                    arity_cap: int = None) -> MCPresentation:
    """Present the degree-one Maurer-Cartan locus of cat with multiplicity
    vector d as matrix equations.

    Each degree-1 label x: i -> j carries a d_j x d_i variable block; the
    equation attached to a degree-2 label z: i -> j is
    sum_n sum_tuples coeff(tuple -> z) M_{x_1} ... M_{x_n} = 0
    over all stored all-degree-1 input tuples.  When the category is
    complete, or a passing formality certificate (an object whose ok
    attribute is true) guarantees vanishing higher operations, the
    presentation is tagged exact; otherwise it is a truncation at the
    arity cap."""
    f = cat.field
    if cat.op_table(1):
        raise LocalModelError("category is not minimal: nonzero arity-1 operations")
    for (i, j), basis in cat.hom.items():
        for lab, deg in basis:
            if deg > 2:
                raise LocalModelError("degree-%d morphism %r: the degree >= 1 model is implemented for hom degrees <= 2" % (deg, lab))

    if isinstance(d, dict):
        sizes = {obj: int(d.get(obj, 0)) for obj in cat.objects}
    else:
        if len(d) != len(cat.objects):
            raise LocalModelError("multiplicity vector has length %d, want %d" % (len(d), len(cat.objects)))
        sizes = {obj: int(m) for obj, m in zip(cat.objects, d)}
    if any(m < 0 for m in sizes.values()):
        raise LocalModelError("negative multiplicity")

    cap = arity_cap if arity_cap is not None else cat.arity_cap

    coords = []
    generators = []
    deg1 = []
    deg2 = []
    for (i, j) in sorted(cat.hom):
        for lab, deg in cat.hom[(i, j)]:
            if deg < 1:
                continue
            generators.append((lab, (i, j), deg))
            if deg == 1:
                deg1.append((lab, (i, j)))
                for r in range(sizes[j]):
                    for c in range(sizes[i]):
                        coords.append((lab, r, c))
            else:
                deg2.append((lab, (i, j)))

    # accumulate the degree-2 images arity by arity
    eqs = {lab: _zero_matrix_of_polys(sizes[pair[1]], sizes[pair[0]]) for lab, pair in deg2}
    saw_higher = False
    for n in range(2, cap + 1):
        table = cat.op_table(n)
        if table is None:
            continue
        for tup, out in table.items():
            if not all(cat.deg(x) == 1 for x in tup):
                continue
            relevant = {z: c for z, c in out.items() if cat.deg(z) == 2 and not f.is_zero(c)}
            if not relevant:
                continue
            if n >= 3:
                saw_higher = True
            # operator order: tup[0] is applied last, so the matrix product
            # follows the tuple left to right
            prod = None
            ok = True
            for x in tup:
                i, j = cat.pair_of(x)
                if sizes[i] == 0 or sizes[j] == 0:
                    ok = False
                    break
                mx = _symbolic_matrix(x, sizes[j], sizes[i], f)
                prod = mx if prod is None else _matmul_polys(prod, mx, f)
            if not ok:
                continue
            for z, c in relevant.items():
                mat = [list(row) for row in eqs[z]]
                for r in range(len(prod)):
                    for col in range(len(prod[0])):
                        mat[r][col] = poly_add(mat[r][col], poly_scale(prod[r][col], c, f), f)
                eqs[z] = tuple(tuple(row) for row in mat)

    certified = bool(getattr(certificate, "ok", False))
    if certified and saw_higher:
        raise LocalModelError("certificate claims vanishing higher operations but stored tables contradict it")
    if cat.complete or certified or not deg1:
        exactness = "exact"
    else:
        exactness = "truncated:cap=%d" % cap

    differential = {}
    for lab, pair, deg in generators:
        if deg == 1:
            differential[lab] = MCEquation(label=lab, pair=pair,
                                           matrix=_zero_matrix_of_polys(sizes[pair[1]], sizes[pair[0]]))
        else:
            differential[lab] = MCEquation(label=lab, pair=pair, matrix=eqs[lab])

    classical = tuple(MCEquation(label=lab, pair=pair, matrix=eqs[lab]) for lab, pair in deg2)
    return MCPresentation(objects=tuple(cat.objects), block_sizes=sizes,
                          coordinates=tuple(coords), generators=tuple(generators),
                          differential=differential, classical_equations=classical,
                          exactness=exactness, arity_cap=cap, field=f)


def monic_equations(pres: MCPresentation):
    """Scale each equation block so its first nonzero coefficient (scanning
    entries row-major, monomials in sorted order) is 1.  Display form only;
    the zero locus is unchanged."""
    f = pres.field
    out = []
    for eq in pres.classical_equations:
        scale = None
        for row in eq.matrix:
            for poly in row:
                for mono in sorted(poly, key=_poly_sort_key):
                    scale = f.inv(poly[mono])
                    break
                if scale is not None:
                    break
            if scale is not None:
                break
        if scale is None:
            out.append(eq)
            continue
        mat = tuple(tuple(poly_scale(poly, scale, f) for poly in row) for row in eq.matrix)
        out.append(MCEquation(label=eq.label, pair=eq.pair, matrix=mat))
    return tuple(out)


# ---------------------------------------------------------------------------
# Euler-form comparison


@dataclass(frozen=True)
class EulerReport:
    lhs: int                  # 2 * chi_Q(d, d)
    rhs: int                  # alternating sum of weighted Ext dims
    by_degree: tuple          # (n, total dim Ext^n weighted by d_i d_j)
    ok: bool


def euler_compare(q: Quiver, d, cat: AInfCategory) -> EulerReport:
    """Check 2 chi_Q(d, d) == sum_n (-1)^n sum_{i,j} d_i d_j dim Ext^n(i, j).

    A mismatch is a hard failure: the category cannot be the local model of
    the quiver at that dimension vector."""
    if isinstance(d, dict):
        dvec = {v: int(d.get(v, 0)) for v in q.vertices}
    else:
        if len(d) != len(q.vertices):
            raise LocalModelError("dimension vector has length %d, want %d" % (len(d), len(q.vertices)))
        dvec = {v: int(m) for v, m in zip(q.vertices, d)}
    if set(str(o) for o in cat.objects) != set(q.vertices):
        raise LocalModelError("quiver vertices %r do not match category objects %r" % (q.vertices, tuple(cat.objects)))

    lhs = 2 * euler_form(q, dvec, dvec)
    weighted = {}
    for (i, j), basis in cat.hom.items():
        w = dvec[str(i)] * dvec[str(j)]
        for _, deg in basis:
            weighted[deg] = weighted.get(deg, 0) + w
    rhs = sum(((-1) ** n) * tot for n, tot in weighted.items())
    by_degree = tuple(sorted(weighted.items()))
    if lhs != rhs:
        raise LocalModelError("Euler form mismatch: 2*chi = %d but alternating Ext sum = %d (by degree %r)" % (lhs, rhs, by_degree))
    return EulerReport(lhs=lhs, rhs=rhs, by_degree=by_degree, ok=True)


# ---------------------------------------------------------------------------
# Harder-Narasimhan types
#
# The enumerators work in integer lattice coordinates: coefficient k of a
# part is n_k / lattice[k], and a part is the integer tuple of its n_k, top
# degree first.  Each lattice[k] is a positive constant, so sums, the
# order of coefficient tuples and the sign of a cross-multiplied slope
# comparison are the same in n as in the coefficients; a bound c_k >= x
# becomes n_k >= ceil(x lattice[k]).  Rationals appear only in the bound
# q_bound, the Bogomolov callable and the polynomials of the emitted types.
# check_hn_type re-verifies every emitted type in rational arithmetic.


@dataclass(frozen=True)
class HNType:
    """An ordered tuple of Hilbert polynomials with strictly decreasing
    reduced polynomials summing to the total."""

    polys: tuple

    def __len__(self):
        return len(self.polys)


def _compositions(total: int, parts: int):
    """Ordered compositions of a positive integer, lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def check_hn_type(P: RatPolynomial, q_bound: RatPolynomial, typ: HNType,
                  bogomolov_param=None, lattice=None) -> bool:
    """Re-verify every defining inequality of an HN type independently of
    the enumerator, in rational arithmetic on each part's coefficient tuple:
    positive leading coefficients, lattice membership, coefficient sums
    equal to P's, strictly decreasing reduced polynomials at or above
    q_bound, and (degree 2) the constant-term lower bounds.

    A part's reduced polynomial is compared through its key c_k / lead, top
    degree first: the reduced coefficients times d!, so q_bound's
    coefficients are scaled by d! to match."""
    deg = P.degree
    lat = tuple(lattice) if lattice is not None else (1,) * (deg + 1)
    scale = math.factorial(deg)
    qkey = tuple(Fraction(q_bound.coeff(k)) * scale for k in range(deg, -1, -1))
    bog = bogomolov_param if deg == 2 else None
    sums = [0] * (deg + 1)
    prev = None
    for p in typ.polys:
        c = p.coeffs
        if len(c) != deg + 1 or c[deg] <= 0:
            return False
        for k in range(deg + 1):
            # c_k lies in (1/lat[k]) Z exactly when its reduced denominator
            # divides lat[k]
            if lat[k] % c[k].denominator:
                return False
            sums[k] += c[k]
        lead = c[deg]
        key = tuple(x / lead for x in reversed(c))
        if key < qkey or (prev is not None and not key < prev):
            return False
        prev = key
        if bog is not None and c[0] < bog(c[2], c[1]):
            return False
    return tuple(sums) == P.coeffs


def hn_enumerate(P: RatPolynomial, q_bound: RatPolynomial, bogomolov_param=None,
                 lattice=None) -> list:
    """Enumerate all Harder-Narasimhan types with total Hilbert polynomial P
    whose reduced polynomials stay at or above q_bound.

    lattice is a tuple of positive integers, one per coefficient from the
    constant term up: coefficient k of every part must lie in (1/lattice[k]) Z.
    In degree 2 a bogomolov_param callable is required; it maps the leading
    and linear coefficients of a part to a lower bound for its constant term,
    which is what makes the enumeration finite.

    The enumerators work in integer lattice coordinates (see the comment
    opening this section).  The types come out sorted by the coefficient
    tuples of their parts, top degree first, and check_hn_type re-verifies
    each one."""
    deg = P.degree
    if deg not in (0, 1, 2):
        raise LocalModelError("Hilbert polynomial degree must be 0, 1 or 2, got %d" % deg)
    if q_bound.degree != deg:
        raise LocalModelError("degree mismatch: P has degree %d, q_bound has degree %d" % (deg, q_bound.degree))
    if Fraction(q_bound.leading()) != Fraction(1, math.factorial(deg)):
        raise LocalModelError("q_bound must be reduced: leading coefficient 1/%d!" % deg)
    if deg == 2 and bogomolov_param is None:
        raise LocalModelError("degree 2 requires bogomolov_param to bound constant terms")
    if P.leading() <= 0:
        raise LocalModelError("total polynomial needs a positive leading coefficient")
    lat = tuple(int(x) for x in (lattice if lattice is not None else (1,) * (deg + 1)))
    if len(lat) != deg + 1 or any(x <= 0 for x in lat):
        raise LocalModelError("lattice needs %d positive denominators" % (deg + 1))
    total = []
    for k in range(deg + 1):
        n = Fraction(P.coeff(k)) * lat[k]
        if n.denominator != 1:
            raise LocalModelError("coefficient of t^%d of P is not in the declared lattice" % k)
        total.append(n.numerator)

    if deg == 0:
        # q_bound is the constant 1 and every reduced part equals 1, so
        # the singleton is the only type
        found = [((total[0],),)]
    elif deg == 1:
        found = _enumerate_deg1(total, Fraction(q_bound.coeff(0)), lat)
    else:
        found = _enumerate_deg2(total, Fraction(q_bound.coeff(1)),
                                Fraction(q_bound.coeff(0)), lat, bogomolov_param)
    # parts in coordinates sort as their coefficient tuples do
    found.sort()
    # every part's leading coefficient is positive, so no trimming is needed
    out = [HNType(polys=tuple(
               RatPolynomial(tuple(Fraction(n, lat[k])
                                   for k, n in enumerate(reversed(part))))
               for part in parts))
           for parts in found]
    for typ in out:
        if not check_hn_type(P, q_bound, typ, bogomolov_param=bogomolov_param, lattice=lat):
            raise LocalModelError("enumerated type fails re-verification: %r" % (typ,))
    return out


def _ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for b > 0."""
    return -(-a // b)


def _enumerate_deg1(total, q0, lat):
    """Degree-1 types as lists of parts (k, n), the part k/lat[1] t +
    n/lat[0].  Its slope n lat[1] / (k lat[0]) is compared with another
    part's by cross-multiplying n k' against n' k, and it is at least q0
    exactly when n >= ceil(q0 k lat[0] / lat[1])."""
    den1, den0 = lat[1], lat[0]
    K, N = total[1], total[0]
    results = []

    def least(k):
        return _ceil_div(q0.numerator * k * den0, q0.denominator * den1)

    def assign(idx, leads, tail, rem, prev, acc):
        k = leads[idx]
        last = idx == len(leads) - 1
        lo, hi = least(k), rem - tail[idx + 1]
        if last:
            lo = max(lo, rem)
        if prev is not None:
            # slope strictly below the previous part's: n pk < pn k
            pk, pn = prev
            hi = min(hi, _ceil_div(pn * k, pk) - 1)
        for n in range(lo, hi + 1):
            if last:
                results.append(acc + [(k, n)])
            else:
                assign(idx + 1, leads, tail, rem - n, (k, n), acc + [(k, n)])

    for r in range(1, K + 1):
        for leads in _compositions(K, r):
            # tail[i]: the least sum of the constant terms of parts i, i+1, ...
            tail = [0] * (r + 1)
            for i in range(r - 1, -1, -1):
                tail[i] = tail[i + 1] + least(leads[i])
            assign(0, leads, tail, N, None, [])
    return results


def _enumerate_deg2(total, q1, q0, lat, bog):
    """Degree-2 types as lists of parts (k, n1, n0), the part k/lat[2] t^2 +
    n1/lat[1] t + n0/lat[0].  The reduced part is t^2/2 + sigma/2 t + tau
    with sigma = n1 lat[2] / (k lat[1]) and tau = n0 lat[2] / (2 k lat[0]);
    parts compare by (sigma, tau), cross-multiplied.  The bound holds when
    sigma/2 > q1, or sigma/2 = q1 and tau >= q0: so n1 >= ceil(2 q1 k
    lat[1] / lat[2]), and n0 is at least the lattice ceiling of bog(c2, c1),
    raised to 2 q0 c2 when sigma/2 = q1."""
    den2, den1, den0 = lat[2], lat[1], lat[0]
    K, N1, N0 = total[2], total[1], total[0]
    floors = {}
    results = []

    def least1(k):
        return _ceil_div(2 * q1.numerator * k * den1, q1.denominator * den2)

    def least0(k, n1):
        if (k, n1) not in floors:
            c2, c1 = Fraction(k, den2), Fraction(n1, den1)
            lo = Fraction(bog(c2, c1))
            if n1 * den2 * q1.denominator == 2 * q1.numerator * k * den1:
                lo = max(lo, 2 * q0 * c2)
            floors[k, n1] = math.ceil(lo * den0)
        return floors[k, n1]

    def assign(idx, leads, tail1, tail0, rem1, rem0, prev, acc):
        k = leads[idx]
        last = idx == len(leads) - 1
        lo1, hi1 = least1(k), rem1 - tail1[idx + 1]
        if last:
            lo1 = max(lo1, rem1)
        if prev is not None:
            # sigma at most the previous part's: n1 pk <= pn1 k
            pk, pn1, pn0 = prev
            hi1 = min(hi1, pn1 * k // pk)
        for n1 in range(lo1, hi1 + 1):
            lo0, hi0 = least0(k, n1), rem0 - tail0[idx + 1]
            if last:
                lo0 = max(lo0, rem0)
            if prev is not None and n1 * pk == pn1 * k:
                # equal sigma: tau strictly below the previous part's
                hi0 = min(hi0, _ceil_div(pn0 * k, pk) - 1)
            for n0 in range(lo0, hi0 + 1):
                part = (k, n1, n0)
                if last:
                    results.append(acc + [part])
                else:
                    assign(idx + 1, leads, tail1, tail0, rem1 - n1, rem0 - n0,
                           part, acc + [part])

    for r in range(1, K + 1):
        for leads in _compositions(K, r):
            least1s = [least1(k) for k in leads]
            # the least constant term of each part, over every linear term
            # the other parts' least linear terms leave it
            least0s = []
            for i, k in enumerate(leads):
                hi = N1 - (sum(least1s) - least1s[i])
                if hi < least1s[i]:
                    break
                least0s.append(min(least0(k, n1)
                                   for n1 in range(least1s[i], hi + 1)))
            else:
                tail1 = [sum(least1s[j:]) for j in range(r + 1)]
                tail0 = [sum(least0s[j:]) for j in range(r + 1)]
                assign(0, leads, tail1, tail0, N1, N0, None, [])
    return results
