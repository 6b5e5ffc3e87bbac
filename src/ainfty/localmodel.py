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
* The classical equation of a degree-2 basis element z is the sum over
  stored operations of coeff(tuple -> z) times the product, in operator
  order, of the variable matrices of the inputs.  Only all-degree-1 input
  tuples contribute by degree count.  Entry (r, c) of a product
  M_{x_1} ... M_{x_n} is expanded directly, as the sum over index paths
  r = k_0, k_1, .., k_n = c of the monomial of the variables
  (x_t, k_{t-1}, k_t); no polynomial matrix product is formed.
* Hilbert polynomials use the calibration where the reduced polynomial of
  P has leading term t^d / d!.  Reduced polynomials are compared
  lexicographically from the top coefficient down.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from .field import FieldCtx, QQ
from .sparse import add_into
from .quiver import Quiver, Arrow, dimension_vector, euler_form
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


def poly_scale(a, c, f: FieldCtx):
    if f.is_zero(c):
        return {}
    return {mono: f.mul(c, v) for mono, v in a.items()}


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
    classical_equations: tuple  # MCEquation per degree-2 label
    exactness: str            # "exact" or "truncated:cap=N"
    field: FieldCtx = QQ


def mc_presentation(cat: AInfCategory, d, certificate=None,
                    arity_cap: int = None) -> MCPresentation:
    """Present the degree-one Maurer-Cartan locus of cat with multiplicity
    vector d as matrix equations.

    Each degree-1 label x: i -> j carries a d_j x d_i variable block; the
    equation attached to a degree-2 label z: i -> j is
    sum_n sum_tuples coeff(tuple -> z) M_{x_1} ... M_{x_n} = 0
    over all stored all-degree-1 input tuples.  Each tuple adds
    coeff * monomial at entry (r, c) for every index path
    r = k_0, k_1, .., k_n = c, the monomial being the sorted variables
    (x_t, k_{t-1}, k_t).  When the category is complete, or a passing
    formality certificate (an object whose ok attribute is true)
    guarantees vanishing higher operations, the presentation is tagged
    exact; so is a category with no degree-1 label, whatever d is.  Only
    arities 2..cap are read, so a stored entry above the cap that would
    have added to the equations (all inputs of degree 1, a nonzero
    degree-2 output) makes it a truncation at the cap in every case, as
    it is otherwise."""
    f = cat.field
    if cat.op_table(1):
        raise LocalModelError("category is not minimal: nonzero arity-1 operations")
    for (i, j), basis in cat.hom.items():
        for lab, deg in basis:
            if deg > 2:
                raise LocalModelError("degree-%d morphism %r: the degree >= 1 model is implemented for hom degrees <= 2" % (deg, lab))
    try:
        sizes = dimension_vector(cat.objects, d)
    except ValueError as e:
        raise LocalModelError(str(e))
    cap = arity_cap if arity_cap is not None else cat.arity_cap

    coords, deg2, has_deg1 = [], [], False
    for (i, j) in sorted(cat.hom):
        for lab, deg in cat.hom[(i, j)]:
            if deg == 1:
                has_deg1 = True
                coords.extend((lab, r, c) for r in range(sizes[j])
                              for c in range(sizes[i]))
            elif deg == 2:
                deg2.append((lab, (i, j)))

    # degree-2 label -> {(row, col): poly}, frozen into a matrix at the end
    eqs = {lab: {} for lab, _ in deg2}
    saw_higher = beyond = False
    # tables above the cap are scanned only to learn whether they would have
    # added to the equations; their entries are not read into them
    for n in range(2, max([cap] + cat.known_arities()) + 1):
        table = cat.op_table(n)
        if table is None:
            continue
        for tup, out in table.items():
            if not all(cat.deg(x) == 1 for x in tup):
                continue
            relevant = {z: c for z, c in out.items() if cat.deg(z) == 2 and not f.is_zero(c)}
            if not relevant:
                continue
            if n > cap:
                beyond = True
                break
            if n >= 3:
                saw_higher = True
            # operator order: tup[0] is applied last, so the matrix product
            # follows the tuple left to right; k_0 runs over the target of
            # x_1 and k_t over the source of x_t
            ranges = [range(sizes[cat.tgt(tup[0])])]
            ranges.extend(range(sizes[cat.src(x)]) for x in tup)
            for ks in itertools.product(*ranges):
                mono = tuple(sorted((x, ks[t], ks[t + 1]) for t, x in enumerate(tup)))
                for z, c in relevant.items():
                    add_into(f, eqs[z].setdefault((ks[0], ks[-1]), {}), mono, c)
        if beyond:
            break

    certified = bool(getattr(certificate, "ok", False))
    if certified and saw_higher:
        raise LocalModelError("certificate claims vanishing higher operations but stored tables contradict it")
    if (cat.complete or certified or not has_deg1) and not beyond:
        exactness = "exact"
    else:
        exactness = "truncated:cap=%d" % cap

    classical = tuple(
        MCEquation(label=lab, pair=(i, j),
                   matrix=tuple(tuple(eqs[lab].get((r, c), {}) for c in range(sizes[i]))
                                for r in range(sizes[j])))
        for lab, (i, j) in deg2)
    return MCPresentation(objects=tuple(cat.objects), block_sizes=sizes,
                          coordinates=tuple(coords), classical_equations=classical,
                          exactness=exactness, field=f)


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


def euler_compare(q: Quiver, d, cat: AInfCategory) -> EulerReport:
    """Check 2 chi_Q(d, d) == sum_n (-1)^n sum_{i,j} d_i d_j dim Ext^n(i, j).

    A mismatch is a hard failure: the category cannot be the local model of
    the quiver at that dimension vector."""
    try:
        dvec = dimension_vector(q.vertices, d)
    except ValueError as e:
        raise LocalModelError(str(e))
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
    return EulerReport(lhs=lhs, rhs=rhs, by_degree=by_degree)


# ---------------------------------------------------------------------------
# Harder-Narasimhan types
#
# An HN type is the tuple of its parts: Hilbert polynomials, in order, with
# strictly decreasing reduced polynomials summing to the total.
#
# One enumerator, _hn_parts, serves every degree D.  It works in integer
# lattice coordinates: coefficient j of a part is n_j / lattice[j], and a
# part is the tuple (k, m_1, .., m_D) = (n_D, n_{D-1}, .., n_0), top degree
# first.  Each lattice[j] is a positive constant, so sums, the order of
# coefficient tuples and the sign of a cross-multiplied slope comparison
# are the same in n as in the coefficients; a bound c_j >= x becomes
# n_j >= ceil(x lattice[j]).  Degree enters only as the length of a part
# and through the Bogomolov floor of the constant term in degree 2.
# Rationals appear only in q_bound, the Bogomolov callable and the
# polynomials of the emitted types.  The walk keeps an explicit stack, so
# it leaves no reference cycle.
#
# first_failing_hn_type re-verifies the emitted types from their
# coefficients, sharing no code with the walk; check_hn_type is the same
# check on one type.  The types of one query share their part objects, and
# the checks of a part alone run once per part object; only the order of
# the keys and the sums are checked per type.


def check_hn_type(P: RatPolynomial, q_bound: RatPolynomial, typ: tuple,
                  bogomolov_param=None, lattice=None) -> bool:
    """Re-verify every defining inequality of an HN type independently of
    the enumerator: first_failing_hn_type on the one type."""
    return first_failing_hn_type(P, q_bound, (typ,), bogomolov_param, lattice) is None


def first_failing_hn_type(P: RatPolynomial, q_bound: RatPolynomial, types,
                          bogomolov_param=None, lattice=None):
    """The first of types, a list or tuple of HN types, that is not an HN type
    of P at or above q_bound, or None.  Checked on each part's coefficient tuple: positive leading
    coefficient, lattice membership, a reduced polynomial at or above
    q_bound and (degree 2) the constant-term lower bound; and on each
    type: strictly decreasing reduced polynomials and coefficient sums
    equal to P's.

    A part's reduced polynomial is compared through its key c_k / lead, top
    degree first: the reduced coefficients times d!, so q_bound's
    coefficients are scaled by d! to match.  A part's own checks, its key
    and its lattice coordinates c_k lattice[k] are worked out once per part
    object, however many types hold it, and the sums are taken in those
    integer coordinates."""
    deg = P.degree
    lat = tuple(lattice) if lattice is not None else (1,) * (deg + 1)
    # a zero entry would admit every coefficient and make its coordinate 0
    if any(x <= 0 for x in lat):
        raise LocalModelError("lattice needs positive denominators")
    scale = math.factorial(deg)
    qkey = tuple(Fraction(q_bound.coeff(k)) * scale for k in range(deg, -1, -1))
    bog = bogomolov_param if deg == 2 else None
    # P off the lattice has a non-integer coordinate, which no sum of
    # lattice parts equals
    total = tuple(Fraction(c) * lat[k] for k, c in enumerate(P.coeffs))
    # id(part) -> (key, coordinates), or None for a part that fails alone;
    # types holds every part for the whole call, so no id is reused
    parts = {}
    for typ in types:
        sums, prev = (0,) * (deg + 1), None
        for p in typ:
            if id(p) not in parts:
                parts[id(p)] = _hn_part(p.coeffs, deg, lat, qkey, bog)
            got = parts[id(p)]
            if got is None or (prev is not None and not got[0] < prev):
                return typ
            prev = got[0]
            sums = tuple(map(add, sums, got[1]))
        if sums != total:
            return typ
    return None


def _hn_part(c, deg, lat, qkey, bog):
    """(key, lattice coordinates) of a part with coefficients c, or None
    if it fails a check that involves no other part."""
    if len(c) != deg + 1 or c[deg] <= 0:
        return None
    coords = []
    for k in range(deg + 1):
        # c_k lies in (1/lat[k]) Z exactly when its reduced denominator
        # divides lat[k]
        if lat[k] % c[k].denominator:
            return None
        coords.append(c[k].numerator * (lat[k] // c[k].denominator))
    lead = c[deg]
    key = tuple(x / lead for x in reversed(c))
    if key < qkey or (bog is not None and c[0] < bog(c[2], c[1])):
        return None
    return key, coords


def hn_enumerate(P: RatPolynomial, q_bound: RatPolynomial, bogomolov_param=None,
                 lattice=None) -> list:
    """Enumerate all Harder-Narasimhan types with total Hilbert polynomial P
    whose reduced polynomials stay at or above q_bound.

    lattice is a tuple of positive integers, one per coefficient from the
    constant term up: coefficient k of every part must lie in (1/lattice[k]) Z.
    In degree 2 a bogomolov_param callable is required; it maps the leading
    and linear coefficients of a part to a lower bound for its constant term,
    which is what makes the enumeration finite.

    The enumerator works in integer lattice coordinates (see the comment
    opening this section).  The types come out sorted by the coefficient
    tuples of their parts, top degree first; types holding the same part
    hold the same RatPolynomial object.  One first_failing_hn_type call
    re-verifies them all, and a type that fails raises LocalModelError."""
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

    found = _hn_parts(tuple(reversed(total)), q_bound, lat, bogomolov_param)
    # parts in coordinates sort as their coefficient tuples do
    found.sort()
    # one polynomial per distinct part, shared by the types that hold it;
    # every part's leading coefficient is positive, so no trimming is needed
    polys = dict.fromkeys(part for parts in found for part in parts)
    for part in polys:
        polys[part] = RatPolynomial(tuple(Fraction(n, lat[k])
                                          for k, n in enumerate(reversed(part))))
    out = [tuple(map(polys.__getitem__, parts)) for parts in found]
    bad = first_failing_hn_type(P, q_bound, out, bogomolov_param, lat)
    if bad is not None:
        raise LocalModelError("enumerated type fails re-verification: %r" % (bad,))
    return out


def _hn_parts(total, q_bound, lat, bog):
    """Every HN type with coordinate totals `total`, as a tuple of parts
    (k, m_1, .., m_D); a part's key (m_1/k, .., m_D/k) orders its reduced
    polynomial.

    A stack entry is a type begun and the totals `left` that its parts
    leave.  The candidates for its next part grow one coordinate per pass,
    m_i bounded by the inequalities check_hn_type tests and one they imply:
    * the key is at least the bound's: m_i >= Q_i k while m_1 .. m_{i-1}
      equal the bound's; for D = 2 the constant term is also at least the
      Bogomolov floor of (k, m_1).  low[i][part] is the larger floor;
    * the key is below the previous part's: m_i / k <= m'_i / k' while
      m_1 .. m_{i-1} tie with it, and a part with its key is dropped;
    * the later keys are lower, so the key is at least that of all that is
      left: m_i / k >= left_i / left_0 while m_1 .. m_{i-1} tie with it, and
      the last part (k = left_0) takes all that is left;
    * m_i <= left_i - least[i][T], the least sum of m_i over later parts
      whose first i coordinates sum to T."""
    D, K = len(total) - 1, total[0]
    qn, qd = [0], [1]
    for i in range(1, D + 1):
        c = Fraction(q_bound.coeff(D - i)) * math.factorial(D)
        qn.append(c.numerator * lat[D - i])
        qd.append(c.denominator * lat[D])
    # low[i][p]: the least m_i of a part beginning p = (k, .., m_{i-1});
    # it and least[i][T] are filled for every p and T the walk reaches
    low, least = [None], [None]
    heads = [(k,) for k in range(1, K + 1)]
    for i in range(1, D + 1):
        if i > 1:
            # every m_{i-1} the other parts leave room for
            heads = [p + (m,) for p in heads for m in range(
                low[i - 1][p], total[i - 1] - least[i - 1][tuple(map(sub, total, p))] + 1)]
        low_i = {}
        for p in heads:
            k = p[0]
            floors = ([-(-qn[i] * k // qd[i])]
                      if all(p[j] * qd[j] == qn[j] * k for j in range(1, i)) else [])
            if i == 2:  # the constant term in degree 2
                floors.append(math.ceil(Fraction(bog(Fraction(k, lat[2]),
                                                     Fraction(p[1], lat[1]))) * lat[0]))
            low_i[p] = max(floors)
        least_i = {(0,) * i: 0}
        for R in range(K - 1):
            for T in [T for T in least_i if T[0] == R]:
                for p, f in low_i.items():
                    if R + p[0] < K:
                        U, f = tuple(map(add, T, p)), f + least_i[T]
                        if least_i.get(U, f) >= f:
                            least_i[U] = f
        low.append(low_i)
        least.append(least_i)

    found = []
    stack = [((), total)]
    while stack:
        parts, left = stack.pop()
        prev = parts[-1] if parts else None
        # (part, what the later parts get, key ties prev, key ties left)
        grow = [((k,), (left[0] - k,), prev is not None, True) for k in range(1, left[0] + 1)]
        for i in range(1, D + 1):
            low_i, least_i, whole, li = low[i], least[i], left[0], left[i]
            if prev is not None:
                pk, pm = prev[0], prev[i]
            nxt = []
            for part, rest, tp, tl in grow:
                k = part[0]
                lo, hi = low_i[part], li - least_i[rest]
                if tl and -(-li * k // whole) > lo:
                    lo = -(-li * k // whole)
                if tp and pm * k // pk < hi:
                    hi = pm * k // pk
                for m in range(lo, hi + 1):
                    nxt.append((part + (m,), rest + (li - m,), tp and m * pk == pm * k,
                                tl and m * whole == li * k))
            grow = nxt
        for part, rest, tp, _ in grow:
            if tp:
                continue
            if rest[0]:
                stack.append((parts + (part,), rest))
            else:
                found.append(parts + (part,))
    return found
