"""Quivers, doubled quivers, preprojective presentations and their dg version.

Paths are stored target-to-source: the tuple (a, b) is the composite a o b,
defined when src(a) == tgt(b).  A path's source is the source of its last
entry, its target the target of its first.  Relations and differentials are
linear combinations [(coeff, path), ...] with QQ scalar coeffs (field.py).
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass

from .field import QQ
from .signs import parity_sign, prefix_parities
from .sparse import add_into


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    tgt: str
    degree: int = 0


@dataclass(frozen=True)
class Quiver:
    """Finite quiver; vertex order and arrow order are part of the data."""

    vertices: tuple
    arrows: tuple

    def __post_init__(self):
        seen = set()
        for a in self.arrows:
            if a.name in seen:
                raise ValueError("duplicate arrow name %r" % (a.name,))
            seen.add(a.name)
            if a.src not in self.vertices or a.tgt not in self.vertices:
                raise ValueError("arrow %r has endpoint outside vertex set" % (a.name,))

    @classmethod
    def make(cls, vertices, arrows) -> "Quiver":
        """arrows: iterable of (name, src, tgt) or (name, src, tgt, degree)."""
        arrs = []
        for spec in arrows:
            if len(spec) == 3:
                name, s, t = spec
                arrs.append(Arrow(name, s, t))
            else:
                name, s, t, d = spec
                arrs.append(Arrow(name, s, t, d))
        return cls(tuple(vertices), tuple(arrs))

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(name)

    @property
    def is_graded(self) -> bool:
        return any(a.degree != 0 for a in self.arrows)

    def arrows_from(self, v: str):
        return [a for a in self.arrows if a.src == v]


def jordan_quiver() -> Quiver:
    return Quiver.make(("1",), [("a", "1", "1")])


def a2_quiver() -> Quiver:
    return Quiver.make(("1", "2"), [("a", "1", "2")])


def two_loop_quiver() -> Quiver:
    return Quiver.make(("1",), [("a", "1", "1"), ("b", "1", "1")])


def random_quiver(seed: int, max_vertices: int = 3, max_arrows: int = 3) -> Quiver:
    """Small random quiver, deterministic in the seed."""
    rng = _random.Random(seed)
    nv = rng.randint(1, max_vertices)
    vertices = tuple(str(i + 1) for i in range(nv))
    na = rng.randint(1, max_arrows)
    arrows = []
    for k in range(na):
        s = rng.choice(vertices)
        t = rng.choice(vertices)
        arrows.append(("abcdefgh"[k], s, t))
    return Quiver.make(vertices, arrows)


def star_name(name: str) -> str:
    """Name of the reversed arrow; the involution pairs a with a*."""
    return name[:-1] if name.endswith("*") else name + "*"


def double(q: Quiver) -> Quiver:
    """Doubled quiver: one reversed arrow a* per arrow a, (a*)* = a."""
    if q.is_graded:
        raise ValueError("doubling is defined for degree-0 quivers")
    arrs = list(q.arrows)
    for a in q.arrows:
        if a.name.endswith("*"):
            raise ValueError("arrow name %r collides with the star convention" % (a.name,))
        arrs.append(Arrow(star_name(a.name), a.tgt, a.src))
    return Quiver(q.vertices, tuple(arrs))


def euler_form(q: Quiver, d, e) -> int:
    """Euler pairing: sum_i d_i e_i - sum_{a} d_src(a) e_tgt(a)."""
    d = dimension_vector(q.vertices, d)
    e = dimension_vector(q.vertices, e)
    total = sum(d[v] * e[v] for v in q.vertices)
    for a in q.arrows:
        total -= d[a.src] * e[a.tgt]
    return total


def symmetrized_euler_form(q: Quiver, d, e) -> int:
    return euler_form(q, d, e) + euler_form(q, e, d)


def dimension_vector(names, d) -> dict:
    """Normalize a dimension vector over the vertex (or object) names,
    given as a dict or as a sequence in the order of names."""
    if isinstance(d, dict):
        out = {v: int(d.get(v, 0)) for v in names}
    else:
        vals = list(d)
        if len(vals) != len(names):
            raise ValueError("dimension vector has length %d, want %d"
                             % (len(vals), len(names)))
        out = {v: int(x) for v, x in zip(names, vals)}
    for v, x in out.items():
        if x < 0:
            raise ValueError("negative dimension at %r" % (v,))
    return out


@dataclass(frozen=True)
class PresentedAlgebra:
    """Path algebra of a quiver modulo relations (split by vertex)."""

    quiver: Quiver
    relations: tuple  # tuple of (vertex, ((coeff, path), ...))


def preprojective(q: Quiver) -> PresentedAlgebra:
    """Preprojective algebra: doubled quiver modulo the vertex components
    of sum_a [a, a*]."""
    dq = double(q)
    rels = []
    for v in q.vertices:
        terms = []
        for a in q.arrows:
            st = star_name(a.name)
            if a.tgt == v:
                terms.append((QQ.of_int(1), (a.name, st)))
            if a.src == v:
                terms.append((QQ.of_int(-1), (st, a.name)))
        if terms:
            rels.append((v, tuple(terms)))
    return PresentedAlgebra(dq, tuple(rels))


@dataclass(frozen=True)
class DGQuiverAlgebra:
    """Free path algebra of a graded quiver with a differential on generators.

    differential maps arrow name -> ((coeff, path), ...); it extends to all
    paths by the graded Leibniz rule and has degree +1.  weights assign
    arrows positive integers (an arrow left out weighs 1) such that both the
    product and the differential are weight-homogeneous; weight then grades
    the algebra with finite-dimensional pieces.
    """

    quiver: Quiver
    differential: tuple  # tuple of (arrow_name, ((coeff, path), ...))
    weights: tuple = ()  # tuple of (arrow_name, weight)

    def __post_init__(self):
        for name, w in self.weights:
            if w < 1:
                raise ValueError("arrow %r has weight %r below 1" % (name, w))

    def d_of(self, name: str):
        for k, v in self.differential:
            if k == name:
                return v
        return ()

    def weight_of(self, name: str) -> int:
        for k, w in self.weights:
            if k == name:
                return w
        return 1


def derived_preprojective(q: Quiver) -> DGQuiverAlgebra:
    """Degreewise-free dg algebra on the doubled quiver plus a degree -1
    loop u_v at each vertex, with d(u_v) the relation of preprojective(q)
    at v (empty when no arrow meets v).  H^0 recovers the preprojective
    algebra."""
    pre = preprojective(q)
    rels = dict(pre.relations)
    arrs = list(pre.quiver.arrows)
    weights = [(a.name, 1) for a in arrs]
    diff = []
    for v in q.vertices:
        uname = "u_" + v
        arrs.append(Arrow(uname, v, v, -1))
        weights.append((uname, 2))
        diff.append((uname, rels.get(v, ())))
    gq = Quiver(q.vertices, tuple(arrs))
    return DGQuiverAlgebra(gq, tuple(diff), tuple(weights))


def path_src(q: Quiver, path) -> str:
    return q.arrow(path[-1]).src


def path_tgt(q: Quiver, path) -> str:
    return q.arrow(path[0]).tgt


def path_degree(q: Quiver, path) -> int:
    return sum(q.arrow(n).degree for n in path)


def path_composable(q: Quiver, path) -> bool:
    return all(q.arrow(path[k]).src == q.arrow(path[k + 1]).tgt
               for k in range(len(path) - 1))


def path_weight(alg: DGQuiverAlgebra, path) -> int:
    return sum(alg.weight_of(n) for n in path)


def d_path(alg: DGQuiverAlgebra, path):
    """Differential of a path by the graded Leibniz rule.

    Replacing the arrow in slot k costs the prefix sign (signs.py) of the
    arrow degrees left of k.  Returns a dict path -> QQ scalar.
    """
    q = alg.quiver
    out = {}
    pre = None
    for k, name in enumerate(path):
        terms = alg.d_of(name)
        if not terms:
            continue
        if pre is None:
            pre = prefix_parities([q.arrow(a).degree for a in path])
        sgn = parity_sign(pre[k])
        for coeff, rep in terms:
            new = path[:k] + tuple(rep) + path[k + 1:]
            add_into(QQ, out, new, QQ.mul(coeff, sgn))
    return out


def check_dg(alg: DGQuiverAlgebra):
    """Verify the differential: endpoints preserved, degree +1, d*d = 0 on
    generators (Leibniz then gives d*d = 0 everywhere), and weight
    homogeneity, undeclared arrows having weight 1.  Returns (ok,
    failures), each failure (reason, arrow name, path)."""
    q = alg.quiver
    failures = []
    for name, terms in alg.differential:
        a = q.arrow(name)
        for coeff, path in terms:
            if not path_composable(q, tuple(path)):
                failures.append(("not composable", name, tuple(path)))
                continue
            if path_src(q, path) != a.src or path_tgt(q, path) != a.tgt:
                failures.append(("endpoint mismatch", name, tuple(path)))
            if path_degree(q, path) != a.degree + 1:
                failures.append(("degree mismatch", name, tuple(path)))
            if path_weight(alg, path) != alg.weight_of(name):
                failures.append(("weight mismatch", name, tuple(path)))
        dd = {}
        for coeff, path in terms:
            for p2, c2 in d_path(alg, tuple(path)).items():
                add_into(QQ, dd, p2, QQ.mul(coeff, c2))
        if dd:
            failures.append(("d*d nonzero", name, tuple(sorted(dd))))
    return (not failures), failures
