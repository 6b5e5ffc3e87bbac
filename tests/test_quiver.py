"""Quivers, doubles, (derived) preprojective algebras, path differentials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfty.quiver import (DGQuiverAlgebra, a2_quiver, check_dg, d_path,
                           derived_preprojective, dimension_vector, double,
                           euler_form, jordan_quiver, path_composable,
                           path_degree, path_weight, preprojective, star_name, symmetrized_euler_form,
                           two_loop_quiver, Quiver)

from quiver_oracle import degree_zero_truncation, normalized_relations


def test_double_star_involution():
    dq = double(a2_quiver())
    names = sorted(a.name for a in dq.arrows)
    assert names == ["a", "a*"]
    assert dq.arrow("a*").src == "2" and dq.arrow("a*").tgt == "1"
    assert star_name(star_name("a")) == "a"
    with pytest.raises(ValueError):
        double(Quiver.make(("1",), [("b*", "1", "1")]))


def test_preprojective_relations_frozen():
    # Jordan quiver: single relation [a, a*] at the vertex
    p = preprojective(jordan_quiver())
    assert normalized_relations(p.relations) == normalized_relations(
        (("1", ((Fraction(1), ("a", "a*")), (Fraction(-1), ("a*", "a")))),))
    # A2: a a* at the target vertex, -a* a at the source vertex
    p2 = preprojective(a2_quiver())
    rels = dict(p2.relations)
    assert rels["2"] == ((Fraction(1), ("a", "a*")),)
    assert rels["1"] == ((Fraction(-1), ("a*", "a")),)


def test_euler_form_frozen():
    q = a2_quiver()
    # chi(d, e) = d1 e1 + d2 e2 - d1 e2
    assert euler_form(q, (1, 1), (1, 1)) == 1
    assert euler_form(q, (1, 0), (0, 1)) == -1
    assert euler_form(q, (0, 1), (1, 0)) == 0
    assert symmetrized_euler_form(q, (1, 0), (0, 1)) == -1
    qj = jordan_quiver()
    assert euler_form(qj, (3,), (5,)) == 0
    with pytest.raises(ValueError):
        dimension_vector(qj.vertices, (-1,))


@pytest.mark.parametrize("q", [jordan_quiver(), a2_quiver(), two_loop_quiver()])
def test_derived_preprojective_is_dg(q):
    alg = derived_preprojective(q)
    ok, failures = check_dg(alg)
    assert ok, failures
    # u loops have degree -1 and weight 2, arrows weight 1
    for v in q.vertices:
        assert alg.quiver.arrow("u_" + v).degree == -1
        assert alg.weight_of("u_" + v) == 2
    for a in q.arrows:
        assert alg.weight_of(a.name) == 1


def test_weight_below_one_is_refused():
    # a weight-0 arrow made the path enumeration grow without end
    alg = derived_preprojective(jordan_quiver())
    weights = tuple((name, 0 if name == "a" else w) for name, w in alg.weights)
    with pytest.raises(ValueError, match="'a' has weight 0 below 1"):
        DGQuiverAlgebra(alg.quiver, alg.differential, weights)


def test_d_path_leibniz_frozen():
    alg = derived_preprojective(jordan_quiver())
    # d(u) = a a* - a* a
    assert d_path(alg, ("u_1",)) == {("a", "a*"): Fraction(1),
                                     ("a*", "a"): Fraction(-1)}
    # d(u u) = d(u) u - u d(u): the second slot crosses one odd generator
    got = d_path(alg, ("u_1", "u_1"))
    assert got == {("a", "a*", "u_1"): Fraction(1),
                   ("a*", "a", "u_1"): Fraction(-1),
                   ("u_1", "a", "a*"): Fraction(-1),
                   ("u_1", "a*", "a"): Fraction(1)}


@given(st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_d_path_squares_to_zero(seed):
    import random
    rng = random.Random(seed)
    q = rng.choice([jordan_quiver(), a2_quiver(), two_loop_quiver()])
    alg = derived_preprojective(q)
    names = [a.name for a in alg.quiver.arrows]
    # build a random composable path by walking backwards
    path = [rng.choice(names)]
    for _ in range(rng.randrange(4)):
        src = alg.quiver.arrow(path[-1]).src
        nxt = [n for n in names if alg.quiver.arrow(n).tgt == src]
        path.append(rng.choice(nxt))
    path = tuple(path)
    assert path_composable(alg.quiver, path)
    acc = {}
    for p1, c1 in d_path(alg, path).items():
        for p2, c2 in d_path(alg, p1).items():
            acc[p2] = acc.get(p2, Fraction(0)) + c1 * c2
    assert not {k: v for k, v in acc.items() if v != 0}


def test_d_path_weight_homogeneous():
    alg = derived_preprojective(two_loop_quiver())
    path = ("u_1", "a", "b*", "u_1")
    w = path_weight(alg, path)
    for p, _ in d_path(alg, path).items():
        assert path_weight(alg, p) == w
        assert path_degree(alg.quiver, p) == path_degree(alg.quiver, path) + 1


def test_degree_zero_truncation_recovers_preprojective():
    for q in (jordan_quiver(), a2_quiver(), two_loop_quiver()):
        alg = derived_preprojective(q)
        pres = degree_zero_truncation(alg)
        want = preprojective(q)
        assert set(a.name for a in pres.quiver.arrows) == \
            set(a.name for a in want.quiver.arrows)
        assert normalized_relations(pres.relations) == \
            normalized_relations(want.relations)
