"""Presentations of quiver algebras compared and truncated, for the tests.

normalized_relations puts a set of relations in a canonical form, so two
presentations can be compared term by term; degree_zero_truncation reads
the H^0-presentation of a non-positively graded dg quiver algebra off its
degree -1 arrows, which the tests check against quiver.preprojective.
"""

from ainfty.field import QQ
from ainfty.quiver import DGQuiverAlgebra, PresentedAlgebra, Quiver


def normalized_relations(rels):
    """Canonical form for comparing presentations: each relation is sorted
    by path, scaled to leading coefficient 1; the set is sorted."""
    out = []
    for v, terms in rels:
        terms = [(QQ.of_fraction(c), tuple(p)) for c, p in terms if c != 0]
        terms.sort(key=lambda t: t[1])
        if not terms:
            continue
        lead = terms[0][0]
        terms = tuple((QQ.div(c, lead), p) for c, p in terms)
        out.append((v, terms))
    out.sort()
    return tuple(out)


def degree_zero_truncation(alg: DGQuiverAlgebra) -> PresentedAlgebra:
    """H^0-presentation of a non-positively graded dg quiver algebra:
    degree-0 arrows modulo the images of the degree -1 arrows."""
    q = alg.quiver
    if any(a.degree > 0 for a in q.arrows):
        raise ValueError("truncation needs a non-positively graded quiver")
    gens = tuple(a for a in q.arrows if a.degree == 0)
    sub = Quiver(q.vertices, gens)
    rels = []
    for a in q.arrows:
        if a.degree == -1:
            terms = tuple((QQ.of_fraction(c), tuple(p)) for c, p in alg.d_of(a.name))
            if terms and all(all(q.arrow(n).degree == 0 for n in p) for _, p in terms):
                if a.src != a.tgt:
                    raise ValueError("relation %r not split by a vertex" % (a.name,))
                rels.append((a.src, terms))
    return PresentedAlgebra(sub, tuple(rels))
