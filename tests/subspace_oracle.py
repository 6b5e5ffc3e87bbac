"""Product-then-filter enumeration of invariant subspace tuples.

Deliberately dumb: build every tuple of per-vertex subspaces, sort the
whole product by total dimension then encoding, and keep the tuples that
repmod_oracle.invariant accepts.  Serves as the oracle for the pruned
enumerator in repmod.invariant_subspace_tuples.
"""

import itertools

from ainfty import repmod as R

from repmod_oracle import invariant


def invariant_subspace_tuples(rep):
    """(total dimension, {vertex: echelon rows}) of every invariant tuple,
    in the order repmod.invariant_subspace_tuples promises."""
    per_vertex = {v: list(R.subspaces_fp(rep.d[v], rep.field.p))
                  for v in rep.quiver.vertices}
    vs = list(rep.quiver.vertices)
    combos = []
    for tup in itertools.product(*(per_vertex[v] for v in vs)):
        spaces = dict(zip(vs, tup))
        total = sum(len(rows) for rows in tup)
        combos.append((total, tuple(R._space_key(t) for t in tup), spaces))
    combos.sort(key=lambda t: (t[0], t[1]))
    return [(total, spaces) for total, _, spaces in combos
            if invariant(rep, spaces)]
