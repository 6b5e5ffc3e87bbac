"""Transfer on a non-formal dg algebra: exterior on a, b, c with dc = ab.

The cohomology is 1 / {a, b} / {ac, bc} / {abc} in degrees 0..3 and the
triple product <a, b, b> = -cb is a nonzero class, so the minimal model has
a nonvanishing trilinear operation.  With operations present in every arity,
the relation and functor checks here pin the transfer tree signs globally.
"""

from itertools import combinations

import pytest

from ainfty import docio
from ainfty.ainf import (AInfCategory, check_functor, check_relations,
                         check_unitality)
from ainfty.field import QQ
from ainfty.transfer import hom_dims, minimal_model

from ainf_oracle import b_from_m


def assert_well_formed(cat):
    """cat passes the validating decode and comes back unchanged."""
    payload = docio.category_to_payload(cat)
    assert docio.category_to_payload(docio.category_from_payload(payload)) == payload


def exterior_fixture():
    gens = "abc"
    words = [""]
    for r in (1, 2, 3):
        words += ["".join(w) for w in combinations(gens, r)]
    deg = {w: len(w) for w in words}

    def mul(w1, w2):
        if set(w1) & set(w2):
            return None
        merged = list(w1 + w2)
        sign = 1
        # bubble sort, counting transpositions of odd generators
        for i in range(len(merged)):
            for j in range(len(merged) - 1 - i):
                if merged[j] > merged[j + 1]:
                    merged[j], merged[j + 1] = merged[j + 1], merged[j]
                    sign = -sign
        return "".join(merged), sign

    lab = {w: (w if w else "e") for w in words}
    m1 = {("c",): {"ab": QQ.one()}}
    m2 = {}
    for w1 in words:
        for w2 in words:
            got = mul(w1, w2)
            if got is None:
                continue
            prod, sign = got
            m2[(lab[w1], lab[w2])] = {lab[prod]: QQ.of_int(sign)}
    degs = {lab[w]: deg[w] for w in words}
    ops = b_from_m(degs, {1: m1, 2: m2}, QQ)
    hom = {("pt", "pt"): tuple((lab[w], deg[w]) for w in words)}
    return AInfCategory(objects=("pt",), hom=hom, ops=ops, field=QQ,
                        arity_cap=6, units={"pt": "e"}, complete=True)


@pytest.fixture(scope="module")
def transferred():
    cat = exterior_fixture()
    assert_well_formed(cat)
    assert check_relations(cat).ok
    assert check_unitality(cat) == "strict"
    return cat, *minimal_model(cat, arity_cap=6)


def test_cohomology_dims(transferred):
    _, mini, _, _ = transferred
    assert hom_dims(mini)[("pt", "pt")] == {0: 1, 1: 2, 2: 2, 3: 1}


def test_massey_product_nonzero(transferred):
    cat, mini, functor, _ = transferred
    by_name = {}
    for mlab, d in mini.hom[("pt", "pt")]:
        vec = functor.components[1][(mlab,)]
        if len(vec) == 1:
            by_name[next(iter(vec))] = mlab
    a, b = by_name["a"], by_name["b"]
    val = mini.ops[3].get((a, b, b))
    assert val and set(val) == {by_name["bc"]}
    # <a, a, b> lands on the other degree-2 class
    val2 = mini.ops[3].get((a, a, b))
    assert val2 and set(val2) == {by_name["ac"]}
    # degree reason: no higher operations survive here
    assert not mini.ops.get(4) and not mini.ops.get(5)


def test_transferred_structure_satisfies_relations(transferred):
    _, mini, functor, _ = transferred
    rep = check_relations(mini)
    assert rep.ok, rep.witnesses[:3]
    assert set(rep.checked) == set(range(1, 7))


def test_transfer_functor_axioms_all_arities(transferred):
    _, mini, functor, _ = transferred
    rep = check_functor(functor)
    assert rep.ok, rep.witnesses[:3]
    assert set(rep.checked) == set(range(1, 7))


def test_transferred_units_strict(transferred):
    _, mini, _, _ = transferred
    assert check_unitality(mini) == "strict"
