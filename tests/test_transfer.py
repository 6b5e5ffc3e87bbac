"""Homological transfer: contractions, minimal models, induced functors."""

import gc
import sys
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

from ainfty import ainf, docio, sparse
from ainfty.ainf import (StructureError, check_functor, check_relations,
                         check_unitality)
from ainfty.field import GF, QQ
from ainfty.presentations import bar_ext_category, truncated_path_category
from ainfty.quiver import (a2_quiver, derived_preprojective, jordan_quiver,
                           random_quiver, two_loop_quiver)
from ainfty.nccalc import solve_cyclic_pairing
from ainfty.transfer import hom_contraction, hom_dims, minimal_model

from ainf_oracle import perturbed
from test_ainf import stored_entries
from transfer_oracle import (check_contraction, cohomology_dims,
                             hom_contraction_oracle)

QUIVERS = {"jordan": jordan_quiver(), "a2": a2_quiver(),
           "two_loop": two_loop_quiver()}

# Yoneda algebra of the vertex simples over the 2-Calabi-Yau completion:
# dims (1, 2g, 1) on the diagonal in degrees 0/1/2, arrow counts in degree 1
# off the diagonal, nothing else.  Frozen by hand from the defining quivers.
EXPECTED_EXT = {
    "jordan": {("1", "1"): {0: 1, 1: 2, 2: 1}},
    "a2": {("1", "1"): {0: 1, 2: 1}, ("2", "2"): {0: 1, 2: 1},
           ("1", "2"): {1: 1}, ("2", "1"): {1: 1}},
    "two_loop": {("1", "1"): {0: 1, 1: 4, 2: 1}},
}


@pytest.mark.parametrize("name,cap", [
    *[pytest.param(name, 3, id=name) for name in sorted(QUIVERS)],
    pytest.param("two_loop", 4, id="two_loop-c4")])
def test_contraction_side_conditions(name, cap):
    # two_loop at weight cap 4 has (degree, weight) blocks of 816 and 865
    # labels
    cat = bar_ext_category(derived_preprojective(QUIVERS[name]), cap)
    for pair in sorted(cat.hom):
        unit = cat.units.get(pair[0]) if pair[0] == pair[1] else None
        con = hom_contraction(cat, pair, unit_label=unit)
        assert check_contraction(cat, con) == []


ORACLE_QUIVERS = {**QUIVERS,
                  **{"random%d" % seed: random_quiver(seed) for seed in range(6)}}


@pytest.mark.parametrize("build", [bar_ext_category, truncated_path_category],
                         ids=["bar", "path"])
@pytest.mark.parametrize("name", sorted(ORACLE_QUIVERS))
def test_contraction_matches_inverse_oracle(name, build):
    # the splitting read from one elimination per block is the one the
    # greedy completion and the inverse of the change of basis give, with
    # the unit preferred, with no unit, and with weights stripped (blocks
    # by degree alone); with the bases also reversed, the unit is the last
    # label of its block instead of the first
    alg = derived_preprojective(ORACLE_QUIVERS[name])
    for cap in (1, 2, 3):
        for field in (QQ, GF(2), GF(3)):
            cat = build(alg, cap, field=field)
            unweighted = replace(cat, weights={}, weight_cap=None)
            reversed_bases = replace(unweighted, hom={
                pair: basis[::-1] for pair, basis in cat.hom.items()})
            for c, units in ((cat, True), (cat, False), (unweighted, True),
                             (reversed_bases, True)):
                for pair in sorted(c.hom):
                    unit = c.units.get(pair[0]) \
                        if units and pair[0] == pair[1] else None
                    got = hom_contraction(c, pair, unit_label=unit)
                    want = hom_contraction_oracle(c, pair, unit_label=unit)
                    assert (got.min_basis, got.inc, got.proj, got.htp,
                            got.weights) == (want.min_basis, want.inc,
                                             want.proj, want.htp,
                                             want.weights), (cap, field, pair)
                    assert check_contraction(c, got) == []


def test_minimal_model_makes_one_elimination_per_block(monkeypatch):
    # choosing the complement of the boundaries with a second Echelon per
    # block and reading proj and htp off an n x n inverse made 7,316
    # Echelon.add calls on this category; one elimination per block makes
    # 3,484
    cat = bar_ext_category(derived_preprojective(QUIVERS["two_loop"]), 4)
    calls = []
    add = sparse.Echelon.add

    def counted(self, vec):
        calls.append(1)
        return add(self, vec)

    def refused(mat):
        raise AssertionError("sparse.invert called")
    monkeypatch.setattr(sparse.Echelon, "add", counted)
    for mod in [m for key, m in sys.modules.items() if key.startswith("ainfty")]:
        if getattr(mod, "invert", None) is sparse.invert:
            monkeypatch.setattr(mod, "invert", refused)
    mini, _, _ = minimal_model(cat)
    assert hom_dims(mini) == EXPECTED_EXT["two_loop"]
    assert 0 < len(calls) < 4000


def test_cohomology_dims_match_expected():
    for name, want in EXPECTED_EXT.items():
        cat = bar_ext_category(derived_preprojective(QUIVERS[name]), 4)
        got = cohomology_dims(cat)
        got = {pr: d for pr, d in got.items() if d}
        assert got == want, (name, got)


@pytest.mark.parametrize("name,cap", [("jordan", 4), ("a2", 4),
                                      ("two_loop", 3)])
def test_minimal_model_of_bar_category(name, cap):
    cat = bar_ext_category(derived_preprojective(QUIVERS[name]), cap)
    mini, functor, cons = minimal_model(cat, arity_cap=min(cap + 1, 6))
    # transferred basis matches the rank computation (independent route)
    dims = {pr: d for pr, d in hom_dims(mini).items() if d}
    assert dims == EXPECTED_EXT[name]
    # minimal: b_1 = 0
    assert not mini.ops.get(1)
    rep = check_relations(mini)
    assert rep.ok, rep.witnesses[:3]
    assert check_unitality(mini) == "strict"
    frep = check_functor(functor)
    assert frep.ok, frep.witnesses[:3]
    for pair, con in cons.items():
        assert check_contraction(cat, con) == []


def test_minimal_model_formality_of_sigma_fixture():
    # all transferred operations above arity 2 vanish for the 2CY fixture
    cat = bar_ext_category(derived_preprojective(QUIVERS["jordan"]), 4)
    mini, functor, _ = minimal_model(cat, arity_cap=6)
    for n, table in mini.ops.items():
        if n != 2:
            assert not table, (n, sorted(table)[:3])
    assert mini.complete  # weight bound: no operations hide beyond the cap


def test_minimal_model_path_category():
    # also transfers a category with morphisms in negative degrees
    cat = truncated_path_category(derived_preprojective(QUIVERS["a2"]), 3)
    mini, functor, _ = minimal_model(cat)
    assert check_relations(mini).ok
    assert check_functor(functor).ok
    # H^0 is the truncated preprojective algebra: e_i, a, a*, a a*, a* a, ...
    d0 = {pr: d.get(0, 0) for pr, d in hom_dims(mini).items()}
    coh = {pr: d.get(0, 0) for pr, d in cohomology_dims(cat).items()}
    assert d0 == coh


def test_minimal_model_mod_p():
    cat = bar_ext_category(derived_preprojective(QUIVERS["a2"]), 3,
                           field=GF(5))
    mini, functor, _ = minimal_model(cat, arity_cap=4)
    dims = {pr: d for pr, d in hom_dims(mini).items() if d}
    assert dims == EXPECTED_EXT["a2"]
    assert check_relations(mini).ok
    assert check_functor(functor).ok


def test_rejects_nondg_input():
    from ainfty.ainf import StructureError
    cat = bar_ext_category(derived_preprojective(QUIVERS["jordan"]), 2)
    bad_ops = dict(cat.ops)
    labs = [lab for lab, d in cat.hom[("1", "1")]]
    bad_ops[3] = {(labs[0], labs[0], labs[0]): {labs[0]: QQ.one()}}
    from dataclasses import replace
    with pytest.raises(StructureError):
        minimal_model(replace(cat, ops=bad_ops))


@pytest.mark.parametrize("arity_cap", [None, 1, 3])
def test_units_without_b2_are_a_structure_error(arity_cap):
    # units and no known b_2: the strict unit laws cannot be read, and the
    # transfer says so at every cap rather than going on without units
    cat = truncated_path_category(derived_preprojective(QUIVERS["jordan"]), 3)
    low = replace(cat, ops={1: cat.ops[1]}, arity_cap=1, complete=False)
    with pytest.raises(StructureError,
                       match=r"^b_2 is unknown at arity cap 1$"):
        minimal_model(low, arity_cap)


def test_units_that_are_not_strict_skip_the_weak_unit_check(monkeypatch):
    # only strictness decides how the transfer treats units, so the weak
    # fallback (a rank per hom space) never runs
    cat = bar_ext_category(derived_preprojective(QUIVERS["a2"]), 3)
    law = next(k for k, (n, tup, _) in enumerate(stored_entries(cat))
               if n == 2 and cat.units["1"] in tup)
    bad = perturbed(cat, law)[0]
    assert ainf._strict_unit_failures(bad)

    def refused(cat):
        raise AssertionError("weak unit check ran")
    monkeypatch.setattr(ainf, "_weak_unit_check", refused)
    minimal_model(bad)


def table_scalars(tables):
    """Every coefficient of {arity or key: {inputs: {output: coeff}}}."""
    return [c for tab in tables.values() for vec in tab.values()
            for c in vec.values()]


def non_canonical(scalars):
    """The QQ scalars not in canonical form (an int when integral, else a
    Fraction with denominator > 1)."""
    return [c for c in scalars if not (
        type(c) is int or (type(c) is Fraction and c.denominator > 1))]


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_qq_scalars_are_canonical(name):
    alg = derived_preprojective(QUIVERS[name])
    assert non_canonical(c for _, terms in alg.differential for c, _ in terms) == []
    bar = bar_ext_category(alg, 3)
    path = truncated_path_category(alg, 3)
    mini, functor, cons = minimal_model(bar)
    assert non_canonical(table_scalars(bar.ops)) == []
    assert non_canonical(table_scalars(path.ops)) == []
    assert non_canonical(table_scalars(mini.ops)) == []
    assert non_canonical(table_scalars(functor.components)) == []
    for con in cons.values():
        for linear_map in (con.inc, con.proj, con.htp):
            assert non_canonical(c for vec in linear_map.values()
                                 for c in vec.values()) == []
    # a document round trip, with a stored pairing, parses to the same form
    stored = solve_cyclic_pairing(mini).entries
    doc = docio.to_document("ainf_category", mini)
    doc["payload"]["pairing"] = [[x, y, QQ.scalar_to_json(QQ.div(c, 2))]
                                 for (x, y), c in sorted(stored.items())]
    _, loaded = docio.parse_document(doc)
    assert non_canonical(table_scalars(loaded.ops)) == []
    assert non_canonical(loaded.pairing.values()) == []
    assert any(type(c) is Fraction for c in loaded.pairing.values())


def test_minimal_model_and_its_checks_leave_no_reference_cycle():
    # the tree recursion of minimal_model and the composite walk of
    # check_functor hold no reference to themselves, so dropping the
    # results frees the source category without a cyclic collection
    cat = bar_ext_category(derived_preprojective(jordan_quiver()), 3)
    source = weakref.ref(cat)
    gc.collect()
    gc.disable()
    try:
        model, incl, cons = minimal_model(cat)
        assert check_relations(model).ok and check_functor(incl).ok
        del model, incl, cons, cat
        assert source() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
