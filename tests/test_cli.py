"""CLI reports and exit codes, checked against the library calls they wrap."""

import functools
import hashlib
import json
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from ainfty import ainf, cli, docio, localmodel, nccalc, repmod, sparse
from ainfty.cli import EXIT, main
from ainfty.field import GF
from ainfty.hochschild import (HochschildChainWindow, hh0_dimension,
                               windowed_homology)
from ainfty.presentations import bar_ext_category, truncated_path_category
from ainfty.quiver import (DGQuiverAlgebra, Quiver, a2_quiver,
                           derived_preprojective, double, jordan_quiver)
from ainfty.ratpoly import RatPolynomial
from ainfty.transfer import hom_contraction, minimal_model

from ainf_oracle import perturbed
from transfer_oracle import check_contraction


def write_quiver(path, q):
    path.write_text(docio.dumps_document(docio.to_document("quiver", q)),
                    encoding="utf-8")


def a2_bar_document():
    cat = bar_ext_category(derived_preprojective(a2_quiver()), weight_cap=2,
                           arity_cap=4)
    return docio.to_document("ainf_category", cat)


def test_batch_exit_code_ranks_error_above_truncated(tmp_path):
    write_quiver(tmp_path / "a_valid.json", a2_quiver())
    (tmp_path / "b_broken.json").write_text(json.dumps({"kind": "quiver"}),
                                            encoding="utf-8")
    code = main(["batch", "hochschild", str(tmp_path), "--window", "2"])
    verdicts = {}
    for stem in ("a_valid", "b_broken"):
        report = json.loads((tmp_path / (stem + ".report.json")).read_text())
        verdicts[stem] = report["payload"]["verdict"]
    assert verdicts == {"a_valid": "truncated", "b_broken": "error"}
    assert code == EXIT["error"]


def test_batch_exit_code_ranks_fail_above_truncated(tmp_path, monkeypatch):
    write_quiver(tmp_path / "a.json", a2_quiver())
    write_quiver(tmp_path / "b.json", a2_quiver())
    verdicts = iter(["fail", "truncated"])
    monkeypatch.setitem(cli.HANDLERS, "hochschild", replace(
        cli.HANDLERS["hochschild"],
        handler=lambda args, obj: (next(verdicts), [], {}, {})))
    assert main(["batch", "hochschild", str(tmp_path)]) == EXIT["fail"]


@pytest.mark.parametrize("quiver", [a2_quiver, jordan_quiver])
def test_hochschild_report_matches_library(tmp_path, quiver):
    q = quiver()
    doc, out = tmp_path / "q.json", tmp_path / "q.report.json"
    write_quiver(doc, q)
    code = main(["hochschild", str(doc), "--window", "3", "--report", str(out)])
    payload = json.loads(out.read_text())["payload"]
    assert code == EXIT[payload["verdict"]]

    cat = truncated_path_category(DGQuiverAlgebra(q, (), ()), weight_cap=2)
    hom = windowed_homology(HochschildChainWindow(cat, 3), length_margin=1)
    assert payload["result"]["hh0"] == hh0_dimension(HochschildChainWindow(cat, 3))
    assert payload["result"]["homology"] == [[list(key), dim]
                                             for key, dim in sorted(hom.dims.items())]
    assert payload["truncation"] == {"stable": hom.stable}


@pytest.mark.parametrize("subcommand", ["formality", "minimal-model"])
def test_category_with_b1_and_b3_is_an_input_error(tmp_path, capsys, subcommand):
    # transfer needs a dg category: b_3 next to b_1 is an input error (exit
    # 2), not a traceback and not a "fail"
    doc = a2_bar_document()
    doc["payload"]["ops"].append({"arity": 3, "table": [
        {"inputs": ["<a>", "<@1>", "<a*>"], "output": [["<a.a*>", "1"]]}]})
    path = tmp_path / "b1_b3.json"
    path.write_text(docio.dumps_document(doc), encoding="utf-8")
    assert main([subcommand, str(path)]) == EXIT["error"] == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert "transfer input must be a dg category" in out.out


@pytest.mark.parametrize("cycles, ext_dims", [
    ((), []), ((("y", 0),), [[0, 1]])], ids=["acyclic", "one-class"])
def test_unit_that_is_not_a_cycle_is_transferred_without_a_unit(
        tmp_path, cycles, ext_dims):
    # b_1(e) = x for the designated unit e: check-ainf passes with units
    # "none"; minimal-model must not seed e as a cohomology representative
    # (that failed with "splitting dimension mismatch at (0, 0)") and
    # transfers with no induced unit
    cat = ainf.AInfCategory(
        objects=("1",), hom={("1", "1"): (("e", 0), ("x", 1)) + cycles},
        ops={1: {("e",): {"x": 1}}}, arity_cap=2, units={"1": "e"},
        complete=True)
    path, out = tmp_path / "cat.json", tmp_path / "cat.report.json"
    path.write_text(docio.dumps_document(docio.to_document("ainf_category", cat)),
                    encoding="utf-8")
    assert main(["check-ainf", str(path), "--report", str(out)]) == EXIT["pass"]
    report = json.loads(out.read_text())["payload"]
    assert (report["verdict"], report["result"]["units"]) == ("pass", "none")
    assert main(["minimal-model", str(path), "--report", str(out)]) == EXIT["pass"]
    report = json.loads(out.read_text())["payload"]
    assert report["verdict"] == "pass"
    assert report["result"]["ext_dims"] == [
        {"src": "1", "tgt": "1", "dims": ext_dims}]
    assert report["result"]["model"]["payload"]["units"] == []
    con = hom_contraction(cat, ("1", "1"), unit_label="e")
    assert len(con.min_basis) == len(cycles)
    assert check_contraction(cat, con) == []


@pytest.mark.parametrize("subcommand", ["check-ainf", "minimal-model"])
def test_units_without_b2_are_an_input_error(tmp_path, capsys, subcommand):
    # designated units and no b_2 at arity cap 1: the unit laws cannot be
    # read, which both subcommands report as an input error, not a traceback
    cat = truncated_path_category(derived_preprojective(jordan_quiver()), 3)
    low = replace(cat, ops={1: cat.ops[1]}, arity_cap=1, complete=False)
    path = tmp_path / "b1_only.json"
    path.write_text(docio.dumps_document(docio.to_document("ainf_category", low)),
                    encoding="utf-8")
    assert main([subcommand, str(path)]) == EXIT["error"] == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert "b_2 is unknown at arity cap 1" in out.out


def test_check_ainf_decides_the_strict_unit_laws_once(tmp_path, monkeypatch):
    # check_relations lists the strict unit laws to pick its unit filter,
    # and the units verdict reads that decision instead of listing them again
    path, out = tmp_path / "bar.json", tmp_path / "bar.report.json"
    path.write_text(docio.dumps_document(a2_bar_document()), encoding="utf-8")
    calls = []
    laws = ainf._strict_unit_failures

    def counted(cat):
        calls.append(cat)
        return laws(cat)
    monkeypatch.setattr(ainf, "_strict_unit_failures", counted)
    assert main(["check-ainf", str(path), "--report", str(out)]) == EXIT["pass"]
    assert json.loads(out.read_text())["payload"]["result"]["units"] == "strict"
    assert len(calls) == 1


def test_differential_that_does_not_square_to_zero_is_an_input_error(
        tmp_path, capsys):
    # b_1(e) = x + z and b_1(x) = y: the boundary x + z is not a cycle, so
    # there is no cohomology to transfer onto (exit 2), where reading the
    # splitting off the free column z alone would find none and pass
    cat = ainf.AInfCategory(
        objects=("1",),
        hom={("1", "1"): (("e", 0), ("x", 1), ("z", 1), ("y", 2))},
        ops={1: {("e",): {"x": 1, "z": 1}, ("x",): {"y": 1}}}, arity_cap=2,
        complete=True)
    path = tmp_path / "cat.json"
    path.write_text(docio.dumps_document(docio.to_document("ainf_category", cat)),
                    encoding="utf-8")
    assert main(["check-ainf", str(path)]) == EXIT["fail"]
    capsys.readouterr()
    assert main(["minimal-model", str(path)]) == EXIT["error"] == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert "b_1 does not square to zero at 'e'" in out.out


WEIGHT_ERROR = "payload.weights[0]: want [label, weight]"


@pytest.mark.parametrize("key, value, message", [
    ("weights", [["e"]], WEIGHT_ERROR),
    ("weights", [["e", "2"]], WEIGHT_ERROR),
    ("weights", [["e", 1, 2]], WEIGHT_ERROR),
    ("weights", ["e"], WEIGHT_ERROR),
    ("weight_cap", "x", "payload.weight_cap: field 'weight_cap' has type str"),
])
def test_malformed_weights_are_an_input_error(tmp_path, capsys, key, value,
                                              message):
    doc = a2_bar_document()
    doc["payload"][key] = value
    path = tmp_path / "weights.json"
    path.write_text(docio.dumps_document(doc), encoding="utf-8")
    assert main(["check-ainf", str(path)]) == EXIT["error"] == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert message in out.out


def a2_rep_document():
    rep = repmod.random_rep(double(a2_quiver()), 22, d={"1": 2, "2": 1})
    return docio.to_document("matrix_rep", rep)


def hn_query_document():
    query = docio.HNQuery(total=RatPolynomial.of([0, 2]),
                          bound=RatPolynomial.of([-1, 1]), lattice=(1, 1))
    return docio.to_document("hn_query", query)


@functools.lru_cache(maxsize=None)
def jordan_min_text():
    cat = bar_ext_category(derived_preprojective(jordan_quiver()), weight_cap=2)
    model, _, _ = minimal_model(cat)
    return docio.dumps_document(docio.to_document("ainf_category", model))


def jordan_min_document():
    return json.loads(jordan_min_text())


def jordan_pairing_document():
    cat = docio.parse_document(jordan_min_document())[1]
    return docio.to_document("pairing", nccalc.solve_cyclic_pairing(cat))


def jordan_dg_document():
    return docio.to_document("dg_algebra", derived_preprojective(jordan_quiver()))


def a2_path_document():
    cat = truncated_path_category(derived_preprojective(a2_quiver()), 3)
    return docio.to_document("ainf_category", cat)


def gf5_path_document():
    cat = truncated_path_category(DGQuiverAlgebra(a2_quiver(), (), ()),
                                  weight_cap=2, field=GF(5))
    return docio.to_document("ainf_category", cat)


def gf3_rep_document():
    rep = repmod.random_rep(double(a2_quiver()), 22, d={"1": 2, "2": 1},
                            field=GF(3))
    return docio.to_document("matrix_rep", rep)


# the b_2 row [1>1]1.0 (x) [1>1]1.1 -> [1>1]2.0 of the jordan minimal model
JORDAN_B2_ROW = ("ops", 0, "table", 5)
WRONG_DEGREE_B3 = {"arity": 3, "table": [
    {"inputs": ["[1>1]0.0", "[1>1]0.0", "[1>1]1.0"],
     "output": [["[1>1]1.0", "1"]]}]}
ROW_5 = "payload.ops[0].table[5]: "
# each edit was a traceback, a "pass" or a "fail" with relation witnesses
FINDINGS = [
    ("b2-output-label", JORDAN_B2_ROW + ("output", 0, 0), "zz",
     ROW_5 + "unknown label 'zz'"),
    ("b2-input-label", JORDAN_B2_ROW + ("inputs", 1), "zz",
     ROW_5 + "unknown label 'zz'"),
    ("b2-output-degree", JORDAN_B2_ROW + ("output", 0, 0), "[1>1]1.0",
     ROW_5 + "output '[1>1]1.0' has (src, tgt, shifted degree, weight) "
     "('1', '1', 0, 1), want ('1', '1', 1, 2)"),
    ("b3-degree", ("ops", 0), WRONG_DEGREE_B3,
     "payload.ops[0].table[0]: output '[1>1]1.0' has (src, tgt, shifted "
     "degree, weight) ('1', '1', 0, 1), want ('1', '1', -1, 1)"),
]
FINDING_SUBCOMMANDS = ("check-ainf", "minimal-model", "strictify")
BAD_RESIDUE = "payload.mats[1].entries[0]: bad scalar %r (want integer mod and val)"


@pytest.mark.parametrize("subcommand, document, where, value, message", [
    ("semisimplify", a2_rep_document, ("mats", 0, "arrow"), "zz",
     "payload.mats[0].arrow: unknown arrow 'zz'"),
    ("semisimplify", a2_rep_document, ("dims", 0), ["1", "x"],
     "payload.dims[0]: dim 'x' is not an integer"),
    ("semisimplify", a2_rep_document, ("dims", 1), ["2", -1],
     "payload.dims[1]: dim -1 is negative"),
    ("semisimplify", a2_rep_document, ("mats", 0, "entries", 0, 0), "x",
     "payload.mats[0].entries[0]: row 'x' is not an integer"),
    ("semisimplify", a2_rep_document, ("mats", 0, "entries", 0, 1), "x",
     "payload.mats[0].entries[0]: column 'x' is not an integer"),
    ("check-ainf", a2_bar_document, ("hom", 0, "basis", 0, 1), "x",
     "payload.hom[0].basis[0]: degree 'x' is not an integer"),
    ("hn-enum", hn_query_document, ("lattice", 1), "x",
     "payload.lattice[1]: lattice entry 'x' is not an integer"),
    ("hochschild", jordan_dg_document, ("differential", 0, "value", 0, "path", 0),
     "zz", "payload.differential[0].value[0].path: unknown arrow 'zz'"),
    ("hochschild", jordan_dg_document, ("differential", 0, "arrow"), "zz",
     "payload.differential[0].arrow: unknown arrow 'zz'"),
    # no weights: every arrow weighs 1 and d(u_1) = a.a* - a*.a is not
    # homogeneous; the path category built from it was not closed under b
    ("hochschild", jordan_dg_document, ("weights",), [],
     "payload.differential[0]: weight mismatch in d(u_1)"),
    # a second entry for an arrow was silently ignored
    ("hochschild", jordan_dg_document, ("differential",),
     [{"arrow": "u_1", "value": []}, {"arrow": "u_1", "value": []}],
     "payload.differential[1]: differential of 'u_1' listed twice"),
    ("hochschild", jordan_dg_document, ("weights", 1, "arrow"), "a",
     "payload.weights[1]: weight of 'a' listed twice"),
    ("hochschild --window=2", a2_path_document,
     ("ops", 1, "table", 0, "output", 0, 1), "2",
     "input category fails its structure relations"),
    ("hochschild --window=2", gf5_path_document, ("units",), [],
     "Connes operator needs designated units"),
    ("stability --zeta=1,-1", gf3_rep_document, ("mats", 1, "entries", 0, 2),
     {"mod": 3}, BAD_RESIDUE % {"mod": 3}),
    ("stability --zeta=1,-1", gf3_rep_document, ("mats", 1, "entries", 0, 2),
     {"mod": 3, "val": "x"}, BAD_RESIDUE % {"mod": 3, "val": "x"}),
    ("semisimplify", a2_rep_document, ("dims", 0, 0), "3",
     "payload.dims[0]: '3' is not a new vertex"),
    ("semisimplify", a2_rep_document, ("dims", 1, 0), "1",
     "payload.dims[1]: '1' is not a new vertex"),
    ("semisimplify", a2_rep_document, ("mats", 1, "arrow"), "a",
     "payload.mats[1]: matrix of 'a' listed twice"),
    ("strictify MIN --pairing", jordan_pairing_document, ("entries", 0, 0), 7,
     "payload.entries[0]: want [label, label, scalar]"),
] + [(sub, jordan_min_document, where, value, message)
     for sub in FINDING_SUBCOMMANDS for _, where, value, message in FINDINGS],
    ids=["arrow", "dim", "negative-dim", "row", "column", "degree", "lattice",
         "dg-path", "dg-differential", "dg-no-weights", "dg-differential-twice",
         "dg-weight-twice", "hochschild-relations",
         "no-units",
         "mod-only", "mod-string-val", "unknown-vertex", "vertex-twice",
         "arrow-twice", "pairing-label"]
    + ["%s-%s" % (sub, name) for sub in FINDING_SUBCOMMANDS
       for name, _, _, _ in FINDINGS])
def test_malformed_document_is_an_input_error(tmp_path, capsys, subcommand,
                                              document, where, value, message):
    doc = document()
    node = doc["payload"]
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path, min_path = tmp_path / "malformed.json", tmp_path / "min.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    min_path.write_text(jordan_min_text(), encoding="utf-8")
    argv = [str(min_path) if a == "MIN" else a for a in subcommand.split()]
    assert main(argv + [str(path)]) == EXIT["error"] == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert message in out.out


def a2_quiver_document():
    return docio.to_document("quiver", a2_quiver())


def a2_dg_algebra_document():
    return docio.to_document("dg_algebra", derived_preprojective(a2_quiver()))


@pytest.mark.parametrize("subcommand, document, where, message", [
    ("check-ainf", a2_bar_document, ("version",),
     "document.version: version True is not an integer"),
    ("hochschild", a2_quiver_document, ("payload", "arrows", 0, "degree"),
     "payload.arrows[0].degree: degree True is not an integer"),
    ("hochschild", a2_dg_algebra_document, ("payload", "weights", 0, "weight"),
     "payload.weights[0].weight: weight True is not an integer"),
    ("check-ainf", a2_bar_document, ("payload", "ops", 0, "arity"),
     "payload.ops[0].arity: arity True is not an integer"),
    ("check-ainf", a2_bar_document, ("payload", "weight_cap"),
     "payload.weight_cap: weight_cap True is not an integer"),
    ("check-ainf", a2_bar_document, ("payload", "arity_cap"),
     "payload.arity_cap: arity_cap True is not an integer"),
], ids=["version", "degree", "weight", "arity", "weight_cap", "arity_cap"])
def test_boolean_integer_field_is_an_input_error(tmp_path, capsys, subcommand,
                                                 document, where, message):
    # JSON true would pass as the integer 1: "arity_cap": true checked
    # arity 1 only and reported a pass
    doc = document()
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = True
    path = tmp_path / "boolean.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([subcommand, str(path)]) == EXIT["error"] == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert message in out.out


@pytest.mark.parametrize("subcommand", ["formality", "strictify"])
@pytest.mark.parametrize("arity_cap", [0, -3])
def test_an_arity_cap_below_one_is_an_input_error(tmp_path, capsys, subcommand,
                                                  arity_cap):
    # a document's cap of -3 reached the potential, which exited 3 with
    # "potential needs words of length 3, above the order cap -3"; the
    # same cap given as --order-cap is a usage error
    doc = a2_bar_document()
    doc["payload"]["arity_cap"] = arity_cap
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([subcommand, str(path)]) == EXIT["error"] == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert ("payload.arity_cap: arity cap %d is not positive" % arity_cap
            in out.out)


@pytest.mark.parametrize("document, key", [(a2_bar_document, "complete")])
@pytest.mark.parametrize("value", ["false", "true", 0])
def test_non_boolean_flag_is_an_input_error(tmp_path, capsys, document, key,
                                            value):
    # bool("false") is True: the string marked a category complete, so its
    # unknown higher arities counted as zero and check-ainf passed
    doc = document()
    doc["payload"][key] = value
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check-ainf", str(path)]) == EXIT["error"] == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert "payload.%s: %s %r is not a boolean" % (key, key, value) in out.out


@pytest.mark.parametrize("subcommand", ["check-ainf", "minimal-model"])
@pytest.mark.parametrize("arity_cap, complete, verdict, arities", [
    (4, True, "pass", []),
    (2, False, "truncated", [3, 4, 5, 6]),
])
def test_relation_check_with_unchecked_arities_is_truncated(
        tmp_path, subcommand, arity_cap, complete, verdict, arities):
    # every checked arity holds; arities above the cap of an incomplete
    # category are unknown, so the verdict is truncated (exit 3), not pass
    doc = a2_bar_document()
    doc["payload"]["arity_cap"] = arity_cap
    doc["payload"]["complete"] = complete
    path, out = tmp_path / "cat.json", tmp_path / "cat.report.json"
    path.write_text(docio.dumps_document(doc), encoding="utf-8")
    assert main([subcommand, str(path), "--report", str(out)]) == EXIT[verdict]
    report = json.loads(out.read_text())["payload"]
    assert report["verdict"] == verdict
    assert report["witnesses"] == []
    assert report["truncation"] == {"arities": arities}


@pytest.mark.parametrize("cap, verdict, arities", [
    (1, "truncated", [2, 3]), (2, "truncated", [3]), (3, "fail", [])])
def test_check_ainf_lists_the_arities_the_stored_tables_reach_above_the_cap(
        tmp_path, cap, verdict, arities):
    # b_2(<@1>, <@1>) doubled breaks the arity-3 relation b_2 b_2; tables
    # stored up to arity 2 reach relations of arity <= 3, so a cap below 3
    # cannot say pass
    cat = bar_ext_category(derived_preprojective(a2_quiver()), weight_cap=2,
                           arity_cap=4)
    bad, change = perturbed(cat, 4)
    assert change["inputs"] == ("<@1>", "<@1>") and change["new"] == 2
    path, out = tmp_path / "cat.json", tmp_path / "cat.report.json"
    path.write_text(docio.dumps_document(docio.to_document("ainf_category", bad)),
                    encoding="utf-8")
    code = main(["check-ainf", str(path), "--order-cap=%d" % cap,
                 "--report", str(out)])
    report = json.loads(out.read_text())["payload"]
    assert (code, report["verdict"]) == (EXIT[verdict], verdict)
    assert report["truncation"] == {"arities": arities}
    assert bool(report["witnesses"]) == (verdict == "fail")


@pytest.mark.parametrize("document, flags", [(gf3_rep_document, []),
                                             (a2_rep_document, ["--field=fp:7"])],
                         ids=["gf3", "reduced-mod-7"])
def test_semisimplify_over_a_prime_field(tmp_path, document, flags):
    # the trace-form radical needs characteristic zero: over GF(p) the
    # Jordan-Hoelder oracle semisimplifies, and there are no radical layers
    doc, out = tmp_path / "rep.json", tmp_path / "rep.report.json"
    doc.write_text(docio.dumps_document(document()), encoding="utf-8")
    code = main(["semisimplify", str(doc), "--report", str(out)] + flags)
    result = json.loads(out.read_text())["payload"]["result"]
    assert code == EXIT["pass"]
    rep = docio.parse_document(document())[1]
    if flags:
        rep = repmod.good_reduction(rep, 7)[0]
        assert result["note"] == "reduced mod 7"
    ss, _, _ = repmod.semisimplify(rep)
    assert ss.field.p and ss.d == rep.d
    assert result["rep"] == json.loads(docio.dumps_document(
        docio.to_document("matrix_rep", ss)))
    assert result["layer_dims"] is None


def test_semisimplify_computes_the_radical_filtration_once(tmp_path, monkeypatch):
    rep = repmod.random_rep(double(a2_quiver()), 22, d={"1": 2, "2": 1})
    doc, out = tmp_path / "rep.json", tmp_path / "rep.report.json"
    doc.write_text(docio.dumps_document(docio.to_document("matrix_rep", rep)),
                   encoding="utf-8")
    counts = count_calls(monkeypatch, (repmod, "semisimplify"),
                         (repmod, "radical_filtration"),
                         (repmod, "acting_algebra"))
    code = main(["semisimplify", str(doc), "--report", str(out)])
    # one semisimplify for the input, running the one filtration on the
    # one acting algebra: none runs outside it
    assert counts == {"semisimplify": 1, "radical_filtration": 1,
                      "acting_algebra": 1}
    monkeypatch.undo()
    result = json.loads(out.read_text())["payload"]["result"]
    assert code == EXIT["pass"]
    ss, dims, _ = repmod.semisimplify(rep)
    assert result["rep"] == json.loads(docio.dumps_document(
        docio.to_document("matrix_rep", ss)))
    assert result["layer_dims"] == list(dims)
    assert len(dims) == 4


# ---------------------------------------------------------------------------
# the formality path: each fact established once


def count_calls(monkeypatch, *targets):
    """Wrap each (module, name) in every ainfty namespace that binds it and
    return the Counter the wrappers fill."""
    counts = Counter()
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in [m for key, m in sys.modules.items() if key.startswith("ainfty")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


FORMALITY_CALLS = ((ainf, "check_relations"), (nccalc, "check_cyclicity"),
                   (nccalc, "strictify_units"), (nccalc, "invert_pairing_blocks"),
                   (nccalc, "make_pairing"), (nccalc, "contraction_solve"),
                   (sparse, "solve"))


@pytest.mark.parametrize("argv", [["formality"], ["local-model", "--dims=2"]],
                         ids=["formality", "local-model"])
def test_formality_path_establishes_each_fact_once(tmp_path, monkeypatch, argv):
    path = tmp_path / "min.json"
    path.write_text(jordan_min_text(), encoding="utf-8")
    counts = count_calls(monkeypatch, *FORMALITY_CALLS)
    assert main([argv[0], str(path), "--report", str(tmp_path / "r.json")]
                + argv[1:]) == EXIT["pass"]
    # one relation check, one cyclicity check and one strictification per
    # job; a pairing's blocks are inverted once, when make_pairing builds it,
    # and the Hamiltonian fields read that inverse without a linear solve
    assert counts["check_relations"] == 1
    assert counts["check_cyclicity"] == 1
    assert counts["strictify_units"] == 1
    assert counts["invert_pairing_blocks"] == counts["make_pairing"] == 1
    assert counts["contraction_solve"] >= 1
    assert counts["solve"] == 0


def test_strictify_checks_the_pairing_once(tmp_path, monkeypatch):
    path = tmp_path / "min.json"
    path.write_text(jordan_min_text(), encoding="utf-8")
    counts = count_calls(monkeypatch, *FORMALITY_CALLS)
    assert main(["strictify", str(path), "--report",
                 str(tmp_path / "r.json")]) == EXIT["pass"]
    assert counts["check_cyclicity"] == 0
    assert counts["invert_pairing_blocks"] == 1


@pytest.mark.parametrize("cap, code, witnesses, truncation", [
    (1, "truncated", [{"reason": "contraction equation needs words of length "
                                 "3, above the order cap 1"}], {"order_cap": 1}),
    (2, "truncated", [{"reason": "contraction equation needs words of length "
                                 "3, above the order cap 2"}], {"order_cap": 2}),
    (3, "pass", [], {"arities": [3]}),
    # the strictified category knows arities up to 6 only, so 7..22 are
    # truncated without enumerating their 2^(n-1) compositions
    (22, "pass", [], {"arities": list(range(7, 23))}),
], ids=["cap1", "cap2", "cap3", "cap22"])
def test_strictify_order_cap(tmp_path, capsys, cap, code, witnesses, truncation):
    # a cap below the cubic potential's words is named as the reason, not
    # blamed on omega, which is nondegenerate; the window cannot decide the
    # job, so it is truncated (exit 3), not a fail
    path = tmp_path / "min.json"
    path.write_text(jordan_min_text(), encoding="utf-8")
    assert main(["strictify", str(path), "--order-cap", str(cap)]) == EXIT[code]
    report = json.loads(capsys.readouterr().out)["payload"]
    assert report["verdict"] == code
    assert report["witnesses"] == witnesses
    assert report["truncation"] == truncation


def test_text_output_lists_witnesses_truncation_and_scalar_results(tmp_path,
                                                                  capsys):
    # one line per witness and for a nonempty truncation; of the result only
    # the scalars, so the category and processed_orders are left out
    path = tmp_path / "min.json"
    path.write_text(jordan_min_text(), encoding="utf-8")
    assert main(["strictify", str(path), "--order-cap", "1",
                 "--output", "text"]) == EXIT["truncated"]
    assert capsys.readouterr().out == (
        "strictify: truncated\n"
        'witness: {"reason": "contraction equation needs words of length 3, '
        'above the order cap 1"}\n'
        'truncation: {"order_cap": 1}\n')
    assert main(["strictify", str(path), "--order-cap", "3",
                 "--output", "text"]) == EXIT["pass"]
    assert capsys.readouterr().out == (
        "strictify: pass\n"
        'truncation: {"arities": [3]}\n'
        "identity: True\n"
        "omega_preserved: True\n"
        "units: strict\n")


@pytest.mark.parametrize("cap, code", [(1, "truncated"), (2, "pass"),
                                       (3, "pass")],
                         ids=["cap1", "cap2", "cap3"])
def test_formality_order_cap_on_a_quiver(tmp_path, capsys, cap, code):
    # from cap 2 on the minimal model has b_2, so its potential has cubic
    # words; at cap 1 it has none, and the reason names the cap instead of
    # a wrong degree (truncated, exit 3: the window cannot decide it)
    path = tmp_path / "jordan.json"
    path.write_text(docio.dumps_document(docio.to_document("quiver", jordan_quiver())),
                    encoding="utf-8")
    assert main(["formality", str(path), "--order-cap", str(cap)]) == EXIT[code]
    report = json.loads(capsys.readouterr().out)["payload"]
    assert report["verdict"] == code
    assert report["witnesses"] == ([] if code == "pass" else [
        {"reason": "potential needs words of length 3, above the order cap %d"
                   % cap}])
    assert report["truncation"] == ({} if code == "pass"
                                    else {"order_cap": cap})


@pytest.mark.parametrize("arrow, message", [
    (("a", "1", "1", 1), "doubling is defined for degree-0 quivers"),
    (("a*", "1", "1"), "arrow name 'a*' collides with the star convention"),
], ids=["degree-1-arrow", "starred-name"])
def test_formality_on_a_quiver_that_cannot_be_doubled(tmp_path, capsys, arrow,
                                                      message):
    # derived_preprojective's ValueError ended in a traceback with exit 1
    path = tmp_path / "q.json"
    path.write_text(docio.dumps_document(docio.to_document(
        "quiver", Quiver.make(("1",), [arrow]))), encoding="utf-8")
    assert main(["formality", str(path)]) == EXIT["error"] == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert json.loads(out.out)["payload"]["witnesses"] == [{"error": message}]


def test_local_model_below_the_stored_products_is_truncated(tmp_path, capsys):
    # at --order-cap 1 the equations read no product, and b_2 is stored:
    # the all-zero equation is a truncation at the cap, not an exact
    # presentation
    path = tmp_path / "jordan-min.json"
    path.write_text(jordan_min_text(), encoding="utf-8")
    assert main(["local-model", str(path), "--dims=2",
                 "--order-cap=1"]) == EXIT["truncated"]
    report = json.loads(capsys.readouterr().out)["payload"]
    assert report["truncation"] == {"exact": False}
    assert report["result"]["exactness"] == "truncated:cap=1"
    assert [eq["matrix"] for eq in report["result"]["equations"]] == [
        [["0", "0"], ["0", "0"]]]
    for cap in (2, 6):
        assert main(["local-model", str(path), "--dims=2",
                     "--order-cap=%d" % cap]) == EXIT["pass"]
        result = json.loads(capsys.readouterr().out)["payload"]["result"]
        assert result["exactness"] == "exact"
        assert result["equations"][0]["matrix"][0][0] != "0"


DEGENERATE_PAIRING = [["[1>1]0.0", "[1>1]2.0", 1], ["[1>1]2.0", "[1>1]0.0", 1]]


@pytest.mark.parametrize("key, value, reason", [
    ("pairing", DEGENERATE_PAIRING,
     "no cyclic pairing: pairing degenerate on blocks [('1', '1', 1)]"),
    ("units", [], "weak units must be designated on every object"),
], ids=["degenerate-pairing", "no-units"])
def test_formality_failure_is_a_verdict(tmp_path, capsys, key, value, reason):
    # a pairing that make_pairing rejects, and an obstruction raised inside
    # the certificate, are "fail" verdicts with the reason, not tracebacks
    doc = jordan_min_document()
    doc["payload"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["formality", str(path)]) == EXIT["fail"]
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    report = json.loads(out.out)["payload"]
    assert report["verdict"] == "fail"
    assert report["witnesses"] == [{"reason": reason}]


def test_formality_on_a_prime_field_document_is_an_input_error(tmp_path, capsys):
    # strictify, too, solves over the rationals only: it reported a "fail"
    # (exit 1) with "strictification needs characteristic zero"
    doc = jordan_min_document()
    doc["payload"]["field"] = "fp:7"
    path = tmp_path / "fp7.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for subcommand in ("formality", "strictify"):
        assert main([subcommand, str(path)]) == EXIT["error"] == 2
        out = capsys.readouterr()
        assert "Traceback" not in out.out + out.err
        assert json.loads(out.out)["payload"]["witnesses"] == [
            {"error": "%s runs over the rationals; the document is over fp:7"
                      % subcommand}]


# the flags a subcommand needs besides its input document
REQUIRED_FLAGS = {"local-model": ["--dims=2"], "euler-compare": ["--dims=2"]}


@pytest.mark.parametrize("subcommand, document", [
    ("check-ainf", a2_bar_document), ("minimal-model", a2_bar_document),
    ("hochschild", a2_quiver_document), ("formality", a2_bar_document),
    ("moment-check", a2_rep_document), ("strictify", jordan_min_document),
    ("local-model", jordan_min_document),
    ("euler-compare", jordan_min_document), ("hn-enum", hn_query_document)])
def test_field_flag_other_than_the_documents_is_an_input_error(
        tmp_path, capsys, subcommand, document):
    path = tmp_path / "doc.json"
    path.write_text(docio.dumps_document(document()), encoding="utf-8")
    argv = [subcommand, str(path)] + REQUIRED_FLAGS.get(subcommand, [])
    assert main(argv + ["--field", "fp:5"]) == EXIT["error"] == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert json.loads(out.out)["payload"]["witnesses"] == [
        {"error": "--field fp:5, but the document is over QQ"}]
    # naming the document's own field is the same job as leaving it unset
    reports = []
    for flag in ([], ["--field", "QQ"]):
        code = main(argv + flag)
        assert code != EXIT["error"]
        reports.append(json.loads(capsys.readouterr().out)["payload"])
    assert reports[0] == reports[1]


# one job per subcommand: its document and the flags it needs
ONE_JOB_EACH = [
    ("check-ainf", a2_bar_document, []), ("minimal-model", a2_bar_document, []),
    ("strictify", jordan_min_document, []), ("formality", jordan_min_document, []),
    ("hochschild", a2_quiver_document, []), ("semisimplify", a2_rep_document, []),
    ("stability", gf3_rep_document, ["--zeta=1,-1"]),
    ("moment-check", a2_rep_document, []),
    ("local-model", jordan_min_document, ["--dims=2"]),
    ("euler-compare", jordan_min_document, ["--dims=2"]),
    ("hn-enum", hn_query_document, []),
]


@pytest.mark.parametrize("subcommand, document, flags", ONE_JOB_EACH,
                         ids=[job[0] for job in ONE_JOB_EACH])
def test_order_cap_below_one_is_an_input_error(tmp_path, capsys, subcommand,
                                               document, flags):
    assert sorted(job[0] for job in ONE_JOB_EACH) == sorted(cli.HANDLERS)
    path = tmp_path / "doc.json"
    path.write_text(docio.dumps_document(document()), encoding="utf-8")
    for cap in (0, -1):
        code = main([subcommand, str(path), "--order-cap=%d" % cap] + flags)
        out = capsys.readouterr()
        assert code == EXIT["error"] == 2
        assert "Traceback" not in out.out + out.err
        assert json.loads(out.out)["payload"]["witnesses"] == [
            {"error": "--order-cap must be at least 1, got %d" % cap}]
    assert main([subcommand, str(path), "--order-cap=1"] + flags) != EXIT["error"]


@pytest.mark.parametrize("subcommand, document, flags", ONE_JOB_EACH,
                         ids=[job[0] for job in ONE_JOB_EACH])
def test_batch_report_equals_the_single_runs(tmp_path, subcommand, document,
                                             flags):
    # a batch report recorded "window": 3 for every target, so it differed
    # from the single run's report on the same file
    docs = tmp_path / "docs"
    docs.mkdir()
    path, single = docs / "doc.json", tmp_path / "single.json"
    path.write_text(docio.dumps_document(document()), encoding="utf-8")
    code = main([subcommand, str(path), "--report", str(single)] + flags)
    assert main(["batch", subcommand, str(docs), "--report-dir",
                 str(tmp_path / "out")] + flags) == code
    assert (tmp_path / "out" / "doc.report.json").read_text() == single.read_text()


@pytest.mark.parametrize("flag", [["--report", "out.json"],
                                  ["--report=out.json"],
                                  ["--output", "structured"]],
                         ids=["report", "report-equals", "output"])
def test_batch_refuses_the_single_run_flags(tmp_path, capsys, flag):
    # batch writes one report per input: it took --report and wrote
    # nothing there, exit 0; it is a usage error now, and --report is no
    # abbreviation of --report-dir
    write_quiver(tmp_path / "a.json", a2_quiver())
    with pytest.raises(SystemExit) as exc:
        main(["batch", "check-ainf", str(tmp_path)] + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]


def test_a_report_that_cannot_be_written_is_an_input_error(tmp_path, capsys):
    # a --report in a missing directory, a --report-dir that is a file and
    # a report path that is a directory ended in a traceback with exit 1
    docs = tmp_path / "docs"
    docs.mkdir()
    doc = docs / "doc.json"
    doc.write_text(docio.dumps_document(a2_bar_document()), encoding="utf-8")
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    (tmp_path / "out" / "doc.report.json").mkdir(parents=True)
    for argv, path in [
            (["check-ainf", str(doc), "--report", str(tmp_path / "no" / "x.json")],
             tmp_path / "no" / "x.json"),
            (["batch", "check-ainf", str(docs), "--report-dir", str(afile)],
             afile),
            (["batch", "check-ainf", str(docs), "--report-dir",
              str(tmp_path / "out")], tmp_path / "out" / "doc.report.json")]:
        assert main(argv) == EXIT["error"] == 2
        out = capsys.readouterr()
        assert "Traceback" not in out.out + out.err
        assert out.err.startswith("ainfty: cannot write report")
        assert str(path) in out.err
    assert not (tmp_path / "no").exists()


def test_batch_writes_structured_reports(tmp_path):
    # batch --output text wrote text into <stem>.report.json; batch takes
    # no --output, and every report it writes is the structured document
    write_quiver(tmp_path / "a.json", a2_quiver())
    write_quiver(tmp_path / "j.json", jordan_quiver())
    with pytest.raises(SystemExit) as exc:
        main(["batch", "hochschild", str(tmp_path), "--output", "text"])
    assert exc.value.code == 2
    assert main(["batch", "hochschild", str(tmp_path)]) == EXIT["pass"]
    reports = sorted(tmp_path.glob("*.report.json"))
    assert [p.name for p in reports] == ["a.report.json", "j.report.json"]
    for path in reports:
        assert json.loads(path.read_text())["kind"] == "report"


@pytest.mark.parametrize("subcommand, document, flag", [
    ("stability", gf3_rep_document, "zeta"),
    ("local-model", jordan_min_document, "dims"),
    ("euler-compare", jordan_min_document, "dims")])
def test_batch_without_a_required_flag_is_an_input_error(tmp_path, capsys,
                                                         subcommand, document,
                                                         flag):
    # batch declares its flags unrequired; a target that needs one raised
    # AttributeError on None.split instead of reporting
    (tmp_path / "doc.json").write_text(docio.dumps_document(document()),
                                       encoding="utf-8")
    assert main(["batch", subcommand, str(tmp_path)]) == EXIT["error"] == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    report = json.loads((tmp_path / "doc.report.json").read_text())["payload"]
    assert report["verdict"] == "error"
    assert report["witnesses"] == [
        {"error": "%s needs --%s" % (subcommand, flag)}]


def test_moment_check_on_a_quiver_that_is_not_doubled_is_an_input_error(
        tmp_path, capsys):
    rep = repmod.random_rep(a2_quiver(), 22, d={"1": 1, "2": 1})
    path = tmp_path / "rep.json"
    path.write_text(docio.dumps_document(docio.to_document("matrix_rep", rep)),
                    encoding="utf-8")
    assert main(["moment-check", str(path)]) == EXIT["error"] == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert json.loads(out.out)["payload"]["witnesses"] == [
        {"error": "moment map needs a doubled-quiver representation: quiver "
                  "is not doubled: 'a' has no reversed partner"}]


def test_every_flag_is_taken_by_a_subcommand():
    assert {flag for spec in cli.HANDLERS.values()
            for flag in spec.flags} == set(cli.FLAGS)


def test_minimal_model_functor_witnesses_are_relation_witnesses(tmp_path,
                                                                monkeypatch):
    # the functor witnesses were written as raw tuples, and a Fraction
    # residual made json.dumps raise
    path, out = tmp_path / "cat.json", tmp_path / "cat.report.json"
    path.write_text(docio.dumps_document(a2_bar_document()), encoding="utf-8")
    broken = ainf.RelationReport(
        ok=False, checked=(1, 2), truncated=(),
        witnesses=((2, ("<a>", "<a*>"), "<a.a*>", Fraction(1, 2)),))
    monkeypatch.setattr(cli, "check_functor", lambda incl, max_arity: broken)
    assert main(["minimal-model", str(path), "--report", str(out)]) == EXIT["fail"]
    assert json.loads(out.read_text())["payload"]["witnesses"] == [
        {"functor": [{"arity": 2, "inputs": ["<a>", "<a*>"],
                      "output": "<a.a*>", "residual": "1/2"}]}]


@pytest.mark.parametrize("subcommand", ["local-model", "euler-compare"])
@pytest.mark.parametrize("dims", ["-1", "2,1", "1,-1"])
def test_dims_flag_wants_one_nonnegative_entry_per_object(tmp_path, capsys,
                                                          subcommand, dims):
    # the jordan minimal model has one object
    path = tmp_path / "min.json"
    path.write_text(jordan_min_text(), encoding="utf-8")
    assert main([subcommand, str(path), "--dims=" + dims]) == EXIT["error"] == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert json.loads(out.out)["payload"]["witnesses"] == [
        {"error": "--dims wants one nonnegative integer per object, 1 in all, "
                  "got %r" % dims}]

def test_field_flag_naming_a_prime_field_document_is_accepted(tmp_path, capsys):
    cat = truncated_path_category(DGQuiverAlgebra(a2_quiver(), (), ()),
                                  weight_cap=2, field=GF(5))
    path = tmp_path / "fp5.json"
    path.write_text(docio.dumps_document(docio.to_document("ainf_category", cat)),
                    encoding="utf-8")
    for flag in ([], ["--field", "fp:5"]):
        assert main(["hochschild", str(path), "--window=3"] + flag) == EXIT["pass"]
        capsys.readouterr()
    assert main(["hochschild", str(path), "--field", "QQ"]) == EXIT["error"]
    assert "--field QQ, but the document is over fp:5" in capsys.readouterr().out


@pytest.mark.parametrize("zeta", ["1", "1,-1,0"])
def test_zeta_of_the_wrong_length_is_an_input_error(tmp_path, capsys, zeta):
    path = tmp_path / "rep.json"
    path.write_text(docio.dumps_document(gf3_rep_document()), encoding="utf-8")
    assert main(["stability", str(path), "--zeta=" + zeta]) == EXIT["error"]
    assert json.loads(capsys.readouterr().out)["payload"]["witnesses"] == [
        {"error": "stability parameter length mismatch"}]


@pytest.mark.parametrize("subcommand", ["stability --zeta=1,-1", "semisimplify"])
@pytest.mark.parametrize("flag", ["QQ", "fp:5"])
def test_field_flag_a_prime_field_rep_cannot_reach_is_an_input_error(
        tmp_path, capsys, subcommand, flag):
    # --field=QQ on a GF(3) document computed over GF(3) and recorded
    # "field": "QQ" in the report
    path = tmp_path / "rep.json"
    path.write_text(docio.dumps_document(gf3_rep_document()), encoding="utf-8")
    argv = subcommand.split() + [str(path)]
    assert main(argv + ["--field", flag]) == EXIT["error"] == 2
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert json.loads(out.out)["payload"]["witnesses"] == [
        {"error": "--field %s, but the document is over fp:3" % flag}]
    # naming the document's own field is the same job as leaving it unset
    reports = []
    for extra in ([], ["--field", "fp:3"]):
        assert main(argv + extra) != EXIT["error"]
        reports.append(json.loads(capsys.readouterr().out)["payload"])
    assert reports[0]["result"] == reports[1]["result"]


def test_stored_pairing_in_one_orientation(tmp_path):
    # make_pairing fills in the graded mirror of each stored entry
    doc = jordan_min_document()
    cat = docio.parse_document(doc)[1]
    pairing = nccalc.solve_cyclic_pairing(cat)
    reports = []
    for oriented in (lambda x, y: True, lambda x, y: x < y):
        doc["payload"]["pairing"] = [
            [x, y, cat.field.scalar_to_json(c)]
            for (x, y), c in sorted(pairing.entries.items()) if oriented(x, y)]
        path, out = tmp_path / "min.json", tmp_path / "min.report.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["strictify", str(path), "--report", str(out)]) == EXIT["pass"]
        reports.append(out.read_text())
    assert len(doc["payload"]["pairing"]) * 2 == len(pairing.entries)
    assert reports[0] == reports[1]


def test_pairing_document_over_another_field_is_an_input_error(tmp_path, capsys):
    path, pairing_path = tmp_path / "min.json", tmp_path / "pairing.json"
    path.write_text(jordan_min_text(), encoding="utf-8")
    cat = docio.load_document(str(path))[1]
    f5 = GF(5)
    entries = {k: f5.of_fraction(c)
               for k, c in nccalc.solve_cyclic_pairing(cat).entries.items()}
    pairing_path.write_text(docio.dumps_document(docio.to_document(
        "pairing", nccalc.CyclicPairing(f5, entries))), encoding="utf-8")
    for argv in (["strictify"], ["formality"], ["local-model", "--dims=2"]):
        code = main([argv[0], str(path), "--pairing", str(pairing_path)] + argv[1:])
        out = capsys.readouterr()
        assert code == EXIT["error"] == 2
        assert "Traceback" not in out.out + out.err
        assert json.loads(out.out)["payload"]["witnesses"] == [
            {"error": "pairing document is over fp:5, the category over QQ"}]


@pytest.mark.parametrize("where", ["stored", "document"])
def test_local_model_fails_on_a_rejected_supplied_pairing(tmp_path, capsys, where):
    # a supplied pairing that make_pairing rejects is a "fail" with the
    # reason, as in formality and strictify; only a solved pairing may be
    # missing (test_formality_path_establishes_each_fact_once runs that case)
    doc = jordan_min_document()
    argv = []
    if where == "stored":
        doc["payload"]["pairing"] = DEGENERATE_PAIRING
    else:
        pairing_path = tmp_path / "pairing.json"
        pairing_path.write_text(json.dumps(docio.wrap("pairing", {
            "field": "QQ", "entries": DEGENERATE_PAIRING})), encoding="utf-8")
        argv = ["--pairing", str(pairing_path)]
    path = tmp_path / "min.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["local-model", str(path), "--dims=2"] + argv) == EXIT["fail"]
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    report = json.loads(out.out)["payload"]
    assert report["verdict"] == "fail"
    assert report["witnesses"] == [
        {"reason": "pairing degenerate on blocks [('1', '1', 1)]"}]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_local_model_over_a_prime_field_checks_a_stored_pairing(tmp_path, capsys,
                                                                p):
    # strictification needs characteristic zero, so over GF(p) a stored
    # pairing is checked and no formality certificate is sought: a valid
    # one gives the report of the document without it (it failed with
    # "strictification needs characteristic zero"), a degenerate one fails
    fp = GF(p)
    cat = docio.parse_document(jordan_min_document())[1]
    cat = replace(cat, field=fp, ops={
        n: {tup: {lab: fp.of_fraction(c) for lab, c in out.items()}
            for tup, out in table.items()} for n, table in cat.ops.items()})
    solved = dict(nccalc.solve_cyclic_pairing(cat).entries)
    degenerate = {(x, y): fp.one() for x, y, _ in DEGENERATE_PAIRING}
    reports = []
    for pairing in ({}, solved, degenerate):
        path = tmp_path / "min.json"
        path.write_text(docio.dumps_document(docio.to_document(
            "ainf_category", replace(cat, pairing=pairing))), encoding="utf-8")
        code = main(["local-model", str(path), "--dims=2"])
        reports.append((code, json.loads(capsys.readouterr().out)["payload"]))
    assert reports[0][0] == EXIT["pass"] and reports[1] == reports[0]
    assert reports[2][0] == EXIT["fail"]
    assert reports[2][1]["witnesses"] == [
        {"reason": "pairing degenerate on blocks [('1', '1', 1)]"}]


def test_local_model_over_a_prime_field_solves_no_pairing(tmp_path, monkeypatch):
    # over GF(p) no formality certificate is sought, so with neither a
    # stored nor a supplied pairing none is solved; the report is the one
    # the solve-and-discard path wrote, byte for byte
    fp = GF(3)
    cat = docio.parse_document(jordan_min_document())[1]
    cat = replace(cat, field=fp, ops={
        n: {tup: {lab: fp.of_fraction(c) for lab, c in out.items()}
            for tup, out in table.items()} for n, table in cat.ops.items()})
    path, out = tmp_path / "min.json", tmp_path / "min.report.json"
    path.write_text(docio.dumps_document(docio.to_document("ainf_category", cat)),
                    encoding="utf-8")
    counts = count_calls(monkeypatch, (cli, "solve_cyclic_pairing"))
    code = main(["local-model", str(path), "--dims=2", "--report", str(out)])
    assert code == EXIT["pass"] and counts["solve_cyclic_pairing"] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "4aca6d2f7d79ca9057c4d1b432c7f583d689c565eafa92f8feb683efd80a577d")


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    path = tmp_path / "min.json"
    path.write_text(jordan_min_text(), encoding="utf-8")
    cli._parser.cache_clear()
    counts = count_calls(monkeypatch, (cli, "make_parser"))
    reports = []
    for argv in (["check-ainf"], ["check-ainf", "--order-cap", "3"], ["check-ainf"]):
        out = tmp_path / ("r%d.json" % len(reports))
        main(argv + [str(path), "--report", str(out)])
        reports.append(out.read_text())
    assert counts["make_parser"] == 1
    assert reports[0] == reports[2] != reports[1]


def test_hn_enum_verifies_every_type_in_one_call(tmp_path, monkeypatch):
    path, out = tmp_path / "hn.json", tmp_path / "hn.report.json"
    path.write_text(docio.dumps_document(hn_query_document()), encoding="utf-8")
    verified = []
    verify = localmodel.first_failing_hn_type

    def counted(P, q_bound, types, *args):
        verified.append(len(types))
        return verify(P, q_bound, types, *args)

    monkeypatch.setattr(localmodel, "first_failing_hn_type", counted)
    assert main(["hn-enum", str(path), "--report", str(out)]) == EXIT["pass"]
    result = json.loads(out.read_text())["payload"]["result"]
    assert result["count"] > 0 and result["reverified"] is True
    assert verified == [result["count"]]


def test_importing_the_cli_leaves_sympy_unloaded():
    # only ratpoly.factor_rational_poly needs sympy, and no subcommand
    # reaches it
    code = "import sys, ainfty.cli; print('sympy' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_pairing_document_naming_an_unknown_label_is_an_input_error(tmp_path,
                                                                    capsys):
    path, pairing_path = tmp_path / "min.json", tmp_path / "pairing.json"
    path.write_text(jordan_min_text(), encoding="utf-8")
    pairing_path.write_text(json.dumps(docio.wrap("pairing", {
        "field": "QQ", "entries": [["zz", "[1>1]2.0", "1"]]})), encoding="utf-8")
    for argv in (["strictify"], ["formality"], ["local-model", "--dims=2"]):
        code = main([argv[0], str(path), "--pairing", str(pairing_path)] + argv[1:])
        out = capsys.readouterr()
        assert code == EXIT["error"] == 2
        assert "Traceback" not in out.out + out.err
        assert json.loads(out.out)["payload"]["witnesses"] == [
            {"error": "pairing document names labels the category lacks: zz"}]


# ---------------------------------------------------------------------------
# mutation fuzz: a malformed document is an input error, never a traceback


# argv with "{}" for the mutated document ("DIR" for the directory that
# holds it alone), and that document's factory; every document kind appears
FUZZ_JOBS = [
    (["check-ainf", "{}"], a2_bar_document),
    (["minimal-model", "{}", "--order-cap=3"], a2_bar_document),
    (["hochschild", "{}", "--window=2"], a2_quiver_document),
    (["hochschild", "{}", "--window=2"], jordan_dg_document),
    (["hochschild", "{}", "--window=2"], gf5_path_document),
    (["strictify", "{}"], jordan_min_document),
    (["formality", "{}"], jordan_min_document),
    (["local-model", "{}", "--dims=2"], jordan_min_document),
    (["euler-compare", "{}", "--dims=2"], jordan_min_document),
    (["strictify", "MIN", "--pairing", "{}"], jordan_pairing_document),
    (["semisimplify", "{}"], a2_rep_document),
    (["stability", "{}", "--zeta=1,-1"], gf3_rep_document),
    (["moment-check", "{}"], a2_rep_document),
    (["hn-enum", "{}"], hn_query_document),
    (["batch", "check-ainf", "DIR"], a2_bar_document),
]
# wrong types, unknown and misplaced labels, and small integers
FUZZ_PALETTE = [None, True, 1.5, "x", "zz", "[1>1]2.0", "<a>", "a*", [], {},
                [["zz", "1"]], {"mod": 3}, -1, 0, 1, 2, 3]
MUTATIONS_PER_JOB = 20


def json_slots(node, where=()):
    """Every key path into a JSON tree, parents before children."""
    if isinstance(node, (dict, list)):
        keys = node if isinstance(node, dict) else range(len(node))
        for key in list(keys):
            yield where + (key,)
            yield from json_slots(node[key], where + (key,))


def mutate(doc, rng):
    """Delete one key or list entry of doc, or replace its value from
    FUZZ_PALETTE; returns what was done."""
    where = rng.choice(list(json_slots(doc)))
    node = doc
    for key in where[:-1]:
        node = node[key]
    if rng.random() < 0.25:
        del node[where[-1]]
        return where, "deleted"
    value = json.loads(json.dumps(rng.choice(FUZZ_PALETTE)))
    node[where[-1]] = value
    return where, value


def test_mutated_documents_never_raise(tmp_path):
    rng = random.Random(20240607)
    min_path = tmp_path / "min.json"
    min_path.write_text(jordan_min_text(), encoding="utf-8")
    (tmp_path / "docs").mkdir()
    path = tmp_path / "docs" / "mutant.json"
    out = tmp_path / "mutant.report.json"
    where = {"{}": str(path), "MIN": str(min_path), "DIR": str(path.parent)}
    escaped = []
    for argv, document in FUZZ_JOBS:
        argv = [where.get(a, a) for a in argv]
        if argv[0] != "batch":
            # batch writes its reports next to the inputs
            argv += ["--report", str(out)]
        for _ in range(MUTATIONS_PER_JOB):
            doc = document()
            change = mutate(doc, rng)
            path.write_text(json.dumps(doc), encoding="utf-8")
            try:
                code = main(argv)
            except Exception as e:  # any escape is a finding
                escaped.append((argv[0], document.__name__, change, repr(e)))
                continue
            assert code in (0, 1, 2, 3)
    assert escaped == []
