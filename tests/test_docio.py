"""The validating decode of documents: which error a table row of an
A-infinity category with several faults reports, the per-call scalar memo,
and the path and message of each decoder error."""

import copy
from fractions import Fraction

import pytest

from ainfty import docio

from test_cli import (a2_bar_document, a2_quiver_document, a2_rep_document,
                      hn_query_document, jordan_dg_document)


def decode_error(edit):
    payload = copy.deepcopy(a2_bar_document()["payload"])
    edit(payload)
    with pytest.raises(docio.DocumentError) as err:
        docio.category_from_payload(payload)
    return str(err.value)


def b2_row(m, inputs, output):
    """Replace row m of the b_2 table (ops[1]) of the a2 bar document."""
    def edit(payload):
        payload["ops"][1]["table"][m] = {"inputs": inputs, "output": output}
    return edit


def b3_row(inputs):
    """Add a b_3 table (ops[2]) holding one row with no output."""
    def edit(payload):
        payload["ops"].append({"arity": 3, "table": [
            {"inputs": inputs, "output": []}]})
    return edit


B2_ROW_0, B2_ROW_1, B3_ROW = ("payload.ops[1].table[0]: ",
                              "payload.ops[1].table[1]: ",
                              "payload.ops[2].table[0]: ")
UNIT = ["<@1>", "<@1>"]


# <a>: 1 -> 2 twice in a row does not compose; each message is the one the
# decoder gave before its row loop read each label once
@pytest.mark.parametrize("edit, message", [
    (b3_row(["<a>", "<a>", "zz"]), B3_ROW + "unknown label 'zz'"),
    (b3_row(["zz", "<a>", "<a>"]), B3_ROW + "unknown label 'zz'"),
    (b3_row(["<a*>", "<a*>", "<a>"]), B3_ROW + "inputs are not composable"),
    (b2_row(1, UNIT, [["<@1>", "1"]]),
     B2_ROW_1 + "inputs ['<@1>', '<@1>'] listed twice"),
    (b2_row(0, UNIT, [["<@1>", "0"]]),
     B2_ROW_0 + "output '<@1>' is zero or repeated"),
    (b2_row(0, UNIT, [["<@1>", "1"], ["<@1>", "1"]]),
     B2_ROW_0 + "output '<@1>' is zero or repeated"),
    (b2_row(0, ["<a*.a>", "<a*.a>"], [["<@1>", "1"]]),
     B2_ROW_0 + "weight 4 above cap 2"),
    (b2_row(0, UNIT, [["<@1>", "x"]]),
     B2_ROW_0 + "bad scalar 'x' (invalid literal for int() with base 10: "
     "'x')"),
    (b2_row(0, UNIT, [["<@1>", {"mod": 5, "val": 1}]]),
     B2_ROW_0 + "bad scalar {'mod': 5, 'val': 1} (prime-field scalar "
     "{'mod': 5, 'val': 1} in a rational context)"),
    (b2_row(0, UNIT, [["<@1>", [1]]]), B2_ROW_0 + "bad scalar [1]"),
    (b2_row(0, UNIT, [["<@1>", {"val": 1}]]),
     B2_ROW_0 + "bad scalar {'val': 1}"),
], ids=["unknown-after-break", "unknown-before-break", "break", "duplicate",
        "zero", "repeated", "weight", "bad-string", "mod-over-QQ",
        "unhashable", "no-mod"])
def test_bad_table_row_reports_its_first_fault(edit, message):
    assert decode_error(edit) == message


def test_unknown_label_is_named_before_an_unhashable_one():
    # the labels are read in order, so the unknown 'zz' is reported; a
    # decoder that looked every label up before any check named no label
    assert (decode_error(b3_row(["zz", ["x"], "<a>"]))
            == B3_ROW + "unknown label 'zz'")


def test_scalar_memo_lasts_one_decode():
    # the same string stands for 1/2 over QQ and for 3 over GF(5); decoding
    # one field after the other, in either order, reads it afresh
    payload = copy.deepcopy(a2_bar_document()["payload"])
    rows = payload["ops"][1]["table"][:2]
    for row in rows:
        row["output"][0][1] = "1/2"
    gf5 = dict(payload, field="fp:5")
    for pl in (payload, gf5, payload, gf5):
        want = Fraction(1, 2) if pl is payload else 3
        b2 = docio.category_from_payload(pl).ops[2]
        assert ([b2[tuple(row["inputs"])] for row in rows]
                == [{row["output"][0][0]: want} for row in rows])


def edited(make, edit):
    def document():
        doc = make()
        edit(doc)
        return doc
    return document


def set_at(where, value):
    """Edit setting doc[where[0]][where[1]]... to value."""
    def edit(doc):
        for key in where[:-1]:
            doc = doc[key]
        doc[where[-1]] = value
    return edit


def append_at(where, value):
    def edit(doc):
        for key in where:
            doc = doc[key]
        doc.append(value)
    return edit


def d_squared_nonzero():
    # d(x) = y and d(y) = z on one vertex, so d(d(x)) = z
    return docio.wrap("dg_algebra", {
        "quiver": {"vertices": ["1"], "arrows": [
            {"name": "x", "src": "1", "tgt": "1", "degree": -2},
            {"name": "y", "src": "1", "tgt": "1", "degree": -1},
            {"name": "z", "src": "1", "tgt": "1", "degree": 0}]},
        "differential": [
            {"arrow": "x", "value": [{"coeff": "1", "path": ["y"]}]},
            {"arrow": "y", "value": [{"coeff": "1", "path": ["z"]}]}]})


HOM_0 = copy.deepcopy(a2_bar_document()["payload"]["hom"][0])


# one document per decoder error, each error as `path: message`
@pytest.mark.parametrize("document, message", [
    (edited(a2_bar_document, set_at(["kind"], "bogus")),
     "document.kind: unknown kind 'bogus'"),
    (edited(a2_bar_document, set_at(["version"], 2)),
     "document.version: unsupported version 2"),
    (edited(a2_bar_document, set_at(["conventions", "composition"],
                                    "diagrammatic")),
     "document.conventions.composition: convention 'composition' is "
     "'diagrammatic', this build uses 'operator_order'"),
    (edited(a2_bar_document, append_at(["payload", "hom"], HOM_0)),
     "payload.hom[4]: hom(1, 1) is not a new pair of objects"),
    (edited(a2_bar_document, append_at(["payload", "hom", 0, "basis"],
                                       ["<@1>", 0])),
     "payload.hom[0].basis[4]: want [label, degree], a new label"),
    (edited(a2_bar_document, set_at(["payload", "ops", 0, "arity"], 0)),
     "payload.ops[0].arity: arity 0 is not a new positive arity"),
    (edited(a2_bar_document, set_at(["payload", "ops", 1, "arity"], 1)),
     "payload.ops[1].arity: arity 1 is not a new positive arity"),
    (edited(a2_bar_document, set_at(["payload", "units", 0], ["1"])),
     "payload.units[0]: want [object, label]"),
    (edited(a2_bar_document, set_at(["payload", "units", 0], ["1", "<a*.a>"])),
     "payload.units[0]: unit <a*.a> is not a new degree-0 element of "
     "hom(1, 1)"),
    (edited(a2_bar_document, set_at(["payload", "units", 1], ["1", "<@1>"])),
     "payload.units[1]: unit <@1> is not a new degree-0 element of "
     "hom(1, 1)"),
    (edited(a2_bar_document, set_at(["payload", "pairing"], [["<@1>", "<@2>"]])),
     "payload.pairing[0]: want [x, y, scalar]"),
    (edited(a2_quiver_document, set_at(["payload", "vertices"], ["1", "1"])),
     "payload.vertices[1]: '1' is not a new name"),
    (edited(jordan_dg_document,
            set_at(["payload", "differential", 0, "value", 0, "path"], [])),
     "payload.differential[0].value[0].path: empty path"),
    (d_squared_nonzero,
     "payload.differential[0]: d*d nonzero in d(x): (('z',),)"),
    (edited(a2_rep_document, set_at(["payload", "mats", 0, "entries", 0],
                                    [5, 0, "1"])),
     "payload.mats[0].entries[0]: entry (5, 0) outside a 1x2 block"),
    (edited(a2_rep_document, set_at(["payload", "mats", 0, "entries", 0],
                                    [0, 1])),
     "payload.mats[0].entries[0]: want [row, col, scalar]"),
    (edited(hn_query_document, set_at(["payload", "total"], [])),
     "payload.total: want a nonempty coefficient list, constant first"),
    # JSON true and false are not scalars, though Python's bool is an int
    (edited(a2_bar_document, set_at(["payload", "ops", 0, "table", 0,
                                     "output", 0], ["<a*|a>", True])),
     "payload.ops[0].table[0]: bad scalar True"),
    (edited(a2_rep_document, set_at(["payload", "mats", 0, "entries", 0],
                                    [0, 1, False])),
     "payload.mats[0].entries[0]: bad scalar False"),
    (edited(a2_bar_document, set_at(["payload", "pairing"],
                                    [["<@1>", "<u_1>", True]])),
     "payload.pairing[0]: bad scalar True"),
], ids=["kind", "version", "convention", "hom-pair", "basis-label", "arity-0",
        "arity-repeated", "unit-shape", "unit-degree", "unit-repeated",
        "pairing-shape", "quiver-name", "empty-path", "d-squared",
        "entry-outside", "entry-shape", "hn-total", "output-bool",
        "entry-bool", "pairing-bool"])
def test_decoder_errors_name_their_path(document, message):
    with pytest.raises(docio.DocumentError) as err:
        docio.parse_document(document())
    assert str(err.value) == message


def test_a_file_that_is_not_json_is_a_document_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": ', encoding="utf-8")
    with pytest.raises(docio.DocumentError) as err:
        docio.load_document(path)
    assert str(err.value) == ("%s: invalid JSON: Expecting value: line 1 "
                              "column 10 (char 9)" % path)
