"""The validating decode of A-infinity category documents: which error a
table row with several faults reports, and the per-call scalar memo."""

import copy
from fractions import Fraction

import pytest

from ainfty import docio

from test_cli import a2_bar_document


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
