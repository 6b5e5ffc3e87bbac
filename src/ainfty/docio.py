"""Structured-text interchange documents.

Every document is a JSON object {kind, version, conventions, payload}.
Scalars serialize as "num" / "num/den" strings over the rationals and as
{"mod": p, "val": v} objects over prime fields.  The conventions block is
fixed and checked on parse, so a document produced under a different
composition or differential convention is refused instead of silently
misread.  Serialization sorts every list it emits; together with sorted
JSON keys this makes output byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .ainf import AInfCategory
from .field import FieldCtx, FieldError, GF, QQ
from .quiver import Arrow, DGQuiverAlgebra, Quiver
from .ratpoly import RatPolynomial
from .sparse import SparseMatrix, add_into


SCHEMA_VERSION = 1

KINDS = ("quiver", "dg_algebra", "ainf_category", "pairing", "potential",
         "matrix_rep", "hn_query", "report")

# composition: tuples and paths are written outermost-first (tuple[0] is the
# map applied last); differential_degree: all differentials raise degree by
# one; tables: structure constants are the b_n on the shifted copy.
CONVENTIONS = {
    "composition": "operator_order",
    "differential_degree": 1,
    "tables": "shifted_b",
}


class DocumentError(Exception):
    def __init__(self, message, path="document"):
        self.path = path
        super().__init__("%s: %s" % (path, message))


def _need(obj, key, path, types=None):
    if not isinstance(obj, dict):
        raise DocumentError("expected an object", path)
    if key not in obj:
        raise DocumentError("missing field %r" % key, path)
    val = obj[key]
    if types is not None and not isinstance(val, types):
        raise DocumentError("field %r has type %s" % (key, type(val).__name__),
                            "%s.%s" % (path, key))
    return val


def _int(val, what, path):
    """val when it is an integer (bools excluded), else a DocumentError."""
    if type(val) is not int:
        raise DocumentError("%s %r is not an integer" % (what, val), path)
    return val


def _need_int(obj, key, path):
    """The integer field key of obj (JSON true and false are not integers)."""
    return _int(_need(obj, key, path, int), key, "%s.%s" % (path, key))


def _opt_bool(obj, key, path):
    """The boolean field key of obj, False when absent (the string "false"
    is not a boolean)."""
    val = obj.get(key, False)
    if type(val) is not bool:
        raise DocumentError("%s %r is not a boolean" % (key, val),
                            "%s.%s" % (path, key))
    return val


def field_to_json(f: FieldCtx) -> str:
    return "QQ" if f.p == 0 else "fp:%d" % f.p


def field_from_json(s, path) -> FieldCtx:
    if s == "QQ":
        return QQ
    if isinstance(s, str) and s.startswith("fp:"):
        try:
            return GF(int(s[3:]))
        except (ValueError, FieldError) as e:
            raise DocumentError(str(e), path)
    raise DocumentError("unknown field %r (want \"QQ\" or \"fp:P\")" % (s,), path)


def scalar_to_json(f: FieldCtx, a):
    return f.scalar_to_json(a)


def scalar_from_json(f: FieldCtx, obj, path):
    try:
        return f.scalar_from_json(obj)
    except (FieldError, ValueError, ZeroDivisionError) as e:
        raise DocumentError("bad scalar %r (%s)" % (obj, e), path)


def wrap(kind: str, payload: dict) -> dict:
    return {"kind": kind, "version": SCHEMA_VERSION,
            "conventions": dict(CONVENTIONS), "payload": payload}


def _check_envelope(doc) -> str:
    kind = _need(doc, "kind", "document", str)
    if kind not in KINDS:
        raise DocumentError("unknown kind %r" % kind, "document.kind")
    version = _need_int(doc, "version", "document")
    if version != SCHEMA_VERSION:
        raise DocumentError("unsupported version %d" % version, "document.version")
    conv = _need(doc, "conventions", "document", dict)
    for key, want in CONVENTIONS.items():
        if conv.get(key) != want:
            raise DocumentError("convention %r is %r, this build uses %r"
                                % (key, conv.get(key), want),
                                "document.conventions.%s" % key)
    _need(doc, "payload", "document", (dict,))
    return kind


# ---------------------------------------------------------------------------
# quiver


def quiver_to_payload(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [{"name": a.name, "src": a.src, "tgt": a.tgt,
                    "degree": a.degree} for a in q.arrows],
    }


def quiver_from_payload(payload, path="payload") -> Quiver:
    vertices = tuple(_need(payload, "vertices", path, list))
    arrows = []
    for k, rec in enumerate(_need(payload, "arrows", path, list)):
        apath = "%s.arrows[%d]" % (path, k)
        arrows.append(Arrow(name=_need(rec, "name", apath, str),
                            src=_need(rec, "src", apath, str),
                            tgt=_need(rec, "tgt", apath, str),
                            degree=_need_int(rec, "degree", apath)))
    try:
        return Quiver(vertices=vertices, arrows=tuple(arrows))
    except ValueError as e:
        raise DocumentError(str(e), path)


# ---------------------------------------------------------------------------
# dg quiver algebra


def dg_algebra_to_payload(alg: DGQuiverAlgebra) -> dict:
    f = QQ
    diff = []
    for name, terms in sorted(alg.differential):
        diff.append({"arrow": name,
                     "value": [{"coeff": scalar_to_json(f, c),
                                "path": list(p)} for c, p in terms]})
    return {
        "quiver": quiver_to_payload(alg.quiver),
        "differential": diff,
        "weights": [{"arrow": name, "weight": w} for name, w in sorted(alg.weights)],
    }


def dg_algebra_from_payload(payload, path="payload") -> DGQuiverAlgebra:
    q = quiver_from_payload(_need(payload, "quiver", path, dict), path + ".quiver")
    diff = []
    for k, rec in enumerate(_need(payload, "differential", path, list)):
        dpath = "%s.differential[%d]" % (path, k)
        name = _need(rec, "arrow", dpath, str)
        terms = []
        for m, t in enumerate(_need(rec, "value", dpath, list)):
            tpath = "%s.value[%d]" % (dpath, m)
            c = scalar_from_json(QQ, _need(t, "coeff", tpath), tpath + ".coeff")
            terms.append((c, tuple(_need(t, "path", tpath, list))))
        diff.append((name, tuple(terms)))
    weights = []
    for k, rec in enumerate(payload.get("weights", [])):
        wpath = "%s.weights[%d]" % (path, k)
        weights.append((_need(rec, "arrow", wpath, str),
                        _need_int(rec, "weight", wpath)))
    return DGQuiverAlgebra(quiver=q, differential=tuple(diff),
                           weights=tuple(weights))


# ---------------------------------------------------------------------------
# A-infinity categories


def category_to_payload(cat: AInfCategory) -> dict:
    f = cat.field
    hom = []
    for (i, j) in sorted(cat.hom):
        hom.append({"src": i, "tgt": j,
                    "basis": [[lab, deg] for lab, deg in cat.hom[(i, j)]]})
    ops = []
    for n in sorted(cat.ops):
        table = cat.ops[n]
        if not table:
            continue
        rows = []
        for tup in sorted(table):
            out = table[tup]
            rows.append({"inputs": list(tup),
                         "output": [[lab, scalar_to_json(f, c)]
                                    for lab, c in sorted(out.items())]})
        ops.append({"arity": n, "table": rows})
    payload = {
        "field": field_to_json(f),
        "objects": list(cat.objects),
        "hom": hom,
        "ops": ops,
        "arity_cap": cat.arity_cap,
        "complete": bool(cat.complete),
        "units": [[obj, lab] for obj, lab in sorted(cat.units.items())],
        "pairing": [[x, y, scalar_to_json(f, c)]
                    for (x, y), c in sorted(cat.pairing.items())],
    }
    if cat.weights:
        payload["weights"] = [[lab, w] for lab, w in sorted(cat.weights.items())]
    if cat.weight_cap is not None:
        payload["weight_cap"] = cat.weight_cap
    return payload


def category_from_payload(payload, path="payload") -> AInfCategory:
    f = field_from_json(_need(payload, "field", path), path + ".field")
    objects = tuple(_need(payload, "objects", path, list))
    hom = {}
    for k, rec in enumerate(_need(payload, "hom", path, list)):
        hpath = "%s.hom[%d]" % (path, k)
        i = _need(rec, "src", hpath, str)
        j = _need(rec, "tgt", hpath, str)
        basis = []
        for m, ent in enumerate(_need(rec, "basis", hpath, list)):
            bpath = "%s.basis[%d]" % (hpath, m)
            if not (isinstance(ent, list) and len(ent) == 2):
                raise DocumentError("want [label, degree]", bpath)
            basis.append((str(ent[0]), _int(ent[1], "degree", bpath)))
        hom[(i, j)] = tuple(basis)
    ops = {}
    for k, rec in enumerate(_need(payload, "ops", path, list)):
        opath = "%s.ops[%d]" % (path, k)
        n = _need_int(rec, "arity", opath)
        table = {}
        for m, row in enumerate(_need(rec, "table", opath, list)):
            rpath = "%s.table[%d]" % (opath, m)
            tup = tuple(_need(row, "inputs", rpath, list))
            out = {}
            for w, ent in enumerate(_need(row, "output", rpath, list)):
                epath = "%s.output[%d]" % (rpath, w)
                if not (isinstance(ent, list) and len(ent) == 2):
                    raise DocumentError("want [label, scalar]", epath)
                out[str(ent[0])] = scalar_from_json(f, ent[1], epath)
            table[tup] = out
        ops[n] = table
    units = {}
    for k, ent in enumerate(payload.get("units", [])):
        upath = "%s.units[%d]" % (path, k)
        if not (isinstance(ent, list) and len(ent) == 2):
            raise DocumentError("want [object, label]", upath)
        units[str(ent[0])] = str(ent[1])
    pairing = {}
    for k, ent in enumerate(payload.get("pairing", [])):
        ppath = "%s.pairing[%d]" % (path, k)
        if not (isinstance(ent, list) and len(ent) == 3):
            raise DocumentError("want [x, y, scalar]", ppath)
        pairing[(str(ent[0]), str(ent[1]))] = scalar_from_json(f, ent[2], ppath)
    weights = {}
    for k, ent in enumerate(payload.get("weights", [])):
        wpath = "%s.weights[%d]" % (path, k)
        if not (isinstance(ent, list) and len(ent) == 2
                and type(ent[1]) is int):
            raise DocumentError("want [label, weight]", wpath)
        weights[str(ent[0])] = ent[1]
    kwargs = {}
    if weights:
        kwargs["weights"] = weights
    if payload.get("weight_cap") is not None:
        kwargs["weight_cap"] = _need_int(payload, "weight_cap", path)
    complete = _opt_bool(payload, "complete", path)
    try:
        return AInfCategory(objects=objects, hom=hom, ops=ops, field=f,
                            arity_cap=_need_int(payload, "arity_cap", path),
                            units=units, pairing=pairing,
                            complete=complete,
                            **kwargs)
    except Exception as e:
        raise DocumentError("category rejected: %s" % e, path)


# ---------------------------------------------------------------------------
# cyclic pairings (standalone documents)


def pairing_to_payload(pairing) -> dict:
    f = pairing.field
    return {"field": field_to_json(f),
            "entries": [[x, y, scalar_to_json(f, c)]
                        for (x, y), c in sorted(pairing.entries.items())]}


def pairing_from_payload(payload, path="payload"):
    from .nccalc import CyclicPairing
    f = field_from_json(_need(payload, "field", path), path + ".field")
    entries = {}
    for k, ent in enumerate(_need(payload, "entries", path, list)):
        epath = "%s.entries[%d]" % (path, k)
        if not (isinstance(ent, list) and len(ent) == 3):
            raise DocumentError("want [x, y, scalar]", epath)
        entries[(str(ent[0]), str(ent[1]))] = scalar_from_json(f, ent[2], epath)
    return CyclicPairing(field=f, entries=entries)


# ---------------------------------------------------------------------------
# potentials


def potential_to_payload(func) -> dict:
    """Serialize a potential, a function (an nccalc.NCForm whose words
    carry no marked letter), together with the category its alphabet came
    from."""
    f = func.field
    terms = []
    for cfg in sorted(func.terms):
        if any(mark != 0 for _, mark in cfg):
            raise DocumentError("potential term carries form marks",
                                "payload.terms")
        terms.append({"word": [lab for lab, _ in cfg],
                      "coeff": scalar_to_json(f, func.terms[cfg])})
    return {"field": field_to_json(f),
            "category": category_to_payload(_category_of(func)),
            "order_cap": func.order_cap,
            "truncated": bool(func.truncated),
            "terms": terms}


def _category_of(func):
    cat = getattr(func, "source_category", None)
    if cat is None:
        raise DocumentError("potential has no source_category attached; "
                            "set one before serializing", "payload.category")
    return cat


def potential_from_payload(payload, path="payload"):
    from .ncword import NCContext, canonical_cyclic
    from .nccalc import NCForm
    f = field_from_json(_need(payload, "field", path), path + ".field")
    cat = category_from_payload(_need(payload, "category", path, dict),
                                path + ".category")
    if cat.field != f:
        raise DocumentError("potential field differs from category field", path)
    ctx = NCContext.from_category(cat)
    terms = {}
    for k, rec in enumerate(_need(payload, "terms", path, list)):
        tpath = "%s.terms[%d]" % (path, k)
        word = _need(rec, "word", tpath, list)
        coeff = scalar_from_json(f, _need(rec, "coeff", tpath), tpath + ".coeff")
        try:
            cfg = tuple((str(lab), 0) for lab in word)
            canon = canonical_cyclic(ctx, cfg)
        except Exception as e:
            raise DocumentError("bad word: %s" % e, tpath)
        if canon is None:
            continue
        ccfg, sign = canon
        add_into(f, terms, ccfg, f.mul(f.of_int(sign), coeff))
    func = NCForm(ctx, terms, _need_int(payload, "order_cap", path),
                  _opt_bool(payload, "truncated", path))
    func.source_category = cat
    return func


# ---------------------------------------------------------------------------
# matrix representations


def rep_to_payload(rep) -> dict:
    f = rep.field
    mats = []
    for name in sorted(rep.mats):
        m = rep.mats[name]
        mats.append({"arrow": name,
                     "entries": [[r, c, scalar_to_json(f, v)]
                                 for (r, c), v in sorted(m.entries.items())]})
    return {"field": field_to_json(f),
            "quiver": quiver_to_payload(rep.quiver),
            "dims": [[v, rep.d[v]] for v in rep.quiver.vertices],
            "mats": mats}


def rep_from_payload(payload, path="payload"):
    from . import repmod
    f = field_from_json(_need(payload, "field", path), path + ".field")
    q = quiver_from_payload(_need(payload, "quiver", path, dict), path + ".quiver")
    d = {}
    for k, ent in enumerate(_need(payload, "dims", path, list)):
        dpath = "%s.dims[%d]" % (path, k)
        if not (isinstance(ent, list) and len(ent) == 2):
            raise DocumentError("want [vertex, dim]", dpath)
        dim = _int(ent[1], "dim", dpath)
        if dim < 0:
            raise DocumentError("dim %d is negative" % dim, dpath)
        d[str(ent[0])] = dim
    mats = {}
    for k, rec in enumerate(_need(payload, "mats", path, list)):
        mpath = "%s.mats[%d]" % (path, k)
        name = _need(rec, "arrow", mpath, str)
        try:
            arrow = q.arrow(name)
        except KeyError:
            raise DocumentError("unknown arrow %r" % name, mpath + ".arrow")
        m = SparseMatrix(d.get(arrow.tgt, 0), d.get(arrow.src, 0), field=f)
        for w, ent in enumerate(_need(rec, "entries", mpath, list)):
            epath = "%s.entries[%d]" % (mpath, w)
            if not (isinstance(ent, list) and len(ent) == 3):
                raise DocumentError("want [row, col, scalar]", epath)
            r, c = _int(ent[0], "row", epath), _int(ent[1], "column", epath)
            if not (0 <= r < m.nrows and 0 <= c < m.ncols):
                raise DocumentError("entry (%d, %d) outside a %dx%d block"
                                    % (r, c, m.nrows, m.ncols), epath)
            m.set(r, c, scalar_from_json(f, ent[2], epath))
        mats[name] = m
    try:
        return repmod.MatrixRep(q, d, mats, field=f)
    except repmod.RepError as e:
        raise DocumentError(str(e), path)


# ---------------------------------------------------------------------------
# HN queries


@dataclass(frozen=True)
class HNQuery:
    """Input of the HN enumerator: total polynomial, reduced lower bound,
    coefficient lattice, and optional constant-term bound of the form
    c0 >= A*c2 + B*|c1| + C."""

    total: RatPolynomial
    bound: RatPolynomial
    lattice: tuple
    bogomolov: tuple | None = None   # (A, B, C) as Fractions

    def bogomolov_param(self):
        if self.bogomolov is None:
            return None
        a, b, c = self.bogomolov
        return lambda c2, c1: a * c2 + b * abs(c1) + c


def _poly_to_json(p: RatPolynomial):
    return [QQ.scalar_to_json(c) for c in p.coeffs]


def _poly_from_json(obj, path) -> RatPolynomial:
    if not isinstance(obj, list) or not obj:
        raise DocumentError("want a nonempty coefficient list, constant first",
                            path)
    coeffs = [scalar_from_json(QQ, c, "%s[%d]" % (path, k))
              for k, c in enumerate(obj)]
    return RatPolynomial.of(coeffs)


def hn_query_to_payload(query: HNQuery) -> dict:
    payload = {"total": _poly_to_json(query.total),
               "bound": _poly_to_json(query.bound),
               "lattice": list(query.lattice)}
    if query.bogomolov is None:
        payload["bogomolov"] = None
    else:
        a, b, c = query.bogomolov
        payload["bogomolov"] = {"c2": QQ.scalar_to_json(a),
                                "abs_c1": QQ.scalar_to_json(b),
                                "constant": QQ.scalar_to_json(c)}
    return payload


def hn_query_from_payload(payload, path="payload") -> HNQuery:
    total = _poly_from_json(_need(payload, "total", path), path + ".total")
    bound = _poly_from_json(_need(payload, "bound", path), path + ".bound")
    lattice = tuple(_int(x, "lattice entry", "%s.lattice[%d]" % (path, k))
                    for k, x in enumerate(_need(payload, "lattice", path, list)))
    bog = payload.get("bogomolov")
    if bog is not None:
        bpath = path + ".bogomolov"
        bog = (scalar_from_json(QQ, _need(bog, "c2", bpath), bpath + ".c2"),
               scalar_from_json(QQ, _need(bog, "abs_c1", bpath), bpath + ".abs_c1"),
               scalar_from_json(QQ, _need(bog, "constant", bpath), bpath + ".constant"))
    return HNQuery(total=total, bound=bound, lattice=lattice, bogomolov=bog)


# ---------------------------------------------------------------------------
# top level


_TO_PAYLOAD = {
    "quiver": quiver_to_payload,
    "dg_algebra": dg_algebra_to_payload,
    "ainf_category": category_to_payload,
    "pairing": pairing_to_payload,
    "potential": potential_to_payload,
    "matrix_rep": rep_to_payload,
    "hn_query": hn_query_to_payload,
}

_FROM_PAYLOAD = {
    "quiver": quiver_from_payload,
    "dg_algebra": dg_algebra_from_payload,
    "ainf_category": category_from_payload,
    "pairing": pairing_from_payload,
    "potential": potential_from_payload,
    "matrix_rep": rep_from_payload,
    "hn_query": hn_query_from_payload,
}


def to_document(kind: str, obj) -> dict:
    if kind not in _TO_PAYLOAD:
        raise DocumentError("cannot serialize kind %r" % kind, "document.kind")
    return wrap(kind, _TO_PAYLOAD[kind](obj))


def parse_document(doc):
    """Returns (kind, parsed object); reports contain their payload dict."""
    kind = _check_envelope(doc)
    if kind == "report":
        return kind, doc["payload"]
    return kind, _FROM_PAYLOAD[kind](doc["payload"])


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise DocumentError(str(e), str(path))
    except json.JSONDecodeError as e:
        raise DocumentError("invalid JSON: %s" % e, str(path))
    return parse_document(data)
