"""Structured-text interchange documents.

Every document is a JSON object {kind, version, conventions, payload}.
Scalars serialize as "num" / "num/den" strings over the rationals and as
{"mod": p, "val": v} objects over prime fields.  The conventions block is
fixed and checked on parse, so a document produced under a different
composition or differential convention is refused instead of silently
misread.  Serialization sorts every list it emits; together with sorted
JSON keys this makes output byte-stable.

Each decoder is the one structural check of its kind: it checks every entry
as it reads it and raises DocumentError at the path of the first bad one.
An A-infinity category is well formed when
* hom endpoints are listed objects, and every label in ops, units, weights
  and pairing is declared in hom;
* each table row has arity-many composable inputs, and each output lies in
  hom(src, tgt) with shifted degree sum(sdeg) + 1 and a nonzero coefficient;
* weights add up along each row, within weight_cap;
* each unit is a degree-0 element of hom(i, i).
A dg algebra's differential must pass quiver.check_dg (endpoints, degree,
weight homogeneity, d*d = 0).  A pairing's entries must name labels by
strings; its shape is checked by nccalc.make_pairing alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import repmod
from .ainf import AInfCategory
from .field import FieldCtx, FieldError, GF, QQ
from .nccalc import CyclicPairing
from .quiver import Arrow, DGQuiverAlgebra, Quiver, check_dg
from .ratpoly import RatPolynomial
from .sparse import SparseMatrix


SCHEMA_VERSION = 1

KINDS = ("quiver", "dg_algebra", "ainf_category", "pairing", "matrix_rep",
         "hn_query", "report")

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


def _opt(obj, key, path, default, what):
    """The field key of obj, default when absent, of default's exact type."""
    val = obj.get(key, default)
    if type(val) is not type(default):
        raise DocumentError("%s %r is not a %s" % (key, val, what),
                            "%s.%s" % (path, key))
    return val


def _strings(names, path):
    """names as a tuple of distinct strings (vertex or object names)."""
    for k, name in enumerate(names):
        if type(name) is not str or name in names[:k]:
            raise DocumentError("%r is not a new name" % (name,),
                                "%s[%d]" % (path, k))
    return tuple(names)


def _known(table, name, what, path):
    """table[name] when name is a string key of table, else a DocumentError."""
    if type(name) is not str or name not in table:
        raise DocumentError("unknown %s %r" % (what, name), path)
    return table[name]


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


def scalar_from_json(f: FieldCtx, obj, path):
    try:
        return f.scalar_from_json(obj)
    except FieldError as e:
        raise DocumentError(str(e), path)


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
    vertices = _strings(_need(payload, "vertices", path, list), path + ".vertices")
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
                     "value": [{"coeff": f.scalar_to_json(c),
                                "path": list(p)} for c, p in terms]})
    return {
        "quiver": quiver_to_payload(alg.quiver),
        "differential": diff,
        "weights": [{"arrow": name, "weight": w} for name, w in sorted(alg.weights)],
    }


def dg_algebra_from_payload(payload, path="payload") -> DGQuiverAlgebra:
    q = quiver_from_payload(_need(payload, "quiver", path, dict), path + ".quiver")
    arrows = {a.name: a for a in q.arrows}
    diff = []
    for k, rec in enumerate(_need(payload, "differential", path, list)):
        dpath = "%s.differential[%d]" % (path, k)
        name = _known(arrows, _need(rec, "arrow", dpath), "arrow",
                      dpath + ".arrow").name
        if any(name == seen for seen, _ in diff):
            raise DocumentError("differential of %r listed twice" % name, dpath)
        terms = []
        for m, t in enumerate(_need(rec, "value", dpath, list)):
            tpath = "%s.value[%d]" % (dpath, m)
            c = scalar_from_json(QQ, _need(t, "coeff", tpath), tpath + ".coeff")
            walk = _need(t, "path", tpath, list)
            if not walk:
                raise DocumentError("empty path", tpath + ".path")
            for x in walk:
                _known(arrows, x, "arrow", tpath + ".path")
            terms.append((c, tuple(walk)))
        diff.append((name, tuple(terms)))
    weights = []
    for k, rec in enumerate(_opt(payload, "weights", path, [], "list")):
        wpath = "%s.weights[%d]" % (path, k)
        name = _known(arrows, _need(rec, "arrow", wpath), "arrow",
                      wpath + ".arrow").name
        if any(name == seen for seen, _ in weights):
            raise DocumentError("weight of %r listed twice" % name, wpath)
        w = _need_int(rec, "weight", wpath)
        if w < 1:
            raise DocumentError("weight %d is not positive" % w, wpath + ".weight")
        weights.append((name, w))
    alg = DGQuiverAlgebra(quiver=q, differential=tuple(diff),
                          weights=tuple(weights))
    ok, failures = check_dg(alg)
    if not ok:
        reason, name, walk = failures[0]
        k = [rec[0] for rec in diff].index(name)
        raise DocumentError("%s in d(%s): %r" % (reason, name, walk),
                            "%s.differential[%d]" % (path, k))
    return alg


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
                         "output": [[lab, f.scalar_to_json(c)]
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
        "pairing": [[x, y, f.scalar_to_json(c)]
                    for (x, y), c in sorted(cat.pairing.items())],
    }
    if cat.weights:
        payload["weights"] = [[lab, w] for lab, w in sorted(cat.weights.items())]
    if cat.weight_cap is not None:
        payload["weight_cap"] = cat.weight_cap
    return payload


def category_from_payload(payload, path="payload") -> AInfCategory:
    f = field_from_json(_need(payload, "field", path), path + ".field")
    objects = _strings(_need(payload, "objects", path, list), path + ".objects")
    hom, labels = {}, set()
    for k, rec in enumerate(_need(payload, "hom", path, list)):
        hpath = "%s.hom[%d]" % (path, k)
        i, j = _need(rec, "src", hpath, str), _need(rec, "tgt", hpath, str)
        if i not in objects or j not in objects or (i, j) in hom:
            raise DocumentError("hom(%s, %s) is not a new pair of objects"
                                % (i, j), hpath)
        basis = []
        for m, ent in enumerate(_need(rec, "basis", hpath, list)):
            bpath = "%s.basis[%d]" % (hpath, m)
            if not (isinstance(ent, list) and len(ent) == 2
                    and type(ent[0]) is str) or ent[0] in labels:
                raise DocumentError("want [label, degree], a new label", bpath)
            basis.append((ent[0], _int(ent[1], "degree", bpath)))
            labels.add(ent[0])
        hom[(i, j)] = tuple(basis)
    weights = {}
    for k, ent in enumerate(_opt(payload, "weights", path, [], "list")):
        if not (isinstance(ent, list) and len(ent) == 2 and type(ent[1]) is int
                and type(ent[0]) is str and ent[0] in labels):
            raise DocumentError("want [label, weight], a declared label",
                                "%s.weights[%d]" % (path, k))
        weights[ent[0]] = ent[1]
    # info[label] = (src, tgt, shifted degree, weight)
    info = {lab: (i, j, deg - 1, weights.get(lab, 0))
            for (i, j), basis in hom.items() for lab, deg in basis}
    cap = (None if payload.get("weight_cap") is None
           else _need_int(payload, "weight_cap", path))
    ops, scalars = {}, {}   # scalars: scalar string -> field value
    for k, rec in enumerate(_need(payload, "ops", path, list)):
        opath = "%s.ops[%d]" % (path, k)
        n = _need_int(rec, "arity", opath)
        if n < 1 or n in ops:
            raise DocumentError("arity %d is not a new positive arity" % n,
                                opath + ".arity")
        ops[n] = table = {}
        try:
            for m, row in enumerate(_need(rec, "table", opath, list)):
                ins, ents = row["inputs"], row["output"]
                if type(ins) is not list or type(ents) is not list or len(ins) != n:
                    raise ValueError("want %d inputs and an output list" % n)
                # an unknown label is reported before a break in the chain
                tgt, sdeg, wsum, chain = None, 0, 0, True
                for x in ins:
                    z = info.get(x)
                    if z is None:
                        raise ValueError("unknown label %r" % (x,))
                    if tgt is None:
                        tgt = z[1]
                    elif z[1] != src:
                        chain = False
                    src, sdeg, wsum = z[0], sdeg + z[2], wsum + z[3]
                if not chain:
                    raise ValueError("inputs are not composable")
                if ents and cap is not None and wsum > cap:
                    raise ValueError("weight %d above cap %d" % (wsum, cap))
                # what every output must be, as in info
                want = (src, tgt, sdeg + 1, wsum)
                out = {}
                for ent in ents:
                    if type(ent) is not list or len(ent) != 2:
                        raise TypeError
                    lab, c = ent
                    z = info.get(lab)
                    if z != want:
                        raise ValueError(
                            "unknown label %r" % (lab,) if z is None else
                            "output %r has (src, tgt, shifted degree, weight) "
                            "%s, want %s" % (lab, z, want))
                    if type(c) is str:
                        if c not in scalars:
                            scalars[c] = f.scalar_from_json(c)
                        c = scalars[c]
                    else:
                        c = f.scalar_from_json(c)
                    if c == 0 or lab in out:
                        raise ValueError("output %r is zero or repeated" % lab)
                    out[lab] = c
                tup = tuple(ins)
                if tup in table:
                    raise ValueError("inputs %r listed twice" % (ins,))
                table[tup] = out
        except (KeyError, TypeError, ValueError) as e:
            raise DocumentError(str(e) if isinstance(e, ValueError) else
                                'want {"inputs": [label, ...], '
                                '"output": [[label, scalar], ...]}',
                                "%s.table[%d]" % (opath, m))
    units = {}
    for k, ent in enumerate(_opt(payload, "units", path, [], "list")):
        upath = "%s.units[%d]" % (path, k)
        if not (isinstance(ent, list) and len(ent) == 2):
            raise DocumentError("want [object, label]", upath)
        i, lab = ent
        if _known(info, lab, "label", upath)[:3] != (i, i, -1) or i in units:
            raise DocumentError("unit %s is not a new degree-0 element of "
                                "hom(%s, %s)" % (lab, i, i), upath)
        units[i] = lab
    pairing = {}
    for k, ent in enumerate(_opt(payload, "pairing", path, [], "list")):
        ppath = "%s.pairing[%d]" % (path, k)
        if not (isinstance(ent, list) and len(ent) == 3):
            raise DocumentError("want [x, y, scalar]", ppath)
        for lab in ent[:2]:
            _known(info, lab, "label", ppath)
        pairing[(ent[0], ent[1])] = scalar_from_json(f, ent[2], ppath)
    arity_cap = _need_int(payload, "arity_cap", path)
    if arity_cap < 1:
        raise DocumentError("arity cap %d is not positive" % arity_cap,
                            path + ".arity_cap")
    return AInfCategory(objects=objects, hom=hom, ops=ops, field=f,
                        arity_cap=arity_cap, units=units, pairing=pairing,
                        complete=_opt(payload, "complete", path, False, "boolean"),
                        weights=weights, weight_cap=cap)


# ---------------------------------------------------------------------------
# cyclic pairings (standalone documents)


def pairing_to_payload(pairing) -> dict:
    f = pairing.field
    return {"field": field_to_json(f),
            "entries": [[x, y, f.scalar_to_json(c)]
                        for (x, y), c in sorted(pairing.entries.items())]}


def pairing_from_payload(payload, path="payload"):
    f = field_from_json(_need(payload, "field", path), path + ".field")
    entries = {}
    for k, ent in enumerate(_need(payload, "entries", path, list)):
        epath = "%s.entries[%d]" % (path, k)
        if not (isinstance(ent, list) and len(ent) == 3
                and type(ent[0]) is str and type(ent[1]) is str):
            raise DocumentError("want [label, label, scalar]", epath)
        entries[(ent[0], ent[1])] = scalar_from_json(f, ent[2], epath)
    return CyclicPairing(field=f, entries=entries)


# ---------------------------------------------------------------------------
# matrix representations


def rep_to_payload(rep) -> dict:
    f = rep.field
    mats = []
    for name in sorted(rep.mats):
        m = rep.mats[name]
        mats.append({"arrow": name,
                     "entries": [[r, c, f.scalar_to_json(v)]
                                 for (r, c), v in sorted(m.entries.items())]})
    return {"field": field_to_json(f),
            "quiver": quiver_to_payload(rep.quiver),
            "dims": [[v, rep.d[v]] for v in rep.quiver.vertices],
            "mats": mats}


def rep_from_payload(payload, path="payload"):
    f = field_from_json(_need(payload, "field", path), path + ".field")
    q = quiver_from_payload(_need(payload, "quiver", path, dict), path + ".quiver")
    arrows = {a.name: a for a in q.arrows}
    d = {}
    for k, ent in enumerate(_need(payload, "dims", path, list)):
        dpath = "%s.dims[%d]" % (path, k)
        if not (isinstance(ent, list) and len(ent) == 2):
            raise DocumentError("want [vertex, dim]", dpath)
        dim = _int(ent[1], "dim", dpath)
        if dim < 0:
            raise DocumentError("dim %d is negative" % dim, dpath)
        if ent[0] not in q.vertices or ent[0] in d:
            raise DocumentError("%r is not a new vertex" % (ent[0],), dpath)
        d[ent[0]] = dim
    mats = {}
    for k, rec in enumerate(_need(payload, "mats", path, list)):
        mpath = "%s.mats[%d]" % (path, k)
        arrow = _known(arrows, _need(rec, "arrow", mpath), "arrow", mpath + ".arrow")
        if arrow.name in mats:
            raise DocumentError("matrix of %r listed twice" % arrow.name, mpath)
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
        mats[arrow.name] = m
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


BOGOMOLOV_KEYS = ("c2", "abs_c1", "constant")   # the (A, B, C) of HNQuery


def hn_query_to_payload(query: HNQuery) -> dict:
    bog = query.bogomolov
    return {"total": _poly_to_json(query.total),
            "bound": _poly_to_json(query.bound),
            "lattice": list(query.lattice),
            "bogomolov": None if bog is None else {
                key: QQ.scalar_to_json(x) for key, x in zip(BOGOMOLOV_KEYS, bog)}}


def hn_query_from_payload(payload, path="payload") -> HNQuery:
    total = _poly_from_json(_need(payload, "total", path), path + ".total")
    bound = _poly_from_json(_need(payload, "bound", path), path + ".bound")
    lattice = tuple(_int(x, "lattice entry", "%s.lattice[%d]" % (path, k))
                    for k, x in enumerate(_need(payload, "lattice", path, list)))
    bog = payload.get("bogomolov")
    if bog is not None:
        bpath = path + ".bogomolov"
        bog = tuple(scalar_from_json(QQ, _need(bog, key, bpath), bpath + "." + key)
                    for key in BOGOMOLOV_KEYS)
    return HNQuery(total=total, bound=bound, lattice=lattice, bogomolov=bog)


# ---------------------------------------------------------------------------
# top level


# kind -> (serializer, validating decoder)
_CODECS = {
    "quiver": (quiver_to_payload, quiver_from_payload),
    "dg_algebra": (dg_algebra_to_payload, dg_algebra_from_payload),
    "ainf_category": (category_to_payload, category_from_payload),
    "pairing": (pairing_to_payload, pairing_from_payload),
    "matrix_rep": (rep_to_payload, rep_from_payload),
    "hn_query": (hn_query_to_payload, hn_query_from_payload),
}


def to_document(kind: str, obj) -> dict:
    if kind not in _CODECS:
        raise DocumentError("cannot serialize kind %r" % kind, "document.kind")
    return wrap(kind, _CODECS[kind][0](obj))


def parse_document(doc):
    """Returns (kind, parsed object); reports contain their payload dict."""
    kind = _check_envelope(doc)
    if kind == "report":
        return kind, doc["payload"]
    return kind, _CODECS[kind][1](doc["payload"])


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
