"""Command-line workbench over the interchange documents.

Every subcommand reads documents, runs one pipeline stage, and emits a
single report document {verdict, witnesses, truncation, timings, payload}.
Exit codes: 0 the checked property holds, 1 it fails (witnesses included),
2 the input is invalid, 3 the truncation window cannot certify the request.
Timings are null unless --timings is given, so reports are byte-stable for
fixed inputs and flags.  `batch` runs one subcommand on every document of a
directory and writes one structured report per document, <stem>.report.json;
it takes neither --report nor --output, and the report it writes for a file
equals the single run's structured report on that file with the same
flags.  Each subcommand is declared once, in HANDLERS; run_one does what
they all share.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import docio, repmod
from .ainf import StructureError, check_functor, check_relations, check_unitality
from .docio import DocumentError
from .field import FieldError, QQ
from .hochschild import (HochschildChainWindow, HochschildError, connes_B,
                         hochschild_b, windowed_homology)
from .localmodel import (LocalModelError, euler_compare, ext_quiver_halve,
                         hn_enumerate, mc_presentation, monic_equations,
                         poly_str, verify_sigma)
from .nccalc import (NCError, OrderCapError, certify_sigma_formality,
                     make_pairing, solve_cyclic_pairing, strictify_units)
from .presentations import bar_ext_category, truncated_path_category
from .quiver import DGQuiverAlgebra, Quiver, derived_preprojective
from .sparse import add_into
from .transfer import hom_dims, minimal_model

EXIT = {"pass": 0, "fail": 1, "error": 2, "truncated": 3}
# batch exits with the gravest per-file code: error > fail > truncated > pass
SEVERITY = {EXIT["pass"]: 0, EXIT["truncated"]: 1, EXIT["fail"]: 2, EXIT["error"]: 3}


class CliError(Exception):
    """Input-level problem that is not a schema violation."""


def _relation_witnesses(f, witnesses):
    out = []
    for arity, tup, lab, residual in witnesses:
        out.append({"arity": arity, "inputs": list(tup), "output": lab,
                    "residual": f.scalar_to_json(residual)})
    return out


def _relation_verdict(ok, truncated_arities):
    """fail on any witness; truncated when every checked arity holds but
    some arity was left unchecked; pass otherwise."""
    if not ok:
        return "fail"
    return "truncated" if truncated_arities else "pass"


def _ext_dims(cat):
    return [{"src": i, "tgt": j,
             "dims": [list(d) for d in sorted(dims.items())]}
            for (i, j), dims in sorted(hom_dims(cat).items())]


def _parse_dims(text, objects):
    """--dims: one nonnegative integer per object, in object order."""
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError("--dims wants a comma-separated integer list, got %r" % text)
    if len(dims) != len(objects) or min(dims) < 0:
        raise CliError("--dims wants one nonnegative integer per object, "
                       "%d in all, got %r" % (len(objects), text))
    return dims


def _parse_zeta(text, vertices):
    """--zeta: one rational per vertex, in vertex order, as {vertex: value}."""
    try:
        values = [Fraction(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise CliError("--zeta wants comma-separated rationals, got %r" % text)
    if len(values) != len(vertices):
        raise repmod.RepError("stability parameter length mismatch")
    return dict(zip(vertices, values))


def _require_field(args, field):
    """--field, when given, must name the field the job computes over."""
    if (args.field is not None
            and docio.field_from_json(args.field, "flags.field") != field):
        raise CliError("--field %s, but the document is over %s"
                       % (args.field, docio.field_to_json(field)))


def _reduce_if_requested(rep, args):
    """--field, when given, names the document's field or a prime field
    that a rational document is reduced to."""
    if args.field is None:
        return rep, None
    f = docio.field_from_json(args.field, "flags.field")
    if rep.field.p != 0 or f.p == 0:
        # only a rational document moves, and only to a prime field
        _require_field(args, rep.field)
        return rep, None
    reduced, reason = repmod.good_reduction(rep, f.p)
    if reduced is None:
        raise CliError("bad reduction mod %d: %s" % (f.p, reason))
    return reduced, "reduced mod %d" % f.p


def _load(path, *kinds):
    kind, obj = docio.load_document(path)
    if kind not in kinds:
        raise CliError("%s: got a %r document, want %s"
                       % (path, kind, " or ".join(repr(k) for k in kinds)))
    return obj


def _nc_verdict(e):
    """An NCError of strictification or formality: a cap too small for the
    potential is truncated (the truncation names the cap), any other fails."""
    if isinstance(e, OrderCapError):
        return "truncated", [{"reason": str(e)}], {"order_cap": e.order_cap}, {}
    return "fail", [{"reason": str(e)}], {}, {}


# ---------------------------------------------------------------------------
# subcommand bodies: each takes the flags and the loaded document and
# returns (verdict, witnesses, truncation, payload)


def cmd_check_ainf(args, cat):
    rel = check_relations(cat, max_arity=args.order_cap)
    witnesses = _relation_witnesses(cat.field, rel.witnesses)
    payload = {"checked_arities": list(rel.checked),
               "units": None}
    if cat.units:
        # check_relations has decided the strict unit laws: only units
        # that break them need check_unitality's other verdicts
        payload["units"] = ("strict" if rel.units_strict
                            else check_unitality(cat))
    truncation = {"arities": list(rel.truncated)}
    return (_relation_verdict(rel.ok, truncation["arities"]), witnesses,
            truncation, payload)


def cmd_minimal_model(args, cat):
    model, incl, _ = minimal_model(cat, arity_cap=args.order_cap)
    rel = check_relations(model, max_arity=args.order_cap)
    fun = check_functor(incl, max_arity=args.order_cap)
    witnesses = _relation_witnesses(model.field, rel.witnesses)
    if not fun.ok:
        witnesses.append({"functor": _relation_witnesses(model.field,
                                                         fun.witnesses[:4])})
    payload = {"model": docio.to_document("ainf_category", model),
               "ext_dims": _ext_dims(model)}
    truncation = {"arities": sorted(set(rel.truncated) | set(fun.truncated))}
    verdict = _relation_verdict(rel.ok and fun.ok, truncation["arities"])
    return verdict, witnesses, truncation, payload


def _pairing_for(args, cat):
    """The --pairing document, else the category's stored pairing, each
    checked by make_pairing; else a solved one."""
    if args.pairing:
        doc = _load(args.pairing, "pairing")
        if doc.field != cat.field:
            raise CliError("pairing document is over %s, the category over %s"
                           % (docio.field_to_json(doc.field),
                              docio.field_to_json(cat.field)))
        unknown = sorted({x for key in doc.entries for x in key
                          if not cat.has_label(x)})
        if unknown:
            raise CliError("pairing document names labels the category "
                           "lacks: %s" % ", ".join(unknown))
        entries = doc.entries
    elif cat.pairing:
        entries = cat.pairing
    else:
        return solve_cyclic_pairing(cat)
    return make_pairing(cat, entries)


def cmd_strictify(args, cat):
    try:
        pairing = _pairing_for(args, cat)
        if not check_relations(cat).ok:
            raise NCError("input fails check_relations")
        strict, iso, rep = strictify_units(cat, pairing, order_cap=args.order_cap)
    except NCError as e:
        return _nc_verdict(e)
    fun = check_functor(iso, max_arity=args.order_cap)
    units = check_unitality(strict)
    payload = {"category": docio.to_document("ainf_category", strict),
               "processed_orders": list(rep.processed_orders),
               "omega_preserved": bool(rep.omega_preserved),
               "identity": bool(rep.identity),
               "units": units}
    witnesses = []
    ok = rep.omega_preserved and fun.ok and units == "strict"
    if not ok:
        witnesses.append({"functor_ok": fun.ok, "units": units,
                          "omega_preserved": rep.omega_preserved})
    return ("pass" if ok else "fail"), witnesses, {"arities": list(fun.truncated)}, payload


def _minimal_category_from(obj, args):
    """quiver documents run the bar pipeline; category documents are used
    as given (minimized first when they carry a differential)."""
    if isinstance(obj, Quiver):
        try:
            dg = derived_preprojective(obj)
        except ValueError as e:
            # a quiver that cannot be doubled: an arrow of nonzero degree,
            # or a name that ends in the star
            raise CliError(str(e))
        obj = bar_ext_category(dg, weight_cap=2, arity_cap=args.order_cap)
    elif not obj.op_table(1):
        return obj
    return minimal_model(obj, arity_cap=args.order_cap)[0]


def cmd_formality(args, obj):
    cat = _minimal_category_from(obj, args)
    try:
        pairing = _pairing_for(args, cat)
    except NCError as e:
        return "fail", [{"reason": "no cyclic pairing: %s" % e}], {}, {}
    try:
        cert = certify_sigma_formality(cat, pairing)
    except NCError as e:
        return _nc_verdict(e)
    payload = {"certificate": {
        "ok": cert.ok,
        "profile": [[obj_, g] for obj_, g in sorted(cert.profile.items())],
        "checks": [[name, bool(ok), str(detail)] for name, ok, detail in cert.checks],
        "conclusion": cert.conclusion,
    }}
    if cert.ok:
        payload["category"] = docio.to_document("ainf_category", cert.category)
    witnesses = [] if cert.ok else [
        {"check": name, "detail": str(detail)}
        for name, ok, detail in cert.checks if not ok]
    return ("pass" if cert.ok else "fail"), witnesses, {}, payload


def _identity_witnesses(window):
    """Chains of the window on which b^2, B^2 or bB+Bb is nonzero; every
    chain is checked.  b and B of a chain are taken once each;
    hochschild_b and connes_B apply b and B to them as sums of the
    columns the window keeps."""
    f, top, witnesses = window.cat.field, window.max_length, []
    one = f.one()
    for n in range(1, top + 1):
        for tup in window.basis(n):
            c = {tup: one}
            b = hochschild_b(window, c)
            # b and B vanish on 0: applied only to nonzero chains
            if b and hochschild_b(window, b):
                witnesses.append({"identity": "b^2", "chain": list(tup)})
            if n + 1 <= top:
                B = connes_B(window, c)
                if n + 2 <= top and B and connes_B(window, B):
                    witnesses.append({"identity": "B^2", "chain": list(tup)})
                anti = hochschild_b(window, B) if B else {}
                if b:
                    for k, v in connes_B(window, b).items():
                        add_into(f, anti, k, v)
                if anti:
                    witnesses.append({"identity": "bB+Bb", "chain": list(tup)})
    return witnesses


def cmd_hochschild(args, obj):
    if isinstance(obj, Quiver):
        obj = DGQuiverAlgebra(obj, (), ())
    cat = (truncated_path_category(obj, weight_cap=2)
           if isinstance(obj, DGQuiverAlgebra) else obj)
    window = HochschildChainWindow(cat, args.window)
    hom = windowed_homology(window, length_margin=1)
    witnesses = _identity_witnesses(window)
    payload = {"hh0": hom.by_degree.get(0, 0),  # what hh0_dimension(window) returns
               "window": args.window,
               "homology": [[list(key), dim] for key, dim in sorted(hom.dims.items())]}
    truncation = {"stable": bool(hom.stable)}
    if args.window < 3:
        return "truncated", witnesses, truncation, payload
    return ("pass" if not witnesses else "fail"), witnesses, truncation, payload


def cmd_semisimplify(args, rep):
    ss, layer_dims, idem = repmod.semisimplify(rep)
    dims_ok = ss.d == rep.d
    payload = {"rep": docio.to_document("matrix_rep", ss),
               "layer_dims": layer_dims}
    witnesses = []
    if not (idem and dims_ok):
        witnesses.append({"idempotent": idem, "dims_preserved": dims_ok})
    return ("pass" if not witnesses else "fail"), witnesses, {}, payload


def cmd_stability(args, rep):
    zeta = _parse_zeta(args.zeta, rep.quiver.vertices)
    report = repmod.semistable_bruteforce(rep, zeta)
    payload = {"stability": report.verdict,
               "slope": QQ.scalar_to_json(report.slope)}
    witnesses = []
    if report.verdict == "unstable":
        payload["destabilizer_dims"] = dict(sorted(report.destabilizer_dims.items()))
        bases = {}
        for v in rep.quiver.vertices:
            rows = report.destabilizer.get(v, ())
            bases[v] = [list(row) for row in rows]
        payload["destabilizer"] = bases
        sub_slope = repmod.slope(report.destabilizer_dims, zeta)
        witnesses.append({"destabilizer_dims": dict(sorted(report.destabilizer_dims.items())),
                          "slope": QQ.scalar_to_json(sub_slope)})
    verdict = "pass" if report.verdict in ("stable", "semistable") else "fail"
    return verdict, witnesses, {}, payload


def cmd_moment_check(args, rep):
    residuals = repmod.moment_map(rep)
    f = rep.field
    witnesses = []
    for v in rep.quiver.vertices:
        m = residuals.get(v)
        if m is not None and not m.is_zero():
            witnesses.append({"vertex": v,
                              "residual": [[r, c, f.scalar_to_json(val)]
                                           for (r, c), val in sorted(m.entries.items())]})
    payload = {"vertices_checked": list(rep.quiver.vertices)}
    return ("pass" if not witnesses else "fail"), witnesses, {}, payload


def _equations_payload(pres):
    eqs = []
    for eq in monic_equations(pres):
        rows = [[poly_str(poly, pres.field) for poly in row] for row in eq.matrix]
        eqs.append({"label": eq.label, "src": eq.pair[0], "tgt": eq.pair[1],
                    "matrix": rows})
    return eqs


def _sigma_start(args, cat):
    """The start local-model and euler-compare share: --dims, the sigma
    certificate and its halved Ext quiver, and the fail result (profile
    witnesses, no quiver) when the certificate fails, else None."""
    dims = _parse_dims(args.dims, cat.objects)
    cert = verify_sigma(cat)
    if not cert.verdict:
        return dims, cert, None, (
            "fail", [{"profile": msg} for msg in cert.failures], {}, {})
    return dims, cert, ext_quiver_halve(cert), None


def cmd_local_model(args, cat):
    dims, cert, q, failed = _sigma_start(args, cat)
    if failed:
        return failed
    supplied = args.pairing or cat.pairing
    fcert = None
    # strictification needs characteristic zero: over GF(p) a stored or
    # supplied pairing is only checked, and none is solved
    if supplied or not cat.field.p:
        try:
            pairing = _pairing_for(args, cat)
            if not cat.field.p:
                fcert = certify_sigma_formality(cat, pairing)
        except NCError as e:
            # only a solved pairing may be missing; a supplied one must hold
            if supplied:
                return "fail", [{"reason": str(e)}], {}, {}
    if fcert is not None and not fcert.ok:
        fcert = None
    work = fcert.category if fcert else cat
    try:
        pres = mc_presentation(work, dims, certificate=fcert,
                               arity_cap=args.order_cap)
        euler = euler_compare(q, dims, work)
    except LocalModelError as e:
        return "fail", [{"reason": str(e)}], {}, {}
    payload = {"quiver": docio.to_document("quiver", q),
               "genus": [[obj, g] for obj, g in sorted(cert.genus.items())],
               "block_sizes": [[obj, pres.block_sizes[obj]]
                               for obj in pres.objects],
               "coordinates": [list(v) for v in pres.coordinates],
               "equations": _equations_payload(pres),
               "exactness": pres.exactness,
               "euler": {"lhs": euler.lhs, "rhs": euler.rhs,
                         "by_degree": [list(x) for x in euler.by_degree]}}
    truncation = {"exact": pres.exactness == "exact"}
    if pres.exactness != "exact":
        return "truncated", [], truncation, payload
    return "pass", [], truncation, payload


def cmd_euler_compare(args, cat):
    dims, _, q, failed = _sigma_start(args, cat)
    if failed:
        return failed
    try:
        rep = euler_compare(q, dims, cat)
    except LocalModelError as e:
        return "fail", [{"reason": str(e)}], {}, {}
    payload = {"lhs": rep.lhs, "rhs": rep.rhs,
               "by_degree": [list(x) for x in rep.by_degree],
               "quiver": docio.to_document("quiver", q)}
    return "pass", [], {}, payload


def cmd_hn_enum(args, query):
    try:
        types = hn_enumerate(query.total, query.bound,
                             bogomolov_param=query.bogomolov_param(),
                             lattice=query.lattice)
    except LocalModelError as e:
        raise CliError(str(e))
    # hn_enumerate has re-verified every type (first_failing_hn_type) and
    # raises on a failure
    payload = {"count": len(types),
               "types": [[docio._poly_to_json(p) for p in t]
                         for t in types],
               "reverified": True}
    return "pass", [], {}, payload


@dataclass(frozen=True)
class Subcommand:
    handler: object       # (args, document object) -> report parts
    kinds: tuple          # the document kinds it reads
    flags: tuple = ()     # its extra flags, keys of FLAGS
    reduces: bool = False  # --field may reduce a rational representation
    rational: bool = False  # it computes over the rationals only


# the extra flags, each with its argparse keywords
FLAGS = {
    "dims": {"required": True,
             "help": "comma-separated multiplicities, object order"},
    "zeta": {"required": True,
             "help": "comma-separated rationals, vertex order"},
    "window": {"type": int, "default": 3,
               "help": "chain length window (default 3)"},
    "pairing": {"default": None, "help": "pairing document path"},
}

CATEGORY = ("ainf_category",)
REP = ("matrix_rep",)
HANDLERS = {
    "check-ainf": Subcommand(cmd_check_ainf, CATEGORY),
    "minimal-model": Subcommand(cmd_minimal_model, CATEGORY),
    "strictify": Subcommand(cmd_strictify, CATEGORY, ("pairing",),
                            rational=True),
    "formality": Subcommand(cmd_formality, ("quiver", "ainf_category"),
                            ("pairing",), rational=True),
    "hochschild": Subcommand(cmd_hochschild,
                             ("quiver", "dg_algebra", "ainf_category"),
                             ("window",)),
    "semisimplify": Subcommand(cmd_semisimplify, REP, reduces=True),
    "stability": Subcommand(cmd_stability, REP, ("zeta",), reduces=True),
    "moment-check": Subcommand(cmd_moment_check, REP),
    "local-model": Subcommand(cmd_local_model, CATEGORY, ("dims", "pairing")),
    "euler-compare": Subcommand(cmd_euler_compare, CATEGORY, ("dims",)),
    "hn-enum": Subcommand(cmd_hn_enum, ("hn_query",)),
}


# ---------------------------------------------------------------------------
# report assembly


def _flags_of(args, extra):
    """The common flags and those of extra that are set: a batch report
    records the flags its target takes, as the single run does."""
    # an unset --field is recorded as "QQ", as reports have always read
    flags = {"order_cap": args.order_cap, "field": args.field or "QQ",
             "seed": args.seed}
    for name in extra:
        if getattr(args, name) is not None:
            flags[name] = getattr(args, name)
    return flags


def build_report(subcommand, args, verdict, witnesses, truncation, payload,
                 wall_s=None):
    return docio.wrap("report", {
        "subcommand": subcommand,
        "flags": _flags_of(args, HANDLERS[subcommand].flags),
        "verdict": verdict,
        "witnesses": witnesses,
        "truncation": truncation,
        "timings": ({"wall_s": round(wall_s, 6)}
                    if args.timings and wall_s is not None else None),
        "result": payload,
    })


def render_text(report):
    p = report["payload"]
    lines = ["%s: %s" % (p["subcommand"], p["verdict"])]
    for w in p["witnesses"]:
        lines.append("witness: %s" % json.dumps(w, sort_keys=True))
    if p["truncation"]:
        lines.append("truncation: %s" % json.dumps(p["truncation"], sort_keys=True))
    for key in sorted(p["result"]):
        val = p["result"][key]
        if isinstance(val, (str, int, bool)) or val is None:
            lines.append("%s: %s" % (key, val))
    return "\n".join(lines) + "\n"


def run_one(subcommand, args, input_path):
    """What every subcommand does around its body: the --order-cap bound,
    the required flags (batch declares none required), loading the
    document, the field rule, and input errors of the CLI and of the
    library as exit 2."""
    spec = HANDLERS[subcommand]
    start = time.monotonic()
    try:
        if args.order_cap < 1:
            raise CliError("--order-cap must be at least 1, got %d" % args.order_cap)
        for name in spec.flags:
            if getattr(args, name) is None and FLAGS[name].get("required"):
                raise CliError("%s needs --%s" % (subcommand, name))
        obj = _load(input_path, *spec.kinds)
        if spec.reduces:
            obj, note = _reduce_if_requested(obj, args)
        else:
            # quivers, dg algebras and HN queries are over the rationals
            field = getattr(obj, "field", QQ)
            _require_field(args, field)
            if spec.rational and field.p:
                raise CliError("%s runs over the rationals; the document is "
                               "over %s" % (subcommand,
                                            docio.field_to_json(field)))
        verdict, witnesses, truncation, payload = spec.handler(args, obj)
        if spec.reduces:
            payload["note"] = note
    except (DocumentError, CliError, FieldError, StructureError,
            HochschildError, repmod.RepError) as e:
        verdict = "error"
        witnesses = [{"error": str(e)}]
        truncation, payload = {}, {}
    wall = time.monotonic() - start
    report = build_report(subcommand, args, verdict, witnesses, truncation,
                          payload, wall_s=wall)
    return EXIT[verdict], report


def _write_report(path, text):
    """Write a report file; False, with the reason on stderr, when the
    operating system refuses."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        sys.stderr.write("ainfty: cannot write report %s: %s\n"
                         % (path, e.strerror or e))
        return False
    return True


def emit(report, args):
    """A single run's report in the --output form, to --report or stdout;
    False when the --report file cannot be written."""
    text = (docio.dumps_document(report) if args.output == "structured"
            else render_text(report))
    if args.report:
        return _write_report(args.report, text)
    sys.stdout.write(text)
    return True


# ---------------------------------------------------------------------------
# argument parsing


def make_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--order-cap", type=int, default=6,
                        help="arity/order truncation cap (default 6)")
    common.add_argument("--field", default=None,
                        help='scalar field: "QQ" or "fp:P" (default: the '
                             "document's)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed, only recorded in the report")
    common.add_argument("--timings", action="store_true",
                        help="include wall-clock timings (breaks byte-stability)")
    # a single run writes one report; batch writes one structured report
    # per input and takes neither flag
    single = argparse.ArgumentParser(add_help=False, parents=[common])
    single.add_argument("--output", choices=("structured", "text"),
                        default="structured")
    single.add_argument("--report", default=None,
                        help="write the report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="ainfty",
        description="exact-arithmetic workbench for minimal models, "
                    "potentials, quiver moment maps and HN types")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, spec in HANDLERS.items():
        p = sub.add_parser(name, parents=[single])
        p.add_argument("input", help="input document (JSON)")
        for flag in spec.flags:
            p.add_argument("--" + flag, **FLAGS[flag])

    # no abbreviations: --report would otherwise be read as --report-dir
    batch = sub.add_parser("batch", parents=[common], allow_abbrev=False)
    batch.add_argument("target", choices=sorted(HANDLERS),
                       help="subcommand to run on every file")
    batch.add_argument("directory", help="directory of input documents")
    batch.add_argument("--report-dir", default=None,
                       help="where to write per-file reports (default: alongside inputs)")
    # every flag once; run_one asks each target for the ones it requires
    for flag, kwargs in FLAGS.items():
        batch.add_argument("--" + flag, **dict(kwargs, required=False))
    return parser


def run_batch(args):
    directory = Path(args.directory)
    if not directory.is_dir():
        sys.stderr.write("ainfty: %s is not a directory\n" % directory)
        return 2
    out_dir = Path(args.report_dir) if args.report_dir else directory
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        sys.stderr.write("ainfty: cannot write reports to %s: %s\n"
                         % (out_dir, e.strerror or e))
        return EXIT["error"]
    worst = 0
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".report.json"):
            continue
        code, report = run_one(args.target, args, str(path))
        if not _write_report(out_dir / (path.stem + ".report.json"),
                             docio.dumps_document(report)):
            return EXIT["error"]
        worst = max(worst, code, key=SEVERITY.__getitem__)
    return worst


@functools.cache
def _parser():
    """make_parser's parser, built once per process: parsing reads it and
    never changes it."""
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.subcommand == "batch":
        return run_batch(args)
    code, report = run_one(args.subcommand, args, args.input)
    return code if emit(report, args) else EXIT["error"]


if __name__ == "__main__":
    raise SystemExit(main())
