"""Deterministic input documents and job lists for the benchmark workloads.

A job is one CLI invocation: a subcommand, its flags and one input
document.  Each workload has a finite universe of jobs, every one with a
stable key; `select(workload, seed)` draws the seed's pass from it (a
sample and an order), so a reference outcome can be stored for every job
that any seed can produce.  Documents are written as the CLI reads them;
the bar and path categories are built with the package's own
constructors from hand-written quivers, everything else is written here
directly from seeded random numbers.  `write_documents` returns each
document's sha256, which the benchmark checks against the recorded ones,
so every commit measured runs on the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("minimal_models", "hochschild", "moduli")

# The document envelope every input carries (see ainfty.docio).
_ENVELOPE = {"version": 1,
             "conventions": {"composition": "operator_order",
                             "differential_degree": 1,
                             "tables": "shifted_b"}}

_LOOPS = {"jordan": ["a"], "two_loop": ["a", "b"], "three_loop": ["a", "b", "c"]}


@dataclass(frozen=True)
class Job:
    key: str          # stable name; indexes the reference outcomes
    doc: str          # document name, resolved to a file in the work dir
    argv: tuple       # CLI arguments before the input path

    def cli_args(self, doc_dir) -> list:
        return [*self.argv, str(Path(doc_dir) / self.doc)]


def _wrap(kind, payload):
    return dict(_ENVELOPE, kind=kind, payload=payload)


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# quivers, written by hand


def _quiver_payload(name):
    if name in _LOOPS:
        return {"vertices": ["1"],
                "arrows": [{"name": a, "src": "1", "tgt": "1", "degree": 0}
                           for a in _LOOPS[name]]}
    if name == "a2":
        return {"vertices": ["1", "2"],
                "arrows": [{"name": "a", "src": "1", "tgt": "2", "degree": 0}]}
    if name == "a3":
        return {"vertices": ["1", "2", "3"],
                "arrows": [{"name": "a", "src": "1", "tgt": "2", "degree": 0},
                           {"name": "b", "src": "2", "tgt": "3", "degree": 0}]}
    raise KeyError(name)


def _doubled(name):
    """Vertices and arrows (name, src, tgt) of the doubled quiver."""
    q = _quiver_payload(name)
    arrows = [(a["name"], a["src"], a["tgt"]) for a in q["arrows"]]
    arrows += [(n + "*", t, s) for n, s, t in arrows]
    return q["vertices"], arrows


# ---------------------------------------------------------------------------
# documents built with the package's constructors (imported on first use,
# once the caller has put the checkout's src/ on sys.path)


def _dg_algebra(name):
    from ainfty import docio, quiver
    return quiver.derived_preprojective(docio.quiver_from_payload(_quiver_payload(name)))


def _bar_category_doc(name, cap):
    from ainfty import docio, presentations
    cat = presentations.bar_ext_category(_dg_algebra(name), weight_cap=cap)
    return docio.to_document("ainf_category", cat)


def _minimal_model_doc(name, cap):
    from ainfty import docio, presentations, transfer
    cat = presentations.bar_ext_category(_dg_algebra(name), weight_cap=cap)
    model, _, _ = transfer.minimal_model(cat)
    return docio.to_document("ainf_category", model)


def _path_category_doc(name, cap):
    from ainfty import docio, presentations
    cat = presentations.truncated_path_category(_dg_algebra(name), weight_cap=cap)
    return docio.to_document("ainf_category", cat)


def _dg_algebra_doc(name):
    from ainfty import docio
    return docio.to_document("dg_algebra", _dg_algebra(name))


# ---------------------------------------------------------------------------
# documents written from seeded random numbers


def _rational(rng, bound=5):
    return str(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)))


# Doubled quiver and dimension vector of pool entry k: _REP_SHAPES[k % 11].
_REP_SHAPES = (("jordan", (2,)), ("jordan", (3,)), ("jordan", (4,)),
               ("a2", (1, 2)), ("a2", (2, 2)), ("a2", (3, 3)),
               ("two_loop", (2,)), ("two_loop", (3,)),
               ("a3", (1, 1, 1)), ("a3", (1, 2, 1)), ("a3", (2, 2, 2)))


def _rep_doc(index, prime):
    """A representation of a doubled quiver, entries dense with
    probability 0.7; over QQ small rationals, over GF(p) residues."""
    rng = random.Random(7919 * index + prime)
    name, dims = _REP_SHAPES[index % len(_REP_SHAPES)]
    vertices, arrows = _doubled(name)
    d = dict(zip(vertices, dims))
    mats = []
    for arrow, s, t in sorted(arrows):
        entries = []
        for r in range(d[t]):
            for c in range(d[s]):
                if rng.random() < 0.7:
                    if prime:
                        val = rng.randrange(1, prime)
                        entries.append([r, c, {"mod": prime, "val": val}])
                    else:
                        val = _rational(rng)
                        if val != "0":
                            entries.append([r, c, val])
        mats.append({"arrow": arrow, "entries": entries})
    payload = {"field": "fp:%d" % prime if prime else "QQ",
               "quiver": {"vertices": list(vertices),
                          "arrows": [{"name": n, "src": s, "tgt": t, "degree": 0}
                                     for n, s, t in arrows]},
               "dims": [[v, d[v]] for v in vertices],
               "mats": mats}
    return _wrap("matrix_rep", payload)


def _zeta(index):
    vertices, _ = _doubled(_REP_SHAPES[index % len(_REP_SHAPES)][0])
    rng = random.Random(104729 + index)
    return ",".join(str(rng.randint(-3, 3)) for _ in vertices)


def _sigma_doc(index):
    """A category with the Ext profile of spherical curve classes:
    (1, 2g, 1) on the diagonal, symmetric Ext^1 off it.  Only hom spaces
    are given; verify_sigma and euler_compare read nothing else."""
    rng = random.Random(15485863 + index)
    objects = [str(k + 1) for k in range(rng.randint(1, 3))]
    hom = []
    for i in objects:
        for j in objects:
            basis = []
            if i == j:
                basis.append(["e%s" % i, 0])
                basis += [["x%s_%d" % (i, k), 1] for k in range(2 * rng.randint(0, 2))]
                basis.append(["w%s" % i, 2])
            hom.append({"src": i, "tgt": j, "basis": basis})
    for a, i in enumerate(objects):
        for j in objects[a + 1:]:
            m = rng.randint(0, 3)
            for rec in hom:
                if (rec["src"], rec["tgt"]) in ((i, j), (j, i)):
                    rec["basis"] = [["y%s%s_%d" % (rec["src"], rec["tgt"], k), 1]
                                    for k in range(m)]
    payload = {"field": "QQ", "objects": objects, "hom": hom, "ops": [],
               "arity_cap": 6, "complete": False, "units": [], "pairing": []}
    dims = ",".join(str(rng.randint(1, 3)) for _ in objects)
    return _wrap("ainf_category", payload), dims


def _q(*coeffs):
    return [str(Fraction(c)) for c in coeffs]


# Hilbert polynomial queries, constant term first; degree 2 queries carry
# the bound c0 >= -3 c2 - |c1|.
_HN_QUERIES = (
    (_q(0, 2), _q(-1, 1), [1, 1], None),
    (_q(1, 3), _q(-2, 1), [1, 1], None),
    (_q(0, 4), _q(-1, 1), [1, 1], None),
    (_q(2, 2), _q("3/4", 1), [4, 1], None),
    (_q(-1, 3), _q(-1, 1), [1, 1], None),
    (_q(1, 0, 2), _q(-2, -1, "1/2"), [1, 1, 1], True),
    (_q(2, 2, 2), _q(-1, 0, "1/2"), [1, 1, 1], True),
    (_q(1, 1, 2), _q("-3/2", "-1/2", "1/2"), [2, 2, 1], True),
    (_q(0, 6), _q(-1, 1), [1, 1], None),
    (_q(0, 6), _q(-1, 1), [2, 1], None),
    (_q(1, 0, 3), _q(-2, -1, "1/2"), [1, 1, 1], True),
    (_q(2, 2, 3), _q(-1, 0, "1/2"), [1, 1, 1], True),
)


def _hn_doc(index):
    total, bound, lattice, bog = _HN_QUERIES[index]
    payload = {"total": total, "bound": bound, "lattice": lattice,
               "bogomolov": ({"c2": "-3", "abs_c1": "-1", "constant": "0"}
                             if bog else None)}
    return _wrap("hn_query", payload)


# ---------------------------------------------------------------------------
# job lists

REP_POOL = 24 * len(_REP_SHAPES)   # QQ: semisimplify and moment-check
FP_POOL = 24 * len(_REP_SHAPES)    # GF(3): stability
SIGMA_POOL = 120                   # Ext profiles: euler-compare

_BAR = (("jordan", 2), ("jordan", 3), ("jordan", 4), ("a2", 2), ("a2", 3),
        ("a2", 4), ("two_loop", 2), ("two_loop", 3), ("two_loop", 4),
        ("three_loop", 2), ("three_loop", 3))

# One small job from each other workload, so that every traced layer runs
# on every workload (a bypassed layer reads near zero, not exactly zero).
_PROBES = {
    "minimal_models": ("hh/quiver-a2/w2", "mo/hn-0/hn-enum",
                       "mo/rep-qq-000/semisimplify", "mo/rep-qq-000/moment-check",
                       "mo/rep-f3-000/stability"),
    "hochschild": ("mm/jordan-c2/minimal-model", "mm/jordan-min/local-model",
                   "mo/hn-0/hn-enum", "mo/rep-qq-000/semisimplify",
                   "mo/rep-qq-000/moment-check", "mo/rep-f3-000/stability"),
    "moduli": ("hh/quiver-a2/w2", "mm/jordan-c2/minimal-model",
               "mm/jordan-min/local-model"),
}


def _document(name):
    """Build the document a job names: <family>-<parameters>.json."""
    family, _, rest = name[:-len(".json")].partition("-")
    if family in ("bar", "min", "path"):
        quiver, cap = rest.rsplit("-c", 1)
        build = {"bar": _bar_category_doc, "min": _minimal_model_doc,
                 "path": _path_category_doc}[family]
        return build(quiver, int(cap))
    if family == "quiver":
        return _wrap("quiver", _quiver_payload(rest))
    if family == "dga":
        return _dg_algebra_doc(rest)
    if family == "rep":
        field, index = rest.split("-")
        return _rep_doc(int(index), {"qq": 0, "f3": 3}[field])
    if family == "sigma":
        return _sigma_doc(int(rest))[0]
    if family == "hn":
        return _hn_doc(int(rest))
    raise KeyError(name)


def _own_jobs(workload):
    jobs = []
    if workload == "minimal_models":
        for name, cap in _BAR:
            doc = "bar-%s-c%d.json" % (name, cap)
            jobs.append(Job("mm/%s-c%d/minimal-model" % (name, cap), doc,
                            ("minimal-model",)))
            jobs.append(Job("mm/%s-c%d/check-ainf" % (name, cap), doc,
                            ("check-ainf",)))
        for name in ("jordan", "a2", "two_loop"):
            jobs.append(Job("mm/%s/formality" % name, "quiver-%s.json" % name,
                            ("formality",)))
        for name, dims in (("jordan", "2"), ("a2", "1,1")):
            doc = "min-%s-c2.json" % name
            jobs.append(Job("mm/%s-min/strictify" % name, doc, ("strictify",)))
            jobs.append(Job("mm/%s-min/local-model" % name, doc,
                            ("local-model", "--dims=" + dims)))
    elif workload == "hochschild":
        for window in (2, 3):
            for name in ("jordan", "a2", "two_loop"):
                jobs.append(Job("hh/quiver-%s/w%d" % (name, window),
                                "quiver-%s.json" % name,
                                ("hochschild", "--window=%d" % window)))
        for name in ("jordan", "a2", "two_loop"):
            jobs.append(Job("hh/dga-%s/w2" % name, "dga-%s.json" % name,
                            ("hochschild", "--window=2")))
        jobs.append(Job("hh/dga-a2/w3", "dga-a2.json", ("hochschild", "--window=3")))
        for name in ("jordan", "a2"):
            jobs.append(Job("hh/path-%s-c3/w2" % name, "path-%s-c3.json" % name,
                            ("hochschild", "--window=2")))
    elif workload == "moduli":
        for k in range(REP_POOL):
            doc = "rep-qq-%03d.json" % k
            jobs.append(Job("mo/%s/semisimplify" % doc[:-5], doc, ("semisimplify",)))
            jobs.append(Job("mo/%s/moment-check" % doc[:-5], doc, ("moment-check",)))
        for k in range(FP_POOL):
            doc = "rep-f3-%03d.json" % k
            jobs.append(Job("mo/%s/stability" % doc[:-5], doc,
                            ("stability", "--field=fp:3", "--zeta=" + _zeta(k))))
        for k in range(SIGMA_POOL):
            doc = "sigma-%03d.json" % k
            jobs.append(Job("mo/%s/euler-compare" % doc[:-5], doc,
                            ("euler-compare", "--dims=" + _sigma_doc(k)[1])))
        for k in range(len(_HN_QUERIES)):
            jobs.append(Job("mo/hn-%d/hn-enum" % k, "hn-%d.json" % k, ("hn-enum",)))
    else:
        raise KeyError(workload)
    return jobs


def _probes(workload):
    keys = _PROBES[workload]
    return [job for other in WORKLOADS if other != workload
            for job in _own_jobs(other) if job.key in keys]


def universe(workload):
    """Every job the workload can draw, in a fixed order."""
    return _own_jobs(workload) + _probes(workload)


def _per_shape(rng, pool, count):
    """count pool indices of every representation shape, so that each
    seed's pass has the same mix of sizes."""
    n = len(_REP_SHAPES)
    out = []
    for shape in range(n):
        out += rng.sample(range(shape, pool, n), count)
    return out


def select(workload, seed):
    """The seed's pass: every job of the fixed-size workloads, and a
    seeded sample of each moduli pool, in a seeded order."""
    rng = random.Random(seed)
    jobs = _own_jobs(workload)
    if workload == "moduli":
        groups = {}
        for job in jobs:
            groups.setdefault(job.argv[0], []).append(job)
        jobs = list(groups["hn-enum"])
        for k in _per_shape(rng, REP_POOL, 6):
            jobs += [groups["semisimplify"][k], groups["moment-check"][k]]
        jobs += [groups["stability"][k] for k in _per_shape(rng, FP_POOL, 5)]
        jobs += rng.sample(groups["euler-compare"], 24)
    jobs += _probes(workload)
    rng.shuffle(jobs)
    return jobs


def write_documents(jobs, out_dir):
    """Write every document the jobs read into out_dir; returns
    {document name: sha256 hex digest of its bytes}."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name in sorted({job.doc for job in jobs}):
        data = _dumps(_document(name)).encode("utf-8")
        (out / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests
