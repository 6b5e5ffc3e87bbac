"""Outside-in tracing of the ainfty layers, installed from the benchmark.

`Tracer.install()` replaces each traced public callable by a wrapper in
every ainfty module namespace that binds it (so `from .sparse import
rank_kernel_image` in hochschild is wrapped too), and `remove()` puts the
originals back.  Nothing under src/ changes.  Spans (name, job, parent,
start, end; read from a CPU-time clock, like the job latencies) are kept
in memory and written out once, at the end of the run; counters are kept
at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from collections import Counter


def _nnz(args, kwargs):
    mat = args[0] if args else kwargs["mat"]
    return len(mat.entries)


def _file_size(args, kwargs):
    return os.path.getsize(args[0] if args else kwargs["path"])


# (module, attribute, span name, counters).  Counter entries are
# (counter name, where, fn): "args" counts fn(args, kwargs) before the
# call, "result" counts fn(result) after it.
SPANS = (
    ("sparse", "rank_kernel_image", "sparse.rank_kernel_image",
     (("sparse.rank_kernel_image.nnz_in", "args", _nnz),)),
    ("sparse", "rref", "sparse.rref", ()),
    ("sparse", "solve", "sparse.solve", ()),
    ("hochschild", "windowed_homology", "hochschild.windowed_homology", ()),
    ("hochschild", "hh0_dimension", "hochschild.hh0_dimension", ()),
    ("presentations", "bar_ext_category", "presentations.build", ()),
    ("presentations", "truncated_path_category", "presentations.build", ()),
    ("transfer", "minimal_model", "transfer.minimal_model", ()),
    ("ainf", "check_relations", "ainf.check_relations", ()),
    ("ainf", "check_functor", "ainf.check_functor", ()),
    ("ainf", "check_unitality", "ainf.check_unitality", ()),
    ("nccalc", "solve_cyclic_pairing", "nccalc.solve_cyclic_pairing", ()),
    ("nccalc", "certify_sigma_formality", "nccalc.certify_sigma_formality", ()),
    ("nccalc", "strictify_units", "nccalc.strictify_units", ()),
    ("localmodel", "verify_sigma", "localmodel.verify_sigma", ()),
    ("localmodel", "mc_presentation", "localmodel.mc_presentation", ()),
    ("localmodel", "euler_compare", "localmodel.euler_compare", ()),
    ("localmodel", "hn_enumerate", "localmodel.hn_enumerate",
     (("localmodel.hn_types", "result", len),)),
    ("localmodel", "check_hn_type", "localmodel.check_hn_type", ()),
    ("repmod", "semisimplify", "repmod.semisimplify", ()),
    ("repmod", "radical_filtration", "repmod.radical_filtration", ()),
    ("repmod", "semistable_bruteforce", "repmod.semistable_bruteforce", ()),
    ("repmod", "moment_map", "repmod.moment_map", ()),
    ("cli", "make_parser", "cli.make_parser", ()),
    ("docio", "load_document", "docio.load_document",
     (("docio.bytes_in", "args", _file_size),)),
    ("docio", "dumps_document", "docio.dump",
     (("docio.bytes_out", "result", len),)),
)

# Callables counted but not timed: called too often for a span each.
COUNTED = (
    ("hochschild", "hochschild_b", "hochschild.b_calls"),
)

# Generator functions: count the items they yield.
YIELDS = (
    ("repmod", "invariant_subspace_tuples", "repmod.subspace_tuples"),
)

# Bindings wrapped in one namespace only: the CLI's own b^2, B^2 and
# bB+Bb identity checks on sample chains.
LOCAL = (
    ("cli", "hochschild_b", "hochschild.identity_checks"),
    ("cli", "connes_B", "hochschild.identity_checks"),
)

ROOT = "cli.main"


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans = []          # [name, job, parent index, start, end]
        self.counts = Counter()
        self._stack = []
        self._job = None
        self._patched = []       # (module, attribute, previous value)

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self._job, parent, self.clock(), None])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][4] = self.clock()

    @contextlib.contextmanager
    def job(self, key):
        """The root span of one CLI job."""
        self._job = key
        self._open(ROOT)
        try:
            yield
        finally:
            self._close()
            self._job = None

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name, counters=()):
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            for counter, where, measure in counters:
                if where == "args":
                    self.counts[counter] += measure(args, kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            for counter, where, measure in counters:
                if where == "result":
                    self.counts[counter] += measure(result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yield_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[name] += 1
                yield item

        return wrapper

    def _set(self, module, attr, value):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        """Wrap every traced callable in every ainfty namespace binding it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        import ainfty.cli  # noqa: F401  (loads every traced module)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "ainfty" or n.startswith("ainfty.")) and m is not None]

        def everywhere(mod, attr, make):
            orig = getattr(sys.modules["ainfty." + mod], attr)
            wrapped = make(orig)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, name, wrapped)

        for mod, attr, name, counters in SPANS:
            everywhere(mod, attr, lambda fn, n=name, c=counters:
                       self._span_wrapper(fn, n, c))
        for mod, attr, name in COUNTED:
            everywhere(mod, attr, lambda fn, n=name: self._count_wrapper(fn, n))
        for mod, attr, name in YIELDS:
            everywhere(mod, attr, lambda fn, n=name: self._yield_wrapper(fn, n))
        for mod, attr, name in LOCAL:
            module = sys.modules["ainfty." + mod]
            self._set(module, attr, self._span_wrapper(getattr(module, attr), name))

    def remove(self):
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    # -- results -------------------------------------------------------------

    def self_times(self):
        """(span name -> summed self time in seconds, root time, time of
        the roots' direct children)."""
        child = [0.0] * len(self.spans)
        for name, _job, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        selfs = Counter()
        root_total = covered = 0.0
        for i, (name, _job, parent, start, end) in enumerate(self.spans):
            selfs[name] += (end - start) - child[i]
            if parent is None:
                root_total += end - start
                covered += child[i]
        return selfs, root_total, covered

    def write(self, path):
        """One JSON line per span: name, job, parent index, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, job, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "job": job,
                                     "parent": parent, "start": start,
                                     "end": end}) + "\n")


def span_names():
    return sorted({name for _, _, name, _ in SPANS} | {name for *_, name in LOCAL})
