"""Benchmark of the ainfty CLI: verdict latency, throughput, set-up and memory.

Run from the root of a checkout:

    python3 perfbench/run.py --workload minimal_models|hochschild|moduli
                             --seed N --seconds S --trace 0|1

It generates the workload's input documents from the seed and refuses to
run when their bytes differ from those recorded in perfbench/reference.json.
It times a fresh interpreter's `import ainfty.cli` (set-up), then runs the
jobs in a worker process (perfbench/worker.py) and checks every report
against the reference.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import gen

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150

# Printed with --trace 0, in this order, with these units.
END_TO_END = (("setup_s", "s"), ("docs_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"))

# Printed with --trace 1: self times (.ms) and counts per pass of the
# traced layers (see perfbench/tracer.py), then the trace's own figures.
PER_LAYER = (
    "sparse.rank_kernel_image.ms", "sparse.rank_kernel_image.calls",
    "sparse.rank_kernel_image.nnz_in", "sparse.rref.ms", "sparse.rref.calls",
    "sparse.solve.ms",
    "hochschild.windowed_homology.ms", "hochschild.hh0_dimension.ms",
    "hochschild.identity_checks.ms", "hochschild.b_calls",
    "presentations.build.ms", "transfer.minimal_model.ms",
    "ainf.check_relations.ms", "ainf.check_functor.ms", "ainf.check_unitality.ms",
    "nccalc.solve_cyclic_pairing.ms", "nccalc.certify_sigma_formality.ms",
    "nccalc.strictify_units.ms",
    "localmodel.verify_sigma.ms", "localmodel.mc_presentation.ms",
    "localmodel.euler_compare.ms", "localmodel.hn_enumerate.ms",
    "localmodel.check_hn_type.ms", "localmodel.hn_types",
    "repmod.semisimplify.ms", "repmod.radical_filtration.ms",
    "repmod.semistable_bruteforce.ms", "repmod.subspace_tuples",
    "repmod.moment_map.ms",
    "cli.make_parser.ms", "docio.load_document.ms", "docio.dump.ms",
    "docio.bytes_in", "docio.bytes_out",
    "cli.main.self.ms", "trace.coverage_pct", "trace.overhead_pct",
)


def _fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    return 2


def _git_sha(root):
    """HEAD of the checkout when it is a git work tree, else "none"."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none"


def _env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(BENCH)])
    return env


# A fresh interpreter that times the calibration kernel while it imports
# ainfty.cli, then reports the kernel's CPU time and median.
_SETUP = """
import json, calibrate
with calibrate.Speedometer() as speed:
    mark = speed.mark()
    import ainfty.cli
print(json.dumps([speed.spent, speed.kernel_since(mark)]))
"""


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(env):
    """Median rescaled CPU time of a fresh interpreter that imports
    ainfty.cli, and the median wall time beside it; one unmeasured run
    first writes the bytecode caches."""
    cmd = [sys.executable, "-c", _SETUP]
    subprocess.run(cmd, env=env, check=True, timeout=60, capture_output=True)
    cpu, wall = [], []
    for _ in range(SETUP_SAMPLES):
        start_cpu, start = _children_cpu(), time.perf_counter()
        proc = subprocess.run(cmd, env=env, check=True, timeout=60,
                              capture_output=True, text=True)
        wall.append(time.perf_counter() - start)
        spent, kernel_s = json.loads(proc.stdout)
        cpu.append(calibrate.scale(_children_cpu() - start_cpu - spent, kernel_s))
    return statistics.median(cpu), statistics.median(wall)


def _latency_figures(seconds, jobs_per_pass):
    """(docs/s, p50 ms, p90 ms) of a pass made of each job's median time.

    seconds holds every pass in job order; a job's median over the passes
    keeps a burst of machine noise in one pass out of the figures."""
    typical = [statistics.median(seconds[k::jobs_per_pass]) for k in range(jobs_per_pass)]
    return (len(typical) / sum(typical), 1000.0 * statistics.median(typical),
            1000.0 * statistics.quantiles(typical, n=10)[-1])


def end_to_end(result, setup_s, jobs_per_pass):
    docs_per_s, p50, p90 = _latency_figures(
        [calibrate.scale(cpu, kernel) for cpu, _, kernel in result["latencies"]],
        jobs_per_pass)
    values = {"setup_s": setup_s, "docs_per_s": docs_per_s, "latency_p50_ms": p50,
              "latency_p90_ms": p90, "peak_rss_mb": result["peak_rss_mb"]}
    return {name: (values[name], unit) for name, unit in END_TO_END}


def layer_unit(name):
    if name.endswith(".ms"):
        return "ms/pass"
    if name.endswith("_pct"):
        return "%"
    if name.startswith("docio.bytes"):
        return "B/pass"
    return "count/pass"


def per_layer(result):
    layers = result["layers"]
    return {name: (layers.get(name, 0.0), layer_unit(name)) for name in PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ainfty" / "cli.py").is_file():
        return _fail("no ainfty source tree at %s; run from the checkout root" % src)
    reference_path = BENCH / "reference.json"
    if not reference_path.is_file():
        return _fail("missing %s; run perfbench/record.py first" % reference_path)
    recorded = json.loads(reference_path.read_text())["documents"]
    sys.path.insert(0, str(src))
    if args.workload not in gen.WORKLOADS:
        return _fail("unknown workload %r (want one of %s)"
                     % (args.workload, ", ".join(gen.WORKLOADS)))

    work = root / ".perfbench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        jobs = gen.select(args.workload, args.seed)
        changed = [name for name, digest in gen.write_documents(jobs, work / "docs").items()
                   if recorded.get(name) != digest]
        if changed:
            return _fail("generated documents differ from perfbench/reference.json: %s"
                         % ", ".join(changed))
        (work / "jobs.json").write_text(json.dumps(
            [{"key": j.key, "doc": j.doc, "argv": j.argv} for j in jobs]))
        env = _env(src)
        setup_s, setup_wall = measure_setup(env)
        spans = root / ".perfbench_work" / ("spans-%s-%d.jsonl" % (args.workload, args.seed))
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--jobs", str(work / "jobs.json"), "--docs", str(work / "docs"),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", str(reference_path), "--out", str(work / "result.json"),
               "--spans", str(spans)]
        proc = subprocess.run(cmd, env=env, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            return _fail("worker exited with %d" % proc.returncode)
        result = json.loads((work / "result.json").read_text())
    except subprocess.TimeoutExpired as e:
        return _fail("timed out: %s" % " ".join(e.cmd))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(result["latencies"]) + len(result.get("traced_latencies", ()))
    failed = len(result["failures"])
    metrics = per_layer(result) if args.trace else end_to_end(result, setup_s, len(jobs))

    print("# python %s, nproc %d, git %s, workload %s, seed %d, %d jobs/pass, "
          "%d passes%s" % (platform.python_version(), os.cpu_count() or 0,
                           _git_sha(root), args.workload, args.seed, len(jobs),
                           result["passes"], " (each also traced)" if args.trace else ""))
    print("# failed_share %.4f (%d of %d jobs)" % (failed / attempted, failed, attempted))
    lat = result["latencies"]
    print("# cpu: %.3f docs/s, p50 %.3f ms, p90 %.3f ms; kernel median %.5f s"
          % (_latency_figures([cpu for cpu, _, _ in lat], len(jobs))
             + (statistics.median(k for *_, k in lat),)))
    print("# wall: setup %.4f s, %.3f docs/s, p50 %.3f ms, p90 %.3f ms"
          % ((setup_wall,) + _latency_figures([wall for _, wall, _ in lat], len(jobs))))
    for failure in result["failures"][:5]:
        print("# FAILED %s: %s" % (failure["key"], failure["error"].strip().replace("\n", " | ")))
    for name, (value, unit) in metrics.items():
        print("# %-40s %14.4f %s" % (name, value, unit))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
