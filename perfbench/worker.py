"""Runs one workload's jobs in a single process and writes what it measured.

    python3 perfbench/worker.py --jobs JOBS.json --docs DIR --seconds S
                                --trace 0|1 --reference REF.json --out OUT.json
                                --spans SPANS.jsonl

One client, closed loop: each job is an in-process `ainfty.cli.main(argv)`
call, issued after the previous one returned.  The job list is run in
whole passes, and passes are started until `--seconds` have gone by.  With
`--trace 1` untraced and traced passes alternate, so the tracing overhead
is measured in the same process on the same jobs.

A job's latency is the CPU time of this thread during the call, less the
calibration kernel's runs, paired with the kernel's median time during the
call (see perfbench/calibrate.py).  The jobs are single-threaded and read
their documents from the page cache, so on an idle core their CPU time is
their wall time; on a shared virtual machine wall time also counts the
hypervisor's steal, which comes in bursts of up to twice the work.  Wall
time is recorded beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
from gen import Job
from tracer import Tracer, span_names


def run_job(cli, argv, speed):
    """(exit code, report digest, [cpu, wall, kernel] seconds, error) of one
    CLI call, timed while speed (an active Speedometer) samples the core.

    The report goes to a buffer instead of stdout; an exception, or a
    traceback written to stderr, is an error.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mark = speed.mark()
        wall, cpu = time.perf_counter(), speed.clock()
        try:
            code = cli.main(list(argv))
        except SystemExit as e:       # argparse rejected the arguments
            code, error = e.code, "exit %s: %s" % (e.code, err.getvalue()[-300:])
        except Exception:
            code, error = None, traceback.format_exc(limit=4)
        times = [speed.clock() - cpu, time.perf_counter() - wall, speed.kernel_since(mark)]
    if error is None and "Traceback" in err.getvalue():
        error = err.getvalue()[-600:]
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:20]
    return code, digest, times, error


def run_pass(cli, jobs, doc_dir, reference, speed, latencies, failures, tracer=None):
    """Run every job once, appending [cpu, wall, kernel] seconds to
    latencies and failed jobs to failures."""
    for job in jobs:
        with (tracer.job(job.key) if tracer else contextlib.nullcontext()):
            code, digest, times, error = run_job(cli, job.cli_args(doc_dir), speed)
        latencies.append(times)
        want = reference.get(job.key)
        if error is None and want != [code, digest]:
            error = "got exit %s digest %s, reference %s" % (code, digest, want)
        if error is not None:
            failures.append({"key": job.key, "error": error})


def layer_metrics(tracer, passes, kernel_s):
    """Per-pass self times (ms, rescaled by the median kernel time of the
    traced passes) and counts of the traced layers."""
    selfs, root_total, covered = tracer.self_times()
    ms = 1000.0 * calibrate.scale(1.0, kernel_s) / passes
    out = {}
    for name in span_names():
        out[name + ".ms"] = ms * selfs.get(name, 0.0)
    for name, count in tracer.counts.items():
        out[name] = count / passes
    out["cli.main.self.ms"] = ms * selfs.get("cli.main", 0.0)
    out["trace.coverage_pct"] = 100.0 * covered / root_total
    return out


def _docs_per_s(latencies):
    return len(latencies) / sum(calibrate.scale(cpu, kernel) for cpu, _, kernel in latencies)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--docs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--reference", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", required=True, help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    jobs = [Job(j["key"], j["doc"], tuple(j["argv"]))
            for j in json.loads(Path(args.jobs).read_text(encoding="utf-8"))]
    reference = json.loads(Path(args.reference).read_text(encoding="utf-8"))["jobs"]

    from ainfty import cli

    lat, tlat, failures = [], [], []
    passes = 0
    with calibrate.Speedometer() as speed:
        tracer = Tracer(clock=speed.clock) if args.trace else None
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < args.seconds:
            run_pass(cli, jobs, args.docs, reference, speed, lat, failures)
            if tracer:
                tracer.install()
                try:
                    run_pass(cli, jobs, args.docs, reference, speed, tlat, failures, tracer)
                finally:
                    tracer.remove()
            passes += 1
    result = {"passes": passes, "latencies": lat, "failures": failures}
    if tracer:
        layers = layer_metrics(tracer, passes, statistics.median(k for *_, k in tlat))
        untraced, traced = _docs_per_s(lat), _docs_per_s(tlat)
        layers["trace.overhead_pct"] = 100.0 * (untraced - traced) / untraced
        result.update(layers=layers, traced_latencies=tlat)
        tracer.write(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
