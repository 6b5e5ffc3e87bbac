"""Record the reference outcome of every job any seed can draw.

    python3 perfbench/record.py      (from the root of the checkout)

Runs each job of each workload's universe once, in this process, and
writes perfbench/reference.json with two tables: "documents", document
name -> sha256 of its bytes, and "jobs", job key -> [exit code, report
digest].  The benchmark refuses to run on documents whose bytes differ,
and counts a job as failed when its outcome differs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _table(entries):
    lines = ["    %s: %s" % (json.dumps(k), json.dumps(v)) for k, v in sorted(entries.items())]
    return "{\n" + ",\n".join(lines) + "\n  }"


def main():
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(BENCH)]
    import calibrate
    import gen
    from worker import run_job
    from ainfty import cli

    documents, outcomes = {}, {}
    work = root / ".perfbench_work" / "record"
    try:
        with calibrate.Speedometer() as speed:
            for workload in gen.WORKLOADS:
                jobs = gen.universe(workload)
                for name, digest in gen.write_documents(jobs, work / workload).items():
                    if documents.setdefault(name, digest) != digest:
                        sys.stderr.write("%s: generated twice with different bytes\n" % name)
                        return 1
                for job in jobs:
                    if job.key in outcomes:     # a probe recorded with its own workload
                        continue
                    code, digest, _, error = run_job(cli, job.cli_args(work / workload), speed)
                    if error is not None:
                        sys.stderr.write("%s: %s\n" % (job.key, error))
                        return 1
                    outcomes[job.key] = [code, digest]
                print("%s: %d jobs" % (workload, len(jobs)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "reference.json").write_text(
        '{\n  "documents": %s,\n  "jobs": %s\n}\n' % (_table(documents), _table(outcomes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
