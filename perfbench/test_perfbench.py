"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q        (from the root of the checkout)
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


def _documents(workload, seed, out):
    jobs = gen.select(workload, seed)
    digests = gen.write_documents(jobs, out)
    return jobs, digests, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_the_recorded_byte_identical_documents(workload, tmp_path):
    recorded = json.loads((BENCH / "reference.json").read_text())["documents"]
    jobs_a, digests_a, docs_a = _documents(workload, 7, tmp_path / "a")
    jobs_b, digests_b, docs_b = _documents(workload, 7, tmp_path / "b")
    assert jobs_a == jobs_b
    assert docs_a == docs_b
    assert digests_a == {name: recorded[name] for name in docs_a}


def test_seed_changes_the_moduli_sample_and_every_job_has_a_reference():
    reference = json.loads((BENCH / "reference.json").read_text())["jobs"]
    a, b = gen.select("moduli", 1), gen.select("moduli", 2)
    assert {j.key for j in a} != {j.key for j in b}
    for workload in gen.WORKLOADS:
        assert all(job.key in reference for job in gen.universe(workload))


def test_benchmark_json_lists_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def _bench(args, cwd):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_carries_every_metric_with_its_unit(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench(["--workload", "moduli", "--seed", "3", "--seconds", "0",
                   "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = _bench(["--workload", "moduli", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_run_leaves_report_digests_unchanged(tmp_path):
    from ainfty import cli

    reference = json.loads((BENCH / "reference.json").read_text())["jobs"]
    jobs = [job for workload in gen.WORKLOADS for job in gen.select(workload, 5)
            if not job.key.startswith(("mm/two_loop-c4", "mm/three_loop-c3",
                                       "hh/path-jordan", "hh/dga-two_loop"))]
    gen.write_documents(jobs, tmp_path)
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("ainfty.")]
    before = [dict(vars(m)) for m in modules]
    with calibrate.Speedometer() as speed:
        tracer = Tracer(clock=speed.clock)
        tracer.install()
        try:
            for job in jobs:
                with tracer.job(job.key):
                    code, digest, _, error = worker.run_job(cli, job.cli_args(tmp_path), speed)
                assert error is None, error
                assert [code, digest] == reference[job.key], job.key
        finally:
            tracer.remove()
    assert [dict(vars(m)) for m in modules] == before
    selfs, root_total, covered = tracer.self_times()
    assert selfs["sparse.rank_kernel_image"] > 0 and covered > 0.9 * root_total
    assert tracer.counts["hochschild.b_calls"] > 0
