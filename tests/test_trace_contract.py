"""The names the benchmark's tracer wraps exist in the package.

perfbench/tracer.py names the traced callables as (module, attribute)
pairs and looks them up when it installs its wrappers; a name that moved
or went makes `run.py --trace 1` fail.  Both checks read tracer.py and
gen.py by path and change nothing under perfbench/.
"""

import importlib
import importlib.util
import sys
import time
from pathlib import Path

from ainfty import cli
from ainfty.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """perfbench/<name>.py, loaded once as the module perfbench_<name>."""
    key = "perfbench_" + name
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, BENCH / (name + ".py"))
        # dataclasses look their module up in sys.modules
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


def test_every_traced_name_resolves_to_a_callable():
    tracer = load("tracer")
    names = ([entry[:2] for entry in tracer.SPANS]
             + [entry[:2] for entry in tracer.COUNTED + tracer.YIELDS + tracer.LOCAL])
    assert ("cli", "hochschild_b") in names and ("cli", "connes_B") in names
    for mod, attr in names:
        value = getattr(importlib.import_module("ainfty." + mod), attr, None)
        assert callable(value), "ainfty.%s.%s" % (mod, attr)


def traced_pass(tmp_path, jobs, codes):
    """The tracer of one traced pass of the CLI jobs, each of which exits
    with one of codes."""
    gen, tracer = load("gen"), load("tracer")
    gen.write_documents(jobs, tmp_path)
    trace = tracer.Tracer(time.process_time)
    trace.install()
    try:
        for job in jobs:
            with trace.job(job.key):
                assert main(job.cli_args(tmp_path)) in codes
    finally:
        trace.remove()
    return trace


def test_a_traced_hochschild_pass_makes_fewer_b_calls(tmp_path, capsys):
    # 3,184 calls of hochschild_b per pass (seed 11) while the CLI applied
    # b twice on every sample chain; b and B of each sample chain are now
    # taken once, and b is not applied to a zero chain
    jobs = [job for job in load("gen").select("hochschild", 11)
            if job.argv[0] == "hochschild"]
    trace = traced_pass(tmp_path, jobs, (0, 3))
    capsys.readouterr()
    assert 0 < trace.counts["hochschild.b_calls"] < 3184
    assert trace.counts["hochschild.identity_checks.calls"] > 0


# the layers no job of the benchmark reaches: their metrics read zero
NEVER_ENTERED = {"sparse.solve", "hochschild.hh0_dimension",
                 "localmodel.check_hn_type"}


def test_a_traced_moduli_pass_enters_every_other_span(tmp_path, capsys):
    # a layer that stops being called by its traced name (say, a pairing
    # solve reached through a renamed helper) leaves its metric at zero
    cli._parser.cache_clear()
    # every verdict (pass, fail, truncated), never an input error
    trace = traced_pass(tmp_path, load("gen").select("moduli", 11), (0, 1, 3))
    capsys.readouterr()
    names = {name for _, _, name, _ in load("tracer").SPANS}
    entered = {span[0] for span in trace.spans}
    assert names - entered == NEVER_ENTERED
