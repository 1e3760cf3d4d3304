"""The benchmark's correctness gate in perfbench/jobs.py passes on this code.

Each workload's seed-0 job list runs once, untimed, through ``jobs.prepare``
and ``jobs.check``, as the benchmark's worker does on every pass.  A padia
name, signature, flag or output that the benchmark relies on and that moved
(past ``P_TOL`` or ``REL_TOL`` for outputs) therefore fails here, not only in
a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# jobs.py imports its job lists as the top-level module ``workloads``.
workloads = sys.modules.get("workloads") or _load("workloads", "workloads.py")
sys.modules["workloads"] = workloads
jobs = _load("bench_jobs", "jobs.py")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_zero_pass_has_no_problem(workload, tmp_path):
    refs = jobs.load_refs(workload)
    seen = {}
    problems = []
    for index, job in enumerate(workloads.make_jobs(workload, 0)):
        output = jobs.prepare(job, index, tmp_path)()
        problems += jobs.check(job, output, refs, seen)
    assert problems == []
