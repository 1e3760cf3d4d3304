"""The benchmark's span tracer in perfbench/tracer.py still finds every padia
name it looks up, and its hooks still bind the arguments they read, so
deleting a name or renaming a hooked argument fails here and not only in
traced runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

from test_bench_jobs import jobs, workloads

SCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
spec = importlib.util.spec_from_file_location("bench_tracer", SCRIPT)
tracer = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = tracer  # dataclasses look their module up there
spec.loader.exec_module(tracer)

# A counter that each workload's seed-0 pass must move, so the traced pass
# is known to have reached the layer the workload loads.
MOVED = {"rounds": "dynamics.steps", "dense": "oracle.evolve_steps", "tables": "cli.calls"}


def test_layer_metrics_of_an_empty_pass():
    metrics = tracer.layer_metrics(tracer.Tracer().snapshot())
    assert metrics["sweeps.emit_s"] == 0.0
    assert metrics["dynamics.rounds"] == 0
    assert all(metrics[f"{layer}.errors"] == 0 for layer in tracer.LAYERS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_seed_zero_pass_has_no_problem(workload, tmp_path):
    """The benchmark's gate on a traced pass, as its worker runs one."""
    job_list = workloads.make_jobs(workload, 0)
    runs = [jobs.prepare(job, index, tmp_path) for index, job in enumerate(job_list)]
    span_tracer = tracer.Tracer()
    span_tracer.install()
    try:
        outputs = [run() for run in runs]
    finally:
        span_tracer.uninstall()
    refs = jobs.load_refs(workload)
    seen = {}
    problems = []
    for job, output in zip(job_list, outputs):
        problems += jobs.check(job, output, refs, seen)
    assert problems == []
    metrics = tracer.layer_metrics(span_tracer.snapshot())
    assert all(metrics[f"{layer}.errors"] == 0 for layer in tracer.LAYERS)
    assert metrics[MOVED[workload]] > 0
