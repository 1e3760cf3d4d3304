#!/usr/bin/env python3
"""One workload in one fresh process; started by run.py, not by hand.

Prints ``ready`` once padia is imported and the job inputs are built, and
on the next line the fastest of a few host-speed probes (hostspeed.py); then
runs the job list pass after pass until ``--seconds`` have gone by, checks
every output after each pass, and prints one JSON line with the raw pass
data.  With ``--trace 1`` untraced and traced passes alternate, so the
tracing overhead is measured within the run; the spans of the traced passes
are kept in memory and written to results/ at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

RESULTS = HERE / "results"
MAX_REPORTED_PROBLEMS = 5


def _run_pass(runs, tracer):
    latencies = [0.0] * len(runs)
    outputs = [None] * len(runs)
    errors: list[str | None] = [None] * len(runs)
    probes = [0.0] * len(runs)
    clock = time.perf_counter
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        start = clock()
        for i, run in enumerate(runs):
            began = clock()
            try:
                outputs[i] = run()
            except Exception as exc:  # a failed job is counted, the pass goes on
                errors[i] = f"{type(exc).__name__}: {exc}"
            latencies[i] = clock() - began
            probes[i] = hostspeed.probe(clock)
        wall = clock() - start - sum(probes)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, latencies, probes, outputs, errors


def _check_pass(jobs_module, job_list, outputs, errors, refs) -> list[str]:
    """One entry per failed job."""
    seen: dict = {}
    failures = []
    for job, output, error in zip(job_list, outputs, errors):
        if error is not None:
            failures.append(f"{job['kind']}: raised {error}")
            continue
        try:
            problems = jobs_module.check(job, output, refs, seen)
        except Exception as exc:  # a malformed output is a failed job
            problems = [f"{job['kind']}: check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append("; ".join(problems))
    return failures


def _write_spans(path: Path, snapshots) -> None:
    import numpy as np

    arrays = {"names": np.array(snapshots[0].names)}
    for i, snap in enumerate(snapshots):
        arrays[f"pass{i}_fn"] = np.frombuffer(snap.fn_ids, dtype=np.int32)
        arrays[f"pass{i}_parent"] = np.frombuffer(snap.parents, dtype=np.int32)
        arrays[f"pass{i}_start"] = np.frombuffer(snap.starts, dtype=np.float64)
        arrays[f"pass{i}_end"] = np.frombuffer(snap.ends, dtype=np.float64)
    np.savez(path, **arrays)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    job_list = workloads.make_jobs(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        import jobs

        runs = [jobs.prepare(job, i, out_dir) for i, job in enumerate(job_list)]
        print("ready", flush=True)
        print(hostspeed.fastest(time.perf_counter), flush=True)
        if args.setup_only:
            return 0
        refs = jobs.load_refs(args.workload)

        tracer = None
        if args.trace:
            from tracer import Tracer, layer_metrics

            tracer = Tracer()

        deadline = time.perf_counter() + args.seconds
        passes, layers, snapshots, problems = [], [], [], []
        peak_rss_kb = None
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            wall, latencies, probes, outputs, errors = _run_pass(runs, tracer if traced else None)
            if peak_rss_kb is None:
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if traced:
                snapshots.append(tracer.snapshot())
                layers.append(layer_metrics(snapshots[-1]))
            failures = _check_pass(jobs, job_list, outputs, errors, refs)
            problems.extend(failures[: MAX_REPORTED_PROBLEMS - len(problems)])
            passes.append({"traced": traced, "wall_s": wall, "latencies": latencies,
                           "probes_s": probes, "attempted": len(runs), "failed": len(failures)})
            del outputs
            enough = tracer is None or len(passes) >= 2
            if enough and time.perf_counter() >= deadline:
                break
        if snapshots:
            _write_spans(RESULTS / f"{args.workload}-seed{args.seed}-spans.npz", snapshots)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print(json.dumps({
        "passes": passes,
        "layers": layers,
        "peak_rss_kb": peak_rss_kb,
        "jobs_sha256": workloads.fingerprint(job_list),
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
