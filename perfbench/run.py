#!/usr/bin/env python3
"""padia benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload rounds --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  This process is the load generator:
it starts every workload process itself, one at a time (a closed loop with a
single client), with BLAS pinned to one thread and padia's ``--workers`` at 1,
so the numbers measure padia rather than the scheduler.

``setup_s`` is the median over fresh interpreters of the time from process
start until padia is imported and the inputs are built: SETUP_PROBES before
the measuring process, the measuring process itself, and SETUP_PROBES after
it, so the samples spread over the whole run.  The measuring process runs the
workload's 100-job list pass after pass for ``--seconds`` and checks every
output against the stored references in perfbench/refs.  Every job time is
scaled to the reference host (hostspeed.py) by the probes taken around it, and
every set-up time by a probe taken in the same process right after it: whole
runs fall in slow spells of the host, and the scaling takes those out.  The
result file keeps the unscaled values too.

A job's latency is its fastest scaled repeat: on a shared host, slower
repeats measure other tenants, not padia (the rule ``timeit`` follows).
``job_p50_ms`` and ``job_p90_ms`` are order statistics over those latencies
of the 100 jobs.  ``wall_s``, the time to finish the job list once, is the
sum of each job's median scaled repeat (see ``_timings``).

With ``--trace 1`` the measuring process alternates untraced and traced
passes and the report holds the per-layer metrics of the traced passes plus
the tracing overhead (traced minus untraced ``wall_s``).

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A result
file with the run environment is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import selectors
import subprocess
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4  # set-up-only interpreters on each side of the measuring one
BLAS_THREADS = 1
TIMEOUT_S = 170.0
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, _nproc()))
    env.update({name: threads for name in BLAS_ENV})
    env["PADIA_WORKERS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).is_file():
                return (git / ref).read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def _environment() -> dict:
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "padia").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": _nproc(),
        "blas_threads": min(BLAS_THREADS, _nproc()),
        "padia_workers": 1,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(max(0.0, deadline - time.monotonic())):
            raise BenchError("worker did not get ready in time")
    return proc.stdout.readline()


def _start_worker(argv: list[str], env: dict, deadline: float):
    """Start a worker; returns (process, seconds until it printed ``ready``,
    its host-speed probe in seconds)."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = _read_line(proc, deadline)
        ready = time.perf_counter() - began
        if line.strip() != "ready":
            raise BenchError(f"worker failed during set-up (exit code {proc.poll()})")
        # Printed a few milliseconds after ``ready``, or the worker has died.
        line = proc.stdout.readline()
        if not line:
            raise BenchError(f"worker failed after set-up (exit code {proc.wait()})")
        probe = float(line)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, ready, probe


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def _unit(name: str) -> str:
    for suffix, unit in (("us_per_call", "us"), ("ns_per_step", "ns"), ("ms_per_step", "ms"),
                         ("_bytes", "bytes"), ("_frac", "ratio"), ("_ms", "ms"),
                         ("_mb", "MB"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def _job_repeats(passes: list[dict], factor) -> list[tuple[float, ...]]:
    """Each job's times over the passes, scaled by ``factor`` of the probes around it."""
    scaled = [[t * factor(q) for t, q in zip(
                  p["latencies"], stats.window_medians(p["probes_s"], hostspeed.WINDOW))]
              for p in passes]
    return list(zip(*scaled))


def _timings(setup: list[tuple[float, float]], passes: list[dict], factor) -> dict:
    """The timing metrics; ``factor(probe_s)`` scales a time taken beside that probe.

    ``wall_s`` sums each job's median repeat: a job of seconds spans more of
    the host's slow spells than the probes beside it see, and the median
    does not pick the repeat whose probe happened to run slowest.  The
    latency percentiles take each job's fastest repeat, which drops the short
    spikes a median of a few repeats keeps for millisecond jobs.
    """
    repeats = _job_repeats(passes, factor)
    fastest = [min(r) for r in repeats]
    _, tail_value = stats.tail_percentile(fastest)
    return {
        "setup_s": statistics.median(ready * factor(probe) for ready, probe in setup),
        "wall_s": sum(statistics.median(r) for r in repeats),
        "job_p50_ms": 1e3 * statistics.median(fastest),
        "job_p90_ms": 1e3 * tail_value,
    }


def _end_to_end(setup: list[tuple[float, float]], result: dict) -> tuple[dict, dict]:
    untraced = [p for p in result["passes"] if not p["traced"]]
    metrics = {
        **_timings(setup, untraced, hostspeed.scale),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    tail, _ = stats.tail_percentile(untraced[0]["latencies"])
    detail = {
        "setup_samples_s": [ready for ready, _ in setup],
        "setup_probes_s": [probe for _, probe in setup],
        "passes": len(untraced),
        "tail_percentile": tail,
        "jobs": len(untraced[0]["latencies"]),
        "measured": _timings(setup, untraced, lambda probe: 1.0),
        "pass_scales": [hostspeed.scale(statistics.median(p["probes_s"])) for p in untraced],
    }
    return metrics, detail


def _per_layer(result: dict) -> dict:
    layers = result["layers"]
    metrics = {name: statistics.median([m[name] for m in layers]) for name in layers[0]}
    walls = {}
    for traced in (False, True):
        passes = [p for p in result["passes"] if p["traced"] == traced]
        walls[traced] = sum(statistics.median(r) for r in _job_repeats(passes, hostspeed.scale))
    metrics["trace.overhead_s"] = walls[True] - walls[False]
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / walls[False]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="padia benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "padia" / "__init__.py").is_file():
        print(f"error: no padia sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    env = _child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup_only() -> tuple[float, float]:
        proc, ready, probe = _start_worker([*common, "--setup-only"], env, deadline)
        _finish(proc, deadline)
        return ready, probe

    try:
        setup = [setup_only() for _ in range(SETUP_PROBES)]
        proc, ready, probe = _start_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
        setup.append((ready, probe))
        result = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
        setup += [setup_only() for _ in range(SETUP_PROBES)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in result["passes"])
    failed = sum(p["failed"] for p in result["passes"])
    if args.trace:
        metrics, detail = _per_layer(result), {"traced_passes": len(result["layers"])}
    else:
        metrics, detail = _end_to_end(setup, result)

    print(f"padia benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(result['passes'])} passes of {workloads.JOBS_PER_PASS} jobs")
    for name, value in metrics.items():
        print(f"  {name:24s} {value:14.6g} {_unit(name)}")
    if not args.trace:
        print(f"  job_p90_ms is the p{detail['tail_percentile']:g} of {detail['jobs']} jobs, "
              f"each the fastest of its {detail['passes']} repeats")
        scales = detail["pass_scales"]
        print(f"  the times above are reference-host times: job times measured x about"
              f" {min(scales):.4f}..{max(scales):.4f} (median per pass), set-up times x their"
              f" own probe's factor")
        for name, value in detail["measured"].items():
            print(f"  {name + ' measured':24s} {value:14.6g} {_unit(name)}")
    print(f"  {'fail_frac':24s} {failed / attempted:14.6g} ratio ({failed}/{attempted} jobs)")
    for problem in result["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(),
        "jobs_sha256": result["jobs_sha256"], "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "metrics": metrics, "detail": detail,
        "passes": result["passes"],
        "problems": result["problems"],
    }
    (HERE / "results").mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (HERE / "results" / name).write_text(json.dumps(report, indent=2) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
