"""Run one benchmark job through padia's public API and check its output.

``prepare`` builds a job's inputs (instances, marked sets, argv lists) and
returns a callable that does only the program's work; the worker times that
call.  ``check`` runs afterwards, untimed, and returns a list of problems; an
empty list means the output is correct.  Every call goes through a module
attribute (``dynamics.run_round``, ``cli.main``), so a tracer installed on
those attributes sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

from padia import cli, dynamics, model, oracle, spectrum, sweeps

import workloads

# The tolerances the program's own acceptance criteria use.
P_TOL = 1e-8  # success probability vs the run at twice the step count (test_c7)
CERTIFY_TOLERANCE = 1e-9  # dense vs closed form (padia certify)
PAIR_TOL = 1e-8  # dense vs reduced integration (test_c7)
REL_TOL = 1e-12  # analytic table columns vs the stored reference
LOCAL_EPSILON = 1.0
LOCAL_KNOTS = 20_001
BAND_MIN_C = 16  # the interference band is the adiabatic envelope; see NOTES.md

SPECTRAL_FIELDS = ("s", "e0", "e1", "gap", "ov_psi_0", "ov_beta_0")
BOUND_FIELDS = (
    "ov_psi_at_s_minus", "ov_beta_at_s_plus", "p_one_round", "window_factor",
    "alpha_weight", "beta_weight", "end_ratio",
)
REFS_DIR = Path(__file__).resolve().parent / "refs"


def load_refs(workload: str) -> dict:
    path = REFS_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def partial_key(n: int, m: int, c: float) -> str:
    return f"{n}/{m}/{c:g}"


def spectral_grid(n: int) -> list[float]:
    """Batch s values: a uniform grid (endpoints included) plus the window edges."""
    half = 0.5 / math.sqrt(n)
    grid = [float(s) for s in np.linspace(0.0, 1.0, workloads.SPECTRAL_GRID_POINTS)]
    return grid + [0.5 - half, 0.5 + half]


def _close(value, ref, rel: float = REL_TOL) -> bool:
    return abs(value - ref) <= rel * abs(ref)


def _cli(argv: list[str]):
    """Run ``cli.main`` in process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


# --- preparation -----------------------------------------------------------

def prepare(job: dict, index: int, out_dir: Path):
    """Build the inputs of one job and return a zero-argument callable."""
    kind = job["kind"]
    out = out_dir / f"{index:03d}-{kind}.{job.get('format', 'json')}"

    if kind == "run_round":
        inst = model.make_instance(job["n"], job["m"])
        c = float(job["c"])
        return lambda: dynamics.run_round(inst, c)
    if kind == "simulate_until_success":
        inst = model.make_instance(job["n"], job["m"])
        c, seed = float(job["c"]), job["draw_seed"]
        return lambda: dynamics.simulate_until_success(inst, c, seed=seed)
    if kind == "cli_evolve":
        argv = ["evolve", "--n", str(job["n"]), "--m", str(job["m"]), "--c", str(job["c"]),
                "--repeat", "--seed", str(job["draw_seed"]), "--workers", "1", "--out", str(out)]
        return lambda: _cli(argv) + (out,)
    if kind == "evolve_global":
        inst = model.make_instance(job["n"], job["m"])
        c = float(job["c"])

        def run():
            schedule = dynamics.make_global_schedule(inst, c)
            steps = dynamics.default_step_count(schedule.total_time)
            return dynamics.evolve(inst, schedule, steps, model.initial_state(inst))

        return run
    if kind == "evolve_local":
        inst = model.make_instance(job["n"], job["m"])

        def run():
            schedule = dynamics.make_local_schedule(inst, LOCAL_EPSILON, LOCAL_KNOTS)
            steps = dynamics.default_step_count(schedule.total_time)
            return dynamics.evolve(inst, schedule, steps, model.initial_state(inst))

        return run
    if kind == "sweep_simulate":
        axis, fixed, grid = job["axis"], job["fixed"], job["grid"]
        return lambda: sweeps.sweep(axis, fixed, grid, simulate=True, workers=1)

    if kind == "certify":
        full = oracle.make_full_instance(job["n"], job["marked"])
        s_grid = np.asarray(job["s_grid"], dtype=float)
        return lambda: oracle.certify_reduction(full, s_grid)
    if kind == "dense_spectrum":
        full = oracle.make_full_instance(job["n"], job["marked"])
        s = job["s"]
        return lambda: oracle.dense_spectrum(full, s)
    if kind == "evolve_pair":
        full = oracle.make_full_instance(job["n"], job["marked"])
        inst = full.reduced()
        c, steps = float(job["c"]), job["steps"]
        builder = ("make_partial_schedule" if job["schedule"] == "partial"
                   else "make_global_schedule")

        def run():
            schedule = getattr(dynamics, builder)(inst, c)
            dense = oracle.full_evolve(full, schedule, steps)
            reduced = dynamics.evolve(inst, schedule, steps, model.initial_state(inst))
            return dense, reduced.success_probability

        return run

    if kind == "cli_spectrum":
        argv = ["spectrum", "--n", str(job["n"]), "--m", str(job["m"]),
                "--points", str(job["points"])]
    elif kind == "cli_bounds":
        argv = ["bounds", "--m-rule", "all-divisors"]
    elif kind == "cli_sweep":
        argv = ["sweep", *dict(workloads.SCALING_SWEEPS)[job["sweep"]]]
    elif kind == "spectral_batch":
        n, m = workloads.SPECTRAL_POOL[job["pool_index"]]
        inst = model.make_instance(n, m)
        grid = spectral_grid(n)
        return lambda: [spectrum.spectral_point(inst, s) for s in grid]
    elif kind == "bound_batch":
        insts = [model.make_instance(*workloads.BOUND_POOL[i]) for i in job["pool_index"]]
        return lambda: [spectrum.bound_report(inst) for inst in insts]
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    argv += ["--output", job["format"], "--workers", "1", "--out", str(out)]
    return lambda: _cli(argv) + (out,)


# --- checks ----------------------------------------------------------------

def _check_p(problems: list, label: str, p: float, ref: dict, c: float | None = None) -> None:
    """p against the run at twice the steps; a partial round with multiplier
    ``c`` >= BAND_MIN_C also against the interference band."""
    if not abs(p - ref["p2x"]) <= P_TOL:
        problems.append(f"{label}: p={p!r} vs {ref['p2x']!r} at twice the steps")
    if c is not None and c >= BAND_MIN_C:
        low, high = ref["band"]
        if not low <= p <= high:
            problems.append(f"{label}: p={p!r} outside the interference band [{low}, {high}]")


def _read_table(path: Path, fmt: str) -> tuple[dict[str, list], dict | None]:
    """Columns of a CSV or JSON table as raw values (CSV cells stay text)."""
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        payload = json.loads(text)
        records = payload["records"]
        columns = {key: [row[key] for row in records] for key in (records[0] if records else {})}
        return columns, payload.get("fit")
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    return {key: [row[i] for row in cells] for i, key in enumerate(header)}, None


def _parse_cell(text: str, ref):
    if isinstance(ref, bool):
        return {"true": True, "false": False}[text]
    if isinstance(ref, int):
        return int(text)
    if isinstance(ref, float):
        return float(text)
    if ref is None:
        return None if text == "" else text
    return text


def _check_table(problems: list, label: str, path: Path, fmt: str, ref: dict,
                 seen: dict, pair_key) -> dict | None:
    """Compare the reference columns of one emitted table; extra columns are
    ignored.  ``seen`` holds the other format's parse of the same table."""
    columns, fit = _read_table(path, fmt)
    rows = ref.get("rows")
    parsed = {}
    for key, ref_values in ref["columns"].items():
        if key not in columns:
            problems.append(f"{label}: column {key!r} missing")
            continue
        values = columns[key]
        if len(values) != ref.get("row_count", len(ref_values)):
            problems.append(f"{label}: {len(values)} rows in {key!r}")
            continue
        if fmt == "csv":
            try:
                sample = ref_values[0]
                values = [_parse_cell(v, sample) for v in values]
            except (ValueError, KeyError) as exc:
                problems.append(f"{label}: column {key!r}: {exc}")
                continue
        parsed[key] = values
        picked = [values[i] for i in rows] if rows is not None else values
        for i, (value, want) in enumerate(zip(picked, ref_values)):
            ok = _close(value, want) if isinstance(want, float) else value == want
            if not ok:
                problems.append(f"{label}: {key}[{i}] = {value!r}, reference {want!r}")
                break
    other = seen.get(pair_key)
    if other is None:
        seen[pair_key] = parsed
    else:
        for key, values in parsed.items():
            if key in other and other[key] != values:
                problems.append(f"{label}: column {key!r} differs between CSV and JSON")
    return fit


def check(job: dict, output, refs: dict, seen: dict) -> list[str]:
    """Problems with one job's output; ``seen`` is shared within a pass."""
    kind = job["kind"]
    label = kind
    problems: list[str] = []

    if kind in ("run_round", "simulate_until_success", "cli_evolve"):
        key = partial_key(job["n"], job["m"], job["c"])
        ref = refs["partial"][key]
        label = f"{kind} {key}"
        if kind == "run_round":
            _check_p(problems, label, output.success_probability, ref, job["c"])
            return problems
        want_rounds = refs["repeat"][key][job["draw_seed"]]
        if kind == "simulate_until_success":
            rounds_used, succeeded = output.rounds_used, output.succeeded
        else:
            code, _, path = output
            if code != 0:
                return [f"{label}: exit code {code}"]
            payload = json.loads(Path(path).read_text())
            _check_p(problems, label, payload["success_probability"], ref, job["c"])
            rounds_used = payload["repeat"]["rounds_used"]
            succeeded = payload["repeat"]["succeeded"]
        if rounds_used != want_rounds or not succeeded:
            problems.append(f"{label}: rounds_used {rounds_used} != {want_rounds}")
        return problems
    if kind in ("evolve_global", "evolve_local"):
        key = partial_key(job["n"], job["m"], job.get("c", LOCAL_EPSILON))
        ref = refs[kind][key]
        _check_p(problems, f"{kind} {key}", output.success_probability, ref)
        return problems
    if kind == "sweep_simulate":
        records, fit = output
        ref = refs["sweep"][f"{job['axis']}/{job['fixed']}"]
        label = f"sweep {job['axis']}/{job['fixed']}"
        if len(records) != len(ref["p2x"]):
            return [f"{label}: {len(records)} records"]
        for record, p2x, t_exp in zip(records, ref["p2x"], ref["t_expected"]):
            if not abs(record.sim_success - p2x) <= P_TOL:
                problems.append(f"{label}: sim_success {record.sim_success!r} vs {p2x!r}")
            if not _close(record.t_expected, t_exp):
                problems.append(f"{label}: t_expected {record.t_expected!r} vs {t_exp!r}")
        if not _close(fit.slope, ref["slope"]):
            problems.append(f"{label}: slope {fit.slope!r} vs {ref['slope']!r}")
        return problems

    if kind == "certify":
        if not output <= CERTIFY_TOLERANCE:
            problems.append(f"certify N={job['n']}: worst {output!r} > {CERTIFY_TOLERANCE}")
        return problems
    if kind == "dense_spectrum":
        n, marked, s = job["n"], job["marked"], job["s"]
        inst = model.make_instance(n, len(marked))
        e0, e1 = spectrum.eigenvalues(inst, s)
        v0 = output.ground_vector
        beta = np.zeros(n)
        beta[marked] = 1.0 / math.sqrt(len(marked))
        pairs = (
            (output.eigenvalues[0], e0),
            (output.eigenvalues[1], e1),
            (float(np.sum(v0)) ** 2 / n, spectrum.overlap_psi(inst, s, 0)),
            (float(beta @ v0) ** 2, spectrum.overlap_beta(inst, s, 0)),
        )
        worst = max(abs(d - c) for d, c in pairs)
        if not worst <= CERTIFY_TOLERANCE:
            problems.append(f"dense_spectrum N={n} s={s}: worst {worst!r}")
        return problems
    if kind == "evolve_pair":
        dense, reduced = output
        if not abs(dense - reduced) <= PAIR_TOL:
            problems.append(f"evolve_pair N={job['n']}: dense {dense!r} vs reduced {reduced!r}")
        return problems

    if kind == "spectral_batch":
        ref = refs["spectral_pool"][job["pool_index"]]
        for point, want in zip(output, ref):
            got = [getattr(point, f) for f in SPECTRAL_FIELDS]
            if not all(_close(g, w) for g, w in zip(got, want)):
                problems.append(f"spectral_batch {job['pool_index']}: {got} vs {want}")
                break
        if len(output) != len(ref):
            problems.append(f"spectral_batch: {len(output)} points")
        return problems
    if kind == "bound_batch":
        for index, report in zip(job["pool_index"], output):
            want = refs["bound_pool"][index]
            got = [getattr(report, f) for f in BOUND_FIELDS]
            if not report.all_bounds_hold or not all(_close(g, w) for g, w in zip(got, want)):
                problems.append(f"bound_batch {workloads.BOUND_POOL[index]}: {got} vs {want}")
                break
        return problems

    # CLI tables: cli_spectrum, cli_bounds, cli_sweep
    code, err, path = output
    if code != 0:
        return [f"{kind}: exit code {code}: {err.strip()}"]
    if kind == "cli_spectrum":
        table_key = f"{job['n']}/{job['m']}"
        ref = refs["spectrum"][table_key]
    elif kind == "cli_bounds":
        table_key = "bounds"
        ref = refs["bounds"]
    else:
        table_key = job["sweep"]
        ref = refs["sweeps"][table_key]
    label = f"{kind} {table_key} {job['format']}"
    fit = _check_table(problems, label, Path(path), job["format"], ref, seen, (kind, table_key))
    if kind == "cli_sweep":
        if job["format"] == "json":
            slope = fit["slope"] if fit else None
            if slope is None or not _close(slope, ref["slope"]):
                problems.append(f"{label}: slope {slope!r} vs {ref['slope']!r}")
        else:
            match = re.search(r"slope=(-?[0-9.]+)", err)
            if match is None or abs(float(match.group(1)) - ref["slope"]) > 1e-6:
                problems.append(f"{label}: printed fit {err.strip()!r} vs slope {ref['slope']!r}")
    return problems
