#!/usr/bin/env python3
"""Regenerate the stored references in perfbench/refs/ from the current program.

    python3 perfbench/make_refs.py

The references are taken once, at the commit that defines the benchmark, and
are then kept fixed: a later commit is checked against them, so rerun this
only when a deliberate change of the program's outputs is accepted.  It
covers every input a seed can draw (the job generators draw from finite
pools), so any seed's jobs have a reference.  Success probabilities are
integrated at twice the program's default step count.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from padia import cli, dynamics, model, spectrum, sweeps  # noqa: E402

import jobs  # noqa: E402
import workloads as W  # noqa: E402


def _p2x(inst, schedule) -> float:
    steps = 2 * dynamics.default_step_count(schedule.total_time)
    return dynamics.evolve(inst, schedule, steps, model.initial_state(inst)).success_probability


def _band(inst) -> list[float]:
    window = model.evolution_window(inst)
    a0 = math.sqrt(spectrum.overlap_psi(inst, window.s_minus, 0))
    b0 = math.sqrt(spectrum.overlap_beta(inst, window.s_plus, 0))
    a1 = math.sqrt(1.0 - a0 * a0)
    b1 = math.sqrt(1.0 - b0 * b0)
    return [(a0 * b0 - a1 * b1) ** 2, (a0 * b0 + a1 * b1) ** 2]


def rounds_refs() -> dict:
    refs = {"partial": {}, "repeat": {}, "evolve_global": {}, "evolve_local": {}, "sweep": {}}
    for units in (2, 16, 256):
        for n, m, c in W.partial_configs(units):
            inst = model.make_instance(n, m)
            schedule = dynamics.make_partial_schedule(inst, float(c))
            refs["partial"][jobs.partial_key(n, m, c)] = {
                "p2x": _p2x(inst, schedule), "band": _band(inst)}
    for key, ref in refs["partial"].items():
        n, m, c = (float(x) for x in key.split("/"))
        p = dynamics.run_round(model.make_instance(int(n), int(m)), c).success_probability
        low, high = ref["band"]
        if abs(p - ref["p2x"]) > jobs.P_TOL or (c >= jobs.BAND_MIN_C and not low <= p <= high):
            print(f"warning: partial round {key} fails its check: p={p!r}, {ref}")
    for n, m, c in W.partial_configs(2):
        inst = model.make_instance(n, m)
        refs["repeat"][jobs.partial_key(n, m, c)] = [
            dynamics.simulate_until_success(inst, float(c), seed=seed).rounds_used
            for seed in range(W.DRAW_SEEDS)
        ]
    for n, m, c in W.global_configs():
        inst = model.make_instance(n, m)
        schedule = dynamics.make_global_schedule(inst, float(c))
        refs["evolve_global"][jobs.partial_key(n, m, c)] = {"p2x": _p2x(inst, schedule)}
    for n, m in W.local_configs():
        inst = model.make_instance(n, m)
        schedule = dynamics.make_local_schedule(inst, jobs.LOCAL_EPSILON, jobs.LOCAL_KNOTS)
        refs["evolve_local"][jobs.partial_key(n, m, jobs.LOCAL_EPSILON)] = {
            "p2x": _p2x(inst, schedule)}
    for config in W.sweep_configs():
        records, fit = sweeps.sweep(config["axis"], config["fixed"], config["grid"])
        p2x = []
        for record in records:
            inst = model.make_instance(record.n_items, record.n_marked)
            p2x.append(_p2x(inst, dynamics.make_partial_schedule(inst, 1.0)))
        refs["sweep"][f"{config['axis']}/{config['fixed']}"] = {
            "p2x": p2x, "t_expected": [r.t_expected for r in records], "slope": fit.slope}
    return refs


def _cli_records(argv: list[str], tmp: Path) -> dict:
    path = tmp / "table.json"
    code = cli.main([*argv, "--output", "json", "--out", str(path)])
    if code != 0:
        raise SystemExit(f"padia {' '.join(argv)} exited with {code}")
    return json.loads(path.read_text())


def _columns(records: list[dict]) -> dict:
    return {key: [row[key] for row in records] for key in records[0]}


def tables_refs(tmp: Path) -> dict:
    refs = {"spectrum": {}, "sweeps": {}}
    rows = list(range(0, W.SPECTRUM_POINTS, 1000))
    grid = np.linspace(0.0, 1.0, W.SPECTRUM_POINTS)
    for n, m in W.SPECTRUM_CONFIGS:
        inst = model.make_instance(n, m)
        points = [spectrum.spectral_point(inst, float(grid[i])) for i in rows]
        refs["spectrum"][f"{n}/{m}"] = {
            "row_count": W.SPECTRUM_POINTS,
            "rows": rows,
            "columns": _columns(sweeps.spectral_points_to_rows(points)),
        }
    payload = _cli_records(["bounds", "--m-rule", "all-divisors"], tmp)
    refs["bounds"] = {"columns": _columns(payload["records"])}
    for name, argv in W.SCALING_SWEEPS:
        payload = _cli_records(["sweep", *argv], tmp)
        refs["sweeps"][name] = {
            "columns": _columns(payload["records"]), "slope": payload["fit"]["slope"]}
    refs["spectral_pool"] = []
    for n, m in W.SPECTRAL_POOL:
        inst = model.make_instance(n, m)
        refs["spectral_pool"].append([
            [getattr(spectrum.spectral_point(inst, s), f) for f in jobs.SPECTRAL_FIELDS]
            for s in jobs.spectral_grid(n)
        ])
    refs["bound_pool"] = []
    for n, m in W.BOUND_POOL:
        report = spectrum.bound_report(model.make_instance(n, m))
        if not report.all_bounds_hold:
            raise SystemExit(f"bound chain fails at N={n}, M={m}: {report.failures}")
        refs["bound_pool"].append([getattr(report, f) for f in jobs.BOUND_FIELDS])
    return refs


def main() -> int:
    out = HERE / "refs"
    out.mkdir(exist_ok=True)
    (out / "rounds.json").write_text(json.dumps(rounds_refs()) + "\n")
    tmp = Path(tempfile.mkdtemp(dir=HERE))
    try:
        (out / "tables.json").write_text(json.dumps(tables_refs(tmp)) + "\n")
    finally:
        shutil.rmtree(tmp)
    print(f"wrote {out / 'rounds.json'} and {out / 'tables.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
