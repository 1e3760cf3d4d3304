"""Summarise paired benchmark runs of a parent and a change into one JSON file.

Usage:
    python scripts/bench_pairs.py PARENT_RESULTS CHANGE_RESULTS --out OUT.json

Each directory holds the ``<workload>-seed<n>-trace0.json`` files that
``perfbench/run.py`` writes to ``perfbench/results/`` of its checkout.  A
parent run and a change run of the same workload and seed form a pair.  For
every workload and every end-to-end metric of ``BENCHMARK.json`` the output
gives each side's median and quartiles over its runs, the number of pairs
the change wins (ties count for neither side) and two verdicts:

- ``claim_met``: the change wins at least 9 pairs in 10, and its median beats
  the parent's by more than the parent's interquartile range (q3 - q1);
- ``worse_than_bound``: the change's median is worse than the parent's by
  more than the metric's relative ``bound``.

It also gives the failed and attempted job counts of each side, and the
source hash of each side's runs.

The two runs of a pair must have run the same job list (``jobs_sha256``) for
the same ``seconds`` under the same Python, numpy, CPU model and BLAS thread
count; otherwise their difference would not measure the change alone, and
the script exits with status 2 naming the first field that differs.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
_NAME = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)-trace0\.json")
# Fields of a result file that both runs of a pair must share.
PAIR_FIELDS = (
    ("jobs_sha256",),
    ("seconds",),
    ("environment", "python"),
    ("environment", "numpy"),
    ("environment", "cpu_model"),
    ("environment", "blas_threads"),
)
_MISSING = object()


def load_runs(directory: Path) -> dict[tuple[str, int], dict]:
    """The untraced result files of a directory, keyed by (workload, seed)."""
    runs = {}
    for path in sorted(directory.glob("*-trace0.json")):
        match = _NAME.fullmatch(path.name)
        if match:
            key = (match["workload"], int(match["seed"]))
            runs[key] = json.loads(path.read_text(encoding="utf-8"))
    return runs


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles (inclusive method, as for the parent's spread)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _field(run: dict, path: tuple[str, ...]) -> object:
    for part in path:
        if not isinstance(run, dict) or part not in run:
            return _MISSING
        run = run[part]
    return run


def check_pair(key: tuple[str, int], parent_run: dict, change_run: dict) -> None:
    """Raise ValueError unless both runs hold every PAIR_FIELDS entry and agree on it."""
    for path in PAIR_FIELDS:
        values = [_field(run, path) for run in (parent_run, change_run)]
        if _MISSING in values or values[0] != values[1]:
            shown = ["missing" if v is _MISSING else repr(v) for v in values]
            raise ValueError(
                f"{key[0]} seed {key[1]}: the parent and change runs differ in "
                f"{'.'.join(path)} ({shown[0]} against {shown[1]})"
            )


def summarise(parent: dict, change: dict, metrics: list[dict]) -> dict:
    """Per workload and metric: both sides' quartiles and the change's wins."""
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        raise ValueError("no (workload, seed) appears on both sides")
    for key in pairs:
        check_pair(key, parent[key], change[key])
    report = {}
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        sides = {
            "parent": [parent[(workload, s)] for s in seeds],
            "change": [change[(workload, s)] for s in seeds],
        }
        entry = {
            "seeds": seeds,
            "source_sha256": {
                side: sorted({run["environment"]["source_sha256"] for run in runs})
                for side, runs in sides.items()
            },
            "jobs": {
                side: {
                    "failed": sum(run["failed"] for run in runs),
                    "attempted": sum(run["attempted"] for run in runs),
                }
                for side, runs in sides.items()
            },
            "metrics": {},
        }
        for metric in metrics:
            name = metric["name"]
            values = {
                side: [run["metrics"][name] for run in runs]
                for side, runs in sides.items()
            }
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(
                sign * (p - c) > 0.0 for p, c in zip(values["parent"], values["change"])
            )
            before, after = quartiles(values["parent"]), quartiles(values["change"])
            gain = sign * (before["median"] - after["median"])
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": before,
                "change": after,
                "change_wins": wins,
                "pairs": len(seeds),
                "claim_met": 10 * wins >= 9 * len(seeds)
                and gain > before["q3"] - before["q1"],
                "worse_than_bound": -gain > metric["bound"] * abs(before["median"]),
            }
        report[workload] = entry
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="results directory of the parent")
    parser.add_argument("change", type=Path, help="results directory of the change")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    try:
        report = summarise(load_runs(args.parent), load_runs(args.change), metrics)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
