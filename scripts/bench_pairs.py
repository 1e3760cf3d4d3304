"""Summarise paired benchmark runs of a parent and a change into one JSON file.

Usage:
    python scripts/bench_pairs.py PARENT_RESULTS CHANGE_RESULTS --out OUT.json

Each directory holds the ``<workload>-seed<n>-trace0.json`` files that
``perfbench/run.py`` writes to ``perfbench/results/`` of its checkout.  A
parent run and a change run of the same workload and seed form a pair.  For
every workload and every end-to-end metric of ``BENCHMARK.json`` the output
gives each side's median and quartiles over its runs, and the number of pairs
the change wins (ties count for neither side).  It also gives the failed and
attempted job counts of each side, and the source hash of each side's runs.
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


def summarise(parent: dict, change: dict, metrics: list[dict]) -> dict:
    """Per workload and metric: both sides' quartiles and the change's wins."""
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        raise ValueError("no (workload, seed) appears on both sides")
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
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": quartiles(values["parent"]),
                "change": quartiles(values["change"]),
                "change_wins": wins,
                "pairs": len(seeds),
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
