#!/usr/bin/env python3
"""Per-call time of the closed-form layer's scalar calls, of the schedule
builders and the default step count, of one round of the reduced dynamics and
of the table writers' text for one block, at (N, M) = (4096, 32).

Usage:
    python scripts/percall.py [--number 20000] [--repeat 7]

For each call the script times ``--repeat`` runs of ``--number`` calls with
``timeit`` and prints the fastest run's time per call in nanoseconds: on a
shared host the slower runs measure other processes rather than padia.
``spectral_point`` is timed on both sides of the avoided crossing, where its
denominators take different forms.  ``make_partial_schedule`` and
``make_global_schedule`` build the c = 1 sweeps, the partial one as every
``run_round`` does before it integrates.  ``schedule_step_count`` counts the
steps of the c = 1 partial round from its error bound, and
``run_round(c=1)`` runs that round, 10 steps with no step-halving twin (its
error estimate is the bound), the shape of most benchmark rounds; it takes
most of the script's time.
``csv_chunks(block)`` and ``json_chunks(block)`` write the text of one
``spectral_columns`` block of ``cli.BLOCK_ROWS`` = 2048 points, the block
``padia spectrum`` computes and writes as one piece; a call formats 2048
rows, so they run ``--number // 2048`` calls per timed run (at least one).  The run is
single-threaded; give the CPU model beside any number taken from it.
"""

import argparse
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from padia.cli import BLOCK_ROWS  # noqa: E402
from padia.dynamics import (  # noqa: E402
    make_global_schedule,
    make_partial_schedule,
    run_round,
    schedule_step_count,
)
from padia.model import evolution_window, make_instance  # noqa: E402
from padia.spectrum import bound_report, spectral_columns, spectral_point  # noqa: E402
from padia.sweeps import csv_chunks, json_chunks  # noqa: E402

N_ITEMS, N_MARKED = 4096, 32


def per_call_ns(number: int, repeat: int) -> dict[str, float]:
    """Fastest-run nanoseconds per call of each timed call, in print order."""
    inst = make_instance(N_ITEMS, N_MARKED)
    schedule = make_partial_schedule(inst, 1.0)
    block = spectral_columns(inst, np.linspace(0.0, 1.0, BLOCK_ROWS))
    calls = {
        "make_instance": lambda: make_instance(N_ITEMS, N_MARKED),
        "evolution_window": lambda: evolution_window(inst),
        "spectral_point(s=0.3)": lambda: spectral_point(inst, 0.3),
        "spectral_point(s=0.7)": lambda: spectral_point(inst, 0.7),
        "bound_report": lambda: bound_report(inst),
        "make_partial_schedule": lambda: make_partial_schedule(inst, 1.0),
        "make_global_schedule": lambda: make_global_schedule(inst, 1.0),
        "schedule_step_count": lambda: schedule_step_count(inst, schedule),
        "run_round(c=1)": lambda: run_round(inst, 1.0),
        "csv_chunks(block)": lambda: "".join(csv_chunks([block])),
        "json_chunks(block)": lambda: "".join(json_chunks([block])),
    }
    times = {}
    for name, call in calls.items():
        k = max(1, number // BLOCK_ROWS) if name.endswith("(block)") else number
        times[name] = 1e9 * min(timeit.repeat(call, number=k, repeat=repeat)) / k
    return times


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--number", type=_positive_int, default=20_000,
                        help="calls per timed run")
    parser.add_argument("--repeat", type=_positive_int, default=7, help="timed runs per call")
    args = parser.parse_args()
    print(f"per-call time at N={N_ITEMS}, M={N_MARKED} "
          f"(fastest of {args.repeat} x {args.number} calls)")
    for name, ns in per_call_ns(args.number, args.repeat).items():
        print(f"{name:<22} {ns:>11.1f} ns")
    return 0


if __name__ == "__main__":
    sys.exit(main())
