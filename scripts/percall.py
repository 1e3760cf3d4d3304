#!/usr/bin/env python3
"""Per-call time of the closed-form layer's scalar calls, and of one round of
the reduced dynamics, at (N, M) = (4096, 32).

Usage:
    python scripts/percall.py [--number 20000] [--repeat 7]

For each call the script times ``--repeat`` runs of ``--number`` calls with
``timeit`` and prints the fastest run's time per call in nanoseconds: on a
shared host the slower runs measure other processes rather than padia.
``spectral_point`` is timed on both sides of the avoided crossing, where its
denominators take different forms.  ``run_round(c=1)`` is a 100-step round
and its step-halving twin, the shape of most benchmark rounds; at about
0.1 ms a call it takes most of the script's time.  The run is
single-threaded; give the CPU model beside any number taken from it.
"""

import argparse
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from padia.dynamics import run_round  # noqa: E402
from padia.model import evolution_window, make_instance  # noqa: E402
from padia.spectrum import bound_report, spectral_point  # noqa: E402

N_ITEMS, N_MARKED = 4096, 32


def per_call_ns(number: int, repeat: int) -> dict[str, float]:
    """Fastest-run nanoseconds per call of each timed call, in print order."""
    inst = make_instance(N_ITEMS, N_MARKED)
    calls = {
        "make_instance": lambda: make_instance(N_ITEMS, N_MARKED),
        "evolution_window": lambda: evolution_window(inst),
        "spectral_point(s=0.3)": lambda: spectral_point(inst, 0.3),
        "spectral_point(s=0.7)": lambda: spectral_point(inst, 0.7),
        "bound_report": lambda: bound_report(inst),
        "run_round(c=1)": lambda: run_round(inst, 1.0),
    }
    return {
        name: 1e9 * min(timeit.repeat(call, number=number, repeat=repeat)) / number
        for name, call in calls.items()
    }


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
        print(f"{name:<22} {ns:>9.1f} ns")
    return 0


if __name__ == "__main__":
    sys.exit(main())
