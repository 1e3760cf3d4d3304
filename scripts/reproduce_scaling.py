#!/usr/bin/env python3
"""Run the three headline scaling sweeps and write their CSV tables.

Emits, into --outdir:
  expected_time_vs_n.csv   partial protocol, M = 1, N = 2^6 .. 2^16
  expected_time_vs_m.csv   partial protocol, N = 2^16, M = 1 .. 2^8
  local_baseline_vs_m.csv  gap-adapted full-interval baseline, same M grid

and prints the fitted log-log slopes.  Expected: ~ +0.51 for the first sweep,
~ -0.84 for the second (the one-round success probability slides between its
M = 1 value and its large-M plateau of 1/4 across this grid), and ~ -0.51 for
the baseline, exhibiting the sqrt(M) separation between the two protocols.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from padia.sweeps import (  # noqa: E402
    csv_chunks,
    rows_to_columns,
    sweep,
    sweep_records_to_rows,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    jobs = [
        ("expected_time_vs_n.csv", dict(axis="n", fixed_value=1,
                                        grid=[2**k for k in range(6, 17)])),
        ("expected_time_vs_m.csv", dict(axis="m", fixed_value=2**16,
                                        grid=[2**k for k in range(0, 9)])),
        ("local_baseline_vs_m.csv", dict(axis="m", fixed_value=2**16,
                                         grid=[2**k for k in range(0, 9)],
                                         schedule_kind="local_adiabatic")),
    ]
    for filename, kwargs in jobs:
        records, fit = sweep(**kwargs)
        path = outdir / filename
        with path.open("w", encoding="utf-8") as handle:
            handle.writelines(csv_chunks(rows_to_columns(sweep_records_to_rows(records))))
        print(f"{filename}: slope={fit.slope:+.4f} r^2={fit.r_squared:.5f} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
