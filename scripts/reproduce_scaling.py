#!/usr/bin/env python3
"""Run the three headline scaling sweeps and write their CSV tables.

Emits, into --outdir:
  expected_time_vs_n.csv   partial protocol, M = 1, N = 2^6 .. 2^16
  expected_time_vs_m.csv   partial protocol, N = 2^16, M = 1 .. 2^8
  local_baseline_vs_m.csv  gap-adapted full-interval baseline, same M grid

Each table is one ``padia sweep ... --out`` run on the CLI's default grids,
which prints its fitted log-log slope on stderr.  Expected: ~ +0.51 for the
first sweep, ~ -0.84 for the second (the one-round success probability slides
between its M = 1 value and its large-M plateau of 1/4 across this grid), and
~ -0.51 for the baseline, exhibiting the sqrt(M) separation between the two
protocols.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from padia import cli  # noqa: E402

TABLES = (
    ("expected_time_vs_n.csv", ["--axis", "n", "--fixed", "1"]),
    ("expected_time_vs_m.csv", ["--axis", "m", "--fixed", "65536"]),
    ("local_baseline_vs_m.csv", ["--axis", "m", "--fixed", "65536", "--schedule", "local"]),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {outdir}: {exc.strerror}", file=sys.stderr)
        return 2
    for filename, flags in TABLES:
        code = cli.main(["sweep", *flags, "--out", str(outdir / filename)])
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
