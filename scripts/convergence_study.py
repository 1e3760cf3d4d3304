#!/usr/bin/env python3
"""Slow-sweep convergence study for one instance.

For each duration multiplier c the table reports, after one simulated round:

  success      |amp_beta|^2, the marked-outcome probability of a measurement
  fidelity     overlap with the instantaneous ground state at the window end
  |fid - a0^2| distance of that fidelity from |<Psi|E0(s-)>|^2
  |succ - P|   distance of the success probability from the overlap product P

The fidelity column converges as c grows: level transitions die out and the
ground-state population settles at the value deposited by the sudden switch.
The success column does not converge to P: the surviving excited population
interferes with the ground component at measurement, so |amp_beta|^2
oscillates with c inside the band P + a1^2 b1^2 +- 2 a0 b0 a1 b1.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from padia.dynamics import run_round  # noqa: E402
from padia.model import make_instance  # noqa: E402
from padia.spectrum import bound_report  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument(
        "--c-list", default="1,4,16,64,256", help="comma-separated duration multipliers"
    )
    args = parser.parse_args()

    inst = make_instance(args.n, args.m)
    report = bound_report(inst)
    a0_sq, b0_sq, p = report.ov_psi_at_s_minus, report.ov_beta_at_s_plus, report.p_one_round
    cross = 2.0 * (a0_sq * b0_sq * (1.0 - a0_sq) * (1.0 - b0_sq)) ** 0.5
    offset = (1.0 - a0_sq) * (1.0 - b0_sq)

    print(f"N={args.n} M={args.m}  P={p:.6f}  a0^2={a0_sq:.6f}  b0^2={b0_sq:.6f}")
    print(f"interference band: P + {offset:.4f} +- {cross:.4f}")
    print(f"{'c':>6} {'success':>10} {'fidelity':>10} {'|fid-a0^2|':>11} {'|succ-P|':>9}")
    for c_text in args.c_list.split(","):
        c = float(c_text)
        out = run_round(inst, c)
        print(
            f"{c:>6g} {out.success_probability:>10.6f} {out.ground_fidelity:>10.6f} "
            f"{abs(out.ground_fidelity - a0_sq):>11.2e} "
            f"{abs(out.success_probability - p):>9.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
