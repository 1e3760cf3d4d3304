"""Command-line surface: spectrum | bounds | evolve | sweep | certify.

Exit codes are a stable contract for CI: 0 when everything passed, 1 when a
bound check, certification, or integration failed, 2 on usage errors.
Tables are emitted as CSV (default) or JSON; JSON documents put the rows
under ``records`` and, for sweeps, the power-law fit under ``fit``.  Every
table is built and written column-wise; an ``--out`` regular file is
replaced atomically.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
from typing import Sequence

import numpy as np

from .dynamics import (
    NormDriftExceeded,
    default_step_count,
    evolve,
    make_global_schedule,
    make_local_schedule,
    make_partial_schedule,
    draw_repeat_stats,
)
from .model import initial_state, make_instance
from .oracle import (
    CapacityExceeded,
    ConvergenceFailure,
    certify_reduction,
    make_full_instance,
)
from .spectrum import bound_report, spectral_columns
from .sweeps import (
    DEFAULT_LOCAL_KNOTS,
    bound_reports_to_rows,
    columns_to_csv,
    columns_to_json,
    rows_to_columns,
    run_parallel,
    sweep,
    sweep_records_to_rows,
)

__all__ = ["main"]

CERTIFY_TOLERANCE = 1e-9
CERTIFY_N_CAP = 1024

_DEFAULT_BOUNDS_N = [4**k for k in range(1, 13)]  # 2^2 .. 2^24
_DEFAULT_SWEEP_N = [2**k for k in range(6, 17)]
_DEFAULT_SWEEP_M = [2**k for k in range(0, 9)]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value > 0.0 or not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"all values must be positive, got {values}")
    return values


def _resolve_workers(args: argparse.Namespace) -> int:
    if getattr(args, "workers", None) is not None:
        return args.workers
    env = os.environ.get("PADIA_WORKERS")
    if env is None:
        return 1
    try:
        workers = int(env)
    except ValueError:
        raise SystemExit(f"error: PADIA_WORKERS must be an integer, got {env!r}") from None
    if workers < 1:
        raise SystemExit(f"error: PADIA_WORKERS must be positive, got {workers}")
    return workers


def _emit(text: str, out_path: str | None) -> None:
    """Write to stdout, or to ``out_path``.

    A regular file (or a path that does not exist yet) is replaced
    atomically: the text goes to a temporary file beside the target, which
    takes the target's permission bits and is then renamed over it, so a
    failed write never leaves a truncated table.  Anything else (a device
    such as ``/dev/stdout``, a FIFO, a process-substitution pipe) is opened
    and written in place.
    """
    if out_path is None:
        sys.stdout.write(text)
        return
    target = os.path.realpath(out_path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    directory, name = os.path.split(target)
    tmp_path = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp_path, "x", encoding="utf-8") as handle:
            handle.write(text)
        if mode is not None:
            os.chmod(tmp_path, stat.S_IMODE(mode))
        os.replace(tmp_path, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp_path)
        raise


def _emit_table(columns: dict, args: argparse.Namespace, extra: dict | None = None) -> None:
    if args.output == "json":
        _emit(columns_to_json(columns, extra), args.out)
    else:
        _emit(columns_to_csv(columns), args.out)


def _divisors(n: int) -> list[int]:
    small, large = [], []
    for i in range(1, math.isqrt(n) + 1):
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
    return small + large[::-1]


def _m_values(n: int, rule: str) -> list[int]:
    if rule == "one":
        return [1]
    if rule == "sqrt":
        return [math.isqrt(n)]
    if rule == "half":
        return [max(1, n // 2)]
    if rule == "all-divisors":
        return _divisors(n)
    raise ValueError(f"unknown m-rule {rule!r}")


def _build_schedule(instance, args):
    if args.schedule == "partial":
        return make_partial_schedule(instance, args.c)
    if args.schedule == "global":
        return make_global_schedule(instance, args.c)
    return make_local_schedule(instance, args.epsilon, args.knots)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    instance = make_instance(args.n, args.m)
    columns = spectral_columns(instance, np.linspace(0.0, 1.0, args.points))
    _emit_table(columns, args)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    workers = _resolve_workers(args)
    cases = []
    for n in args.n_list:
        for m in sorted(set(_m_values(n, args.m_rule))):
            cases.append((n, m))
    cases.sort()
    reports = run_parallel(lambda nm: bound_report(make_instance(*nm)), cases, workers)
    rows = bound_reports_to_rows(
        [(n, m, rep) for (n, m), rep in zip(cases, reports)]
    )
    _emit_table(rows_to_columns(rows), args)
    violations = [
        (n, m, rep.failures) for (n, m), rep in zip(cases, reports) if not rep.all_bounds_hold
    ]
    for n, m, failures in violations:
        print(f"bound violation at N={n}, M={m}: {', '.join(failures)}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    instance = make_instance(args.n, args.m)
    schedule = _build_schedule(instance, args)
    steps = args.steps if args.steps is not None else default_step_count(schedule.total_time)
    outcome = evolve(instance, schedule, steps, initial_state(instance))
    payload = {
        "n": args.n,
        "m": args.m,
        "schedule": schedule.kind,
        "total_time": schedule.total_time,
        "steps": steps,
        "success_probability": outcome.success_probability,
        "ground_fidelity": outcome.ground_fidelity,
        "norm_drift": outcome.norm_drift,
        "error_estimate": outcome.error_estimate,
    }
    if args.repeat:
        stats = draw_repeat_stats(
            outcome.success_probability, schedule.total_time, args.seed, args.max_rounds
        )
        payload["repeat"] = {
            "seed": args.seed,
            "max_rounds": args.max_rounds,
            "rounds_used": stats.rounds_used,
            "total_evolution_time": stats.total_evolution_time,
            "succeeded": stats.succeeded,
        }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    workers = _resolve_workers(args)
    grid = args.grid if args.grid is not None else (
        _DEFAULT_SWEEP_N if args.axis == "n" else _DEFAULT_SWEEP_M
    )
    kind = {"partial": "partial", "global": "global_linear", "local": "local_adiabatic"}[
        args.schedule
    ]
    records, fit = sweep(
        axis=args.axis,
        fixed_value=args.fixed,
        grid=grid,
        schedule_kind=kind,
        time_multiplier=args.c,
        epsilon=args.epsilon,
        steps=args.steps,
        simulate=args.simulate,
        workers=workers,
        local_knots=args.knots,
    )
    fit_payload = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "axis": fit.axis,
    }
    columns = rows_to_columns(sweep_records_to_rows(records))
    if args.output == "json":
        _emit_table(columns, args, extra={"fit": fit_payload})
    else:
        _emit_table(columns, args)
        print(
            f"fit [{fit.axis}]: slope={fit.slope:.6f} intercept={fit.intercept:.6f} "
            f"r_squared={fit.r_squared:.6f}",
            file=sys.stderr,
        )
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    workers = _resolve_workers(args)
    s_grid = np.linspace(0.0, 1.0, args.points)
    cases = []
    n = 2
    while n <= args.n_max:
        for m in sorted({1, math.isqrt(n), max(1, n // 2), n}):
            cases.append((n, m))
        n *= 2

    def job(case: tuple[int, int]) -> float:
        n_items, m = case
        full = make_full_instance(n_items, range(m))
        return certify_reduction(full, s_grid)

    errors = run_parallel(job, cases, workers)
    worst = max(errors)
    worst_case = cases[errors.index(worst)]
    print(
        f"certified {len(cases)} (N, M) cases up to N={args.n_max} "
        f"on a {args.points}-point s grid"
    )
    print(
        f"worst |dense - closed-form| discrepancy: {worst:.3e} "
        f"at (N, M) = {worst_case}"
    )
    if worst > CERTIFY_TOLERANCE:
        print(f"FAIL: above tolerance {CERTIFY_TOLERANCE:.0e}", file=sys.stderr)
        return 1
    print(f"PASS: within tolerance {CERTIFY_TOLERANCE:.0e}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padia",
        description=(
            "Analytic and numerical study of quantum search that sweeps only a "
            "narrow window of the interpolating Hamiltonian around its minimum gap."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", choices=("csv", "json"), default="csv", help="table format"
    )
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker threads for grid evaluation (default: $PADIA_WORKERS or 1)",
    )
    common.add_argument(
        "--seed", type=_nonnegative_int, default=0, help="seed for any random draws"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser(
        "spectrum", parents=[common], help="eigenvalues, gap, and overlaps on an s grid"
    )
    p_spec.add_argument("--n", type=_positive_int, required=True, help="number of items")
    p_spec.add_argument("--m", type=_positive_int, required=True, help="number of marked items")
    p_spec.add_argument(
        "--points", type=_positive_int, default=21, help="number of s grid points (>= 2)"
    )
    p_spec.set_defaults(handler=_cmd_spectrum)

    p_bounds = sub.add_parser(
        "bounds", parents=[common], help="success-probability bound chain over an N grid"
    )
    p_bounds.add_argument(
        "--n-list",
        type=_int_list,
        default=_DEFAULT_BOUNDS_N,
        help="comma-separated N values (default: 4,16,...,16777216)",
    )
    p_bounds.add_argument(
        "--m-rule",
        choices=("one", "sqrt", "half", "all-divisors"),
        default="one",
        help="rule generating M values for each N",
    )
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_evolve = sub.add_parser(
        "evolve", parents=[common], help="integrate one round and report the outcome"
    )
    p_evolve.add_argument("--n", type=_positive_int, required=True)
    p_evolve.add_argument("--m", type=_positive_int, required=True)
    p_evolve.add_argument(
        "--c", type=_positive_float, default=1.0, help="duration multiplier"
    )
    p_evolve.add_argument(
        "--steps",
        type=_positive_int,
        default=None,
        help="integration steps (default: 64/unit time, at least 100)",
    )
    p_evolve.add_argument(
        "--schedule", choices=("partial", "global", "local"), default="partial"
    )
    p_evolve.add_argument(
        "--epsilon", type=_positive_float, default=1.0, help="local-schedule rate constant"
    )
    p_evolve.add_argument(
        "--knots",
        type=_positive_int,
        default=DEFAULT_LOCAL_KNOTS,
        help="local-schedule tabulation knots",
    )
    p_evolve.add_argument(
        "--repeat", action="store_true", help="also draw repeat-until-success statistics"
    )
    p_evolve.add_argument("--max-rounds", type=_positive_int, default=10_000)
    p_evolve.set_defaults(handler=_cmd_evolve)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="scaling sweep with a log-log power-law fit"
    )
    p_sweep.add_argument("--axis", choices=("n", "m"), required=True)
    p_sweep.add_argument(
        "--fixed",
        type=_positive_int,
        required=True,
        help="fixed M (axis=n) or fixed N (axis=m)",
    )
    p_sweep.add_argument(
        "--grid",
        type=_int_list,
        default=None,
        help="comma-separated grid for the swept axis (>= 5 points)",
    )
    p_sweep.add_argument(
        "--schedule", choices=("partial", "global", "local"), default="partial"
    )
    p_sweep.add_argument("--c", type=_positive_float, default=1.0)
    p_sweep.add_argument("--steps", type=_positive_int, default=None)
    p_sweep.add_argument("--epsilon", type=_positive_float, default=1.0)
    p_sweep.add_argument("--knots", type=_positive_int, default=DEFAULT_LOCAL_KNOTS)
    p_sweep.add_argument(
        "--simulate",
        action="store_true",
        help="also integrate each grid point and record the simulated success",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_cert = sub.add_parser(
        "certify", parents=[common], help="dense cross-check of the two-level reduction"
    )
    p_cert.add_argument(
        "--n-max", type=_positive_int, default=256, help=f"largest N (<= {CERTIFY_N_CAP})"
    )
    p_cert.add_argument(
        "--points", type=_positive_int, default=21, help="s grid points per case"
    )
    p_cert.set_defaults(handler=_cmd_certify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "spectrum" and args.points < 2:
        parser.error("--points must be at least 2")
    if args.command == "sweep" and args.grid is not None and len(args.grid) < 5:
        parser.error("--grid needs at least 5 points")
    if args.command == "certify" and args.n_max > CERTIFY_N_CAP:
        parser.error(f"--n-max must be at most {CERTIFY_N_CAP}")
    if args.command == "evolve" and args.knots < 100:
        parser.error("--knots must be at least 100")
    if args.command == "sweep" and args.knots < 100:
        parser.error("--knots must be at least 100")

    try:
        return args.handler(args)
    except (ValueError, CapacityExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NormDriftExceeded, ConvergenceFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
