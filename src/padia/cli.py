"""Command-line surface: spectrum | bounds | evolve | sweep | certify.

Exit codes are a stable contract for CI: 0 when everything passed, 1 when a
bound check, certification, or integration failed, 2 on usage errors (a flag
the subcommand does not take, or an ``--out`` that cannot be written, among
them).  The table commands (spectrum,
bounds, sweep) take ``--output csv|json`` and ``--out``; JSON documents put
the rows under ``records`` and, for sweeps, the power-law fit under ``fit``.
``evolve`` always writes JSON, to stdout or ``--out``; ``certify`` prints a
text report to stdout.  Every table is built column-wise and written one
block of rows per piece of text (``spectrum`` computes ``BLOCK_ROWS`` rows a
block); an ``--out`` regular file is replaced atomically.  A standard output
that is closed, early or from the start, or full is reported like an
``--out`` that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import stat
import sys
from typing import Iterable, Sequence

import numpy as np

from .dynamics import (
    NormDriftExceeded,
    check_max_rounds,
    draw_repeat_stats,
    evolve,
    make_schedule,
    schedule_step_count,
)
from .model import initial_state, make_instance
from .oracle import ConvergenceFailure, certify_reduction, make_full_instance
from .spectrum import bound_report, spectral_columns
from .sweeps import (
    bound_columns,
    csv_chunks,
    json_chunks,
    sweep,
    sweep_columns,
)

__all__ = ["main"]

CERTIFY_TOLERANCE = 1e-9
CERTIFY_N_CAP = 1024
# A certify s point costs about 0.2-0.3 s over the 37 cases up to N = 1024 on
# one BLAS thread, so a grid of this many points takes under an hour there;
# more is refused up front rather than run for days.
_CERTIFY_MAX_POINTS = 10**4
# At 3-5 microseconds a row, a spectrum table of this many points takes under
# a minute; more is refused up front rather than run for hours.
MAX_POINTS = 10**7
# Grid points per spectrum block, computed and written as one piece of text:
# enough to hide the per-block cost, few enough to keep a block under a megabyte.
BLOCK_ROWS = 2048

# Tuples: the parser is reused, so every call gets the same default object.
_DEFAULT_BOUNDS_N = tuple(4**k for k in range(1, 13))  # 2^2 .. 2^24
_DEFAULT_SWEEP_N = tuple(2**k for k in range(6, 17))
_DEFAULT_SWEEP_M = tuple(2**k for k in range(0, 9))

# _divisors tries prime factors below this bound only, at most 2^21 divisions.
# A cofactor left without a factor below it is prime if it is below 2^44, the
# bound's square; from 2^44 on it is refused.
_TRIAL_DIVISION_LIMIT = 2**22

# The --schedule choices of evolve and sweep, mapped to Schedule.kind.
_SCHEDULE_KINDS = {"partial": "partial", "global": "global_linear", "local": "local_adiabatic"}


def _int_range(low: int, high: int | None = None):
    """An argparse type for integers in [low, high]; no upper end when high is None."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low or (high is not None and value > high):
            allowed = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"expected an integer {allowed}, got {value}")
        return value

    return parse


_positive_int = _int_range(1)


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


class _UnwritableOut(Exception):
    """An ``--out`` path could not be written or put in place (a usage error)."""


@contextlib.contextmanager
def _writing(out_path: str):
    """Turn an ``OSError`` from writing ``out_path`` into one line."""
    try:
        yield
    except OSError as exc:
        raise _UnwritableOut(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write ``chunks`` in order to stdout, or to ``out_path``.

    A regular file (or a path that does not exist yet) is replaced
    atomically: the text goes to a temporary file beside the target, which
    takes the target's permission bits and is then renamed over it, so a
    failed write never leaves a truncated table.  Anything else (a device
    such as ``/dev/stdout``, a FIFO, a process-substitution pipe) is opened
    and written in place.  A path that cannot be opened, written or renamed
    into place (a directory, a missing parent, a busy mount point) raises
    ``_UnwritableOut``, and no temporary file is left.  So does a standard
    output closed at start-up or one that cannot be written (a pipe whose
    reader has gone, a full device); in the latter case fd 1 is pointed at
    the null device, so the flush at exit neither prints an "Exception
    ignored" line nor changes the exit status.
    """
    if out_path is None:
        if sys.stdout is None:
            raise _UnwritableOut("cannot write <stdout>: it is closed")
        try:
            with _writing("<stdout>"):
                sys.stdout.writelines(chunks)
                sys.stdout.flush()
        except _UnwritableOut:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise
        return
    target = os.path.realpath(out_path)
    try:
        mode = os.stat(target).st_mode
    except OSError:  # missing, or unreachable: opening the temporary file says which
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with _writing(out_path), open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        return
    directory, name = os.path.split(target)
    tmp_path = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        with _writing(out_path):
            with open(tmp_path, "x", encoding="utf-8") as handle:
                handle.writelines(chunks)
            if mode is not None:
                os.chmod(tmp_path, stat.S_IMODE(mode))
            os.replace(tmp_path, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError, NotADirectoryError):
            os.remove(tmp_path)
        raise


def _emit_table(
    table: Iterable[dict], args: argparse.Namespace, extra: dict | None = None
) -> None:
    """Write a table of column blocks as ``--output`` asks; ``extra`` joins a
    JSON document only.

    A whole table is one block, ``[columns]``.  The first block is checked
    before anything is written; each later block is computed and checked when
    the text reaches it.  Every nonempty block goes out as one piece of text,
    so the producer alone sets the block size.
    """
    chunks = json_chunks(table, extra) if args.output == "json" else csv_chunks(table)
    _emit(chunks, args.out)


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1 in increasing order, from n's prime factorisation.

    Trial division stops at the square root of the cofactor still to be
    split, so n = 2^62 costs one division per factor 2, and at
    _TRIAL_DIVISION_LIMIT.  Every n below 2^44 gets all its divisors; a
    cofactor of 2^44 or more left at the limit raises ValueError.
    """
    divisors, rest = [1], n
    for p in itertools.chain((2,), range(3, _TRIAL_DIVISION_LIMIT, 2)):
        if p * p > rest:
            break
        if rest % p == 0:
            powers = [1]
            while rest % p == 0:
                rest //= p
                powers.append(powers[-1] * p)
            divisors = [d * q for d in divisors for q in powers]
    if rest >= _TRIAL_DIVISION_LIMIT**2:
        raise ValueError(
            f"cannot list the divisors of N={n}: a cofactor of 2^44 or more has "
            f"no prime factor below 2^22"
        )
    if rest > 1:
        divisors += [d * rest for d in divisors]
    return sorted(divisors)


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


def _cmd_spectrum(args: argparse.Namespace) -> int:
    instance = make_instance(args.n, args.m)
    # The grid is the one whole-table array; the columns exist a block at a time.
    grid, step = np.linspace(0.0, 1.0, args.points), BLOCK_ROWS
    blocks = (spectral_columns(instance, grid[i:i + step]) for i in range(0, args.points, step))
    _emit_table(blocks, args)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    cases = sorted((n, m) for n in args.n_list for m in _m_values(n, args.m_rule))
    triples = [(n, m, bound_report(make_instance(n, m))) for n, m in cases]
    _emit_table([bound_columns(triples)], args)
    violations = [(n, m, rep.failures) for n, m, rep in triples if not rep.all_bounds_hold]
    for n, m, failures in violations:
        print(f"bound violation at N={n}, M={m}: {', '.join(failures)}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    check_max_rounds(args.max_rounds)
    instance = make_instance(args.n, args.m)
    schedule = make_schedule(instance, _SCHEDULE_KINDS[args.schedule], args.c)
    steps = args.steps if args.steps is not None else schedule_step_count(instance, schedule)
    outcome = evolve(instance, schedule, steps, initial_state(instance))
    payload = {
        "n": args.n,
        "m": args.m,
        "schedule": schedule.kind,
        "total_time": schedule.total_time,
        "steps": steps,
        **outcome._asdict(),
    }
    del payload["final_state"]
    if args.repeat:
        stats = draw_repeat_stats(
            outcome.success_probability, schedule.total_time, args.seed, args.max_rounds
        )
        payload["repeat"] = {"seed": args.seed, "max_rounds": args.max_rounds, **stats._asdict()}
    _emit([json.dumps(payload, indent=2) + "\n"], args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = args.grid if args.grid is not None else (
        _DEFAULT_SWEEP_N if args.axis == "n" else _DEFAULT_SWEEP_M
    )
    records, fit = sweep(
        axis=args.axis,
        fixed_value=args.fixed,
        grid=grid,
        schedule_kind=_SCHEDULE_KINDS[args.schedule],
        time_multiplier=args.c,
        simulate=args.simulate,
    )
    _emit_table([sweep_columns(records)], args, {"fit": fit._asdict()})
    if args.output == "csv":
        print(
            f"fit [{fit.axis}]: slope={fit.slope:.6f} intercept={fit.intercept:.6f} "
            f"r_squared={fit.r_squared:.6f}",
            file=sys.stderr,
        )
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    # Imported here: concurrent.futures costs a few ms at start-up, and only
    # certify, whose cases spend their time in BLAS, gains from threads.
    from concurrent.futures import ThreadPoolExecutor

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

    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        errors = list(pool.map(job, cases))
    # A NaN discrepancy fails, and ranks worst so that the report names it.
    worst, worst_case = max(zip(errors, cases), key=lambda pair: (math.isnan(pair[0]), pair[0]))
    failed = [case for case, error in zip(cases, errors) if not error <= CERTIFY_TOLERANCE]
    report = [
        f"certified {len(cases)} (N, M) cases up to N={args.n_max} "
        f"on a {args.points}-point s grid\n",
        f"worst |dense - closed-form| discrepancy: {worst:.3e} at (N, M) = {worst_case}\n",
        *(f"also above tolerance at (N, M) = {case}\n" for case in failed if case != worst_case),
    ]
    if failed:
        _emit(report, None)
        print(f"FAIL: above tolerance {CERTIFY_TOLERANCE:.0e}", file=sys.stderr)
        return 1
    _emit([*report, f"PASS: within tolerance {CERTIFY_TOLERANCE:.0e}\n"], None)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padia",
        description=(
            "Analytic and numerical study of quantum search that sweeps only a "
            "narrow window of the interpolating Hamiltonian around its minimum gap."
        ),
    )
    # Each flag that several commands take is defined once, on a parent parser.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default: stdout)")
    table = argparse.ArgumentParser(add_help=False, parents=[out])
    table.add_argument(
        "--output", choices=("csv", "json"), default="csv", help="table format"
    )
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--n", type=_positive_int, required=True, help="number of items")
    instance.add_argument("--m", type=_positive_int, required=True, help="number of marked items")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--schedule", choices=tuple(_SCHEDULE_KINDS), default="partial")
    run.add_argument(
        "--c",
        type=_positive_float,
        default=1.0,
        help="multiplies the schedule's nominal duration: √N/M (partial), N/M (global), "
        "the ε = 1 local-adiabatic sweep (local) (default: 1)",
    )
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker threads of certify; the other commands accept it and ignore it "
        "(default: 1)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser(
        "spectrum",
        parents=[table, pool, instance],
        help="eigenvalues, gap, and overlaps on an s grid",
    )
    p_spec.add_argument(
        "--points",
        type=_int_range(2, MAX_POINTS),
        default=21,
        help=f"number of s grid points (2 to {MAX_POINTS})",
    )
    p_spec.set_defaults(handler=_cmd_spectrum)

    p_bounds = sub.add_parser(
        "bounds", parents=[table, pool], help="success-probability bound chain over an N grid"
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
        "evolve",
        parents=[pool, instance, run, out],
        help="integrate one round and report the outcome",
    )
    p_evolve.add_argument(
        "--steps",
        type=_positive_int,
        default=None,
        help="integration steps (default: from Magnus-4's error bound for partial and "
        "global, at least 10; 64 per unit time for local, at least 100)",
    )
    p_evolve.add_argument(
        "--repeat", action="store_true", help="also draw repeat-until-success statistics"
    )
    p_evolve.add_argument("--max-rounds", type=_positive_int, default=10_000)
    p_evolve.add_argument(
        "--seed", type=_int_range(0), default=0, help="seed of the --repeat draws"
    )
    p_evolve.set_defaults(handler=_cmd_evolve)

    p_sweep = sub.add_parser(
        "sweep", parents=[table, pool, run], help="scaling sweep with a log-log power-law fit"
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
        "--simulate",
        action="store_true",
        help="also integrate each grid point and record the simulated success",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_cert = sub.add_parser(
        "certify", parents=[pool], help="dense cross-check of the two-level reduction"
    )
    p_cert.add_argument(
        "--n-max",
        type=_int_range(2, CERTIFY_N_CAP),
        default=256,
        help=f"largest N (2 to {CERTIFY_N_CAP})",
    )
    p_cert.add_argument(
        "--points",
        type=_int_range(1, _CERTIFY_MAX_POINTS),
        default=21,
        help=f"s grid points per case (1 to {_CERTIFY_MAX_POINTS})",
    )
    p_cert.set_defaults(handler=_cmd_certify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line; returns its exit code (usage errors exit 2).

    The parser is built on the first call and reused by every later call in
    the process.  Each call parses into a fresh namespace, so no parse state
    survives from one call to the next.
    """
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, _UnwritableOut) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NormDriftExceeded, ConvergenceFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
