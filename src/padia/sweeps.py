"""Scaling sweeps, power-law fitting, and machine-readable emission.

A sweep walks a grid of (N, M) instances, collects the analytic quantities
for each into a SweepRecord, optionally attaches a simulated round-success
value, and fits log(t_expected) against the swept axis by ordinary least
squares.  One duration multiplier c scales every schedule: a grid point
lasts c times its schedule's nominal duration (``dynamics.make_schedule``),
and a simulated point runs ``dynamics.schedule_step_count`` steps: those
that Magnus-4's leading error term asks for on the partial and global
schedules, 64 per unit time on the local one.
Emission is deliberately dumb: a fixed-schema CSV (floats printed with 17
significant digits so they round-trip losslessly) or a JSON document with
the records under ``records`` and the fit under ``fit``.

Tables are written column-wise and streamed: ``csv_chunks`` and
``json_chunks`` take a table as an iterable of column blocks (mappings of
equal-length columns with one key order; a whole table is ``[columns]``).
They check each block's column lengths and pick one printf spec per column
of it, the first block when they are called and every later one when the
text reaches it, then yield the text in pieces of at most ``BLOCK_ROWS``
rows.  Each piece slices every column and fills one per-row template.  A
producer that yields its columns a block at a time (``padia spectrum``
computes ``spectral_columns`` on ``BLOCK_ROWS`` grid points per block) keeps
the whole command's peak memory from growing with the row count; its input
grid is the one array left that does.  Joined, the chunks are
byte-identical to the row-by-row rendering (``json.dumps(payload,
indent=2)`` for JSON); ``rows_to_csv`` joins the CSV chunks of a row list.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from .dynamics import evolve, make_schedule, schedule_step_count
from .model import SearchInstance, initial_state, make_instance
from .spectrum import (
    BoundReport,
    SpectralPoint,
    bound_report,
    min_gap,
)

__all__ = [
    "DegenerateFit",
    "FitResult",
    "SweepRecord",
    "fit_loglog",
    "make_sweep_record",
    "sweep",
    "run_parallel",
    "sweep_records_to_rows",
    "spectral_points_to_rows",
    "bound_reports_to_rows",
    "rows_to_csv",
    "rows_to_columns",
    "csv_chunks",
    "json_chunks",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

# Rows formatted per chunk by csv_chunks/json_chunks: large enough that the
# per-block overhead vanishes, small enough that a block's text and arguments
# stay well under a megabyte.
BLOCK_ROWS = 2048


class DegenerateFit(ValueError):
    """The abscissa carries no information (all x values equal)."""


class FitResult(NamedTuple):
    """Least-squares line through (log x, log y)."""

    slope: float
    intercept: float
    r_squared: float
    axis: str


class SweepRecord(NamedTuple):
    """One grid point of a scaling sweep.

    t_prime is the schedule's duration for every kind: c * sqrt(N)/M for
    the partial sweep.  For the partial schedule p_adiabatic is the analytic
    one-round success probability; for the baseline schedules one sweep of
    the full interval ends in the target ground state, so p_adiabatic is 1.
    Either way t_expected = t_prime / p_adiabatic.
    """

    n_items: int
    n_marked: int
    schedule_kind: str
    g_min: float
    t_prime: float
    p_adiabatic: float
    t_expected: float
    ov_psi_minus: float
    ov_beta_plus: float
    bounds_hold: bool
    sim_success: float | None = None


def fit_loglog(xs: Sequence[float], ys: Sequence[float], axis: str = "x") -> FitResult:
    """Ordinary least squares on (log x, log y).

    Requires equal lengths, at least three points, and strictly positive,
    finite data.  r_squared is the squared correlation; a perfectly flat
    response is reported as 1.0.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} x values vs {len(ys)} y values")
    if len(xs) < 3:
        raise ValueError(f"need at least 3 points to fit, got {len(xs)}")
    if not all(0.0 < v < math.inf for v in (*xs, *ys)):  # NaN fails this test too
        raise ValueError("log-log fit needs strictly positive, finite data")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mean_x = sum(lx) / len(lx)
    mean_y = sum(ly) / len(ly)
    sxx = sum((x - mean_x) ** 2 for x in lx)
    syy = sum((y - mean_y) ** 2 for y in ly)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(lx, ly))
    if sxx == 0.0:
        raise DegenerateFit("all x values are equal; slope is undefined")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    r_squared = 1.0 if syy == 0.0 else (sxy * sxy) / (sxx * syy)
    return FitResult(slope=slope, intercept=intercept, r_squared=r_squared, axis=axis)


def make_sweep_record(
    instance: SearchInstance,
    schedule_kind: str = "partial",
    time_multiplier: float = 1.0,
    simulate: bool = False,
) -> SweepRecord:
    """Evaluate one (N, M) grid point."""
    g_min, _ = min_gap(instance)
    report = bound_report(instance)
    schedule = make_schedule(instance, schedule_kind, time_multiplier)
    t_prime = schedule.total_time
    p_adiabatic = report.p_one_round if schedule.kind == "partial" else 1.0
    sim_success = None
    if simulate:
        steps = schedule_step_count(instance, schedule)
        outcome = evolve(instance, schedule, steps, initial_state(instance))
        sim_success = outcome.success_probability
    return SweepRecord(
        n_items=instance.n_items,
        n_marked=instance.n_marked,
        schedule_kind=schedule_kind,
        g_min=g_min,
        t_prime=t_prime,
        p_adiabatic=p_adiabatic,
        t_expected=t_prime / p_adiabatic,
        ov_psi_minus=report.ov_psi_at_s_minus,
        ov_beta_plus=report.ov_beta_at_s_plus,
        bounds_hold=report.all_bounds_hold,
        sim_success=sim_success,
    )


def run_parallel(
    fn: Callable[[_T], _R], items: Sequence[_T], workers: int = 1
) -> list[_R]:
    """Map over items on a bounded thread pool, preserving input order."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported here: concurrent.futures costs a few ms at start-up, and only
    # a pool uses it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def sweep(
    axis: str,
    fixed_value: int,
    grid: Sequence[int],
    schedule_kind: str = "partial",
    time_multiplier: float = 1.0,
    simulate: bool = False,
    workers: int = 1,
) -> tuple[list[SweepRecord], FitResult]:
    """Sweep N (axis='n', fixed M) or M (axis='m', fixed N) over a grid.

    Returns records sorted by (n, m) together with the log-log fit of
    t_expected against the swept axis.
    """
    if axis not in ("n", "m"):
        raise ValueError(f"axis must be 'n' or 'm', got {axis!r}")
    if len(grid) < 5:
        raise ValueError(f"need a grid of at least 5 points, got {len(grid)}")
    if axis == "n":
        instances = [make_instance(n, fixed_value) for n in grid]
    else:
        instances = [make_instance(fixed_value, m) for m in grid]

    def job(instance: SearchInstance) -> SweepRecord:
        return make_sweep_record(
            instance,
            schedule_kind=schedule_kind,
            time_multiplier=time_multiplier,
            simulate=simulate,
        )

    records = run_parallel(job, instances, workers)
    records.sort(key=lambda r: (r.n_items, r.n_marked))
    xs = [float(r.n_items if axis == "n" else r.n_marked) for r in records]
    ys = [r.t_expected for r in records]
    fit = fit_loglog(xs, ys, axis=f"log t_expected vs log {axis}")
    return records, fit


# --- emission -----------------------------------------------------------

def format_float(value: float) -> str:
    """17 significant digits: enough for a lossless float round-trip."""
    return f"{value:.17g}"


def sweep_records_to_rows(records: Iterable[SweepRecord]) -> list[dict]:
    """Rows keyed exactly like the CSV header (and the JSON mirror)."""
    return [
        {
            "n": r.n_items,
            "m": r.n_marked,
            "schedule": r.schedule_kind,
            "g_min": r.g_min,
            "t_prime": r.t_prime,
            "p_adiabatic": r.p_adiabatic,
            "t_expected": r.t_expected,
            "ov_psi_minus": r.ov_psi_minus,
            "ov_beta_plus": r.ov_beta_plus,
            "bounds_hold": r.bounds_hold,
            "sim_success": r.sim_success,
        }
        for r in records
    ]


def spectral_points_to_rows(points: Iterable[SpectralPoint]) -> list[dict]:
    return [point._asdict() for point in points]


def bound_reports_to_rows(reports: Iterable[tuple[int, int, BoundReport]]) -> list[dict]:
    return [
        {
            "n": n,
            "m": m,
            "ov_psi_minus": rep.ov_psi_at_s_minus,
            "ov_beta_plus": rep.ov_beta_at_s_plus,
            "p_one_round": rep.p_one_round,
            "window_factor": rep.window_factor,
            "alpha_weight": rep.alpha_weight,
            "beta_weight": rep.beta_weight,
            "end_ratio": rep.end_ratio,
            "bounds_hold": rep.all_bounds_hold,
        }
        for n, m, rep in reports
    ]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _json_cell(value) -> str:
    """One record value as json.dumps(payload, indent=2) writes it, three
    levels deep (payload, records list, row)."""
    return json.dumps(value, indent=2).replace("\n", "\n      ")


def rows_to_columns(rows: Sequence[dict]) -> dict[str, list]:
    """Columns of rows that share one key order (the first row's)."""
    if not rows:
        return {}
    return {key: [row[key] for row in rows] for key in rows[0]}


def _float_array(column) -> np.ndarray | None:
    """The column as a float64 array if every value is a float, else None."""
    if isinstance(column, np.ndarray):
        return column if column.dtype == np.float64 else None
    if all(isinstance(value, float) for value in column):
        return np.asarray(column, dtype=np.float64)
    return None


def _plan(
    columns: Mapping[str, Sequence], keys: list[str], float_spec: str, finite_only: bool
) -> tuple[int, list[str], list[tuple[np.ndarray | None, Sequence]]]:
    """Row count, one printf spec per column and each column's source, of one block.

    This is the eager pass over a block: it checks that the block has the
    table's ``keys`` in their order and columns of one length, and picks each
    column's spec.  A float column (with ``finite_only``, one without NaN or
    infinities in this block) is printed under ``float_spec`` from its
    float64 array; any other column keeps ``None`` there and is formatted
    cell by cell under ``%s``.  Choosing per block prints what choosing per
    table would: ``_cell(x)`` is ``"%.17g" % x`` for every float, and
    ``_json_cell(x)`` is ``repr(x)`` for every finite one.
    """
    if list(columns) != keys:
        raise ValueError(f"block keys {list(columns)} differ from the first block's {keys}")
    specs, sources = [], []
    for column in columns.values():
        floats = _float_array(column)
        if floats is not None and (not finite_only or np.isfinite(floats).all()):
            specs.append(float_spec)
            sources.append((floats, column))
        else:
            specs.append("%s")
            sources.append((None, column))
    lengths = {len(column) for column in columns.values()}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    return (lengths.pop() if lengths else 0), specs, sources


def _plans(
    table: Iterable[Mapping[str, Sequence]], float_spec: str, finite_only: bool
) -> tuple[list[str], Iterator[tuple[int, list[str], list]]]:
    """The table's keys (its first block's) and the ``_plan`` of each block.

    The first block is planned now, so a malformed one-block table raises
    before any text exists; each later block is planned when the iterator
    reaches it.  A table without blocks has no keys and no rows.
    """
    blocks = iter(table)
    first = next(blocks, {})
    keys = list(first)
    rest = (_plan(block, keys, float_spec, finite_only) for block in blocks)
    return keys, itertools.chain([_plan(first, keys, float_spec, finite_only)], rest)


def _blocks(
    n_rows: int, sources: list[tuple[np.ndarray | None, Sequence]], cell: Callable[[object], str]
) -> Iterator[tuple[int, tuple]]:
    """Row count and row-major arguments of each piece of ``BLOCK_ROWS`` rows."""
    for start in range(0, n_rows, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n_rows)
        parts = []
        for floats, column in sources:
            if floats is not None:
                parts.append(floats[start:stop].tolist())
            else:
                cells = column[start:stop]
                if isinstance(cells, np.ndarray):
                    cells = cells.tolist()
                parts.append([cell(value) for value in cells])
        yield stop - start, tuple(itertools.chain.from_iterable(zip(*parts)))


def csv_chunks(table: Iterable[Mapping[str, Sequence]]) -> Iterator[str]:
    """A table of column blocks as CSV with a header line, in pieces of rows.

    ``table`` yields blocks: mappings of equal-length columns, with the same
    keys in the same order in every block (a whole table is ``[columns]``).
    Floats carry 17 significant digits (``format_float``); a table without
    rows yields nothing.  The first block is checked when this is called;
    the returned iterator formats at most ``BLOCK_ROWS`` rows per item.
    """
    keys, plans = _plans(table, "%.17g", finite_only=False)
    header = ",".join(keys) + "\n"

    def chunks() -> Iterator[str]:
        prefix = header
        for n_rows, specs, sources in plans:
            row = ",".join(specs) + "\n"
            for k, values in _blocks(n_rows, sources, _cell):
                yield prefix + (row * k) % values
                prefix = ""

    return chunks()


def json_chunks(
    table: Iterable[Mapping[str, Sequence]], extra: dict | None = None
) -> Iterator[str]:
    """A table of column blocks as ``{"records": [...], **extra}``, in pieces of rows.

    ``table`` is read as by ``csv_chunks``.  Joined, the text equals
    ``json.dumps(payload, indent=2) + "\\n"`` for the payload holding one
    dict per row.  Finite float columns are written with ``float.__repr__``;
    a block's column holding NaN or an infinity is written cell by cell, as
    ``NaN``/``Infinity``/``-Infinity``.  The first block is checked and
    ``extra`` is rendered when this is called; the returned iterator formats
    at most ``BLOCK_ROWS`` records per item.
    """
    keys, plans = _plans(table, "%r", finite_only=True)
    names = [f"      {json.dumps(key).replace('%', '%%')}: " for key in keys]
    tail = "".join(
        f",\n  {json.dumps(key)}: " + json.dumps(value, indent=2).replace("\n", "\n  ")
        for key, value in (extra or {}).items()
    ) + "\n}\n"

    def chunks() -> Iterator[str]:
        separator = '{\n  "records": [\n'
        for n_rows, specs, sources in plans:
            row = "    {\n" + ",\n".join(name + spec for name, spec in zip(names, specs)) + "\n    }"
            for k, values in _blocks(n_rows, sources, _json_cell):
                yield separator + ",\n".join([row] * k) % values
                separator = ",\n"
        yield ("\n  ]" if separator == ",\n" else '{\n  "records": []') + tail

    return chunks()


def rows_to_csv(rows: Sequence[dict]) -> str:
    """Render rows (all sharing one key order) as CSV with a header line."""
    return "".join(csv_chunks([rows_to_columns(rows)]))
