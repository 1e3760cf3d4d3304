"""Seeded job lists for the three benchmark workloads.

A job is a plain JSON-serialisable dict: ``kind`` names the padia entry point
it drives, the other keys are its inputs.  Only the Python standard library
is used here, so the list for a seed is fixed by this file alone and is the
same on every run and every commit of the program.

Each workload has exactly 100 jobs, so the nearest-rank p90 of one pass has
10 jobs beyond it.  The seed varies the inputs but not the cost: every slot
draws from inputs that need the same amount of work (equal RK4 step counts,
equal matrix sizes, equal table sizes), so runs with different seeds measure
the same load.  Slot counts are chosen so that the 50th and 90th job by
latency fall inside a group of equal-cost jobs, not on the edge between two.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("rounds", "dense", "tables")

JOBS_PER_PASS = 100

# --- rounds ---------------------------------------------------------------

# Partial rounds run 1000 * c * sqrt(N) / M RK4 steps.  With N = 4^k and
# c in {1, 4, 16}, every (N, M, c) with c * sqrt(N) / M == T costs 1000 * T
# steps.  c = 16 adds rounds in the adiabatic regime, where the interference
# band check applies.
ROUND_EXPONENTS = range(6, 17, 2)
ROUND_MULTIPLIERS = (1, 4, 16)
BASELINE_MULTIPLIERS = (1, 4)
GLOBAL_UNITS = 8  # global_linear duration c * N / M, at N in {16, 64, 256}
LOCAL_RATIO = 64  # local_adiabatic duration depends on M/N only
LOCAL_SIZES = (64, 128, 256, 512, 1024)
DRAW_SEEDS = 64  # repeat-until-success draws use seeds 0..63


def partial_configs(units: int) -> list[tuple[int, int, int]]:
    """Every (N, M, c) whose partial round lasts ``units`` time units."""
    configs = []
    for exponent in ROUND_EXPONENTS:
        root = 2 ** (exponent // 2)
        for c in ROUND_MULTIPLIERS:
            m, rest = divmod(c * root, units)
            if rest == 0 and 1 <= m <= 2**exponent // 2:
                configs.append((2**exponent, m, c))
    return configs


def global_configs() -> list[tuple[int, int, int]]:
    return [(n, c * n // GLOBAL_UNITS, c) for n in (16, 64, 256) for c in BASELINE_MULTIPLIERS]


def local_configs() -> list[tuple[int, int]]:
    return [(n, n // LOCAL_RATIO) for n in LOCAL_SIZES]


def sweep_configs() -> list[dict]:
    """Simulated sweeps whose summed step counts do not depend on the choice:
    sqrt(N)/M is the same at every grid point index for each axis."""
    configs = []
    for m in (1, 2, 4):
        configs.append({"axis": "n", "fixed": m, "grid": [m * m * 2**k for k in range(6, 11)]})
    for j in (0, 1, 2):
        configs.append(
            {"axis": "m", "fixed": 1024 * 4**j, "grid": [2**j * 2**i for i in range(5)]}
        )
    return configs


def _rounds(rng: random.Random) -> list[dict]:
    short = partial_configs(2)
    jobs = []
    for _ in range(49):
        n, m, c = rng.choice(short)
        jobs.append({"kind": "run_round", "n": n, "m": m, "c": c})
    for _ in range(10):
        n, m, c = rng.choice(short)
        jobs.append(
            {"kind": "simulate_until_success", "n": n, "m": m, "c": c,
             "draw_seed": rng.randrange(DRAW_SEEDS)}
        )
    for _ in range(5):
        n, m, c = rng.choice(short)
        jobs.append(
            {"kind": "cli_evolve", "n": n, "m": m, "c": c, "draw_seed": rng.randrange(DRAW_SEEDS)}
        )
    for _ in range(10):
        n, m, c = rng.choice(global_configs())
        jobs.append({"kind": "evolve_global", "n": n, "m": m, "c": c})
    for _ in range(10):
        n, m = rng.choice(local_configs())
        jobs.append({"kind": "evolve_local", "n": n, "m": m})
    for _ in range(12):
        n, m, c = rng.choice(partial_configs(16))
        jobs.append({"kind": "run_round", "n": n, "m": m, "c": c})
    by_axis = {"n": [], "m": []}
    for config in sweep_configs():
        by_axis[config["axis"]].append(config)
    for axis in ("n", "m"):
        jobs.append({"kind": "sweep_simulate", **rng.choice(by_axis[axis])})
    for _ in range(2):
        n, m, c = rng.choice(partial_configs(256))
        jobs.append({"kind": "run_round", "n": n, "m": m, "c": c})
    return jobs


# --- dense ----------------------------------------------------------------

CERTIFY_N_MAX = 1024
# s points per certify case: cost grows like points * N^3.
CERTIFY_POINTS = {512: 3, 1024: 2}
CERTIFY_POINTS_DEFAULT = 5
DENSE_SPECTRUM_SIZES = (64, 128, 256)
# (N, steps, pairs per pass); dt = c * sqrt(N) / M / steps stays small enough
# for the RK4 norm drift to stay far below its limit.
EVOLVE_PAIR_SLOTS = ((128, 500, 8), (256, 150, 2), (512, 100, 2))


def certify_cases() -> list[tuple[int, int]]:
    """The (N, M) grid of ``padia certify --n-max 1024``."""
    cases = []
    n = 2
    while n <= CERTIFY_N_MAX:
        for m in sorted({1, math.isqrt(n), max(1, n // 2), n}):
            cases.append((n, m))
        n *= 2
    return cases


def _seeded_s(rng: random.Random, count: int) -> list[float]:
    return sorted(round(rng.random(), 6) for _ in range(count))


def _dense(rng: random.Random) -> list[dict]:
    jobs = []
    for n, m in certify_cases():
        points = CERTIFY_POINTS.get(n, CERTIFY_POINTS_DEFAULT)
        jobs.append(
            {"kind": "certify", "n": n, "marked": sorted(rng.sample(range(n), m)),
             "s_grid": _seeded_s(rng, points)}
        )
    for n, steps, count in EVOLVE_PAIR_SLOTS:
        root = math.isqrt(n)
        for _ in range(count):
            schedule = rng.choice(("partial", "global_linear"))
            c = rng.choice(BASELINE_MULTIPLIERS)
            # duration about 2 time units (partial c*sqrt(N)/M, global c*N/M);
            # 8 for global at c = 4, where M is capped at N/2
            scale = root if schedule == "partial" else n
            m = max(1, c * scale // 2)
            m = min(m, n // 2)
            jobs.append(
                {"kind": "evolve_pair", "n": n, "marked": sorted(rng.sample(range(n), m)),
                 "schedule": schedule, "c": c, "steps": steps}
            )
    slots = JOBS_PER_PASS - len(jobs)
    for i in range(slots):
        n = DENSE_SPECTRUM_SIZES[i * len(DENSE_SPECTRUM_SIZES) // slots]
        m = rng.randint(1, n // 2)
        jobs.append(
            {"kind": "dense_spectrum", "n": n, "marked": sorted(rng.sample(range(n), m)),
             "s": round(rng.random(), 6)}
        )
    return jobs


# --- tables ---------------------------------------------------------------

SPECTRUM_POINTS = 100_001
SPECTRUM_CONFIGS = (
    (64, 1), (1024, 3), (2**20, 1), (10**6, 1000),
    (2**30, 5), (2**40, 1), (2**50, 1024), (2**60, 1),
)
# Closed-form batches; M/N goes down to 2^-60.
SPECTRAL_POOL = tuple(
    [(2**k, 1) for k in range(4, 61, 8)] + [(2**k, 2 ** (k // 2)) for k in range(4, 61, 8)]
)
SPECTRAL_GRID_POINTS = 63  # plus the two window edges
BOUND_POOL = tuple(
    [(2**k, 1) for k in range(2, 63, 2)] + [(3 * 2**k, 2 ** (k // 2)) for k in range(2, 63, 2)]
)
BOUND_BATCH = 256
# The three sweeps of scripts/reproduce_scaling.py, without simulation.
SCALING_SWEEPS = (
    ("vs_n", ["--axis", "n", "--fixed", "1"]),
    ("vs_m", ["--axis", "m", "--fixed", "65536"]),
    ("local_vs_m", ["--axis", "m", "--fixed", "65536", "--schedule", "local"]),
)


def _tables(rng: random.Random) -> list[dict]:
    jobs = []
    n, m = rng.choice(SPECTRUM_CONFIGS)
    for fmt in ("csv", "json"):
        jobs.append({"kind": "cli_spectrum", "n": n, "m": m, "points": SPECTRUM_POINTS,
                     "format": fmt})
    for fmt in ("csv", "json"):
        jobs.append({"kind": "cli_bounds", "format": fmt})
    for name, _ in SCALING_SWEEPS:
        for fmt in ("csv", "json"):
            jobs.append({"kind": "cli_sweep", "sweep": name, "format": fmt})
    for _ in range(10):
        jobs.append(
            {"kind": "bound_batch",
             "pool_index": [rng.randrange(len(BOUND_POOL)) for _ in range(BOUND_BATCH)]}
        )
    for _ in range(JOBS_PER_PASS - len(jobs)):
        jobs.append({"kind": "spectral_batch", "pool_index": rng.randrange(len(SPECTRAL_POOL))})
    return jobs


_GENERATORS = {"rounds": _rounds, "dense": _dense, "tables": _tables}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one pass, in the order it runs.

    The order is fixed by the workload, not by the seed: which job runs
    after which changes memory reuse, and with it the peak RSS.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def fingerprint(jobs: list[dict]) -> str:
    """SHA-256 of the canonical JSON of a job list."""
    text = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
