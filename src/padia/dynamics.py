"""Time evolution of one search round in the reduced two-level picture.

A round runs the protocol: prepare the uniform superposition, switch the
Hamiltonian instantaneously to the window start (the sudden switch leaves the
state untouched), sweep the interpolation parameter across the window, then
measure.  The marked-outcome probability of that measurement is |amp_beta|^2
of the final state.

The Schroedinger equation i dpsi/dt = H(s(t)) psi (hbar = 1, dimensionless
time) is integrated with a classical fixed-step fourth-order Runge-Kutta
scheme.  The equation is linear, so each RK4 step is exactly a 2x2 matrix; the
steps are evaluated as numpy arrays of those matrices, chunk by chunk, and
each chunk's matrices are folded by ordered pairwise products.  For a given
(schedule, steps) every run on the same numpy build gives the same bits; the
result differs from a step-by-step RK4 loop by rounding only.
Two baseline schedules are provided for comparison: a global linear sweep of
the full interval and a local-adiabatic sweep whose rate tracks the squared
gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (
    STATE_NORM_TOL,
    ReducedState,
    SearchInstance,
    evolution_window,
    initial_state,
)
from .spectrum import eigenvector_components, min_gap, one_round_time

__all__ = [
    "NORM_DRIFT_LIMIT",
    "NormDriftExceeded",
    "Schedule",
    "RoundOutcome",
    "RepeatStats",
    "make_partial_schedule",
    "make_global_schedule",
    "make_local_schedule",
    "default_step_count",
    "evolve",
    "run_round",
    "draw_repeat_stats",
    "simulate_until_success",
]

# A final-state norm farther than this from 1 means the step count was too
# coarse for the requested duration.
NORM_DRIFT_LIMIT = 1e-6

# Steps integrated per vectorised chunk.  Memory stays O(chunk) for any run
# length, while the numpy call overhead is spread over thousands of steps.
_CHUNK_STEPS = 8192


class NormDriftExceeded(RuntimeError):
    """Integration lost unitarity beyond NORM_DRIFT_LIMIT; increase steps."""


@dataclass(frozen=True)
class Schedule:
    """A monotone mapping t in [0, total_time] -> s in [0, 1].

    ``sample`` must accept scalars and numpy arrays alike.
    kind is one of 'partial', 'global_linear', 'local_adiabatic'.
    """

    kind: str
    total_time: float
    sample: Callable[[float], float]


@dataclass(frozen=True)
class RoundOutcome:
    """Result of integrating one round.

    success_probability is |amp_beta|^2 of the final state, i.e. the chance a
    computational-basis measurement lands in the marked set.  ground_fidelity
    is the squared overlap with the instantaneous ground state at the end of
    the schedule.
    """

    final_state: ReducedState
    success_probability: float
    ground_fidelity: float
    norm_drift: float


@dataclass(frozen=True)
class RepeatStats:
    """Outcome of repeating rounds until the first success."""

    rounds_used: int
    total_evolution_time: float
    succeeded: bool


def make_partial_schedule(instance: SearchInstance, time_multiplier: float) -> Schedule:
    """Linear sweep of the window [s_minus, s_plus] over c * sqrt(N)/M.

    time_multiplier scales the nominal one-round duration; the adiabatic
    regime is reached as it grows.
    """
    if time_multiplier <= 0.0:
        raise ValueError(f"time_multiplier must be positive, got {time_multiplier}")
    window = evolution_window(instance)
    total_time = time_multiplier * one_round_time(instance)
    s_minus, omega = window.s_minus, window.omega

    def sample(t):
        return s_minus + omega * (t / total_time)

    return Schedule(kind="partial", total_time=total_time, sample=sample)


def make_global_schedule(instance: SearchInstance, time_multiplier: float) -> Schedule:
    """Linear sweep of the whole interval [0, 1] over c * N/M.

    The full interval has unit width, so the analogue of the one-round
    duration is 1/g_min^2 = N/M.
    """
    if time_multiplier <= 0.0:
        raise ValueError(f"time_multiplier must be positive, got {time_multiplier}")
    g_min, _ = min_gap(instance)
    total_time = time_multiplier / (g_min * g_min)

    def sample(t):
        return t / total_time

    return Schedule(kind="global_linear", total_time=total_time, sample=sample)


def make_local_schedule(instance: SearchInstance, epsilon: float, steps: int) -> Schedule:
    """Sweep of [0, 1] whose rate adapts to the gap: ds/dt = epsilon * g(s)^2.

    The mapping t -> s is tabulated on ``steps`` knots by accumulating
    dt/ds = 1/(epsilon g^2) with the trapezoid rule and inverted by linear
    interpolation; total_time is the accumulated endpoint.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if steps < 100:
        raise ValueError(f"need at least 100 tabulation knots, got {steps}")
    s_knots = np.linspace(0.0, 1.0, steps)
    u = 1.0 - 2.0 * s_knots
    g_sq = u * u + 4.0 * s_knots * (1.0 - s_knots) * instance.b
    dt_ds = 1.0 / (epsilon * g_sq)
    t_knots = np.empty_like(s_knots)
    t_knots[0] = 0.0
    np.cumsum((dt_ds[1:] + dt_ds[:-1]) * 0.5 * np.diff(s_knots), out=t_knots[1:])
    total_time = float(t_knots[-1])

    def sample(t):
        return np.interp(t, t_knots, s_knots)

    return Schedule(kind="local_adiabatic", total_time=total_time, sample=sample)


def default_step_count(total_time: float) -> int:
    """Fixed-step default: 1000 steps per unit time (the Hamiltonian norm is
    at most 1), never fewer than 1000."""
    return max(1000, math.ceil(1000.0 * total_time))


def _matmul2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Entrywise products x[..., n] @ y[..., n] of two (2, 2, K) stacks."""
    return x[:, :1] * y[:1] + x[:, 1:] * y[1:]


def _step_matrices(
    a: float,
    sqrt_ab: float,
    s_nodes: np.ndarray,
    s_mids: np.ndarray,
    h: float,
) -> np.ndarray:
    """The exact RK4 step matrices R_n of the 2x2 reduction, as a (2, 2, K) stack.

    One RK4 step of the linear equation dpsi/dt = A psi, A = -iH, is
    psi_{n+1} = R_n psi_n with

        R = I + h/6 (A1 + 2 A2 P2 + 2 A2 P3 + A3 P4),
        P2 = I + h/2 A1,  P3 = I + h/2 A2 P2,  P4 = I + h A2 P3,

    H1, H2, H3 taken at the node, the midpoint and the next node.  H is real,
    H(s) = [[1 - (1-s)a, -(1-s)sqrt(ab)], [-(1-s)sqrt(ab), (1-s)a]], so
    expanding in powers of h splits R into real matrix polynomials:

        Re R = I - h^2/6 (H2 H1 + H2^2 + H3 H2) + h^4/24 H3 H2^2 H1,
        Im R = -h/6 (H1 + 4 H2 + H3) + h^3/12 (H2^2 H1 + H3 H2^2).
    """
    e = np.array([[1.0, 0.0], [0.0, 0.0]])[:, :, None]
    f = np.array([[-a, -sqrt_ab], [-sqrt_ab, a]])[:, :, None]
    h_nodes = e + f * (1.0 - s_nodes)
    h1, h3 = h_nodes[..., :-1], h_nodes[..., 1:]
    h2 = e + f * (1.0 - s_mids)
    h22 = _matmul2(h2, h2)
    h221 = _matmul2(h22, h1)
    out = np.empty(h2.shape, dtype=complex)
    out.real = (h**4 / 24.0) * _matmul2(h3, h221) - (h * h / 6.0) * (
        _matmul2(h2, h1) + h22 + _matmul2(h3, h2)
    )
    out.real[0, 0] += 1.0
    out.real[1, 1] += 1.0
    out.imag = (h**3 / 12.0) * (h221 + _matmul2(h3, h22)) - (h / 6.0) * (h1 + 4.0 * h2 + h3)
    return out


def _ordered_product(r: np.ndarray) -> np.ndarray:
    """r[..., K-1] @ ... @ r[..., 0] of a (2, 2, K) stack.

    Each pass multiplies neighbours in order, r[..., 1::2] @ r[..., 0::2],
    and carries an odd last matrix over to the next pass.
    """
    while r.shape[-1] > 1:
        pairs = r.shape[-1] // 2
        folded = _matmul2(r[..., 1 : 2 * pairs : 2], r[..., 0 : 2 * pairs : 2])
        if r.shape[-1] % 2:
            folded = np.concatenate((folded, r[..., -1:]), axis=-1)
        r = folded
    return r[..., 0]


def schedule_stage_values(schedule: Schedule, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample s at the step endpoints and midpoints of a fixed-step run."""
    times = np.linspace(0.0, schedule.total_time, steps + 1)
    mids = times[:-1] + 0.5 * (schedule.total_time / steps)
    s_nodes = np.asarray(schedule.sample(times), dtype=float)
    s_mids = np.asarray(schedule.sample(mids), dtype=float)
    return s_nodes, s_mids


def _chunk_stage_values(
    schedule: Schedule, steps: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """s at nodes start..stop and at the midpoints of the steps between them.

    Bit for bit the matching slices of schedule_stage_values: linspace places
    node n at n * (total_time / steps) and pins the last node to total_time.
    """
    dt = schedule.total_time / steps
    times = np.arange(start, stop + 1, dtype=float) * dt
    if stop == steps:
        times[-1] = schedule.total_time
    mids = times[:-1] + 0.5 * dt
    s_nodes = np.asarray(schedule.sample(times), dtype=float)
    s_mids = np.asarray(schedule.sample(mids), dtype=float)
    return s_nodes, s_mids


def evolve(
    instance: SearchInstance,
    schedule: Schedule,
    steps: int,
    initial: ReducedState,
) -> RoundOutcome:
    """Integrate one round of the given schedule from ``initial``.

    The ``steps`` RK4 steps run in chunks of _CHUNK_STEPS: each chunk samples
    s at its nodes and midpoints, builds every step's exact RK4 matrix, folds
    them in order by pairwise products and applies the product to the state.

    Raises NormDriftExceeded when the final norm strays from 1 by more than
    NORM_DRIFT_LIMIT, overflows or is NaN, the signature of an insufficient
    step count.
    """
    if steps < 10:
        raise ValueError(f"need at least 10 steps, got {steps}")
    if abs(initial.norm() - 1.0) > STATE_NORM_TOL:
        raise ValueError("initial state must be normalized")
    dt = schedule.total_time / steps
    sqrt_ab = math.sqrt(instance.a * instance.b)
    x, y = complex(initial.amp_alpha), complex(initial.amp_beta)
    # A blown-up state overflows to inf/NaN; the norm guard below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, _CHUNK_STEPS):
            stop = min(start + _CHUNK_STEPS, steps)
            s_nodes, s_mids = _chunk_stage_values(schedule, steps, start, stop)
            r = _ordered_product(_step_matrices(instance.a, sqrt_ab, s_nodes, s_mids, dt))
            x, y = complex(r[0, 0] * x + r[0, 1] * y), complex(r[1, 0] * x + r[1, 1] * y)
    try:
        norm = math.sqrt(abs(x) ** 2 + abs(y) ** 2)
    except OverflowError:  # the squares of a blown-up state overflow
        norm = math.inf
    drift = abs(norm - 1.0)
    if not drift <= NORM_DRIFT_LIMIT:  # NaN fails this test too
        raise NormDriftExceeded(
            f"norm drifted by {drift:.3e} after {steps} steps over duration "
            f"{schedule.total_time:g}; increase steps"
        )
    s_end = float(s_nodes[-1])
    c_alpha, c_beta = eigenvector_components(instance, s_end, 0)
    fidelity = abs(c_alpha * x + c_beta * y) ** 2
    return RoundOutcome(
        final_state=ReducedState(amp_alpha=x, amp_beta=y),
        success_probability=abs(y) ** 2,
        ground_fidelity=fidelity,
        norm_drift=drift,
    )


def run_round(
    instance: SearchInstance,
    time_multiplier: float,
    steps: int | None = None,
) -> RoundOutcome:
    """One full protocol round: uniform start, window sweep, report outcome."""
    schedule = make_partial_schedule(instance, time_multiplier)
    if steps is None:
        steps = default_step_count(schedule.total_time)
    return evolve(instance, schedule, steps, initial_state(instance))


def draw_repeat_stats(
    success_probability: float,
    round_time: float,
    seed: int,
    max_rounds: int,
) -> RepeatStats:
    """Repeat identically distributed Bernoulli rounds until the first success.

    Deterministic for a given seed.  ``succeeded`` is False only when
    max_rounds draws all fail; the evolution time of failed rounds still
    counts toward the total.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    if not 0.0 <= success_probability <= 1.0:
        raise ValueError(f"success probability must lie in [0, 1], got {success_probability}")
    rng = np.random.default_rng(seed)
    for rounds in range(1, max_rounds + 1):
        if rng.random() < success_probability:
            return RepeatStats(
                rounds_used=rounds,
                total_evolution_time=rounds * round_time,
                succeeded=True,
            )
    return RepeatStats(
        rounds_used=max_rounds,
        total_evolution_time=max_rounds * round_time,
        succeeded=False,
    )


def simulate_until_success(
    instance: SearchInstance,
    time_multiplier: float,
    steps: int | None = None,
    seed: int = 0,
    max_rounds: int = 10_000,
) -> RepeatStats:
    """Simulate repeat-until-success measurement statistics.

    Rounds are identical, so the dynamics is integrated once and the round
    outcomes are then drawn as Bernoulli trials with that success
    probability.
    """
    schedule = make_partial_schedule(instance, time_multiplier)
    if steps is None:
        steps = default_step_count(schedule.total_time)
    outcome = evolve(instance, schedule, steps, initial_state(instance))
    return draw_repeat_stats(
        outcome.success_probability, schedule.total_time, seed, max_rounds
    )
