"""Time evolution of one search round in the reduced two-level picture.

A round runs the protocol: prepare the uniform superposition, switch the
Hamiltonian instantaneously to the window start (the sudden switch leaves the
state untouched), sweep the interpolation parameter across the window, then
measure.  The marked-outcome probability of that measurement is |amp_beta|^2
of the final state.

The Schroedinger equation i dpsi/dt = H(s(t)) psi (hbar = 1, dimensionless
time) is integrated with the fixed-step fourth-order Magnus propagator
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151).  Each step samples
H at the two Gauss points of the step and takes the closed-form SU(2)
exponential of the Magnus-4 exponent, so every step is unitary by
construction.  With tr H = 1 pulled out as one global phase, a step is a
unit quaternion, held as its Cayley-Klein pair of complex numbers; the steps
are evaluated as numpy arrays, chunk by chunk, and each chunk's pairs are
folded by ordered pairwise products.  For a given (schedule, steps) every
run on the same numpy build gives the same bits.  Unitarity makes the norm drift blind to a coarse grid, so every round
is integrated a second time with half the steps, and the difference of the
two, divided by 15, is reported as the error estimate and guarded.
Two baseline schedules are provided for comparison: a global linear sweep of
the full interval and a local-adiabatic sweep whose rate tracks the squared
gap.
"""

from __future__ import annotations

import cmath
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
    "MAX_STEPS",
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

# A final-state norm, or a step-halving error estimate, farther than this
# from 1 or from 0 means the step count was too coarse for the requested
# duration.
NORM_DRIFT_LIMIT = 1e-6

# evolve refuses longer runs up front: 10^8 steps, with the half-step run for
# the error estimate, take of the order of 10 s.
MAX_STEPS = 10**8

# Steps integrated per vectorised chunk.  Memory stays O(chunk) for any run
# length, while the numpy call overhead is spread over thousands of steps.
_CHUNK_STEPS = 8192

# The two-point Gauss-Legendre nodes as fractions of a step, and the
# coefficient of the Magnus-4 commutator term.
_GAUSS_LOW = 0.5 - math.sqrt(3.0) / 6.0
_GAUSS_HIGH = 0.5 + math.sqrt(3.0) / 6.0
_COMMUTATOR = math.sqrt(3.0) / 12.0

# Below this many Cayley-Klein pairs the fold finishes in plain Python.
_FOLD_TAIL = 16

# The Cayley-Klein pair of the identity.
_IDENTITY = (1.0 + 0.0j, 0.0j)


class NormDriftExceeded(RuntimeError):
    """Integration lost unitarity, or its error estimate exceeded
    NORM_DRIFT_LIMIT; increase steps."""


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

    success_probability is |amp_beta|^2 of the final state over its squared
    norm, i.e. the chance a computational-basis measurement lands in the
    marked set.  ground_fidelity is the squared overlap with the
    instantaneous ground state at the end of the schedule.  error_estimate is
    max|amplitude difference| / 15 between the run and a run at half the
    steps, the step-halving estimate of the error of a fourth-order scheme.
    """

    final_state: ReducedState
    success_probability: float
    ground_fidelity: float
    norm_drift: float
    error_estimate: float


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
    """Fixed-step default: 64 Magnus steps per unit time (the Hamiltonian
    norm is at most 1), never fewer than 100."""
    return max(100, math.ceil(64.0 * total_time))


def schedule_stage_values(schedule: Schedule, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample s at the step endpoints and midpoints of a fixed-step RK4 run."""
    times = np.linspace(0.0, schedule.total_time, steps + 1)
    mids = times[:-1] + 0.5 * (schedule.total_time / steps)
    s_nodes = np.asarray(schedule.sample(times), dtype=float)
    s_mids = np.asarray(schedule.sample(mids), dtype=float)
    return s_nodes, s_mids


def _chunk_gauss_values(
    schedule: Schedule, steps: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """s at the two Gauss points of steps start..stop-1 of a ``steps``-step run.

    Step n starts at n * dt and samples t = n * dt + (1/2 -/+ sqrt(3)/6) * dt.
    """
    dt = schedule.total_time / steps
    times = np.arange(start, stop, dtype=float) * dt
    s_low = np.asarray(schedule.sample(times + _GAUSS_LOW * dt), dtype=float)
    s_high = np.asarray(schedule.sample(times + _GAUSS_HIGH * dt), dtype=float)
    return s_low, s_high


def _step_pairs(
    a: float, sqrt_ab: float, s_low: np.ndarray, s_high: np.ndarray, h: float
) -> np.ndarray:
    """The Magnus-4 steps of the 2x2 reduction as a (2, K) complex stack.

    With u = 1 - s, H(s) = I/2 + bx sigma_x + bz sigma_z, bx = -u sqrt(ab),
    bz = 1/2 - u a, and the commutator of the two Gauss-point Hamiltonians is
    [H2, H1] = (u1 - u2) sqrt(ab) (-i sigma_y).  The Magnus-4 exponent

        Omega = -i h (H1 + H2)/2 - (sqrt(3) h^2 / 12) [H2, H1]
              = -i h/2 - i v . sigma,
        v = (h bx(u_mean), -gamma, h bz(u_mean)),
        gamma = (sqrt(3) h^2 / 12) (u1 - u2) sqrt(ab),

    so exp(Omega) = e^{-ih/2} (cos theta - i sin(theta)/theta v . sigma),
    theta = |v|.  The phase e^{-ih/2} is left to the caller.  The rest is
    the unit quaternion q = (cos theta, sin(theta)/theta v), stored as its
    Cayley-Klein pair alpha = q0 - i q3, beta = -q2 - i q1, which stands
    for the matrix [[alpha, beta], [-conj(beta), conj(alpha)]].  The code
    builds w = -v, so that alpha = cos theta + i s w_z, beta = s w_y + i s w_x
    with s = sin(theta)/theta.
    """
    u_mean = 1.0 - 0.5 * (s_low + s_high)
    wx = (h * sqrt_ab) * u_mean
    wy = (_COMMUTATOR * h * h * sqrt_ab) * (s_high - s_low)
    wz = h * (a * u_mean - 0.5)
    theta = np.sqrt(wx * wx + wy * wy + wz * wz)
    scale = np.divide(np.sin(theta), theta, out=np.ones_like(theta), where=theta > 0.0)
    pairs = np.empty((2, theta.size), dtype=complex)
    np.cos(theta, out=pairs.real[0])
    np.multiply(scale, wz, out=pairs.imag[0])
    np.multiply(scale, wy, out=pairs.real[1])
    np.multiply(scale, wx, out=pairs.imag[1])
    return pairs


def _pair_product(later: tuple[complex, complex], earlier: tuple[complex, complex]):
    """The Cayley-Klein pair of the matrix product later @ earlier."""
    a1, b1 = later
    a2, b2 = earlier
    return a1 * a2 - b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate()


def _ordered_product(pairs: np.ndarray) -> tuple[complex, complex]:
    """The pair of U[K-1] @ ... @ U[0] for a (2, K) stack of pairs.

    Each pass multiplies neighbours in order, U[1::2] @ U[0::2], and carries
    an odd last pair over to the next pass; the last _FOLD_TAIL pairs are
    multiplied in plain Python, where a numpy pass costs more than it saves.
    """
    while pairs.shape[-1] > _FOLD_TAIL:
        count = pairs.shape[-1]
        half = count // 2
        a1, b1 = pairs[:, 1 : 2 * half : 2]
        a2, b2 = pairs[:, 0 : 2 * half : 2]
        folded = np.empty((2, half + count % 2), dtype=complex)
        alpha, beta = folded[:, :half]
        np.multiply(a1, a2, out=alpha)
        alpha -= b1 * b2.conj()
        np.multiply(a1, b2, out=beta)
        beta += b1 * a2.conj()
        if count % 2:
            folded[:, -1] = pairs[:, -1]
        pairs = folded
    total = _IDENTITY
    for pair in zip(*pairs.tolist()):
        total = _pair_product(pair, total)
    return total


def _propagate(
    instance: SearchInstance, schedule: Schedule, steps: int, initial: ReducedState
) -> tuple[complex, complex]:
    """The state after ``steps`` Magnus-4 steps from ``initial``.

    The steps run in chunks of _CHUNK_STEPS; each chunk's pairs are folded in
    order and multiplied onto the round's propagator, which is renormalised
    (it is unitary but for rounding) and applied once, with the global phase
    e^{-iT/2} of tr H = 1, at the end.
    """
    dt = schedule.total_time / steps
    sqrt_ab = math.sqrt(instance.a * instance.b)
    total = _IDENTITY
    for start in range(0, steps, _CHUNK_STEPS):
        stop = min(start + _CHUNK_STEPS, steps)
        s_low, s_high = _chunk_gauss_values(schedule, steps, start, stop)
        chunk = _ordered_product(_step_pairs(instance.a, sqrt_ab, s_low, s_high, dt))
        alpha, beta = _pair_product(chunk, total)
        norm = math.hypot(abs(alpha), abs(beta))
        total = alpha / norm, beta / norm
    alpha, beta = total
    phase = cmath.exp(-0.5j * schedule.total_time)
    x, y = complex(initial.amp_alpha), complex(initial.amp_beta)
    return (
        phase * (alpha * x + beta * y),
        phase * (alpha.conjugate() * y - beta.conjugate() * x),
    )


def evolve(
    instance: SearchInstance,
    schedule: Schedule,
    steps: int,
    initial: ReducedState,
) -> RoundOutcome:
    """Integrate one round of the given schedule from ``initial``.

    Runs ``steps`` Magnus-4 steps, and ``steps // 2`` more for the error
    estimate max|amplitude difference| / 15 of step halving.

    Raises ValueError for fewer than 10 or more than MAX_STEPS steps, and
    NormDriftExceeded when the final norm strays from 1, or the error
    estimate exceeds, NORM_DRIFT_LIMIT (NaN included): the signature of an
    insufficient step count.
    """
    if steps < 10:
        raise ValueError(f"need at least 10 steps, got {steps}")
    if steps > MAX_STEPS:
        raise ValueError(
            f"{steps} steps over duration {schedule.total_time:g} exceed the cap of "
            f"{MAX_STEPS} steps"
        )
    if abs(initial.norm() - 1.0) > STATE_NORM_TOL:
        raise ValueError("initial state must be normalized")
    # A huge duration can turn the step angles to inf/NaN; the guards below
    # report it.
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = _propagate(instance, schedule, steps, initial)
        x_half, y_half = _propagate(instance, schedule, steps // 2, initial)
    error_estimate = max(abs(x - x_half), abs(y - y_half)) / 15.0
    drift = abs(math.hypot(abs(x), abs(y)) - 1.0)
    for label, value in (("norm drifted by", drift), ("error estimate is", error_estimate)):
        if not value <= NORM_DRIFT_LIMIT:  # NaN fails this test too
            raise NormDriftExceeded(
                f"{label} {value:.3e} after {steps} steps over duration "
                f"{schedule.total_time:g}; increase steps"
            )
    s_end = float(schedule.sample(schedule.total_time))
    c_alpha, c_beta = eigenvector_components(instance, s_end, 0)
    p_alpha, p_beta = abs(x) ** 2, abs(y) ** 2
    return RoundOutcome(
        final_state=ReducedState(amp_alpha=x, amp_beta=y),
        # The norm is 1 up to rounding; dividing by it keeps p within [0, 1].
        success_probability=p_beta / (p_alpha + p_beta),
        ground_fidelity=abs(c_alpha * x + c_beta * y) ** 2,
        norm_drift=drift,
        error_estimate=error_estimate,
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
