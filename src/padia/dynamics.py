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
folded by ordered pairwise products.  The schedule is sampled only through
its offset x = 2s - 1, chunk by chunk, by a sampler that the dense oracle's
RK4 shares.  For a given (schedule, steps) every run on the same numpy build
gives the same bits.

Unitarity makes the norm drift blind to a coarse grid, so every round
carries an error estimate, which is guarded like the drift.  The paper's
window sweep, the global baseline and the sudden quench are one affine sweep
of x over [-x1, x1], x1 = 1/sqrt(N), 1 and 0.  With the phase of tr H taken
out, H is B . sigma with B affine in x, so Magnus-4's leading error term is
a closed form in the sweep's ends, known before any step is taken.  It sets
their default step count (``schedule_step_count``), and, plus a rounding
allowance, it is their error estimate: a count whose estimate is too large
is refused before it is integrated, and the round runs alone.  The
local-adiabatic baseline sweeps the full interval at a rate that tracks the
squared gap, through a table with no such bound; its round runs with a
step-halving twin at half the steps, and the difference of the two, divided
by 15, is its estimate.  Both share one vectorised pass, whose fold pads
each run with identity pairs where its own fold would carry an odd pair
over, so that each run keeps the fold tree, and the bits, that it has alone.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

import numpy as np

from .model import (
    STATE_NORM_TOL,
    ReducedState,
    SearchInstance,
    initial_state,
    require_integer,
)
from .spectrum import _gap_squared, eigenvector_components, one_round_time

__all__ = [
    "NORM_DRIFT_LIMIT",
    "MAX_STEPS",
    "MAX_ROUNDS",
    "LOCAL_KNOTS",
    "NormDriftExceeded",
    "Schedule",
    "RoundOutcome",
    "RepeatStats",
    "make_partial_schedule",
    "make_global_schedule",
    "make_local_schedule",
    "make_schedule",
    "default_step_count",
    "schedule_step_count",
    "evolve",
    "run_round",
    "check_max_rounds",
    "draw_repeat_stats",
    "simulate_until_success",
]

# A final-state norm, or an error estimate, farther than this from 1 or
# from 0 means the step count was too coarse for the requested duration.
NORM_DRIFT_LIMIT = 1e-6

# evolve refuses longer runs up front: 10^8 steps take of the order of 10 s,
# half as long again on the local schedule, whose twin runs beside them.
MAX_STEPS = 10**8

# draw_repeat_stats refuses more rounds up front, so that a run whose success
# probability is 0, or too small ever to succeed, stops after a bounded
# number of rounds instead of drawing forever.  It draws rounds in numpy
# blocks at about 3 ns a round: 10^7 rounds that all fail take about 30 ms on
# one core of an Intel Xeon.
MAX_ROUNDS = 10**7

# The blocks start at _FIRST_DRAWS rounds and grow eightfold up to
# _MAX_DRAWS (64 KiB of doubles, below glibc's mmap threshold), so a run
# that succeeds early draws one short block.
_FIRST_DRAWS = 16
_MAX_DRAWS = 8192

# The bound h^4 E on the propagator error that a default partial or global
# count keeps to (``schedule_step_count``).  On 400 multipliers c in
# [0.25, 256] at each N = r^2 (r = 2..11, 16, 32, 2^10, 2^20, 2^31) and M in
# {1, r, N/2, N}, the count then lands within 3.9e-10 (partial) and 3.1e-10
# (global, counts up to 2.5e5) of the success probability at four times the
# steps.
_ERROR_BOUND = 5e-10

# Knots of the local-adiabatic t(s) table that make_schedule, and so the CLI
# and the sweeps, build.
LOCAL_KNOTS = 20_001

# A step count of more digits than this is named by its order of magnitude in
# the step-cap error, not printed whole (a huge duration gives ~300 digits).
_SHOWN_STEP_DIGITS = 18


def _checked_steps(steps: int) -> int:
    """``steps`` as a Python int; ValueError unless it is an integer
    (``bool`` excluded, as in ``make_instance``) of at least 10."""
    steps = require_integer("steps", steps)
    if steps < 10:
        raise ValueError(f"need at least 10 steps, got {steps}")
    return steps


def _check_step_cap(steps: int, total_time: float) -> None:
    """Raise ValueError, naming the count, when ``steps`` exceeds MAX_STEPS."""
    if steps > MAX_STEPS:
        digits = len(str(steps))
        shown = str(steps) if digits <= _SHOWN_STEP_DIGITS else f"at least 10^{digits - 1}"
        raise ValueError(
            f"{shown} steps over duration {total_time:g} exceed the cap of {MAX_STEPS} steps"
        )


def _check_drift(label: str, value: float, steps: int, total_time: float) -> None:
    """Raise NormDriftExceeded unless ``value`` is at most NORM_DRIFT_LIMIT."""
    if not value <= NORM_DRIFT_LIMIT:  # NaN fails this test too
        raise NormDriftExceeded(
            f"{label} {value:.3e} after {steps} steps over duration {total_time:g}; "
            "increase steps"
        )


# Steps of a round per vectorised chunk.  Memory stays O(chunk) for any run
# length, while the numpy call overhead is spread over thousands of steps.
# On the local schedule the chunk also holds the matching 2560 steps of its
# step-halving twin, 7680 pairs in all; both counts are multiples of 2^8, the
# fold passes the twin's share takes, so a full chunk needs no identity
# padding.
_TWIN_CHUNK = 5120

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
    NORM_DRIFT_LIMIT (on an affine sweep, before any step); increase steps."""


class Schedule(NamedTuple):
    """A monotone sweep of s over t in [0, total_time], given by its offset
    x(t) = 2 s(t) - 1 in [-1, 1].

    kind is 'local_adiabatic' or one of the affine sweeps of [-x1, x1]:
    'partial', 'global_linear' and 'quench' (x1 = 1/sqrt(N), 1 and 0).  A
    schedule of an affine kind must sweep x at a constant rate, as the
    builders below do: its step count and its error estimate are read off
    x(0) and total_time.
    ``sample_x`` maps t to x and must accept scalars and numpy arrays alike;
    it is all the integrators sample, and s = (1 + x)/2 where s is needed.
    The affine sweeps form x without passing through a float s: near
    s = 1/2 floats are 1.1e-16 apart, which at large N is a visible fraction
    of its window, so the sampled H would be a staircase.
    """

    kind: str
    total_time: float
    sample_x: Callable[[float], float]


class RoundOutcome(NamedTuple):
    """Result of integrating one round.

    success_probability is |amp_beta|^2 of the final state over its squared
    norm, i.e. the chance a computational-basis measurement lands in the
    marked set.  ground_fidelity is the squared overlap with the
    instantaneous ground state at the end of the schedule.  error_estimate
    bounds the error of the final amplitudes.  On the affine sweeps
    ('partial', 'global_linear', 'quench') it is Magnus-4's closed-form bound
    h^4 E plus a rounding allowance, both known before the round is
    integrated.  On 'local_adiabatic' it is max|amplitude difference| / 15
    between the run and its twin at half the steps, integrated in the same
    pass, the step-halving estimate of a fourth-order scheme's error; the
    kinks of the local t(s) table break that order, and there the estimate
    can under-report the true error by about 10x (9.6x at N = 256, M = 4
    on a 2,001-knot table).
    """

    final_state: ReducedState
    success_probability: float
    ground_fidelity: float
    norm_drift: float
    error_estimate: float


class RepeatStats(NamedTuple):
    """Outcome of repeating rounds until the first success."""

    rounds_used: int
    total_evolution_time: float
    succeeded: bool


def _require_positive_finite(name: str, value: float) -> None:
    """Raise ValueError naming ``value`` unless it is positive and finite."""
    if not 0.0 < value < math.inf:  # NaN fails this test too
        raise ValueError(f"{name} must be positive and finite, got {value}")


# The kinds that ``_affine_schedule`` builds, all counted by one step rule.
_AFFINE_KINDS = ("partial", "global_linear", "quench")


def _affine_schedule(kind: str, x1: float, total_time: float) -> Schedule:
    """x = r t - x1, r = 2 x1 / total_time: a linear sweep of [-x1, x1], or
    the quench at x1 = 0.  ValueError unless T > 0 and T and r are finite."""
    _require_positive_finite("total_time", total_time)
    x_rate = 2.0 * x1 / total_time
    if not math.isfinite(x_rate):
        raise ValueError(
            f"a {kind} round of duration {total_time:g} is too short to sweep "
            "its window: the sweep rate overflows"
        )

    def sample_x(t):
        return x_rate * t - x1

    return Schedule(kind=kind, total_time=total_time, sample_x=sample_x)


def make_partial_schedule(instance: SearchInstance, time_multiplier: float) -> Schedule:
    """Linear sweep of the window [s_minus, s_plus] over c * sqrt(N)/M.

    time_multiplier scales the nominal one-round duration; the adiabatic
    regime is reached as it grows.  A duration so short that the sweep rate
    2/(sqrt(N) T) overflows is refused with ValueError.
    """
    _require_positive_finite("time_multiplier", time_multiplier)
    # 1/sqrt(N) is twice the window's half-width in s to the last bit.
    x1 = 1.0 / math.sqrt(instance.n_items)
    return _affine_schedule("partial", x1, time_multiplier * one_round_time(instance))


def make_global_schedule(instance: SearchInstance, time_multiplier: float) -> Schedule:
    """Linear sweep of the whole interval [0, 1] over c * N/M.

    The full interval has unit width, so the analogue of the one-round
    duration is 1/g_min^2 = N/M.  A round whose rate 2/T overflows is refused.
    """
    _require_positive_finite("time_multiplier", time_multiplier)
    n_over_m = instance.n_items / instance.n_marked  # rounded once, not via g_min
    return _affine_schedule("global_linear", 1.0, time_multiplier * n_over_m)


def make_local_schedule(
    instance: SearchInstance, time_multiplier: float, knots: int = LOCAL_KNOTS
) -> Schedule:
    """Sweep of [0, 1] whose rate adapts to the gap: ds/dt = g(s)^2 / c.

    c = time_multiplier is 1/epsilon of Roland & Cerf's local adiabatic
    search (PRA 65, 042308 (2002)), so the duration is c times that of the
    epsilon = 1 sweep.  The mapping t -> s is tabulated on ``knots`` knots
    by accumulating dt/ds = c/g^2 with the trapezoid rule and inverted by
    linear interpolation, and x = 2s - 1 is formed from the interpolated s;
    total_time is the accumulated endpoint.

    The table is built in place.  Besides the two knot arrays the schedule
    keeps, the build allocates two knot-sized scratch arrays (the g^2 column
    and the second temporary of ``_gap_squared``), and no more than three
    knot-sized arrays are alive at once; each array of 20,001 knots is above
    glibc's default 128 KiB mmap threshold, so every extra one costs page
    faults on every call.  Each value rounds as in the plain expression
    ``cumsum((dt_ds[1:] + dt_ds[:-1]) * 0.5 * diff(s_knots))``.

    Raises ValueError unless time_multiplier is positive and finite,
    knots >= 100 and the duration is finite.
    """
    _require_positive_finite("time_multiplier", time_multiplier)
    if knots < 100:
        raise ValueError(f"need at least 100 tabulation knots, got {knots}")
    s_knots = np.linspace(0.0, 1.0, knots)
    dt_ds = _gap_squared(instance.b, s_knots)
    t_knots = np.empty_like(s_knots)
    t_knots[0] = 0.0
    increments = t_knots[1:]
    # A huge multiplier overflows dt/ds or its sum; the total_time check reports it.
    with np.errstate(over="ignore"):
        np.divide(time_multiplier, dt_ds, out=dt_ds)
        np.add(dt_ds[1:], dt_ds[:-1], out=increments)
        increments *= 0.5
        # dt_ds is spent; its tail takes the knot spacings.
        spacing = np.subtract(s_knots[1:], s_knots[:-1], out=dt_ds[1:])
        increments *= spacing
        np.cumsum(increments, out=increments)
    total_time = float(t_knots[-1])
    _require_positive_finite("total_time", total_time)

    def sample_x(t):
        return 2.0 * np.interp(t, t_knots, s_knots) - 1.0

    return Schedule(kind="local_adiabatic", total_time=total_time, sample_x=sample_x)


def make_schedule(instance: SearchInstance, kind: str, time_multiplier: float) -> Schedule:
    """The schedule of the given ``Schedule.kind``, lasting time_multiplier
    times its nominal duration: sqrt(N)/M (partial, x1 = 1/sqrt(N)), N/M
    (global_linear, x1 = 1) or that of the sweep ds/dt = g^2
    (local_adiabatic, on ``LOCAL_KNOTS`` knots).

    Raises ValueError for an unknown kind, 'quench' (x1 = 0) included.
    """
    # Looked up per call, so that the builders resolve through this
    # module's attributes, where a wrapper installed on them takes effect.
    builders = {
        "partial": make_partial_schedule,
        "global_linear": make_global_schedule,
        "local_adiabatic": make_local_schedule,
    }
    if kind not in builders:
        raise ValueError(f"unknown schedule kind {kind!r}")
    return builders[kind](instance, time_multiplier)


def _step_count(span: float, steps_per_unit: float, floor: int) -> int:
    """steps_per_unit steps per unit of span, never fewer than ``floor``.

    A finite span whose product with steps_per_unit leaves the float range
    still gets its exact count (which evolve then refuses), not an
    OverflowError.
    """
    try:
        return max(floor, math.ceil(steps_per_unit * span))
    except OverflowError:  # the ceiling of the exact product of the two floats
        (p, q), (r, s) = span.as_integer_ratio(), float(steps_per_unit).as_integer_ratio()
        return -(-p * r // (q * s))


def default_step_count(total_time: float) -> int:
    """Fixed-step default: 64 Magnus steps per unit time (the Hamiltonian
    norm is at most 1), never fewer than 100.

    The local_adiabatic schedule takes this count of its duration;
    ``schedule_step_count`` counts the partial and global ones from their
    error bound.
    """
    return _step_count(total_time, 64, 100)


def _bound_root(instance: SearchInstance, schedule: Schedule) -> float:
    """(T^4 E)^(1/4) of an affine sweep: at n steps, Magnus-4's propagator
    error over the round is at most (root / n)^4 = h^4 E.

    The sweep runs x over [-x1, x1] (x1 = |x(0)|: 1/sqrt(N), 1 and 0) at the
    rate r = 2 x1 / T.  With the phase of tr H taken out, A = -i B . sigma,
    and B = (-(1 - x) sqrt(ab), 0, b + a x)/2 has the constant slope
    B' = r (sqrt(ab), 0, a)/2, with B x B' = r sqrt(ab)/4 along y and
    |B|^2 = (b + a x^2)/4.  Magnus-4 is exact through its second term there;
    its local error, with A at the step's midpoint, is h^5 ([A', [A, A']]/240
    + [A, [A, [A, A']]]/720) + O(h^7) (Blanes, Casas, Oteo & Ros, Phys. Rep.
    470 (2009) 151), and a commutator of Pauli vectors is twice their cross
    product.  Over the round the errors sum to at most h^4 E,

        E = T r^2 a sqrt(b)/480 + (sqrt(ab)/1440) [b x + a x^3/3] from -x1 to x1,

    and E = 0 on the quench.  The O(h^7) remainder has no closed form here:
    the bound is checked against runs at 16 times the steps, down to 1/8 of
    the default count (``tests/test_dynamics.py``).
    """
    total = schedule.total_time
    a, b = instance.a, instance.b
    x1 = abs(float(schedule.sample_x(0.0)))
    # T^4 E = T^3 (slope + T turn), formed so that no factor leaves the float range.
    slope = x1 * x1 * a * math.sqrt(b) / 120.0
    turn = math.sqrt(a * b) / 720.0 * x1 * (b + a * x1 * x1 / 3.0)
    return total**0.75 * (slope + total * turn) ** 0.25


def _rounding_allowance(steps: int) -> float:
    """The rounding that an affine round of ``steps`` steps may add to its
    amplitudes on top of ``_bound_root``'s bound: 1e-13 plus 1e-17 a step.

    Against runs at 16 times the steps, the error above the bound reached
    3.1e-14 at 10 to 80 steps and 5.0e-14 at 10,240 to 40,960, over 3,705
    partial, global and quench rounds (N = r^2, r from 2 to 2^20, M in
    {1, r, N/2, N}, c from 0.25 to 256, counts from 1/8 to 8 times the
    default, and four times over, up to 6.6e4); the fold's pairwise
    products keep it from growing with the count that far, and the term per
    step covers the chunks' renormalisations beyond.
    """
    return 1e-13 + 1e-17 * steps


def schedule_step_count(instance: SearchInstance, schedule: Schedule) -> int:
    """The default step count of a round of ``schedule``.

    ``default_step_count`` of the duration on the local schedule, whose
    x(t) is only piecewise linear.  On the affine sweeps, the least n >= 10
    whose bound (T/n)^4 E (``_bound_root``) is at most _ERROR_BOUND: 10 on
    the quench, where E = 0.  Any other kind raises ValueError.
    """
    if schedule.kind == "local_adiabatic":
        return default_step_count(schedule.total_time)
    if schedule.kind not in _AFFINE_KINDS:
        raise ValueError(f"no step rule for schedule kind {schedule.kind!r}")
    return _step_count(_bound_root(instance, schedule), _ERROR_BOUND**-0.25, 10)


def _stage_offsets(
    schedule: Schedule, fractions: tuple[float, ...], runs: list[tuple[int, int, float]]
) -> np.ndarray:
    """x = 2s - 1 at the given fractions of each run's (first, count, dt)
    steps first, ..., first + count - 1: one row per fraction, the runs back
    to back.  Step n starts at n * dt and samples t = n * dt + f * dt.
    """
    times = np.empty((len(fractions), sum(count for _, count, _ in runs)))
    end = 0
    for first, count, dt in runs:
        start, end = end, end + count
        base = np.arange(first, first + count, dtype=float) * dt
        for row, f in enumerate(fractions):
            np.add(base, f * dt, out=times[row, start:end])
    return np.asarray(schedule.sample_x(times), dtype=float)


def _step_pairs(
    a: float, b: float, sqrt_ab: float, x_low: np.ndarray, x_high: np.ndarray, runs: list
) -> np.ndarray:
    """The Magnus-4 steps of one or more runs as a (2, K) complex stack.

    x_low and x_high (overwritten) hold the runs' Gauss-point offsets back to
    back; each run's (steps, width, h) fills a slice of ``width`` columns.

    With x = 2s - 1 and u = 1 - s = (1 - x)/2, H(s) = I/2 + bx sigma_x +
    bz sigma_z, bx = -u sqrt(ab), bz = 1/2 - u a = (b + a x)/2, and the
    commutator of the two Gauss-point Hamiltonians is
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
    with s = sin(theta)/theta.  bz is formed from x as (b + a x)/2, so that
    near s = 1/2 it does not cancel 1/2 against a u; x_sum is twice the
    mean x of the two Gauss points.  Unfilled columns hold identity pairs.
    """
    # Every temporary is overwritten in place or dropped once spent, so that a
    # long round's chunks have few pages to fault in.
    x_sum = x_low + x_high
    x_diff = np.subtract(x_high, x_low, out=x_high)
    x_rest = np.subtract(2.0, x_sum, out=x_low)
    total = sum(width for _, width, _ in runs)
    wx, wy, wz = np.empty(total), np.empty(total), np.empty(total)
    source = target = 0
    for size, width, h in runs:
        taken, put = slice(source, source + size), slice(target, target + size)
        np.multiply(0.25 * h * sqrt_ab, x_rest[taken], out=wx[put])
        np.multiply(0.5 * _COMMUTATOR * h * h * sqrt_ab, x_diff[taken], out=wy[put])
        z = np.multiply(-0.25 * h * a, x_sum[taken], out=wz[put])
        z -= 0.5 * h * b
        if width > size:
            pad = slice(target + size, target + width)
            wx[pad] = wy[pad] = wz[pad] = 0.0
        source, target = source + size, target + width
    del x_sum
    theta = wx * wx
    theta += wy * wy
    theta += wz * wz
    np.sqrt(theta, out=theta)
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


def _fold(pairs: np.ndarray, until: int) -> np.ndarray:
    """Pass after pass of ordered neighbour products U[1::2] @ U[0::2] over a
    (2, K) stack of pairs, an odd last pair carried over, until at most
    ``until`` pairs are left."""
    while pairs.shape[-1] > until:
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
    return pairs


def _ordered_product(pairs: np.ndarray) -> tuple[complex, complex]:
    """The pair of U[K-1] @ ... @ U[0] for a (2, K) stack of pairs.

    Numpy passes fold it down to at most _FOLD_TAIL pairs, which takes
    ((K - 1) // _FOLD_TAIL).bit_length() passes; the rest are multiplied in
    plain Python, where a numpy pass costs more than it saves.
    """
    alpha, beta = _IDENTITY
    # _pair_product written out: in this loop the call costs more than the product.
    for a1, b1 in zip(*_fold(pairs, _FOLD_TAIL).tolist()):
        alpha, beta = a1 * alpha - b1 * beta.conjugate(), a1 * beta + b1 * alpha.conjugate()
    return alpha, beta


def _propagate(
    instance: SearchInstance, schedule: Schedule, runs: tuple[int, ...], initial: ReducedState
) -> list[tuple[complex, complex]]:
    """The states after each run of Magnus-4 steps from ``initial``,
    integrated in one pass: ``runs`` holds the step counts, ``(steps,)`` for
    a round alone or ``(steps, steps // 2)`` for a round and its
    step-halving twin.

    A chunk stacks up to _TWIN_CHUNK steps of the round and each later run's
    steps over the same stretch, each run's slice padded with identity pairs
    to a multiple of 2^p, and folds it for the p passes of the shortest run's
    own fold.  Each run then finishes its fold and renormalises its
    propagator (unitary but for rounding), applied with the phase e^{-iT/2}
    of tr H = 1 at the end.
    """
    steps = runs[0]
    # A run takes one step for every ``share`` steps of the round.
    shares = [steps // count for count in runs]
    dts = [schedule.total_time / count for count in runs]
    sqrt_ab = math.sqrt(instance.a * instance.b)
    totals = [_IDENTITY] * len(runs)
    for first in range(0, steps, _TWIN_CHUNK):
        chunk = min(_TWIN_CHUNK, steps - first)
        sizes = [chunk // share for share in shares]
        passes = (max(sizes[-1] - 1, 0) // _FOLD_TAIL).bit_length()
        folded = [-(-size >> passes) for size in sizes]
        spans = [(first // share, size, dt) for share, size, dt in zip(shares, sizes, dts)]
        x_low, x_high = _stage_offsets(schedule, (_GAUSS_LOW, _GAUSS_HIGH), spans)
        widths = [(size, n << passes, dt) for size, n, dt in zip(sizes, folded, dts)]
        pairs = _step_pairs(instance.a, instance.b, sqrt_ab, x_low, x_high, widths)
        pairs = _fold(pairs, pairs.shape[-1] >> passes)
        at = 0
        for run, n in enumerate(folded):
            if n:
                alpha, beta = _pair_product(_ordered_product(pairs[:, at : at + n]), totals[run])
                norm = math.hypot(abs(alpha), abs(beta))
                totals[run] = alpha / norm, beta / norm
            at += n
    phase = cmath.exp(-0.5j * schedule.total_time)
    x, y = complex(initial.amp_alpha), complex(initial.amp_beta)
    return [
        (phase * (alpha * x + beta * y), phase * (alpha.conjugate() * y - beta.conjugate() * x))
        for alpha, beta in totals
    ]


def evolve(
    instance: SearchInstance,
    schedule: Schedule,
    steps: int,
    initial: ReducedState,
) -> RoundOutcome:
    """Integrate one round of the given schedule from ``initial``.

    On the affine sweeps the round runs ``steps`` Magnus-4 steps alone, and
    its error estimate is the closed-form bound (T/steps)^4 E of
    ``_bound_root`` plus ``_rounding_allowance(steps)``, formed before any
    step.  On any other kind, the local schedule included, the same pass
    also runs the ``steps // 2`` of its step-halving twin, for the estimate
    max|amplitude difference| / 15; each run gives the bits it gives alone.

    Raises ValueError for a step count that is not an integer (``bool``
    excluded, as in ``make_instance``) or lies outside [10, MAX_STEPS], and
    NormDriftExceeded when the error estimate exceeds NORM_DRIFT_LIMIT (on
    an affine sweep before integrating), or the final norm strays from 1 by
    more than it (NaN included): the signature of an insufficient step count.
    """
    steps = _checked_steps(steps)
    total = schedule.total_time
    _check_step_cap(steps, total)
    if not abs(initial.norm() - 1.0) <= STATE_NORM_TOL:  # NaN fails this test too
        raise ValueError("initial state must be normalized")
    affine = schedule.kind in _AFFINE_KINDS
    if affine:
        # Squared twice, so that a bound past the float range is inf, not an OverflowError.
        ratio = _bound_root(instance, schedule) / steps
        error_estimate = (ratio * ratio) * (ratio * ratio) + _rounding_allowance(steps)
        if not error_estimate <= NORM_DRIFT_LIMIT:
            raise NormDriftExceeded(
                f"Magnus-4 error bound {error_estimate:.3e} at {steps} steps over duration "
                f"{total:g} exceeds {NORM_DRIFT_LIMIT:g}; increase steps"
            )
    runs = (steps,) if affine else (steps, steps // 2)
    # A huge duration can turn the step angles to inf/NaN; the guards below
    # report it.
    with np.errstate(over="ignore", invalid="ignore"):
        (x, y), *twin = _propagate(instance, schedule, runs, initial)
    drift = abs(math.hypot(abs(x), abs(y)) - 1.0)
    _check_drift("norm drifted by", drift, steps, total)
    if twin:
        x_half, y_half = twin[0]
        error_estimate = max(abs(x - x_half), abs(y - y_half)) / 15.0
        _check_drift("error estimate is", error_estimate, steps, total)
    s_end = 0.5 * (1.0 + float(schedule.sample_x(total)))
    c_alpha, c_beta = eigenvector_components(instance, s_end, 0)
    p_alpha, p_beta = abs(x) ** 2, abs(y) ** 2
    return RoundOutcome(
        ReducedState(x, y),
        # The norm is 1 up to rounding; dividing by it keeps p within [0, 1].
        p_beta / (p_alpha + p_beta),
        abs(c_alpha * x + c_beta * y) ** 2,
        drift,
        error_estimate,
    )


def run_round(
    instance: SearchInstance,
    time_multiplier: float,
    steps: int | None = None,
) -> RoundOutcome:
    """One full protocol round: uniform start, window sweep, report outcome."""
    schedule = make_partial_schedule(instance, time_multiplier)
    if steps is None:
        steps = schedule_step_count(instance, schedule)
    return evolve(instance, schedule, steps, initial_state(instance))


def check_max_rounds(max_rounds: int) -> int:
    """``max_rounds`` as a Python int; ValueError unless it is an integer
    (``bool`` excluded, as in ``make_instance``) with 1 <= max_rounds <= MAX_ROUNDS."""
    max_rounds = require_integer("max_rounds", max_rounds)
    if not 1 <= max_rounds <= MAX_ROUNDS:
        raise ValueError(f"max_rounds must lie in [1, {MAX_ROUNDS}], got {max_rounds}")
    return max_rounds


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

    Raises ValueError unless max_rounds is an integer in [1, MAX_ROUNDS], the
    success probability lies in [0, 1] and round_time is positive and finite.
    """
    max_rounds = check_max_rounds(max_rounds)
    if not 0.0 <= success_probability <= 1.0:
        raise ValueError(f"success probability must lie in [0, 1], got {success_probability}")
    _require_positive_finite("round_time", round_time)
    rng = np.random.default_rng(seed)
    drawn, block = 0, _FIRST_DRAWS
    while drawn < max_rounds:
        # rng.random(k) gives the doubles of k scalar rng.random() calls.
        draws = rng.random(min(block, max_rounds - drawn))
        first = int(np.argmax(draws < success_probability))
        if draws[first] < success_probability:
            rounds = drawn + first + 1
            return RepeatStats(rounds, rounds * round_time, True)
        drawn += draws.size
        block = min(8 * block, _MAX_DRAWS)
    return RepeatStats(max_rounds, max_rounds * round_time, False)


def simulate_until_success(
    instance: SearchInstance,
    time_multiplier: float,
    seed: int = 0,
    max_rounds: int = 10_000,
) -> RepeatStats:
    """Simulate repeat-until-success measurement statistics.

    Rounds are identical, so the dynamics is integrated once and the round
    outcomes are then drawn as Bernoulli trials with that success
    probability.  The round runs ``schedule_step_count`` steps;
    max_rounds is checked before it is integrated.
    """
    check_max_rounds(max_rounds)
    schedule = make_partial_schedule(instance, time_multiplier)
    steps = schedule_step_count(instance, schedule)
    outcome = evolve(instance, schedule, steps, initial_state(instance))
    return draw_repeat_stats(
        outcome.success_probability, schedule.total_time, seed, max_rounds
    )
