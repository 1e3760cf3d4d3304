"""Schedules, the fixed-step Magnus-4 propagator, and repeat-until-success draws.

Expected values for the local-adiabatic schedule come from the closed form
of the sweep-time integral,

    t_total = c * atan(sqrt(a/b)) / sqrt(a*b),

derived by substituting u = 2s - 1 into dt/ds = c/(b + a u^2), where the
duration multiplier c is 1/epsilon of Roland & Cerf; a direct fine-grid
quadrature reproduces it and the tabulated schedule must match.
"""

import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padia import dynamics
from padia.dynamics import (
    _GAUSS_HIGH,
    _GAUSS_LOW,
    _TWIN_CHUNK,
    MAX_ROUNDS,
    MAX_STEPS,
    NORM_DRIFT_LIMIT,
    NormDriftExceeded,
    RepeatStats,
    Schedule,
    _stage_offsets,
    default_step_count,
    draw_repeat_stats,
    evolve,
    make_global_schedule,
    make_local_schedule,
    make_partial_schedule,
    make_schedule,
    run_round,
    schedule_step_count,
    simulate_until_success,
)
from padia.model import ReducedState, evolution_window, initial_state, make_instance
from padia.oracle import _CHUNK_STEPS
from padia.spectrum import eigenvector_components, overlap_beta, overlap_psi
from padia.sweeps import fit_loglog


def local_total_time_closed_form(n, m):
    """The duration of the local-adiabatic sweep at c = 1."""
    a = (n - m) / n
    b = m / n
    if a == 0.0:
        return 1.0
    return math.atan(math.sqrt(a / b)) / math.sqrt(a * b)


def plain_local_table(instance, c, knots):
    """The local-adiabatic table written as one plain numpy expression per
    quantity: (total_time, t_knots, s_knots)."""
    s_knots = np.linspace(0.0, 1.0, knots)
    u = 1.0 - 2.0 * s_knots
    g_sq = u * u + 4.0 * s_knots * (1.0 - s_knots) * instance.b
    dt_ds = c / g_sq
    t_knots = np.empty_like(s_knots)
    t_knots[0] = 0.0
    np.cumsum((dt_ds[1:] + dt_ds[:-1]) * 0.5 * np.diff(s_knots), out=t_knots[1:])
    return float(t_knots[-1]), t_knots, s_knots


def ground_state(instance, s):
    c_alpha, c_beta = eigenvector_components(instance, s, 0)
    return ReducedState(complex(c_alpha), complex(c_beta))


def linspace_stage_values(schedule, steps):
    """s = (1 + x)/2 at the step endpoints and midpoints of a fixed-step RK4
    run, the endpoints laid out by linspace."""
    times = np.linspace(0.0, schedule.total_time, steps + 1)
    mids = times[:-1] + 0.5 * (schedule.total_time / steps)
    return [
        (0.5 * (1.0 + np.asarray(schedule.sample_x(t), dtype=float))).tolist()
        for t in (times, mids)
    ]


def scalar_rk4(instance, schedule, steps, initial):
    """Reference: one classical RK4 step at a time in plain Python complex
    arithmetic, h_bb = (1-s)a, h_aa = 1 - h_bb, h_ab = -(1-s)sqrt(ab).
    Returns the final amplitudes and the norm drift."""
    a = instance.a
    sqrt_ab = math.sqrt(instance.a * instance.b)
    s_nodes, s_mids = linspace_stage_values(schedule, steps)
    dt = schedule.total_time / steps
    half = 0.5 * dt
    sixth = dt / 6.0
    x, y = complex(initial.amp_alpha), complex(initial.amp_beta)
    for n in range(steps):
        om = 1.0 - s_nodes[n]
        hbb = om * a
        haa = 1.0 - hbb
        hab = -om * sqrt_ab
        k1x = -1j * (haa * x + hab * y)
        k1y = -1j * (hab * x + hbb * y)

        om = 1.0 - s_mids[n]
        hbb = om * a
        haa = 1.0 - hbb
        hab = -om * sqrt_ab
        x2 = x + half * k1x
        y2 = y + half * k1y
        k2x = -1j * (haa * x2 + hab * y2)
        k2y = -1j * (hab * x2 + hbb * y2)
        x3 = x + half * k2x
        y3 = y + half * k2y
        k3x = -1j * (haa * x3 + hab * y3)
        k3y = -1j * (hab * x3 + hbb * y3)

        om = 1.0 - s_nodes[n + 1]
        hbb = om * a
        haa = 1.0 - hbb
        hab = -om * sqrt_ab
        x4 = x + dt * k3x
        y4 = y + dt * k3y
        k4x = -1j * (haa * x4 + hab * y4)
        k4y = -1j * (hab * x4 + hbb * y4)

        x = x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        y = y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
    return x, y, abs(math.sqrt(abs(x) ** 2 + abs(y) ** 2) - 1.0)


# The two Gauss points of a step, and the start, middle and end the RK4
# stages sample, as fractions of the step.
GAUSS_FRACTIONS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
RK4_FRACTIONS = (0.0, 0.5, 1.0)


def stepwise_offsets(schedule, steps, fractions):
    """x = 2s - 1 at t_n + f dt for each fraction f, over every step, the
    times formed one step at a time in plain Python floats."""
    dt = schedule.total_time / steps
    offsets = []
    for f in fractions:
        times = np.array([n * dt + f * dt for n in range(steps)])
        offsets.append(np.asarray(schedule.sample_x(times), dtype=float))
    return offsets


def scalar_magnus4(instance, schedule, steps, initial):
    """Reference: one Magnus-4 step at a time in plain Python complex
    arithmetic.  Each step forms Omega = -i h (H1 + H2)/2 - sqrt(3) h^2/12
    [H2, H1] as a 2x2 matrix and exponentiates it by the 2x2 identity
    exp(Omega) = e^tau (cosh(r) I + sinh(r)/r (Omega - tau I)), tau = tr/2,
    r^2 = -det(Omega - tau I).  Returns the final amplitudes and the norm
    drift."""
    a = instance.a
    sqrt_ab = math.sqrt(instance.a * instance.b)
    x_low, x_high = (v.tolist() for v in stepwise_offsets(schedule, steps, GAUSS_FRACTIONS))
    h = schedule.total_time / steps
    comm = math.sqrt(3.0) / 12.0 * h * h

    def hamiltonian(x_gauss):
        om = 0.5 * (1.0 - x_gauss)  # 1 - s
        return 1.0 - om * a, -om * sqrt_ab, om * a  # h_aa, h_ab, h_bb

    x, y = complex(initial.amp_alpha), complex(initial.amp_beta)
    for n in range(steps):
        a1, b1, d1 = hamiltonian(x_low[n])
        a2, b2, d2 = hamiltonian(x_high[n])
        # [H2, H1] of two real symmetric matrices is antisymmetric: [[0, k], [-k, 0]].
        k = a2 * b1 + b2 * d1 - b2 * a1 - d2 * b1
        o11 = -0.5j * h * (a1 + a2)
        o22 = -0.5j * h * (d1 + d2)
        o12 = -0.5j * h * (b1 + b2) - comm * k
        o21 = -0.5j * h * (b1 + b2) + comm * k
        tau = 0.5 * (o11 + o22)
        p11, p22 = o11 - tau, o22 - tau
        r = cmath.sqrt(-(p11 * p22 - o12 * o21))
        cosh_r = cmath.cosh(r)
        sinhc = cmath.sinh(r) / r if r != 0 else 1.0
        e = cmath.exp(tau)
        u11 = e * (cosh_r + sinhc * p11)
        u12 = e * sinhc * o12
        u21 = e * sinhc * o21
        u22 = e * (cosh_r + sinhc * p22)
        x, y = u11 * x + u12 * y, u21 * x + u22 * y
    return x, y, abs(math.sqrt(abs(x) ** 2 + abs(y) ** 2) - 1.0)


def pair_product(later, earlier):
    """The Cayley-Klein pair of the matrix product later @ earlier."""
    a1, b1 = later
    a2, b2 = earlier
    return a1 * a2 - b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate()


def single_run_propagate(instance, schedule, steps, initial):
    """Reference: the vectorised Magnus-4 propagator of one run on its own,
    the round or its step-halving twin.

    Chunks of 8192 steps sample the Gauss points, form the step pairs and
    fold them by ordered neighbour products, an odd last pair carried over,
    until at most 16 are left for a plain Python product.  Returns the final
    amplitudes."""
    a, b = instance.a, instance.b
    sqrt_ab = math.sqrt(a * b)
    dt = schedule.total_time / steps
    total = (1.0 + 0.0j, 0.0j)
    for start in range(0, steps, 8192):
        times = np.arange(start, min(start + 8192, steps), dtype=float) * dt
        x_low, x_high = (np.asarray(schedule.sample_x(times + f * dt)) for f in GAUSS_FRACTIONS)
        x_sum = x_low + x_high
        wx = (0.25 * dt * sqrt_ab) * (2.0 - x_sum)
        wy = (0.5 * (math.sqrt(3.0) / 12.0) * dt * dt * sqrt_ab) * (x_high - x_low)
        wz = (-0.25 * dt * a) * x_sum - 0.5 * dt * b
        theta = np.sqrt(wx * wx + wy * wy + wz * wz)
        scale = np.divide(np.sin(theta), theta, out=np.ones_like(theta), where=theta > 0.0)
        pairs = np.empty((2, theta.size), dtype=complex)
        np.cos(theta, out=pairs.real[0])
        np.multiply(scale, wz, out=pairs.imag[0])
        np.multiply(scale, wy, out=pairs.real[1])
        np.multiply(scale, wx, out=pairs.imag[1])
        while pairs.shape[-1] > 16:
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
        chunk = (1.0 + 0.0j, 0.0j)
        for pair in zip(*pairs.tolist()):
            chunk = pair_product(pair, chunk)
        alpha, beta = pair_product(chunk, total)
        norm = math.hypot(abs(alpha), abs(beta))
        total = alpha / norm, beta / norm
    alpha, beta = total
    phase = cmath.exp(-0.5j * schedule.total_time)
    x, y = complex(initial.amp_alpha), complex(initial.amp_beta)
    return phase * (alpha * x + beta * y), phase * (alpha.conjugate() * y - beta.conjugate() * x)


AFFINE_KINDS = ("partial", "global_linear", "quench")


def affine_estimate(instance, schedule, steps):
    """The error estimate of an affine round: Magnus-4's bound (T/steps)^4 E,
    the square of a square as evolve forms it, plus the rounding allowance."""
    ratio = dynamics._bound_root(instance, schedule) / steps
    return (ratio * ratio) * (ratio * ratio) + dynamics._rounding_allowance(steps)


def check_against_single_runs(instance, schedule, steps, initial):
    """evolve against single runs: an affine round against the round run
    alone, with the bound as its estimate; a local one against the round and
    its twin run apart, with their difference over 15.  The same bits while
    the round fits in one chunk, amplitudes within 1e-14 beyond."""
    out = evolve(instance, schedule, steps, initial)
    x, y = single_run_propagate(instance, schedule, steps, initial)
    if schedule.kind in AFFINE_KINDS:
        error_estimate = affine_estimate(instance, schedule, steps)
        assert out.error_estimate == error_estimate
    else:
        x_half, y_half = single_run_propagate(instance, schedule, steps // 2, initial)
        error_estimate = max(abs(x - x_half), abs(y - y_half)) / 15.0
    if steps <= _TWIN_CHUNK:
        assert out.final_state == ReducedState(x, y)
        assert out.success_probability == abs(y) ** 2 / (abs(x) ** 2 + abs(y) ** 2)
        assert out.error_estimate == error_estimate
    else:
        assert abs(out.final_state.amp_alpha - x) <= 1e-14
        assert abs(out.final_state.amp_beta - y) <= 1e-14
        assert abs(out.error_estimate - error_estimate) <= 1e-14


def next_prime(n):
    while True:
        n += 1
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            return n


# Step counts around the chunk boundaries of the dense RK4's sampler.
CHUNK_EDGE_STEPS = (
    10,
    11,
    _CHUNK_STEPS - 1,
    _CHUNK_STEPS,
    _CHUNK_STEPS + 1,
    next_prime(2 * _CHUNK_STEPS),
    16_000,
)
# Step counts on both sides of the chunks that a round shares with its twin;
# the last one leaves the twin no step in the third chunk.
TWIN_EDGE_STEPS = (_TWIN_CHUNK - 1, _TWIN_CHUNK, _TWIN_CHUNK + 1, 2 * _TWIN_CHUNK + 1)
# Every case runs at this step size, so the 10-step runs stay within the
# norm-drift limit and the long ones still sweep a sizeable duration.
CASE_DT = 0.05


def comparison_case(kind, steps, dt=CASE_DT):
    """(instance, schedule, initial state) for one schedule kind, lasting
    dt * steps.

    M/N = 1/4 keeps the local-adiabatic sweep rate within a factor 4 of its
    mean, so its 10-step run stays within the norm-drift limit too.
    """
    inst = make_instance(64, 16)
    win = evolution_window(inst)
    total = dt * steps
    if kind == "partial":
        sched = make_partial_schedule(inst, total / 0.5)  # sqrt(N)/M = 1/2
    elif kind == "global_linear":
        sched = make_global_schedule(inst, total / 4.0)  # N/M = 4
    elif kind == "quench":
        sched = dynamics._affine_schedule("quench", 0.0, total)
    elif kind == "local_adiabatic":
        c = total / local_total_time_closed_form(64, 16)
        sched = make_local_schedule(inst, c, 10_001)
    elif kind == "frozen":
        sched = Schedule(
            kind="partial",
            total_time=total,
            sample_x=lambda t: (2.0 * win.s_minus - 1.0) + 0.0 * t,
        )
    else:
        forward = make_partial_schedule(inst, total / 0.5)
        sched = Schedule(
            kind="partial",
            total_time=total,
            sample_x=lambda t: forward.sample_x(total - t),
        )
    psi0 = ground_state(inst, win.s_plus) if kind == "reversed" else initial_state(inst)
    return inst, sched, psi0


SCHEDULE_KINDS = ("partial", "global_linear", "local_adiabatic", "frozen", "reversed")


class TestPartialSchedule:
    def test_nominal_duration_and_endpoints(self):
        sched = make_partial_schedule(make_instance(100, 1), 1.0)
        assert sched.kind == "partial"
        assert sched.total_time == pytest.approx(10.0, rel=1e-15)
        assert sched.sample_x(0.0) == pytest.approx(-0.1, abs=1e-12)  # s = 0.45
        assert sched.sample_x(10.0) == pytest.approx(0.1, abs=1e-12)  # s = 0.55

    def test_small_all_marked(self):
        sched = make_partial_schedule(make_instance(4, 4), 1.0)
        assert sched.total_time == pytest.approx(0.5, rel=1e-15)
        assert sched.sample_x(0.0) == pytest.approx(-0.5, abs=1e-12)  # s = 0.25
        assert sched.sample_x(0.5) == pytest.approx(0.5, abs=1e-12)  # s = 0.75

    def test_multiplier_scales_duration(self):
        sched = make_partial_schedule(make_instance(64, 1), 16.0)
        assert sched.total_time == pytest.approx(128.0, rel=1e-15)

    def test_linear_and_monotone(self):
        sched = make_partial_schedule(make_instance(64, 1), 2.0)
        ts = np.linspace(0.0, sched.total_time, 11)
        xs = sched.sample_x(ts)
        assert np.all(np.diff(xs) > 0.0)
        mid = sched.sample_x(sched.total_time / 2)
        assert mid == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValueError):
            make_partial_schedule(make_instance(4, 1), 0.0)

    @pytest.mark.parametrize("n, c", [(4, 5e-324), (4, 1e-309), (16, 5e-324)])
    def test_round_too_short_to_sweep_is_refused(self, n, c):
        # x runs over 2/sqrt(N) in T = c sqrt(N)/M, a rate of 2M/(c N) that
        # overflows here.
        inst = make_instance(n, 1)
        total = c * math.sqrt(n)
        message = rf"^a partial round of duration {re.escape(f'{total:g}')} is too short"
        with pytest.raises(ValueError, match=message):
            make_partial_schedule(inst, c)
        with pytest.raises(ValueError, match=message):
            run_round(inst, c)

    @pytest.mark.parametrize("n", [4, 100, 2**40, 3 * 2**60])
    def test_offset_runs_across_the_window(self, n):
        sched = make_partial_schedule(make_instance(n, 1), 3.0)
        ts = np.linspace(0.0, sched.total_time, 101)
        xs = sched.sample_x(ts)
        assert xs[0] == -1.0 / math.sqrt(n)
        assert xs[-1] == pytest.approx(1.0 / math.sqrt(n), rel=1e-15)
        assert np.all(np.diff(xs) > 0.0)


class TestGlobalSchedule:
    def test_full_interval(self):
        sched = make_global_schedule(make_instance(16, 4), 1.0)
        assert sched.kind == "global_linear"
        assert sched.total_time == pytest.approx(4.0, rel=1e-15)  # N/M
        assert sched.sample_x(0.0) == -1.0
        assert sched.sample_x(sched.total_time) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("kind", ["global_linear", "local_adiabatic"])
    def test_offset_is_the_plain_expression(self, kind):
        # x is the affine r t - 1 with r = 2/T, or 2 s - 1 of the knot table
        # interpolated.
        inst = make_instance(64, 4)
        sched = make_schedule(inst, kind, 2.0)
        ts = np.linspace(0.0, sched.total_time, 101)
        if kind == "global_linear":
            x = 2.0 / sched.total_time * ts - 1.0
        else:
            _, t_knots, s_knots = plain_local_table(inst, 2.0, dynamics.LOCAL_KNOTS)
            x = 2.0 * np.interp(ts, t_knots, s_knots) - 1.0
        assert np.array_equal(sched.sample_x(ts), x)

    @pytest.mark.parametrize("n, m", [(4, 2), (1024, 2), (1024, 3), (16, 4), (2**62, 3)])
    @pytest.mark.parametrize("c", [1.0, 0.3, 7.0])
    def test_duration_is_c_times_n_over_m(self, n, m, c):
        # N/M is rounded once, then multiplied by c; c/g_min^2, with
        # g_min = sqrt(M/N), misses it by an ulp at all but (16, 4).
        assert make_global_schedule(make_instance(n, m), c).total_time == c * (n / m)

    @pytest.mark.parametrize("n, c", [(4, 5e-324), (4, 1e-309), (64, 5e-324)])
    def test_round_too_short_to_sweep_is_refused(self, n, c):
        # x runs over 2 in T = c N/M, a rate that overflows here.
        message = rf"^a global_linear round of duration {re.escape(f'{c * n:g}')} is too short"
        with pytest.raises(ValueError, match=message):
            make_global_schedule(make_instance(n, 1), c)


class TestAffineSchedule:
    """The partial and global builders, and the quench, are one affine sweep."""

    @pytest.mark.parametrize("n, m", [(4, 1), (64, 8), (1024, 3), (2**40, 2**20), (2**62, 1)])
    @pytest.mark.parametrize("c", [0.25, 1.0, 3.7])
    def test_public_builders_are_the_affine_one(self, n, m, c):
        inst = make_instance(n, m)
        for build, kind, x1, unit in (
            (make_partial_schedule, "partial", 1.0 / math.sqrt(n), math.sqrt(n) / m),
            (make_global_schedule, "global_linear", 1.0, n / m),
        ):
            sched, affine = build(inst, c), dynamics._affine_schedule(kind, x1, c * unit)
            assert (sched.kind, sched.total_time) == (kind, affine.total_time)
            ts = np.linspace(0.0, c * unit, 257)
            assert np.array_equal(sched.sample_x(ts), affine.sample_x(ts))
            assert sched.sample_x(0.0) == -x1

    def test_quench_holds_the_midpoint(self):
        quench = dynamics._affine_schedule("quench", 0.0, 3.0)
        assert quench.kind == "quench"
        assert np.array_equal(quench.sample_x(np.linspace(0.0, 3.0, 7)), np.zeros(7))
        assert quench.sample_x(3.0) == 0.0

    @pytest.mark.parametrize("total", [0.0, -1.0, math.inf, math.nan])
    def test_quench_refuses_a_bad_duration(self, total):
        with pytest.raises(ValueError, match="total_time must be positive and finite"):
            dynamics._affine_schedule("quench", 0.0, total)

    @pytest.mark.parametrize("n, m, total", [(64, 1, 1.0), (2**62, 1, 1e10), (16, 16, 5e-324)])
    def test_quench_runs_at_the_step_floor(self, n, m, total):
        inst = make_instance(n, m)
        quench = dynamics._affine_schedule("quench", 0.0, total)
        assert schedule_step_count(inst, quench) == 10

    # The sudden switch to H(1/2), held for T, is Farhi & Gutmann's analog
    # search (PRA 57, 2403 (1998)) from an overlap b with the marked set:
    # p(T) = b + a sin^2(sqrt(b) T / 2).  H is constant, so Magnus-4 is exact
    # but for rounding at the step rule's 10 steps.
    @settings(max_examples=200, deadline=None)
    @given(
        root=st.integers(2, 2**31),
        marked=st.sampled_from(["one", "root", "half", "all"]),
        fraction=st.floats(0.0, 1.0, exclude_min=True),
    )
    @example(root=2**31, marked="one", fraction=1.0)
    @example(root=2, marked="one", fraction=1.0)
    @example(root=2**31, marked="half", fraction=0.5)
    def test_quench_matches_the_closed_form(self, root, marked, fraction):
        n = root * root
        m = {"one": 1, "root": root, "half": n // 2, "all": n}[marked]
        inst = make_instance(n, m)
        total = fraction * 20.0 * math.sqrt(n / m)
        quench = dynamics._affine_schedule("quench", 0.0, total)
        steps = schedule_step_count(inst, quench)
        assert steps == 10
        p = evolve(inst, quench, steps, initial_state(inst)).success_probability
        closed = inst.b + inst.a * math.sin(math.sqrt(inst.b) * total / 2.0) ** 2
        assert abs(p - closed) <= 1e-13


class TestLocalSchedule:
    def test_all_marked_unit_gap(self):
        sched = make_local_schedule(make_instance(8, 8), 1.0, 1001)
        assert sched.kind == "local_adiabatic"
        assert sched.total_time == pytest.approx(1.0, rel=1e-12)
        sched2 = make_local_schedule(make_instance(8, 8), 0.5, 1001)
        assert sched2.total_time == pytest.approx(0.5, rel=1e-12)

    def test_against_closed_form(self):
        sched = make_local_schedule(make_instance(64, 1), 1.0, 20_001)
        assert sched.total_time == pytest.approx(11.655162414955429, rel=1e-8)

    def test_sqrt_m_scaling_ratio(self):
        t4 = make_local_schedule(make_instance(256, 4), 1.0, 20_001).total_time
        t1 = make_local_schedule(make_instance(256, 1), 1.0, 20_001).total_time
        assert t4 / t1 == pytest.approx(0.4820293896898684, rel=1e-8)
        assert 0.45 < t4 / t1 < 0.52

    def test_sqrt_n_growth(self):
        ns = [64, 256, 1024, 4096, 16384]
        totals = [
            make_local_schedule(make_instance(n, 1), 1.0, 20_001).total_time for n in ns
        ]
        for n, total in zip(ns, totals):
            assert total == pytest.approx(local_total_time_closed_form(n, 1), rel=1e-6)
        fit = fit_loglog(ns, totals)
        assert 0.45 < fit.slope < 0.55

    def test_monotone_sampling(self):
        sched = make_local_schedule(make_instance(64, 2), 1.0, 5001)
        ts = np.linspace(0.0, sched.total_time, 200)
        xs = sched.sample_x(ts)
        assert np.all(np.diff(xs) >= 0.0)
        assert xs[0] == -1.0
        assert xs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_validations(self):
        with pytest.raises(ValueError):
            make_local_schedule(make_instance(4, 1), 0.0, 1000)
        with pytest.raises(ValueError):
            make_local_schedule(make_instance(4, 1), 1.0, 99)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 2**62),
        marked=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
        c=st.one_of(
            st.floats(0.01, 100.0, exclude_min=True), st.sampled_from([1.0, 100.0])
        ),
        knots=st.one_of(st.integers(100, 30_000), st.sampled_from([100, 20_001])),
    )
    def test_bit_identical_to_plain_table(self, n, marked, c, knots):
        inst = make_instance(n, max(1, min(n, round(marked * n))))
        total, t_knots, s_knots = plain_local_table(inst, c, knots)
        sched = make_local_schedule(inst, c, knots)
        assert np.float64(sched.total_time).tobytes() == np.float64(total).tobytes()
        midpoints = 0.5 * (t_knots[1:] + t_knots[:-1])
        t_ref = np.concatenate([t_knots, midpoints, [-1.0, 2.0 * total]])
        plain_x = 2.0 * np.interp(t_ref, t_knots, s_knots) - 1.0
        assert sched.sample_x(t_ref).tobytes() == plain_x.tobytes()

    def test_build_holds_at_most_four_knot_arrays(self):
        knots = 20_001
        inst = make_instance(4096, 64)
        make_local_schedule(inst, 1.0, knots)  # first-call set-up is not counted
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            sched = make_local_schedule(inst, 1.0, knots)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        array_bytes = 8 * knots
        # The plain expression peaked at 7.0 arrays.
        assert (peak - before) / array_bytes <= 4.0
        assert 2.0 <= (after - before) / array_bytes < 2.1
        assert sched.total_time > 0.0


NON_POSITIVE_OR_NON_FINITE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    st.floats(max_value=0.0, allow_nan=False),
)


class TestScheduleInputs:
    @settings(max_examples=60, deadline=None)
    @given(bad=NON_POSITIVE_OR_NON_FINITE)
    def test_every_builder_rejects_the_value(self, bad):
        inst = make_instance(64, 1)
        shown = re.escape(str(bad))
        for build, name in (
            (lambda: make_partial_schedule(inst, bad), "time_multiplier"),
            (lambda: make_global_schedule(inst, bad), "time_multiplier"),
            (lambda: make_local_schedule(inst, bad, 100), "time_multiplier"),
        ):
            message = rf"{name} must be positive and finite, got {shown}$"
            with pytest.raises(ValueError, match=message):
                build()

    def test_round_with_nan_multiplier_is_refused_before_integrating(self):
        message = "time_multiplier must be positive and finite, got nan"
        with pytest.raises(ValueError, match=message):
            run_round(make_instance(64, 1), math.nan)

    def test_overflowing_duration_is_refused(self):
        # Finite inputs whose duration leaves the float range.
        inst = make_instance(2**62, 1)
        for build in (
            lambda: make_partial_schedule(inst, 1e300),
            lambda: make_global_schedule(inst, 1e300),
            lambda: make_local_schedule(inst, 1e300, 20_001),
            lambda: make_local_schedule(make_instance(4, 1), 2.5e307, 101),
        ):
            with pytest.raises(ValueError, match="total_time must be positive and finite, got inf$"):
                build()
        with pytest.raises(ValueError, match="total_time must be positive and finite"):
            run_round(inst, 1e300)


class TestMakeSchedule:
    @pytest.mark.parametrize("kind", ["partial", "global_linear", "local_adiabatic"])
    @pytest.mark.parametrize("c", [0.75, 1.0, 3.0])
    def test_multiplier_scales_every_kind(self, kind, c):
        # Doubling is exact in floating point, so the durations are too.
        inst = make_instance(256, 4)
        single = make_schedule(inst, kind, c)
        double = make_schedule(inst, kind, 2.0 * c)
        assert single.kind == double.kind == kind
        assert double.total_time == 2.0 * single.total_time


class TestDefaultSteps:
    def test_floor_and_scaling(self):
        assert default_step_count(0.5) == 100
        assert default_step_count(1.5) == 100
        assert default_step_count(2.5) == 160
        assert default_step_count(2048.0) == 131_072

    def test_count_past_the_float_range_is_exact(self):
        # 64 * 1e307 overflows a float; the duration is an integer there.
        assert default_step_count(1e307) == 64 * int(1e307)
        assert default_step_count(1.7976931348623157e308) > 10**308


def magnus4_error_bound(instance, schedule):
    """E of the bound h^4 E on Magnus-4's propagator error over a sweep whose
    offset x runs affinely from x0 to x1 at rate r over T:

        E = T r^2 a sqrt(b)/480 + (sqrt(ab)/1440) [b x + a x^3/3] from x0 to x1.
    """
    a, b, total = instance.a, instance.b, schedule.total_time
    x0, x1 = float(schedule.sample_x(0.0)), float(schedule.sample_x(total))
    rate = (x1 - x0) / total

    def antiderivative(x):
        return b * x + a * x**3 / 3.0

    return (total * rate * rate * a * math.sqrt(b) / 480.0
            + math.sqrt(a * b) / 1440.0 * (antiderivative(x1) - antiderivative(x0)))


def commutator(u, v):
    return u @ v - v @ u


def quadrature_error_bound(instance, schedule, points=2001):
    """The integral over the sweep of |[A', [A, A']]|/240 + |[A, [A, [A, A']]]|/720,
    A = -i (H - tr(H)/2), by the trapezoid rule on 2 x 2 matrices of H(s)'s
    entries h_bb = (1-s)a, h_aa = 1 - h_bb, h_ab = -(1-s)sqrt(ab)."""
    t = np.linspace(0.0, schedule.total_time, points)
    s = 0.5 * (1.0 + np.asarray(schedule.sample_x(t), dtype=float))
    h_bb = (1.0 - s) * instance.a
    h_ab = -(1.0 - s) * math.sqrt(instance.a * instance.b)
    a_t = np.empty((points, 2, 2), dtype=complex)
    # tr H = 1, so H - tr(H)/2 has the diagonal (1/2 - h_bb, h_bb - 1/2).
    a_t[:, 0, 0] = -1j * (0.5 - h_bb)
    a_t[:, 0, 1] = a_t[:, 1, 0] = -1j * h_ab
    a_t[:, 1, 1] = -1j * (h_bb - 0.5)
    # H is affine in s and s in t, so A' is one constant matrix.
    slope = (a_t[-1] - a_t[0]) / schedule.total_time
    inner = commutator(a_t, slope)
    terms = (np.linalg.norm(commutator(slope, inner), 2, axis=(1, 2)) / 240.0
             + np.linalg.norm(commutator(a_t, commutator(a_t, inner)), 2, axis=(1, 2)) / 720.0)
    return float(np.sum((terms[1:] + terms[:-1]) * 0.5 * np.diff(t)))


class TestScheduleStepCount:
    @pytest.mark.parametrize(
        "n, m, c",
        [(64, 1, 1.0), (64, 1, 16.0), (2**16, 16, 64.0), (2**20, 1, 256.0),
         (2**30, 1, 1.0), (4, 1, 0.25), (4, 4, 1.0), (2**20, 2**20, 3.0)],
    )
    def test_bound_matches_quadrature(self, n, m, c):
        # The closed form's cross products against the nested commutators of
        # the model's 2 x 2 Hamiltonian, on both affine sweeps.
        inst = make_instance(n, m)
        for kind in ("partial", "global_linear"):
            sched = make_schedule(inst, kind, c)
            assert magnus4_error_bound(inst, sched) == pytest.approx(
                quadrature_error_bound(inst, sched), rel=1e-6
            )

    @pytest.mark.parametrize(
        "kind, n, m, c",
        [("partial", 4, 1, 1.0), ("partial", 64, 1, 1.0), ("partial", 64, 8, 4.0),
         ("partial", 256, 4, 4.0), ("partial", 2**20, 1, 1.0), ("partial", 2**40, 1, 1.0),
         ("partial", 2**20, 2**19, 256.0), ("global_linear", 4, 1, 1.0),
         ("global_linear", 16, 4, 1.0), ("global_linear", 64, 8, 0.64),
         ("global_linear", 2**20, 2**19, 1.0)],
    )
    def test_bound_holds_against_the_integrator(self, kind, n, m, c):
        # Short sweeps, where the h^4 term is the error: at the default count
        # and twice it, the error in p against 16 times the steps is nonzero
        # and at most h^4 E (0.50-0.97 of it on these cases).
        inst = make_instance(n, m)
        sched = make_schedule(inst, kind, c)
        bound = magnus4_error_bound(inst, sched)
        psi0 = initial_state(inst)
        base = schedule_step_count(inst, sched)
        for steps in (base, 2 * base):
            p = evolve(inst, sched, steps, psi0).success_probability
            p_fine = evolve(inst, sched, 16 * steps, psi0).success_probability
            h = sched.total_time / steps
            assert 0.0 < abs(p - p_fine) <= h**4 * bound + 1e-15

    def test_rule_values(self):
        # The least n >= 10 with (T/n)^4 E <= the error bound, where the angle
        # rule (96 steps per radian of a partial round, 64 per unit time of a
        # global one, at least 100) gave the counts in the last column.
        cases = [
            ("partial", 64, 1, 1.0, 67, 100),
            ("partial", 64, 1, 16.0, 745, 880),
            ("partial", 2**16, 16, 64.0, 475, 776),
            ("partial", 2**20, 1, 256.0, 11_280, 14_105),
            ("partial", 2**40, 1, 1.0, 68, 100),
            ("partial", 2**62, 1, 1.0, 68, 100),
            ("partial", 4096, 32, 1.0, 10, 100),
            ("partial", 4, 4, 1.0, 10, 100),
            ("global_linear", 64, 8, 0.64, 176, 328),
            ("global_linear", 256, 4, 1.0, 1261, 4096),
            ("global_linear", 2**16, 1, 1.0, 508_273, 4_194_304),
        ]
        for kind, n, m, c, steps, before in cases:
            inst = make_instance(n, m)
            sched = make_schedule(inst, kind, c)
            assert schedule_step_count(inst, sched) == steps <= before
            estimate = (magnus4_error_bound(inst, sched) / dynamics._ERROR_BOUND) ** 0.25
            assert steps == max(10, math.ceil(sched.total_time * estimate))

    def test_partial_count_does_not_grow_with_n(self):
        counts = [
            schedule_step_count(inst, make_partial_schedule(inst, 1.0))
            for inst in (make_instance(2**10, 1), make_instance(2**40, 1))
        ]
        assert counts == [68, 68]

    # The local table is only piecewise linear in t, so it keeps the duration rule.
    @pytest.mark.parametrize("kind", ["local_adiabatic"])
    def test_baselines_keep_the_duration_rule(self, kind):
        inst = make_instance(256, 4)
        sched = make_schedule(inst, kind, 1.0)
        assert schedule_step_count(inst, sched) == default_step_count(sched.total_time)

    def test_count_past_the_float_range_is_exact(self):
        # T (E / bound)^(1/4) = 4.2e308 at T = 2e307 passes the float range;
        # the count is still the exact integer, which evolve then refuses.
        inst = make_instance(4, 1)
        sched = make_partial_schedule(inst, 1e307)
        steps = schedule_step_count(inst, sched)
        assert isinstance(steps, int) and 10**308 < steps < 10**309
        estimate = (magnus4_error_bound(inst, sched) / dynamics._ERROR_BOUND) ** 0.25
        assert steps / 2**64 == pytest.approx(sched.total_time / 2**64 * estimate, rel=1e-12)

    def test_unknown_kind_has_no_step_rule(self):
        cubic = Schedule("cubic", 1.0, lambda t: t**3 - 1.0)
        with pytest.raises(ValueError, match="'cubic'"):
            schedule_step_count(make_instance(64, 1), cubic)

    def test_vanishing_duration_runs_at_the_floor(self):
        # Both sweep rates at c = 1e-300 are 5e299; at 5e-324 both overflow
        # and the schedules are refused.
        inst = make_instance(4, 1)
        assert schedule_step_count(inst, make_partial_schedule(inst, 1e-300)) == 10
        assert schedule_step_count(inst, make_global_schedule(inst, 1e-300)) == 10

    def test_long_round_at_large_n(self):
        # 11,280 steps, where the count sets the bound to 5e-10; the error
        # itself, against four times the steps, stays below 1e-10.
        inst = make_instance(2**20, 1)
        out = run_round(inst, 256.0)
        steps = schedule_step_count(inst, make_partial_schedule(inst, 256.0))
        finer = run_round(inst, 256.0, steps=4 * steps).final_state
        true_error = max(
            abs(out.final_state.amp_alpha - finer.amp_alpha),
            abs(out.final_state.amp_beta - finer.amp_beta),
        )
        assert true_error <= 1e-10
        assert out.error_estimate <= 5e-10 + dynamics._rounding_allowance(steps)

    # The error estimate, the bound itself, bounds the error at the default
    # count.  On a grid of 400 multipliers per (N, M) the error stays below 3.9e-10
    # (partial) and 3.1e-10 (global, up to 2.5e5 steps); the angle rule that
    # came before kept it below 4.9e-10, and at 64 steps per radian missed by
    # 1e-9 (first example).  Had the steps sampled s and formed bz as
    # 1/2 - a u, the examples at N = 2^40 and 2^62 would miss the second
    # bound at the angle rule's 100 steps (1.3e-11 against 6.3e-12, 1.3e-8
    # against 8.3e-9).
    @settings(max_examples=60, deadline=None)
    @given(
        root=st.integers(2, 2**31),
        marked=st.sampled_from(["one", "root", "half", "all"]),
        c=st.floats(0.25, 256.0),
        kind=st.sampled_from(["partial", "global_linear"]),
    )
    @example(root=3, marked="one", c=2.608930742846019, kind="partial")
    @example(root=2**10, marked="one", c=256.0, kind="partial")
    @example(root=2**20, marked="one", c=246.76996196859298, kind="partial")
    @example(root=2**31, marked="one", c=256.0, kind="partial")
    @example(root=8, marked="root", c=0.64, kind="global_linear")
    def test_default_count_meets_its_estimate(self, root, marked, c, kind):
        n = root * root
        m = {"one": 1, "root": root, "half": n // 2, "all": n}[marked]
        inst = make_instance(n, m)
        sched = make_schedule(inst, kind, c)
        steps = schedule_step_count(inst, sched)
        assume(steps <= 10**6)
        psi0 = initial_state(inst)
        out = evolve(inst, sched, steps, psi0)
        finer = evolve(inst, sched, 4 * steps, psi0)
        difference = abs(out.success_probability - finer.success_probability)
        assert difference <= 1e-9
        assert difference <= 1.5 * out.error_estimate + 1e-13


class TestAffineErrorBound:
    # The bound plus the rounding allowance is the error estimate of every
    # affine round that evolve accepts, down to 1/8 of the default count,
    # against the same round at 16 times the steps.  On a grid of about 930
    # rounds whose bound is above 1e-13 the error reached 0.975 of the bound
    # (the first example: 10 steps of h = 25.6), and 0.920 on global sweeps.
    @settings(max_examples=80, deadline=None)
    @given(
        root=st.integers(2, 2**20),
        marked=st.sampled_from(["one", "root", "half", "all"]),
        c=st.floats(0.25, 256.0),
        kind=st.sampled_from(AFFINE_KINDS),
        fraction=st.sampled_from([1.0, 0.5, 0.25, 0.125]),
    )
    @example(root=2**20, marked="root", c=256.0, kind="partial", fraction=1.0)
    @example(root=2**20, marked="one", c=256.0, kind="partial", fraction=0.125)
    @example(root=8, marked="root", c=256.0, kind="global_linear", fraction=0.125)
    @example(root=5, marked="one", c=256.0, kind="quench", fraction=1.0)
    @example(root=2, marked="all", c=256.0, kind="global_linear", fraction=0.25)
    def test_true_error_is_within_the_estimate(self, root, marked, c, kind, fraction):
        n = root * root
        m = {"one": 1, "root": root, "half": n // 2, "all": n}[marked]
        inst = make_instance(n, m)
        if kind == "quench":
            sched = dynamics._affine_schedule("quench", 0.0, c * math.sqrt(n / m))
        else:
            sched = make_schedule(inst, kind, c)
        steps = max(10, math.ceil(fraction * schedule_step_count(inst, sched)))
        assume(16 * steps <= 10**6)
        psi0 = initial_state(inst)
        estimate = affine_estimate(inst, sched, steps)
        if estimate > NORM_DRIFT_LIMIT:
            with pytest.raises(NormDriftExceeded):
                evolve(inst, sched, steps, psi0)
            return
        out = evolve(inst, sched, steps, psi0)
        ref = evolve(inst, sched, 16 * steps, psi0).final_state
        true_error = max(
            abs(out.final_state.amp_alpha - ref.amp_alpha),
            abs(out.final_state.amp_beta - ref.amp_beta),
        )
        assert out.error_estimate == estimate
        assert true_error <= out.error_estimate

    def test_over_coarse_count_is_refused_before_integrating(self, monkeypatch):
        def no_steps(*args):
            raise AssertionError("integrated a refused round")

        monkeypatch.setattr(dynamics, "_step_pairs", no_steps)
        inst = make_instance(64, 1)
        for sched in (make_partial_schedule(inst, 64.0), make_global_schedule(inst, 4.0)):
            with pytest.raises(NormDriftExceeded, match=r"^Magnus-4 error bound \S+ at 10 steps"):
                evolve(inst, sched, 10, initial_state(inst))

    def test_refusal_names_the_bound_and_the_count(self):
        # At (1024, 1, c = 4) the global bound at 5,000 steps is 6.6e-6; the
        # step-halving twin put the error at 8.4e-9 and accepted the count.
        inst = make_instance(1024, 1)
        sched = make_global_schedule(inst, 4.0)
        with pytest.raises(NormDriftExceeded) as exc:
            evolve(inst, sched, 5000, initial_state(inst))
        assert str(exc.value) == (
            f"Magnus-4 error bound {affine_estimate(inst, sched, 5000):.3e} at 5000 steps "
            "over duration 4096 exceeds 1e-06; increase steps"
        )
        assert affine_estimate(inst, sched, 5000) == pytest.approx(6.55e-6, rel=1e-3)

    def test_bound_past_the_float_range_is_refused(self):
        # (root / steps)^4 overflows; the estimate is inf, not an OverflowError.
        inst = make_instance(4, 1)
        sched = make_partial_schedule(inst, 1e300)
        with pytest.raises(NormDriftExceeded, match="bound inf at 10 steps"):
            evolve(inst, sched, 10, initial_state(inst))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("total", [1e300, 1.7e308])
    def test_blown_up_quench_raises_norm_drift(self, total):
        # The quench's bound is 0, so the round is integrated; its step angles
        # overflow and the norm guard reports the NaN state, with no warning.
        inst = make_instance(64, 1)
        sched = dynamics._affine_schedule("quench", 0.0, total)
        with pytest.raises(NormDriftExceeded, match="^norm drifted by nan after 10 steps"):
            evolve(inst, sched, 10, initial_state(inst))


class TestEvolve:
    def test_all_marked_state_is_pinned(self):
        inst = make_instance(16, 16)
        out = run_round(inst, 4.0)
        assert out.success_probability == pytest.approx(1.0, abs=1e-12)
        assert out.ground_fidelity == pytest.approx(1.0, abs=1e-12)
        assert out.norm_drift < 1e-9

    def test_frozen_schedule_preserves_eigenbasis_populations(self):
        inst = make_instance(16, 2)
        win = evolution_window(inst)
        frozen = Schedule(
            kind="partial",
            total_time=5.0,
            sample_x=lambda t: (2.0 * win.s_minus - 1.0) + 0.0 * t,
        )
        psi0 = initial_state(inst)
        out = evolve(inst, frozen, 5000, psi0)
        assert out.norm_drift < 1e-9
        for k in (0, 1):
            c_alpha, c_beta = eigenvector_components(inst, win.s_minus, k)
            before = abs(c_alpha * psi0.amp_alpha + c_beta * psi0.amp_beta) ** 2
            after = (
                abs(
                    c_alpha * out.final_state.amp_alpha
                    + c_beta * out.final_state.amp_beta
                )
                ** 2
            )
            assert after == pytest.approx(before, abs=1e-9)

    def test_sudden_switch_leaves_state_unchanged(self):
        # Over a vanishing duration only an O(T) dynamical phase accrues.
        inst = make_instance(64, 1)
        out = run_round(inst, 1e-12, steps=10)
        psi0 = initial_state(inst)
        assert abs(out.final_state.amp_alpha - psi0.amp_alpha) < 1e-10
        assert abs(out.final_state.amp_beta - psi0.amp_beta) < 1e-10

    def test_sudden_limit_success_is_initial_overlap(self):
        inst = make_instance(64, 1)
        out = run_round(inst, 0.01)
        assert out.success_probability == pytest.approx(1.0 / 64.0, abs=5e-3)

    def test_ground_fidelity_tracks_adiabatic_prediction(self):
        # Slow sweep: the ground-state population at the end approaches the
        # population deposited there by the sudden switch.
        inst = make_instance(64, 1)
        win = evolution_window(inst)
        target = overlap_psi(inst, win.s_minus, 0)
        out64 = run_round(inst, 64.0, steps=2**16)
        assert out64.norm_drift < 1e-9
        assert out64.ground_fidelity == pytest.approx(target, abs=0.01)
        out16 = run_round(inst, 16.0)
        assert abs(out64.ground_fidelity - target) < abs(out16.ground_fidelity - target)

    def test_success_probability_stays_in_interference_band(self):
        # The measured marked-probability includes the surviving excited
        # component, so it oscillates with the duration inside a fixed band
        # around the ideal product P.
        inst = make_instance(64, 1)
        win = evolution_window(inst)
        a0 = math.sqrt(overlap_psi(inst, win.s_minus, 0))
        b0 = math.sqrt(overlap_beta(inst, win.s_plus, 0))
        a1 = math.sqrt(1.0 - a0 * a0)
        b1 = math.sqrt(1.0 - b0 * b0)
        out = run_round(inst, 64.0)
        low = (a0 * b0 - a1 * b1) ** 2 - 0.01
        high = (a0 * b0 + a1 * b1) ** 2 + 0.01
        assert low <= out.success_probability <= high

    def test_reversal_symmetry(self):
        inst = make_instance(64, 1)
        win = evolution_window(inst)
        forward = make_partial_schedule(inst, 4.0)
        steps = 32_000
        f_fwd = evolve(inst, forward, steps, ground_state(inst, win.s_minus)).ground_fidelity

        total = forward.total_time
        backward = Schedule(
            kind="partial",
            total_time=total,
            sample_x=lambda t: forward.sample_x(total - t),
        )
        f_rev = evolve(inst, backward, steps, ground_state(inst, win.s_plus)).ground_fidelity
        assert f_fwd == pytest.approx(f_rev, abs=1e-6)

    # The name is kept from the RK4 integrator; the reference is the
    # step-by-step Magnus-4 loop.
    @pytest.mark.parametrize("steps", CHUNK_EDGE_STEPS)
    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_matches_scalar_rk4(self, kind, steps):
        inst, sched, psi0 = comparison_case(kind, steps)
        out = evolve(inst, sched, steps, psi0)
        x, y, drift = scalar_magnus4(inst, sched, steps, psi0)
        assert abs(out.final_state.amp_alpha - x) <= 1e-12
        assert abs(out.final_state.amp_beta - y) <= 1e-12
        assert abs(out.norm_drift - drift) <= 1e-12

    @pytest.mark.parametrize("steps", CHUNK_EDGE_STEPS + TWIN_EDGE_STEPS)
    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_chunk_stage_values_are_bit_identical(self, kind, steps):
        # Both integrators sample x = 2s - 1 chunk by chunk: the dense RK4 at
        # each step's start, middle and end, _CHUNK_STEPS steps a chunk, and
        # Magnus-4 at the Gauss points of _TWIN_CHUNK steps of the round and
        # of its twin's steps over the same stretch.  Every chunk must give
        # the bits of the times formed one step at a time.
        _, sched, _ = comparison_case(kind, steps)
        assert (_GAUSS_LOW, _GAUSS_HIGH) == GAUSS_FRACTIONS
        dt = sched.total_time / steps
        expected = stepwise_offsets(sched, steps, RK4_FRACTIONS)
        for start in range(0, steps, _CHUNK_STEPS):
            run = (start, min(_CHUNK_STEPS, steps - start), dt)
            chunk = _stage_offsets(sched, RK4_FRACTIONS, [run])
            for values, reference in zip(chunk, expected, strict=True):
                assert np.array_equal(values, reference[start : start + run[1]])
        twin = steps // 2
        expected = [
            np.concatenate(pair)
            for pair in zip(
                stepwise_offsets(sched, steps, GAUSS_FRACTIONS),
                stepwise_offsets(sched, twin, GAUSS_FRACTIONS),
            )
        ]
        done = 0
        for start in range(0, steps, _TWIN_CHUNK):
            count = min(_TWIN_CHUNK, steps - start)
            runs = [(start, count, dt), (start // 2, count // 2, sched.total_time / twin)]
            chunk = _stage_offsets(sched, GAUSS_FRACTIONS, runs)
            rows = np.r_[start : start + count, steps + start // 2 : steps + (start + count) // 2]
            for values, reference in zip(chunk, expected, strict=True):
                assert np.array_equal(values, reference[rows])
            done += count + count // 2
        assert done == steps + twin

    # The name is kept from when every round shared its pass with a twin;
    # only the local round still does.  An affine round runs alone.
    @pytest.mark.parametrize("steps", (10, 11, 17, 33, 34, 100, 101, 255) + TWIN_EDGE_STEPS)
    @pytest.mark.parametrize("kind", ["partial", "global_linear", "local_adiabatic", "quench"])
    def test_shared_pass_matches_two_single_runs(self, kind, steps):
        inst, sched, psi0 = comparison_case(kind, steps)
        check_against_single_runs(inst, sched, steps, psi0)

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["partial", "global_linear", "local_adiabatic", "quench"]),
        steps=st.integers(10, 3 * _CHUNK_STEPS),
    )
    def test_shared_pass_matches_two_single_runs_at_any_count(self, kind, steps):
        inst, sched, psi0 = comparison_case(kind, steps)
        check_against_single_runs(inst, sched, steps, psi0)

    @pytest.mark.parametrize("kind", ["partial", "global_linear", "quench", "local_adiabatic"])
    def test_only_the_local_round_runs_a_twin(self, kind):
        # The integrator samples x at the two Gauss points of each step of
        # each run: the round's alone on an affine sweep, the round's and
        # its twin's on the local one.  The bound reads x(0), and the ground
        # fidelity x(T), on top.
        steps = 101
        inst, sched, psi0 = comparison_case(kind, steps)
        points = []

        def counting_sample_x(t):
            points.append(np.size(t))
            return sched.sample_x(t)

        evolve(inst, sched._replace(sample_x=counting_sample_x), steps, psi0)
        if kind == "local_adiabatic":
            assert sum(points) == 2 * (steps + steps // 2) + 1
        else:
            assert sum(points) == 2 * steps + 2

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_agrees_with_rk4_at_fine_steps(self, kind):
        # Two independent fourth-order integrators at h = 1e-3.
        steps = 2000
        inst, sched, psi0 = comparison_case(kind, steps, dt=1e-3)
        out = evolve(inst, sched, steps, psi0)
        x, y, _ = scalar_rk4(inst, sched, steps, psi0)
        assert abs(out.final_state.amp_alpha - x) <= 1e-10
        assert abs(out.final_state.amp_beta - y) <= 1e-10

    def test_fourth_order_on_partial_schedule(self):
        inst = make_instance(64, 1)
        sched = make_partial_schedule(inst, 4.0)  # duration 32
        psi0 = initial_state(inst)
        ref = evolve(inst, sched, 4096, psi0).final_state.amp_beta
        errors = [
            abs(evolve(inst, sched, steps, psi0).final_state.amp_beta - ref)
            for steps in (128, 256)
        ]
        assert 14.0 <= errors[0] / errors[1] <= 18.0

    @pytest.mark.parametrize(
        "builder, n, m, c, steps",
        [
            (make_partial_schedule, 64, 1, 4.0, 128),
            (make_partial_schedule, 1024, 16, 16.0, 160),
            (make_global_schedule, 64, 8, 1.0, 40),
            (make_global_schedule, 256, 16, 1.0, 300),
        ],
    )
    def test_error_estimate_bounds_true_error(self, builder, n, m, c, steps):
        # The estimate is Magnus-4's bound h^4 E plus the rounding allowance;
        # it bounds the error against 16 times the steps, and 10% would
        # cover higher-order terms it missed.
        inst = make_instance(n, m)
        sched = builder(inst, c)
        psi0 = initial_state(inst)
        out = evolve(inst, sched, steps, psi0)
        ref = evolve(inst, sched, 16 * steps, psi0).final_state
        true_error = max(
            abs(out.final_state.amp_alpha - ref.amp_alpha),
            abs(out.final_state.amp_beta - ref.amp_beta),
        )
        assert 1e-11 < out.error_estimate <= NORM_DRIFT_LIMIT
        assert true_error <= 1.1 * out.error_estimate

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 2**20),
        marked=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
        c=st.one_of(
            st.floats(1e-12, 1e-3), st.floats(1e-3, 4.0), st.sampled_from([1e-12, 1.0])
        ),
    )
    def test_success_probability_within_unit_interval(self, n, marked, c):
        # M = N pins the state to |beta>, where |amp_beta|^2 alone can round to
        # 1 + 4e-16.
        m = max(1, min(n, round(marked * n)))
        out = run_round(make_instance(n, m), c)
        assert 0.0 <= out.success_probability <= 1.0

    def test_refuses_oversized_run_before_integrating(self):
        inst = make_instance(64, 1)
        sched = make_partial_schedule(inst, 1.0)
        with pytest.raises(ValueError, match=rf"{MAX_STEPS + 1} steps over duration 8 "):
            evolve(inst, sched, MAX_STEPS + 1, initial_state(inst))

    @pytest.mark.parametrize("steps, shown", [
        (10**18 - 1, "999999999999999999"),
        (10**18, "at least 10^18"),
        (64 * 10**307, "at least 10^308"),
    ])
    def test_step_cap_error_names_a_long_count_by_its_magnitude(self, steps, shown):
        inst = make_instance(64, 1)
        sched = make_partial_schedule(inst, 1.0)
        with pytest.raises(ValueError) as exc:
            evolve(inst, sched, steps, initial_state(inst))
        assert str(exc.value) == (
            f"{shown} steps over duration 8 exceed the cap of {MAX_STEPS} steps"
        )

    def test_norm_drift_exceeded_on_coarse_grid(self):
        inst = make_instance(64, 1)
        sched = make_partial_schedule(inst, 64.0)
        with pytest.raises(NormDriftExceeded):
            evolve(inst, sched, 10, initial_state(inst))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("c", [1e6, 1e9])
    def test_blown_up_state_raises_norm_drift(self, c):
        # Both rounds are refused before integrating, by their error bound;
        # TestAffineErrorBound integrates a quench whose state turns NaN.
        inst = make_instance(64, 1)
        sched = make_partial_schedule(inst, c)
        with pytest.raises(NormDriftExceeded):
            evolve(inst, sched, 10, initial_state(inst))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [1e6, 1e9])
    def test_blown_up_state_warns_nothing(self, c):
        inst = make_instance(64, 1)
        with pytest.raises(NormDriftExceeded):
            evolve(inst, make_partial_schedule(inst, c), 10, initial_state(inst))

    def test_validations(self):
        inst = make_instance(4, 1)
        sched = make_partial_schedule(inst, 1.0)
        with pytest.raises(ValueError):
            evolve(inst, sched, 5, initial_state(inst))
        for steps in (100.0, True, np.float64(100.0)):
            with pytest.raises(ValueError, match="^steps must be an integer"):
                evolve(inst, sched, steps, initial_state(inst))
        assert evolve(inst, sched, np.int64(100), initial_state(inst)) == evolve(
            inst, sched, 100, initial_state(inst)
        )
        with pytest.raises(ValueError):
            evolve(inst, sched, 100, ReducedState(1.0 + 0j, 1.0 + 0j))
        with pytest.raises(ValueError, match="initial state must be normalized"):
            evolve(inst, sched, 100, ReducedState(complex(math.nan), 0j))


class TestRepeatUntilSuccess:
    def test_all_marked_first_round(self):
        stats = simulate_until_success(make_instance(9, 9), 1.0, seed=123)
        assert stats == RepeatStats(
            rounds_used=1, total_evolution_time=pytest.approx(1.0 / 3.0), succeeded=True
        )

    def test_deterministic_replay(self):
        inst = make_instance(16, 1)
        first = simulate_until_success(inst, 2.0, seed=7, max_rounds=100)
        second = simulate_until_success(inst, 2.0, seed=7, max_rounds=100)
        assert first == second

    def test_exhaustion_path(self):
        stats = draw_repeat_stats(0.0, 1.5, seed=0, max_rounds=5)
        assert stats == RepeatStats(rounds_used=5, total_evolution_time=7.5, succeeded=False)
        stats = draw_repeat_stats(0.0, 1.5, seed=0, max_rounds=MAX_ROUNDS)
        assert stats == RepeatStats(MAX_ROUNDS, MAX_ROUNDS * 1.5, False)

    def test_mean_rounds_matches_geometric_expectation(self):
        p = 0.37
        n_samples = 4000
        mean = (
            sum(draw_repeat_stats(p, 1.0, seed, 10_000).rounds_used for seed in range(n_samples))
            / n_samples
        )
        assert mean == pytest.approx(1.0 / p, rel=0.05)

    def test_validations(self):
        with pytest.raises(ValueError):
            draw_repeat_stats(1.2, 1.0, 0, 10)
        with pytest.raises(ValueError):
            draw_repeat_stats(0.5, 1.0, 0, 0)
        for round_time in (math.nan, -3.0, 0.0, math.inf):
            with pytest.raises(ValueError, match="round_time must be positive and finite"):
                draw_repeat_stats(0.5, round_time, 0, 10)

    def test_round_cap(self):
        stats = draw_repeat_stats(1.0, 1.0, 0, MAX_ROUNDS)
        assert stats.rounds_used == 1
        message = rf"max_rounds must lie in \[1, {MAX_ROUNDS}\], got {MAX_ROUNDS + 1}$"
        with pytest.raises(ValueError, match=message):
            draw_repeat_stats(1.0, 1.0, 0, MAX_ROUNDS + 1)
        with pytest.raises(ValueError, match="max_rounds must lie in"):
            simulate_until_success(make_instance(4, 4), 1.0, max_rounds=10**12)

    @pytest.mark.parametrize("max_rounds", [True, 5.0])
    def test_round_cap_must_be_an_integer(self, max_rounds):
        message = rf"max_rounds must be an integer, got {max_rounds!r}$"
        with pytest.raises(ValueError, match=message):
            draw_repeat_stats(0.0, 1.0, 0, max_rounds)
        with pytest.raises(ValueError, match=message):
            simulate_until_success(make_instance(4, 1), 1.0, max_rounds=max_rounds)

    def test_numpy_round_cap_is_taken_as_int(self):
        stats = draw_repeat_stats(0.0, 1.0, 0, np.int64(5))
        assert type(stats.rounds_used) is int
        assert stats == RepeatStats(5, 5.0, False)

    @given(
        p=st.one_of(st.sampled_from([0.0, 1e-6, 1e-3, 1.0]), st.floats(0.0, 1.0)),
        round_time=st.floats(0.01, 100.0),
        seed=st.integers(0, 2**32 - 1),
        max_rounds=st.one_of(
            st.integers(1, 10**5),
            # The ends of the first blocks of 16, 128, 1024 and 8192 draws.
            st.sampled_from([15, 16, 17, 143, 144, 145, 1167, 1168, 1169, 9359, 9360, 9361]),
        ),
    )
    @settings(max_examples=150, deadline=None)
    @example(p=1e-6, round_time=1.5, seed=0, max_rounds=10**5)
    @example(p=1e-3, round_time=1.5, seed=3, max_rounds=10**5)
    def test_block_draws_match_scalar_draws(self, p, round_time, seed, max_rounds):
        rng = np.random.default_rng(seed)
        expected = RepeatStats(max_rounds, max_rounds * round_time, False)
        for rounds in range(1, max_rounds + 1):
            if rng.random() < p:
                expected = RepeatStats(rounds, rounds * round_time, True)
                break
        assert draw_repeat_stats(p, round_time, seed, max_rounds) == expected

    def test_round_cap_is_checked_before_integrating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated before checking max_rounds")

        monkeypatch.setattr(dynamics, "evolve", refuse)
        with pytest.raises(ValueError, match="max_rounds must lie in"):
            simulate_until_success(make_instance(2**36, 1), 1.0, max_rounds=MAX_ROUNDS + 1)
