"""Schedules, the fixed-step Magnus-4 propagator, and repeat-until-success draws.

Expected values for the local-adiabatic schedule come from the closed form
of the sweep-time integral,

    t_total = atan(sqrt(a/b)) / (epsilon * sqrt(a*b)),

derived by substituting u = 2s - 1 into dt/ds = 1/(eps*(b + a u^2)); a direct
fine-grid quadrature reproduces it and the tabulated schedule must match.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padia.dynamics import (
    _CHUNK_STEPS,
    MAX_STEPS,
    NORM_DRIFT_LIMIT,
    NormDriftExceeded,
    RepeatStats,
    Schedule,
    _chunk_gauss_values,
    default_step_count,
    draw_repeat_stats,
    evolve,
    make_global_schedule,
    make_local_schedule,
    make_partial_schedule,
    run_round,
    schedule_stage_values,
    simulate_until_success,
)
from padia.model import ReducedState, evolution_window, initial_state, make_instance
from padia.spectrum import eigenvector_components, overlap_beta, overlap_psi
from padia.sweeps import fit_loglog


def local_total_time_closed_form(n, m, epsilon=1.0):
    a = (n - m) / n
    b = m / n
    if a == 0.0:
        return 1.0 / epsilon
    return math.atan(math.sqrt(a / b)) / (epsilon * math.sqrt(a * b))


def ground_state(instance, s):
    c_alpha, c_beta = eigenvector_components(instance, s, 0)
    return ReducedState(complex(c_alpha), complex(c_beta))


def scalar_rk4(instance, schedule, steps, initial):
    """Reference: one classical RK4 step at a time in plain Python complex
    arithmetic, h_bb = (1-s)a, h_aa = 1 - h_bb, h_ab = -(1-s)sqrt(ab).
    Returns the final amplitudes and the norm drift."""
    a = instance.a
    sqrt_ab = math.sqrt(instance.a * instance.b)
    s_nodes, s_mids = (v.tolist() for v in schedule_stage_values(schedule, steps))
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


def gauss_stage_values(schedule, steps):
    """s at the two Gauss points t_n + (1/2 -/+ sqrt(3)/6) dt of every step,
    the times formed one step at a time in plain Python floats."""
    dt = schedule.total_time / steps
    low, high = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
    times_low = [n * dt + low * dt for n in range(steps)]
    times_high = [n * dt + high * dt for n in range(steps)]
    return (
        np.asarray(schedule.sample(np.array(times_low)), dtype=float),
        np.asarray(schedule.sample(np.array(times_high)), dtype=float),
    )


def scalar_magnus4(instance, schedule, steps, initial):
    """Reference: one Magnus-4 step at a time in plain Python complex
    arithmetic.  Each step forms Omega = -i h (H1 + H2)/2 - sqrt(3) h^2/12
    [H2, H1] as a 2x2 matrix and exponentiates it by the 2x2 identity
    exp(Omega) = e^tau (cosh(r) I + sinh(r)/r (Omega - tau I)), tau = tr/2,
    r^2 = -det(Omega - tau I).  Returns the final amplitudes and the norm
    drift."""
    a = instance.a
    sqrt_ab = math.sqrt(instance.a * instance.b)
    s_low, s_high = (v.tolist() for v in gauss_stage_values(schedule, steps))
    h = schedule.total_time / steps
    comm = math.sqrt(3.0) / 12.0 * h * h

    def hamiltonian(s):
        om = 1.0 - s
        return 1.0 - om * a, -om * sqrt_ab, om * a  # h_aa, h_ab, h_bb

    x, y = complex(initial.amp_alpha), complex(initial.amp_beta)
    for n in range(steps):
        a1, b1, d1 = hamiltonian(s_low[n])
        a2, b2, d2 = hamiltonian(s_high[n])
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


def next_prime(n):
    while True:
        n += 1
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            return n


# Step counts around the chunk boundaries of the vectorised integrator.
CHUNK_EDGE_STEPS = (
    10,
    11,
    _CHUNK_STEPS - 1,
    _CHUNK_STEPS,
    _CHUNK_STEPS + 1,
    next_prime(2 * _CHUNK_STEPS),
    16_000,
)
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
    elif kind == "local_adiabatic":
        epsilon = local_total_time_closed_form(64, 16) / total
        sched = make_local_schedule(inst, epsilon, 10_001)
    elif kind == "frozen":
        sched = Schedule(kind="partial", total_time=total, sample=lambda t: win.s_minus + 0.0 * t)
    else:
        forward = make_partial_schedule(inst, total / 0.5)
        sched = Schedule(
            kind="partial", total_time=total, sample=lambda t: forward.sample(total - t)
        )
    psi0 = ground_state(inst, win.s_plus) if kind == "reversed" else initial_state(inst)
    return inst, sched, psi0


SCHEDULE_KINDS = ("partial", "global_linear", "local_adiabatic", "frozen", "reversed")


class TestPartialSchedule:
    def test_nominal_duration_and_endpoints(self):
        sched = make_partial_schedule(make_instance(100, 1), 1.0)
        assert sched.kind == "partial"
        assert sched.total_time == pytest.approx(10.0, rel=1e-15)
        assert sched.sample(0.0) == pytest.approx(0.45, abs=1e-12)
        assert sched.sample(10.0) == pytest.approx(0.55, abs=1e-12)

    def test_small_all_marked(self):
        sched = make_partial_schedule(make_instance(4, 4), 1.0)
        assert sched.total_time == pytest.approx(0.5, rel=1e-15)
        assert sched.sample(0.0) == pytest.approx(0.25, abs=1e-12)
        assert sched.sample(0.5) == pytest.approx(0.75, abs=1e-12)

    def test_multiplier_scales_duration(self):
        sched = make_partial_schedule(make_instance(64, 1), 16.0)
        assert sched.total_time == pytest.approx(128.0, rel=1e-15)

    def test_linear_and_monotone(self):
        sched = make_partial_schedule(make_instance(64, 1), 2.0)
        ts = np.linspace(0.0, sched.total_time, 11)
        ss = sched.sample(ts)
        assert np.all(np.diff(ss) > 0.0)
        mid = sched.sample(sched.total_time / 2)
        assert mid == pytest.approx(0.5, abs=1e-12)

    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValueError):
            make_partial_schedule(make_instance(4, 1), 0.0)


class TestGlobalSchedule:
    def test_full_interval(self):
        sched = make_global_schedule(make_instance(16, 4), 1.0)
        assert sched.kind == "global_linear"
        assert sched.total_time == pytest.approx(4.0, rel=1e-15)  # N/M
        assert sched.sample(0.0) == 0.0
        assert sched.sample(sched.total_time) == pytest.approx(1.0, rel=1e-15)


class TestLocalSchedule:
    def test_all_marked_unit_gap(self):
        sched = make_local_schedule(make_instance(8, 8), 1.0, 1001)
        assert sched.kind == "local_adiabatic"
        assert sched.total_time == pytest.approx(1.0, rel=1e-12)
        sched2 = make_local_schedule(make_instance(8, 8), 2.0, 1001)
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
        ss = sched.sample(ts)
        assert np.all(np.diff(ss) >= 0.0)
        assert ss[0] == 0.0
        assert ss[-1] == pytest.approx(1.0, abs=1e-12)

    def test_validations(self):
        with pytest.raises(ValueError):
            make_local_schedule(make_instance(4, 1), 0.0, 1000)
        with pytest.raises(ValueError):
            make_local_schedule(make_instance(4, 1), 1.0, 99)


class TestDefaultSteps:
    def test_floor_and_scaling(self):
        assert default_step_count(0.5) == 100
        assert default_step_count(1.5) == 100
        assert default_step_count(2.5) == 160
        assert default_step_count(2048.0) == 131_072


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
            kind="partial", total_time=5.0, sample=lambda t: win.s_minus + 0.0 * t
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
            kind="partial", total_time=total, sample=lambda t: forward.sample(total - t)
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

    @pytest.mark.parametrize("steps", CHUNK_EDGE_STEPS)
    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_chunk_stage_values_are_bit_identical(self, kind, steps):
        _, sched, _ = comparison_case(kind, steps)
        s_low, s_high = gauss_stage_values(sched, steps)
        for start in range(0, steps, _CHUNK_STEPS):
            stop = min(start + _CHUNK_STEPS, steps)
            chunk_low, chunk_high = _chunk_gauss_values(sched, steps, start, stop)
            assert np.array_equal(chunk_low, s_low[start:stop])
            assert np.array_equal(chunk_high, s_high[start:stop])

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
        # Step halving estimates the error of a fourth-order scheme to within
        # its higher-order terms; 10% covers them here.
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

    def test_norm_drift_exceeded_on_coarse_grid(self):
        inst = make_instance(64, 1)
        sched = make_partial_schedule(inst, 64.0)
        with pytest.raises(NormDriftExceeded):
            evolve(inst, sched, 10, initial_state(inst))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("c", [1e6, 1e9])
    def test_blown_up_state_raises_norm_drift(self, c):
        # 1e6: the squared amplitudes overflow; 1e9: the state turns NaN.
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
        with pytest.raises(ValueError):
            evolve(inst, sched, 100, ReducedState(1.0 + 0j, 1.0 + 0j))


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
