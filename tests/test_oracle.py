"""Dense full-space Hamiltonian, diagonalization, and dynamics cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padia.dynamics import (
    NormDriftExceeded,
    make_global_schedule,
    make_partial_schedule,
    run_round,
    schedule_stage_values,
)
from padia.model import NonEmptyMarkedSetRequired, make_instance
from padia.oracle import (
    CapacityExceeded,
    ConvergenceFailure,
    _stacked_ground,
    _start_vector,
    certify_reduction,
    dense_spectrum,
    full_evolve,
    full_hamiltonian,
    make_full_instance,
    marked_vector,
    uniform_vector,
)


class TestFullInstance:
    def test_reduced_view(self):
        full = make_full_instance(8, {1, 5, 6})
        assert full.n_marked == 3
        assert full.reduced() == make_instance(8, 3)

    def test_empty_marked_set_rejected(self):
        with pytest.raises(NonEmptyMarkedSetRequired):
            make_full_instance(8, set())

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            make_full_instance(8, {8})

    def test_capacity(self):
        with pytest.raises(CapacityExceeded):
            make_full_instance(4097, {0})

    def test_too_few_items(self):
        with pytest.raises(ValueError):
            make_full_instance(1, {0})


class TestFullHamiltonian:
    def test_start_hamiltonian_two_items(self):
        h = full_hamiltonian(make_full_instance(2, {1}), 0.0)
        assert np.allclose(h, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_final_hamiltonian_two_items(self):
        h = full_hamiltonian(make_full_instance(2, {1}), 1.0)
        assert np.allclose(h, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_midpoint_eigenvalues(self):
        h = full_hamiltonian(make_full_instance(4, {3}), 0.5)
        assert np.allclose(np.linalg.eigvalsh(h), [0.25, 0.75, 1.0, 1.0], atol=1e-12)

    def test_symmetry_and_domain(self):
        full = make_full_instance(6, {0, 4})
        h = full_hamiltonian(full, 0.37)
        assert np.array_equal(h, h.T)
        with pytest.raises(ValueError):
            full_hamiltonian(full, -0.2)


class TestDenseSpectrum:
    def test_ground_state_at_start_is_uniform(self):
        full = make_full_instance(10, {2, 7})
        spec = dense_spectrum(full, 0.0)
        assert spec.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(spec.ground_vector, uniform_vector(full), atol=1e-9)

    def test_midpoint_spectrum(self):
        spec = dense_spectrum(make_full_instance(4, {3}), 0.5)
        assert np.allclose(spec.eigenvalues, [0.25, 0.75, 1.0, 1.0], atol=1e-12)

    def test_all_marked_ground_is_uniform(self):
        full = make_full_instance(8, range(8))
        spec = dense_spectrum(full, 0.3)
        assert spec.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(spec.ground_vector, uniform_vector(full), atol=1e-9)

    def test_bulk_degeneracy_count(self):
        spec = dense_spectrum(make_full_instance(16, {0, 3, 9}), 0.4)
        assert int(np.sum(np.abs(spec.eigenvalues - 1.0) < 1e-9)) == 14

    def test_sign_convention(self):
        for s in (0.2, 0.8):
            spec = dense_spectrum(make_full_instance(12, {1, 2}), s)
            for v in (spec.ground_vector, spec.first_excited_vector):
                assert v[int(np.argmax(np.abs(v)))] > 0.0

    def test_marked_set_independence(self):
        a = dense_spectrum(make_full_instance(32, {0, 1, 2, 3, 4}), 0.6)
        b = dense_spectrum(make_full_instance(32, {5, 11, 17, 23, 29}), 0.6)
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-12)

    def test_low_vectors_stay_in_invariant_plane(self):
        full = make_full_instance(24, {3, 8, 9, 20})
        psi = uniform_vector(full)
        beta = marked_vector(full)
        n, m = full.n_items, full.n_marked
        alpha = (psi * np.sqrt(n) - beta * np.sqrt(m)) / np.sqrt(n - m)
        for s in (0.1, 0.5, 0.9):
            spec = dense_spectrum(full, s)
            for v in (spec.ground_vector, spec.first_excited_vector):
                residual = v - (alpha @ v) * alpha - (beta @ v) * beta
                assert np.linalg.norm(residual) < 1e-10

    def test_convergence_failure_surface(self, monkeypatch):
        def broken_eigh(matrix):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", broken_eigh)
        with pytest.raises(ConvergenceFailure):
            dense_spectrum(make_full_instance(4, {0}), 0.5)


@st.composite
def full_instances(draw):
    """Dense instances up to N = 256, weighted towards M = 1 and M = N, with
    the marked block rotated to any position."""
    n = draw(st.integers(min_value=2, max_value=256))
    m = draw(st.one_of(st.just(1), st.just(n), st.integers(min_value=1, max_value=n)))
    shift = draw(st.integers(min_value=0, max_value=n - 1))
    return make_full_instance(n, {(shift + k) % n for k in range(m)})


class TestStackedGround:
    @given(full_instances(), st.one_of(st.sampled_from([0.0, 1.0, 0.5]),
                                       st.floats(min_value=0.0, max_value=1.0)))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_eigendecomposition(self, full, s):
        values, ground = _stacked_ground(full, np.array([s]))
        w, v = np.linalg.eigh(full_hamiltonian(full, s))
        assert np.allclose(values[0], w, rtol=0.0, atol=1e-12)
        assert np.linalg.norm(ground[0]) == pytest.approx(1.0, abs=1e-14)
        for state in (uniform_vector(full), marked_vector(full)):
            assert (ground[0] @ state) ** 2 == pytest.approx((v[:, 0] @ state) ** 2, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 17, 256, 4096])
    def test_start_vector_is_positive_and_leaves_the_plane(self, n):
        start = _start_vector(n)
        assert np.all(start > 0.0)
        for m in sorted({1, math.isqrt(n), n // 2, n - 1, n}):
            full = make_full_instance(n, range(m))
            plane = np.column_stack([uniform_vector(full), marked_vector(full)])
            coefficients = np.linalg.lstsq(plane, start, rcond=None)[0]
            outside = np.linalg.norm(start - plane @ coefficients)
            assert outside > 0.05 * np.linalg.norm(start)

    @pytest.mark.parametrize("routine", ["eigvalsh", "solve"])
    def test_lapack_failure_surfaces(self, monkeypatch, routine):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, routine, broken)
        with pytest.raises(ConvergenceFailure):
            certify_reduction(make_full_instance(8, {2}), [0.25, 0.5])

    def test_unconverged_vector_is_refused(self, monkeypatch):
        # A "solve" that returns its right-hand side leaves the start vector,
        # whose residual is far above tolerance.
        def no_solve(matrix, rhs):
            return np.broadcast_to(rhs, matrix.shape[:-1] + rhs.shape[-1:]).copy()

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        with pytest.raises(ConvergenceFailure, match="residual/gap"):
            certify_reduction(make_full_instance(8, {2}), [0.25, 0.5])


class TestCertifyReduction:
    def test_small_instance(self):
        worst = certify_reduction(make_full_instance(4, {3}), np.linspace(0, 1, 21))
        assert worst < 1e-10

    def test_medium_instance(self):
        worst = certify_reduction(make_full_instance(256, range(16)), np.linspace(0, 1, 21))
        assert worst < 1e-9

    def test_all_marked_exact(self):
        worst = certify_reduction(make_full_instance(32, range(32)), np.linspace(0, 1, 21))
        assert worst < 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            certify_reduction(make_full_instance(4, {0}), [])


def complex_full_evolve(full, schedule, steps):
    """Reference: the dense RK4 on a complex state, two complex matvecs per
    stage, as full_evolve computed it before its real two-row layout."""
    c0 = full_hamiltonian(full, 0.0).astype(complex)
    c1 = full_hamiltonian(full, 1.0).astype(complex) - c0

    def deriv(s, psi):
        return -1j * (c0 @ psi + s * (c1 @ psi))

    s_nodes, s_mids = schedule_stage_values(schedule, steps)
    dt = schedule.total_time / steps
    psi = uniform_vector(full).astype(complex)
    for i in range(steps):
        k1 = deriv(s_nodes[i], psi)
        k2 = deriv(s_mids[i], psi + 0.5 * dt * k1)
        k3 = deriv(s_mids[i], psi + 0.5 * dt * k2)
        k4 = deriv(s_nodes[i + 1], psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-6
    return float(np.sum(np.abs(psi[sorted(full.marked_set)]) ** 2))


class TestFullEvolve:
    @pytest.mark.parametrize(
        "n, marked", [(4, {1}), (64, {3, 17, 40}), (128, range(0, 128, 16))]
    )
    @pytest.mark.parametrize(
        "builder, c", [(make_partial_schedule, 4.0), (make_global_schedule, 1.0)]
    )
    def test_matches_complex_reference(self, n, marked, builder, c):
        full = make_full_instance(n, marked)
        sched = builder(full.reduced(), c)
        steps = 1500
        assert full_evolve(full, sched, steps) == pytest.approx(
            complex_full_evolve(full, sched, steps), rel=0.0, abs=1e-12
        )

    def test_all_marked(self):
        full = make_full_instance(8, range(8))
        sched = make_partial_schedule(full.reduced(), 1.0)
        assert full_evolve(full, sched, 1000) == pytest.approx(1.0, abs=1e-12)

    def test_sudden_limit_is_initial_overlap(self):
        full = make_full_instance(16, {11})
        sched = make_partial_schedule(full.reduced(), 1e-4)
        assert full_evolve(full, sched, 100) == pytest.approx(1.0 / 16.0, abs=1e-4)

    def test_matches_reduced_dynamics(self):
        full = make_full_instance(64, {10, 40})
        inst = full.reduced()
        sched = make_partial_schedule(inst, 8.0)
        steps = 16_000
        dense = full_evolve(full, sched, steps)
        reduced = run_round(inst, 8.0, steps=steps).success_probability
        assert dense == pytest.approx(reduced, abs=1e-8)

    def test_capacity(self):
        full = make_full_instance(1024, {0})
        sched = make_partial_schedule(full.reduced(), 1.0)
        with pytest.raises(CapacityExceeded):
            full_evolve(full, sched, 1000)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [1e6, 1e9])
    def test_blown_up_state_warns_nothing(self, c):
        full = make_full_instance(16, [0])
        with pytest.raises(NormDriftExceeded):
            full_evolve(full, make_partial_schedule(full.reduced(), c), 10)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_state_raises_norm_drift(self):
        full = make_full_instance(16, [0])
        sched = make_partial_schedule(full.reduced(), 1e9)
        with pytest.raises(NormDriftExceeded):
            full_evolve(full, sched, 10)
