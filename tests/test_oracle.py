"""Dense full-space Hamiltonian, diagonalization, and dynamics cross-checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padia.dynamics import (
    MAX_STEPS,
    NormDriftExceeded,
    evolve,
    make_global_schedule,
    make_partial_schedule,
    run_round,
)
from padia.model import NonEmptyMarkedSetRequired, initial_state, make_instance
from padia import oracle
from padia.oracle import (
    CapacityExceeded,
    ConvergenceFailure,
    _forward_substitute,
    _hamiltonians,
    _lowest_pair,
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

    @pytest.mark.parametrize(
        "n, marked",
        [(8, [2.7]), (8, [2.0]), (8, [True]), (8, [1, "3"]), (8.0, [1]), (True, [0]),
         (np.float64(8), [1]), (8, [np.float32(1)])],
    )
    def test_non_integers_rejected(self, n, marked):
        with pytest.raises(ValueError, match="must be an integer"):
            make_full_instance(n, marked)

    def test_numpy_integers_become_ints(self):
        full = make_full_instance(np.int64(8), [np.int32(2), np.uint8(5)])
        assert full == make_full_instance(8, {2, 5})
        assert type(full.n_items) is int
        assert all(type(i) is int for i in full.marked_set)


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
        for s in (-0.2, 1.5, math.nan):
            with pytest.raises(ValueError):
                full_hamiltonian(full, s)


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


def reference_hamiltonian(full, s):
    """H(s) built entry block by entry block with an np.ix_ index."""
    n = full.n_items
    h = np.full((n, n), -(1.0 - s) / n)
    idx = sorted(full.marked_set)
    h[np.ix_(idx, idx)] -= s / full.n_marked
    h[np.diag_indices(n)] += 1.0
    return h


class TestHamiltonianStack:
    @given(full_instances(), st.lists(st.one_of(st.sampled_from([0.0, 1.0]),
                                                st.floats(min_value=0.0, max_value=1.0)),
                                      min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_slices_are_bit_identical(self, full, s_values):
        n = full.n_items
        stack = _hamiltonians(full, np.array(s_values), np.full((len(s_values), n, n), np.nan))
        for h, s in zip(stack, s_values):
            expected = reference_hamiltonian(full, s).tobytes()
            assert h.tobytes() == expected
            assert full_hamiltonian(full, s).tobytes() == expected

    def test_domain(self):
        full = make_full_instance(4, {1})
        with pytest.raises(ValueError, match="1.5"):
            _hamiltonians(full, np.array([0.5, 1.5]), np.empty((2, 4, 4)))


def low_rank_hamiltonian(n, lowest, seed):
    """I minus a rank-two positive matrix with random orthonormal directions:
    eigenvalues lowest[0], lowest[1], then 1 repeated n - 2 times."""
    basis = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, 2)))[0]
    return np.eye(n) - (basis * (1.0 - np.asarray(lowest))) @ basis.T


class TestStackedGround:
    # Near s = 0 and 1, lambda2 lies about s(1-s)(N-M)/N below the bulk
    # eigenvalue 1 and the Ritz pairs must separate the two.
    @given(full_instances(),
           st.one_of(st.sampled_from([0.0, 1.0, 0.5, 1e-9, 1e-11, 1e-13, 1e-15,
                                      1.0 - 1e-9, 1.0 - 1e-13]),
                     st.floats(min_value=0.0, max_value=1.0)))
    @settings(max_examples=60, deadline=None)
    @example(make_full_instance(3, {0}), 1e-9)
    @example(make_full_instance(256, range(255)), 1e-9)
    @example(make_full_instance(4, {0}), 1.0 - 1e-11)
    @example(make_full_instance(1024, range(32)), 1e-12)
    def test_matches_full_eigendecomposition(self, full, s):
        upper, lower, ground = _stacked_ground(full, np.array([s]))
        w, v = np.linalg.eigh(full_hamiltonian(full, s))
        assert np.allclose(upper[0], w[:2], rtol=0.0, atol=1e-12)
        # eigh's own rounding may put its values a few ulps outside.
        slack = 1e-14
        assert np.all(lower[0] - slack <= w[:2]) and np.all(w[:2] <= upper[0] + slack)
        assert np.linalg.norm(ground[0]) == pytest.approx(1.0, abs=1e-14)
        for state in (uniform_vector(full), marked_vector(full)):
            assert (ground[0] @ state) ** 2 == pytest.approx((v[:, 0] @ state) ** 2, abs=1e-12)

    def test_chunks_match_single_points(self):
        # N = 512 takes 7 Hamiltonians per chunk, so 9 points span two chunks.
        full = make_full_instance(512, range(0, 512, 9))
        grid = np.linspace(0.0, 1.0, 9)
        upper, lower, ground = _stacked_ground(full, grid)
        for i in range(len(grid)):
            single = _stacked_ground(full, grid[i : i + 1])
            for chunked, alone in zip((upper, lower, ground), single):
                assert np.allclose(chunked[i], alone[0], rtol=0.0, atol=1e-15)

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

    def test_certifies_a_matrix_without_the_search_structure(self):
        h = low_rank_hamiltonian(12, (0.2, 0.7), seed=3)
        upper, lower, ground = _lowest_pair(h[None].copy())
        w, v = np.linalg.eigh(h)
        assert np.allclose(upper[0], [0.2, 0.7], rtol=0.0, atol=1e-14)
        assert np.all(lower[0] <= w[:2] + 1e-14) and np.all(w[:2] <= upper[0] + 1e-14)
        assert abs(ground[0] @ v[:, 0]) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("routine", ["cholesky", "eigh"])
    def test_lapack_failure_surfaces(self, monkeypatch, routine):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, routine, broken)
        with pytest.raises(ConvergenceFailure):
            certify_reduction(make_full_instance(8, {2}), [0.25, 0.5])

    def test_unconverged_vector_is_refused(self, monkeypatch):
        # H(s) needs a Krylov space of dimension 3; a block of two leaves the
        # ground residual far above what the angle bound accepts.
        monkeypatch.setattr(oracle, "_KRYLOV_DIM", 2)
        with pytest.raises(ConvergenceFailure, match="does not bound its angle"):
            certify_reduction(make_full_instance(8, {2}), [0.25, 0.5])

    @pytest.mark.parametrize("n, marked, s", [(8, {2}, 0.0), (16, range(16), 0.3)])
    def test_eigenvector_start_is_certified(self, monkeypatch, n, marked, s):
        # The uniform vector is the ground vector of H(0), and of every H(s)
        # when all items are marked: the block has one nonzero column, and
        # QR completes it with directions in the bulk eigenspace of 1.
        monkeypatch.setattr(oracle, "_start_vector", lambda n: np.ones(n))
        assert certify_reduction(make_full_instance(n, marked), [s]) <= 1e-14

    @pytest.mark.parametrize("n, marked, s", [(16, {3, 9}, 0.5), (256, range(16), 0.3)])
    def test_missed_ground_state_is_refused(self, monkeypatch, n, marked, s):
        # A start vector with its ground component projected out, run on an
        # operator whose ground level is lifted out of reach, so that rounding
        # cannot bring it back: Rayleigh-Ritz reports (E1, 1) as the lowest pair,
        # which only the positive-definiteness test can see through.
        full = make_full_instance(n, marked)
        true_ground = np.linalg.eigh(full_hamiltonian(full, s))[1][:, 0]
        start = _start_vector(n)
        start = start - (start @ true_ground) * true_ground
        ritz_pairs = oracle._ritz_pairs

        def blind(stack, _):
            values, vectors = ritz_pairs(stack + 4.0 * np.outer(true_ground, true_ground), start)
            assert values[0, 1] == pytest.approx(1.0, abs=1e-12)
            return values, vectors

        monkeypatch.setattr(oracle, "_ritz_pairs", blind)
        with pytest.raises(ConvergenceFailure, match="not positive definite"):
            certify_reduction(full, [s])

    def test_lower_bound_is_sharp_beyond_the_margin(self, monkeypatch):
        # A negative margin claims lambda2 >= theta1 + 1e-13, which is false
        # by 1e-13: the factorization must see that, at a degenerate (s = 0)
        # and a generic point.
        monkeypatch.setattr(oracle, "_PD_MARGIN", -1e-13)
        for s in (0.0, 0.4):
            with pytest.raises(ConvergenceFailure, match="not positive definite"):
                certify_reduction(make_full_instance(64, range(5)), [s])

    def test_schur_complement_uses_the_cholesky_factor(self, monkeypatch):
        # W = L11^-1 A12 keeps the factorization backward stable; solving
        # with A11 itself would multiply its rounding by cond(A11).  The
        # substitution solves with the diagonal blocks of L11 only: one block
        # at N = 16 (half = 8), three at N = 300 (half = 150 = 64 + 64 + 22).
        solved_with, factors = [], []
        solve, cholesky = np.linalg.solve, np.linalg.cholesky

        def solve_spy(a, b):
            solved_with.append(a.copy())
            return solve(a, b)

        def cholesky_spy(a):
            factors.append(cholesky(a))
            return factors[-1]

        monkeypatch.setattr(np.linalg, "solve", solve_spy)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky_spy)
        for n, marked, sizes in ((16, {1, 5}, [8]), (300, range(0, 300, 7), [64, 64, 22])):
            solved_with.clear()
            factors.clear()
            certify_reduction(make_full_instance(n, marked), [0.3, 0.6])
            l11 = factors[0]
            assert l11.shape == (2, n // 2, n // 2)
            assert [a.shape for a in solved_with] == [(2, k, k) for k in sizes]
            start = 0
            for block, k in zip(solved_with, sizes):
                assert np.all(np.triu(block, 1) == 0.0)
                assert np.all(np.diagonal(block, 0, 1, 2) > 0.0)
                assert np.array_equal(block, l11[:, start : start + k, start : start + k])
                start += k
            assert start == n // 2

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 150, 512])
    def test_forward_substitution_matches_solve(self, m):
        # Cholesky factors of well-conditioned SPD matrices, m below, at and
        # across the block size, with as many right-hand sides as A12 has.
        rng = np.random.default_rng(m)
        b = rng.standard_normal((2, m, m))
        lower = np.linalg.cholesky(np.eye(m) + np.matmul(b, np.swapaxes(b, 1, 2)) / m)
        rhs = rng.standard_normal((2, m, m))
        expected = np.linalg.solve(lower, rhs)
        solved = _forward_substitute(lower, rhs)
        assert solved is rhs
        assert np.max(np.abs(solved - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_unseparated_pair_is_refused(self):
        # lambda2 - lambda1 = 1e-12 is below the margin: l = theta1 - margin
        # does not separate theta0, so neither Temple nor the angle bound hold.
        h = low_rank_hamiltonian(12, (0.0, 1e-12), seed=4)
        with pytest.raises(ConvergenceFailure, match="does not bound its angle"):
            _lowest_pair(h[None].copy())

    def test_temple_bound_widens_with_the_residual(self, monkeypatch):
        # A Ritz vector 1e-10 off the ground vector passes the angle test;
        # the lower bound on lambda1 = 0 then sits r0^2 / (l - theta0) below.
        h = low_rank_hamiltonian(12, (0.0, 0.5), seed=5)
        exact = np.linalg.eigh(h)[1]
        ritz_pairs = oracle._ritz_pairs

        def tilted(stack, start):
            values, _ = ritz_pairs(stack, start)
            return values, (np.cos(1e-10) * exact[:, 0] + np.sin(1e-10) * exact[:, 1])[None]

        monkeypatch.setattr(oracle, "_ritz_pairs", tilted)
        upper, lower, _ = _lowest_pair(h[None].copy())
        residual = 1e-10 * 0.5
        width = upper[0, 0] - lower[0, 0]
        separation = upper[0, 1] - oracle._PD_MARGIN - upper[0, 0]
        assert width == pytest.approx(residual**2 / separation, rel=1e-3, abs=0.0)

    def test_inaccurate_ground_vector_is_refused(self, monkeypatch):
        # A Ritz vector 1e-6 off the ground vector still passes the
        # positive-definiteness test; its residual over the gap must not.
        full = make_full_instance(32, {4, 20})
        exact = np.linalg.eigh(full_hamiltonian(full, 0.5))[1]
        ritz_pairs = oracle._ritz_pairs

        def tilted(stack, start):
            values, vectors = ritz_pairs(stack, start)
            sign = np.sign(vectors[0] @ exact[:, 0])
            return values, sign * (np.cos(1e-6) * exact[:, 0] + np.sin(1e-6) * exact[:, 1])[None]

        monkeypatch.setattr(oracle, "_ritz_pairs", tilted)
        with pytest.raises(ConvergenceFailure, match="does not bound its angle"):
            certify_reduction(full, [0.5])


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

    # s = (1 + x)/2 at the step endpoints, laid out by linspace, and midpoints.
    times = np.linspace(0.0, schedule.total_time, steps + 1)
    mids = times[:-1] + 0.5 * (schedule.total_time / steps)
    s_nodes, s_mids = (0.5 * (1.0 + np.asarray(schedule.sample_x(t))) for t in (times, mids))
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


def random_marked(n, m):
    """m distinct marked indices in [0, n), drawn with a seed fixed by (n, m)."""
    return sorted(np.random.default_rng([n, m]).choice(n, m, replace=False).tolist())


class TestFullEvolve:
    @pytest.mark.parametrize(
        "n, marked",
        [(4, {1}), (64, {3, 17, 40}), (128, range(0, 128, 16)), (512, range(0, 512, 8)),
         (16, range(16)), (97, random_marked(97, 13))],
    )
    @pytest.mark.parametrize(
        "builder, c", [(make_partial_schedule, 4.0), (make_global_schedule, 1.0)]
    )
    def test_matches_complex_reference(self, n, marked, builder, c):
        full = make_full_instance(n, marked)
        sched = builder(full.reduced(), c)
        # At N = 512 (durations 1.4 and 8) 250 steps stay below the split
        # length and keep the complex reference quick.
        steps = 250 if n == 512 else 1500
        assert full_evolve(full, sched, steps) == pytest.approx(
            complex_full_evolve(full, sched, steps), rel=0.0, abs=1e-12
        )

    def test_coarse_steps_are_split(self):
        # h = 0.08 over T = 8: plain RK4 is 3.8e-8 off, split in two 2.3e-9.
        full = make_full_instance(16, range(8))
        inst = full.reduced()
        sched = make_global_schedule(inst, 4.0)
        exact = evolve(inst, sched, 8000, initial_state(inst)).success_probability
        assert abs(complex_full_evolve(full, sched, 100) - exact) > 1e-8
        dense = full_evolve(full, sched, 100)
        assert dense == pytest.approx(complex_full_evolve(full, sched, 200), rel=0.0, abs=1e-12)
        assert dense == pytest.approx(exact, rel=0.0, abs=5e-9)

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

    @pytest.mark.parametrize(
        "n, marked, c", [(4096, [4095], 1.0), (3000, random_marked(3000, 7), 4.0)]
    )
    def test_matches_reduced_dynamics_at_the_cap(self, n, marked, c):
        # The largest N the oracle takes, with one marked item and with an
        # odd marked set, at the steps of the reduced round.
        full = make_full_instance(n, marked)
        inst = full.reduced()
        steps = 8000
        dense = full_evolve(full, make_partial_schedule(inst, c), steps)
        reduced = run_round(inst, c, steps=steps).success_probability
        assert dense == pytest.approx(reduced, rel=0.0, abs=1e-8)

    @pytest.mark.parametrize(
        "steps, total", [(MAX_STEPS + 1, MAX_STEPS + 1), (MAX_STEPS // 2 + 1, MAX_STEPS + 2)]
    )
    def test_step_cap_is_checked_before_any_work(self, monkeypatch, steps, total):
        # The second run is under the cap as asked, over it once its steps
        # (h = 0.08 over T = 4e6) are split in two.
        def no_work(*args):
            raise AssertionError("integration started")

        monkeypatch.setattr(oracle, "_hamiltonians", no_work)
        monkeypatch.setattr(oracle, "_stage_offsets", no_work)
        full = make_full_instance(16, [0])
        sched = make_partial_schedule(full.reduced(), 1e6)
        with pytest.raises(ValueError, match=f"^{total} steps over duration 4e\\+06 exceed"):
            full_evolve(full, sched, steps)

    @pytest.mark.parametrize(
        "steps", [9, 100.0, True, np.float64(100.0)], ids=["9", "float", "bool", "numpy-float"]
    )
    def test_step_count_domain_is_checked_before_any_work(self, monkeypatch, steps):
        def no_work(*args):
            raise AssertionError("integration started")

        monkeypatch.setattr(oracle, "_stage_offsets", no_work)
        monkeypatch.setattr(oracle, "uniform_vector", no_work)
        full = make_full_instance(16, [0])
        with pytest.raises(ValueError, match="^(need at least 10 steps|steps must be an integer)"):
            full_evolve(full, make_partial_schedule(full.reduced(), 1.0), steps)

    def test_memory_does_not_grow_with_the_steps(self):
        # The stage offsets are sampled one chunk of steps at a time, so the
        # peak stays near 1 MB; sampled whole they take 80 bytes a step, 4 MB
        # at this step count.
        full = make_full_instance(4, [0])
        sched = make_partial_schedule(full.reduced(), 64.0)
        tracemalloc.start()
        try:
            full_evolve(full, sched, 50_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

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
