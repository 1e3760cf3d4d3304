"""Closed-form spectrum, overlaps, and the success-probability bound chain.

The dense diagonalization of the explicit N x N Hamiltonian (oracle module)
serves as the independent cross-check for every small-N expected value here;
large-N behavior is pinned by the cancellation-free identities themselves.
"""

import math
import sys
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padia.model import evolution_window, make_instance
from padia.oracle import dense_spectrum, make_full_instance, marked_vector, uniform_vector
from padia.spectrum import (
    SpectralPoint,
    _gap_squared,
    adiabatic_success_probability,
    bound_report,
    eigenvalues,
    eigenvector_components,
    expected_total_time,
    gap,
    gap_integral,
    min_gap,
    one_round_time,
    overlap_beta,
    overlap_psi,
    spectral_columns,
    spectral_point,
)

N_MAX = 2**60


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=2, max_value=N_MAX))
    m = draw(st.integers(min_value=1, max_value=n))
    return make_instance(n, m)


unit_interval = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
open_interval = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, exclude_min=True, exclude_max=True
)


def dense_overlaps(n, marked, s):
    """Independent route: diagonalize the explicit matrix."""
    full = make_full_instance(n, marked)
    spec = dense_spectrum(full, s)
    v0 = spec.ground_vector
    return (
        float(spec.eigenvalues[0]),
        float(spec.eigenvalues[1]),
        float(uniform_vector(full) @ v0) ** 2,
        float(marked_vector(full) @ v0) ** 2,
    )


class TestEigenvalues:
    def test_midpoint_against_dense(self):
        inst = make_instance(4, 1)
        e0, e1 = eigenvalues(inst, 0.5)
        assert (e0, e1) == (pytest.approx(0.25, abs=1e-14), pytest.approx(0.75, abs=1e-14))
        d0, d1, _, _ = dense_overlaps(4, {3}, 0.5)
        assert e0 == pytest.approx(d0, abs=1e-12)
        assert e1 == pytest.approx(d1, abs=1e-12)

    @pytest.mark.parametrize("n,m", [(4, 1), (100, 7)])
    def test_start_hamiltonian(self, n, m):
        assert eigenvalues(make_instance(n, m), 0.0) == (0.0, 1.0)

    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 1.0])
    def test_all_marked(self, s):
        assert eigenvalues(make_instance(16, 16), s) == (0.0, 1.0)

    @given(instances(), unit_interval)
    @settings(max_examples=300)
    def test_secular_identity(self, inst, s):
        e0, e1 = eigenvalues(inst, s)
        assert e0 <= e1
        assert abs(e0 + e1 - 1.0) < 1e-14
        assert abs(e0 * e0 - e0 + s * (1.0 - s) * inst.a) < 1e-11
        assert abs(e0 * e1 - s * (1.0 - s) * inst.a) < 1e-11

    @pytest.mark.parametrize("n,m", [(2, 1), (4096, 17), (2**60, 3), (2**60, 2**59)])
    def test_secular_identity_on_fixed_grid(self, n, m):
        inst = make_instance(n, m)
        for s in np.linspace(0.0, 1.0, 101):
            s = float(s)
            e0, _ = eigenvalues(inst, s)
            assert abs(e0 * e0 - e0 + s * (1.0 - s) * inst.a) < 1e-11


class TestGap:
    def test_minimum_at_center(self):
        assert gap(make_instance(100, 1), 0.5) == pytest.approx(0.1, abs=1e-15)

    def test_unit_gap_at_endpoints(self):
        inst = make_instance(37, 5)
        assert gap(inst, 0.0) == 1.0
        assert gap(inst, 1.0) == 1.0

    def test_off_center_value_against_both_forms_and_dense(self):
        inst = make_instance(4, 1)
        # sqrt(0.37), via 50-digit decimal arithmetic.
        assert gap(inst, 0.3) == pytest.approx(0.60827625302982197, abs=1e-15)
        assert gap(inst, 0.3) == pytest.approx(
            math.sqrt(1.0 - 4.0 * 0.3 * 0.7 * inst.a), rel=1e-12
        )
        d0, d1, _, _ = dense_overlaps(4, {2}, 0.3)
        assert gap(inst, 0.3) == pytest.approx(d1 - d0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gap(make_instance(4, 1), 1.5)

    @given(instances(), unit_interval)
    @settings(max_examples=300)
    def test_stable_form_matches_textbook_form(self, inst, s):
        radicand = 1.0 - 4.0 * s * (1.0 - s) * inst.a
        if radicand > 1e-8:
            assert gap(inst, s) == pytest.approx(math.sqrt(radicand), rel=1e-12)

    @pytest.mark.parametrize("n,m", [(64, 1), (2**20, 3), (128, 128)])
    def test_grid_minimization(self, n, m):
        inst = make_instance(n, m)
        grid = np.linspace(0.0, 1.0, 10_001)
        gaps = np.array([gap(inst, float(s)) for s in grid])
        center = gap(inst, 0.5)
        assert gaps.min() >= center - 1e-15
        if m < n:
            off_center = gaps[np.abs(grid - 0.5) > 1e-12]
            assert off_center.min() > center


class TestGapIntegral:
    @given(instances(), unit_interval, unit_interval)
    @settings(max_examples=100, deadline=None)
    def test_matches_trapezoid_quadrature(self, inst, s_start, s_stop):
        grid = np.linspace(s_start, s_stop, 20_001)
        g = np.sqrt(_gap_squared(inst.b, grid))
        quadrature = float(np.sum((g[1:] + g[:-1]) * 0.5 * np.diff(grid)))
        assert gap_integral(inst, s_start, s_stop) == pytest.approx(
            quadrature, rel=1e-6, abs=1e-15
        )

    def test_all_marked_gap_is_one(self):
        assert gap_integral(make_instance(8, 8), 0.25, 0.75) == 0.5

    @pytest.mark.parametrize("n,m", [(64, 1), (2**40, 1), (2**40, 2**20), (10, 9)])
    def test_symmetric_about_the_crossing(self, n, m):
        inst = make_instance(n, m)
        win = evolution_window(inst)
        whole = gap_integral(inst, win.s_minus, win.s_plus)
        assert whole == pytest.approx(2.0 * gap_integral(inst, 0.5, win.s_plus), rel=1e-12)
        assert gap_integral(inst, win.s_plus, win.s_minus) == -whole

    def test_domain_error(self):
        with pytest.raises(ValueError, match="s must lie in"):
            gap_integral(make_instance(4, 1), 0.0, 1.5)


class TestMinGap:
    def test_paper_value(self):
        assert min_gap(make_instance(100, 1)) == (pytest.approx(0.1, abs=1e-15), 0.5)

    def test_all_marked(self):
        assert min_gap(make_instance(50, 50)) == (1.0, 0.5)

    def test_power_of_two_with_grid_verification(self):
        inst = make_instance(1024, 4)
        g, s_star = min_gap(inst)
        assert g == pytest.approx(0.0625, abs=1e-15)
        assert s_star == 0.5
        gaps = np.array([gap(inst, float(s)) for s in np.linspace(0.0, 1.0, 10_001)])
        assert gaps.min() >= g - 1e-12


class TestEigenvectors:
    def test_hand_solved_ground_state(self):
        # (H - 0.25 I) v = 0 for the explicit 2x2 gives v = (1/2, sqrt(3)/2).
        c_alpha, c_beta = eigenvector_components(make_instance(4, 1), 0.5, 0)
        assert c_alpha == pytest.approx(0.5, abs=1e-14)
        assert c_beta == pytest.approx(0.8660254037844386, abs=1e-14)

    @pytest.mark.parametrize("s", [0.0, 0.4, 1.0])
    def test_all_marked_ground_is_beta(self, s):
        assert eigenvector_components(make_instance(9, 9), s, 0) == (0.0, 1.0)
        assert eigenvector_components(make_instance(9, 9), s, 1) == (1.0, 0.0)

    def test_start_ground_is_uniform(self):
        inst = make_instance(10, 3)
        c_alpha, c_beta = eigenvector_components(inst, 0.0, 0)
        assert c_alpha == pytest.approx(math.sqrt(inst.a), abs=1e-14)
        assert c_beta == pytest.approx(math.sqrt(inst.b), abs=1e-14)

    def test_end_ground_is_beta(self):
        assert eigenvector_components(make_instance(10, 3), 1.0, 0) == (0.0, 1.0)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            eigenvector_components(make_instance(4, 1), 0.5, 2)

    @given(instances(), unit_interval, st.sampled_from([0, 1]))
    @settings(max_examples=300)
    def test_normalized_with_sign_convention(self, inst, s, k):
        c_alpha, c_beta = eigenvector_components(inst, s, k)
        assert abs(c_alpha**2 + c_beta**2 - 1.0) < 1e-12
        assert (c_beta if k == 0 else c_alpha) >= 0.0

    @given(instances(), open_interval, st.sampled_from([0, 1]))
    @settings(max_examples=300)
    def test_eigen_residual(self, inst, s, k):
        from padia.model import reduced_hamiltonian

        h = reduced_hamiltonian(inst, s)
        e = eigenvalues(inst, s)[k]
        c_alpha, c_beta = eigenvector_components(inst, s, k)
        r1 = h.h_aa * c_alpha + h.h_ab * c_beta - e * c_alpha
        r2 = h.h_ab * c_alpha + h.h_bb * c_beta - e * c_beta
        assert abs(r1) < 1e-9 and abs(r2) < 1e-9


class TestOverlaps:
    def test_midpoint_example_both_routes(self):
        inst = make_instance(4, 1)
        assert overlap_psi(inst, 0.5, 0) == pytest.approx(0.75, abs=1e-13)
        assert overlap_beta(inst, 0.5, 0) == pytest.approx(0.75, abs=1e-13)
        _, _, d_psi, d_beta = dense_overlaps(4, {0}, 0.5)
        assert overlap_psi(inst, 0.5, 0) == pytest.approx(d_psi, abs=1e-12)
        assert overlap_beta(inst, 0.5, 0) == pytest.approx(d_beta, abs=1e-12)

    def test_start_ground_state_is_uniform(self):
        assert overlap_psi(make_instance(12, 5), 0.0, 0) == pytest.approx(1.0, abs=1e-14)

    def test_end_ground_state_is_marked_uniform(self):
        assert overlap_beta(make_instance(12, 5), 1.0, 0) == 1.0

    @pytest.mark.parametrize("s", [0.0, 0.5, 0.9])
    def test_all_marked(self, s):
        inst = make_instance(7, 7)
        assert overlap_psi(inst, s, 0) == pytest.approx(1.0, abs=1e-14)
        assert overlap_beta(inst, s, 0) == 1.0

    @given(instances(), unit_interval, st.sampled_from([0, 1]))
    @settings(max_examples=300)
    def test_range_and_completeness(self, inst, s, k):
        ov = overlap_psi(inst, s, k)
        assert -1e-12 <= ov <= 1.0 + 1e-12
        if s < 1.0:
            total = overlap_psi(inst, s, 0) + overlap_psi(inst, s, 1)
            assert abs(total - 1.0) < 1e-11

    @given(instances(), open_interval, st.sampled_from([0, 1]))
    @settings(max_examples=300)
    def test_formula_matches_eigenvector_route(self, inst, s, k):
        c_alpha, c_beta = eigenvector_components(inst, s, k)
        via_vector_psi = (c_alpha * math.sqrt(inst.a) + c_beta * math.sqrt(inst.b)) ** 2
        assert abs(overlap_psi(inst, s, k) - via_vector_psi) < 1e-11
        assert abs(overlap_beta(inst, s, k) - c_beta * c_beta) < 1e-11

    def test_spectral_point_bundle(self):
        point = spectral_point(make_instance(100, 1), 0.5)
        assert point.gap == pytest.approx(0.1, abs=1e-15)
        assert point.e0 + point.e1 == pytest.approx(1.0, abs=1e-14)
        assert point.ov_psi_0 == pytest.approx(point.ov_beta_0, rel=1e-9)


@st.composite
def edge_instances(draw):
    """Instances weighted towards the extremes: b down to 2^-60 and M = N."""
    n = draw(st.one_of(
        st.integers(min_value=2, max_value=64),
        st.integers(min_value=2, max_value=N_MAX),
        st.sampled_from([2**40, 2**60]),
    ))
    m = draw(st.one_of(st.just(1), st.just(n), st.integers(min_value=1, max_value=n)))
    return make_instance(n, m)


# s values where the formula route is at its edges: the endpoints, the
# smallest subnormal and normal numbers, and the neighbours of 1/2 and 1.
EDGE_S = [0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-300,
          math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0)]


def same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


class TestGapSquared:
    @given(edge_instances(), st.lists(st.one_of(unit_interval, st.sampled_from(EDGE_S)),
                                      min_size=1, max_size=20))
    @settings(max_examples=300)
    def test_bit_identical_to_plain_expression(self, inst, points):
        b, s = inst.b, np.array(points)
        u = 1.0 - 2.0 * s
        expected = u * u + 4.0 * s * (1.0 - s) * b
        column = _gap_squared(b, s)
        assert column.tobytes() == expected.tobytes()
        for i, point in enumerate(points):
            assert type(_gap_squared(b, point)) is float
            assert same_bits(_gap_squared(b, point), expected[i]), point

    def test_leaves_its_argument_alone(self):
        s = np.linspace(0.0, 1.0, 101)
        _gap_squared(0.25, s)
        assert np.array_equal(s, np.linspace(0.0, 1.0, 101))


class TestSpectralColumns:
    @given(edge_instances(), st.integers(min_value=2, max_value=200),
           st.lists(unit_interval, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_spectral_point(self, inst, points, extra):
        window = evolution_window(inst)
        grid = np.concatenate(
            [np.linspace(0.0, 1.0, points), [window.s_minus, window.s_plus], EDGE_S, extra]
        )
        columns = spectral_columns(inst, grid)
        assert list(columns) == list(SpectralPoint._fields)
        for i, s in enumerate(grid):
            point = spectral_point(inst, float(s))
            for field, column in columns.items():
                assert same_bits(getattr(point, field), column[i]), (field, s)

    def test_all_marked_overlaps_are_exactly_one(self):
        columns = spectral_columns(make_instance(8, 8), np.linspace(0.0, 1.0, 1001))
        assert np.all(columns["ov_psi_0"] == 1.0)
        assert np.all(columns["ov_beta_0"] == 1.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, -math.inf, math.nan])
    def test_rejects_s_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match="s must lie in"):
            spectral_columns(make_instance(4, 1), [0.5, bad])

    def test_rejects_non_flat_grid(self):
        with pytest.raises(ValueError):
            spectral_columns(make_instance(4, 1), [[0.5]])


class TestExactEndpoints:
    """Where the ground state is |beta> the values are exact, not solved for."""

    @given(edge_instances())
    @settings(max_examples=300)
    def test_ground_state_is_beta_at_s_one(self, inst):
        assert eigenvector_components(inst, 1.0, 0) == (0.0, 1.0)
        c_alpha, c_beta = eigenvector_components(inst, 1.0, 1)
        assert (c_alpha, c_beta) == (1.0, 0.0) and same_bits(c_beta, 0.0)
        assert overlap_psi(inst, 1.0, 0) == inst.b
        assert overlap_beta(inst, 1.0, 0) == 1.0
        assert overlap_psi(inst, 1.0, 1) == inst.a
        assert overlap_beta(inst, 1.0, 1) == 0.0
        columns = spectral_columns(inst, [0.0, 0.5, 1.0])
        assert columns["ov_psi_0"][2] == inst.b
        assert columns["ov_beta_0"][2] == 1.0


def reference_level(n, m, s, k):
    """(c_alpha, c_beta, ov_psi, ov_beta) of level k at 80 digits.

    Solves the explicit 2x2 matrix of H = I - (1-s)|Psi><Psi| - s|beta><beta|
    with the textbook discriminant 1 - 4s(1-s)a, twice: in the (alpha, beta)
    basis for the components and ov_beta, and in the (Psi, Psi_perp) basis
    for ov_psi.  Each overlap is then one squared component, so its exact
    zeros (ov_beta at s = 1, ov_psi at s = 0) are not lost to rounding.
    """
    with localcontext(Context(prec=80)):
        a = Decimal(n - m) / n
        b = Decimal(m) / n
        s = Decimal(s)
        t = 1 - s
        sqrt_ab = (a * b).sqrt()
        root = (1 - 4 * s * t * a).sqrt()
        # E0 * E1 = s(1-s)a gives E0 without the cancellation of (1 - root)/2.
        e = 2 * s * t * a / (1 + root) if k == 0 else (1 + root) / 2
        c_alpha, c_beta = null_vector(1 - t * a, -t * sqrt_ab, t * a, e)
        if (c_beta if k == 0 else c_alpha) < 0:
            c_alpha, c_beta = -c_alpha, -c_beta
        w_psi, _ = null_vector(s * a, -s * sqrt_ab, 1 - s * a, e)
        return c_alpha, c_beta, w_psi * w_psi, c_beta * c_beta


def null_vector(h11, h12, h22, e):
    """Unit null vector of [[h11, h12], [h12, h22]] - e, from the longer row candidate."""
    v = max([(-h12, h11 - e), (h22 - e, -h12)], key=lambda w: w[0] ** 2 + w[1] ** 2)
    norm = (v[0] ** 2 + v[1] ** 2).sqrt()
    return v[0] / norm, v[1] / norm


def near(center, sign, max_exponent):
    """s = center + sign * (1 + f) * 2^-e for e in [2, max_exponent]."""
    return st.builds(
        lambda e, f: center + sign * math.ldexp(1.0 + f, -e),
        st.integers(min_value=2, max_value=max_exponent),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )


class TestRelativeAccuracy:
    @given(edge_instances(),
           st.one_of(near(0.0, 1.0, 60), near(0.5, -1.0, 60), near(0.5, 1.0, 60),
                     near(1.0, -1.0, 53)),
           st.sampled_from([0, 1]))
    # s = 0 exactly: the level-1 overlap with |Psi> is exactly 0.
    @example(make_instance(139, 1), 0.0, 1)
    @settings(max_examples=400, deadline=None)
    def test_against_80_digit_reference(self, inst, s, k):
        got = (*eigenvector_components(inst, s, k), overlap_psi(inst, s, k),
               overlap_beta(inst, s, k))
        ref = reference_level(inst.n_items, inst.n_marked, s, k)
        for name, x, r in zip(("c_alpha", "c_beta", "ov_psi", "ov_beta"), got, ref):
            r = float(r)
            assert abs(x - r) <= 1e-13 * abs(r) + sys.float_info.min, (name, x, r)


class TestRoundQuantities:
    def test_success_probability_all_marked(self):
        assert adiabatic_success_probability(make_instance(32, 32)) == 1.0

    def test_success_probability_against_dense(self):
        inst = make_instance(4, 1)
        win = evolution_window(inst)
        _, _, d_psi_minus, _ = dense_overlaps(4, {1}, win.s_minus)
        _, _, _, d_beta_plus = dense_overlaps(4, {1}, win.s_plus)
        p = adiabatic_success_probability(inst)
        assert p == pytest.approx(d_psi_minus * d_beta_plus, abs=1e-12)
        assert p > 1.0 / 24.0

    def test_success_probability_large_n(self):
        assert adiabatic_success_probability(make_instance(2**20, 1)) > 1.0 / 24.0

    def test_one_round_time(self):
        assert one_round_time(make_instance(100, 1)) == 10.0
        assert one_round_time(make_instance(100, 10)) == 1.0
        assert one_round_time(make_instance(2**16, 4)) == 64.0

    def test_one_round_time_equals_window_over_gap_squared(self):
        inst = make_instance(2**16, 4)
        win = evolution_window(inst)
        g_min, _ = min_gap(inst)
        assert one_round_time(inst) == pytest.approx(win.omega / g_min**2, rel=1e-12)

    def test_expected_total_time(self):
        inst = make_instance(100, 1)
        assert expected_total_time(make_instance(9, 9)) == one_round_time(make_instance(9, 9))
        assert expected_total_time(inst) == pytest.approx(
            10.0 / adiabatic_success_probability(inst), rel=1e-15
        )

    @pytest.mark.parametrize("n,m", [(2, 1), (64, 1), (4096, 64), (2**24, 2**12), (2**40, 5)])
    def test_total_time_within_constant_of_one_round(self, n, m):
        inst = make_instance(n, m)
        assert expected_total_time(inst) <= 24.0 * one_round_time(inst)


class TestBoundReport:
    def test_small_instance(self):
        report = bound_report(make_instance(4, 1))
        assert report.all_bounds_hold
        assert report.failures == ()
        assert report.p_one_round == pytest.approx(
            adiabatic_success_probability(make_instance(4, 1)), rel=1e-15
        )

    def test_smallest_instance(self):
        report = bound_report(make_instance(2, 1))
        # (1 - s_minus)^2 = ((1 + 1/sqrt(2))/2)^2
        assert report.window_factor == pytest.approx(0.72855339059327373, abs=1e-14)
        assert report.all_bounds_hold

    def test_sweep_grid_point(self):
        assert bound_report(make_instance(2**20, 2**10)).all_bounds_hold

    def test_all_marked_degenerate_equalities(self):
        report = bound_report(make_instance(16, 16))
        assert report.ov_psi_at_s_minus == 1.0
        assert report.ov_beta_at_s_plus == 1.0
        assert report.p_one_round == 1.0
        assert report.all_bounds_hold

    def test_product_identity(self):
        report = bound_report(make_instance(1000, 17))
        assert report.p_one_round == pytest.approx(
            report.ov_psi_at_s_minus * report.ov_beta_at_s_plus, rel=1e-15
        )

    @given(st.integers(min_value=2, max_value=2**63 - 1).flatmap(
        lambda n: st.tuples(st.just(n), st.sampled_from([1, math.isqrt(n), n // 2, n]))
    ))
    @example((2**53, 1))
    @settings(max_examples=300)
    def test_window_overlaps_are_the_spectral_points(self, n_m):
        # Read off the chain members, the overlaps keep every bit of the
        # kernel's; at (2^53, 1) (1 - s_minus)**2 would move the last one.
        inst = make_instance(*n_m)
        win = evolution_window(inst)
        report = bound_report(inst)
        assert report.ov_psi_at_s_minus == spectral_point(inst, win.s_minus).ov_psi_0
        assert report.ov_beta_at_s_plus == spectral_point(inst, win.s_plus).ov_beta_0

    @given(instances())
    @settings(max_examples=300)
    def test_chain_holds_everywhere(self, inst):
        report = bound_report(inst)
        assert report.all_bounds_hold, report.failures
        assert report.ov_psi_at_s_minus > 1.0 / 8.0
        assert report.ov_beta_at_s_plus > 1.0 / 3.0
        assert report.p_one_round > 1.0 / 24.0
