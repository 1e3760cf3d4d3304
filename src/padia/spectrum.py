"""Closed-form spectral quantities of the reduced search Hamiltonian.

Eigenvalues of the 2x2 reduction satisfy E^2 - E + s(1-s)a = 0, so
E(0,s), E(1,s) = (1 -/+ g)/2 with g the spectral gap.  The textbook gap
expression sqrt(1 - 4s(1-s)a) cancels catastrophically when b = M/N is tiny
and s is near 1/2, so everything here is evaluated through the algebraically
identical, cancellation-free form

    g(s) = sqrt((1-2s)^2 + 4s(1-s)b).

The same care is applied to the eigenvector denominators 1-E and 1-s-E,
which are rewritten so no difference of nearly equal quantities occurs.

``spectral_point`` evaluates one s; ``spectral_columns`` evaluates a whole s
grid as numpy columns with the same formulas in the same order, so every
value is bit-identical to the scalar route.  Points where the formulas
degenerate are filled from the scalar overlaps, or, when every item is
marked, from the constant 1.0 the scalar route returns there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SearchInstance, evolution_window, reduced_hamiltonian

__all__ = [
    "SpectralPoint",
    "BoundReport",
    "eigenvalues",
    "gap",
    "min_gap",
    "eigenvector_components",
    "overlap_psi",
    "overlap_beta",
    "spectral_point",
    "spectral_columns",
    "adiabatic_success_probability",
    "one_round_time",
    "expected_total_time",
    "bound_report",
]

# Lower bounds on the window overlaps and the one-round success probability.
OV_PSI_LOWER_BOUND = 1.0 / 8.0
OV_BETA_LOWER_BOUND = 1.0 / 3.0
P_LOWER_BOUND = 1.0 / 24.0


@dataclass(frozen=True)
class SpectralPoint:
    """Spectral data of H(s) at one value of s.

    ``ov_psi_0`` and ``ov_beta_0`` are the squared overlaps of the ground
    state with the uniform superposition and the marked-uniform state.
    """

    s: float
    e0: float
    e1: float
    gap: float
    ov_psi_0: float
    ov_beta_0: float


@dataclass(frozen=True)
class BoundReport:
    """Numerical check of the inequality chain lower-bounding the one-round
    success probability.

    The chain members, in the order they are applied:

    * ``window_factor``  = (1 - s_minus)^2, must be < 1;
    * ``alpha_weight``   = a / (1 - E0(s_minus))^2, must be < 4;
    * ``beta_weight``    = b / (1 - s_minus - E0(s_minus))^2, must be
      <= 4M/(1 + sqrt(M))^2 < 4;
    * ``end_ratio``      = (1 - s_plus - E0(s_plus)) / (1 - E0(s_plus)),
      must be < sqrt(2b);

    which together force ``ov_psi_at_s_minus`` > 1/8,
    ``ov_beta_at_s_plus`` > 1/3, and ``p_one_round`` > 1/24.
    """

    ov_psi_at_s_minus: float
    ov_beta_at_s_plus: float
    p_one_round: float
    window_factor: float
    alpha_weight: float
    beta_weight: float
    end_ratio: float
    all_bounds_hold: bool
    failures: tuple[str, ...] = ()


def _check_s(s: float) -> None:
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")


def _gap_array(instance: SearchInstance, s: np.ndarray) -> np.ndarray:
    """``gap`` on an array of s values, elementwise bit-identical to it."""
    u = 1.0 - 2.0 * s
    return np.sqrt(u * u + 4.0 * s * (1.0 - s) * instance.b)


def gap(instance: SearchInstance, s: float) -> float:
    """Spectral gap E(1,s) - E(0,s), in the cancellation-free form."""
    _check_s(s)
    u = 1.0 - 2.0 * s
    return math.sqrt(u * u + 4.0 * s * (1.0 - s) * instance.b)


def eigenvalues(instance: SearchInstance, s: float) -> tuple[float, float]:
    """The two nontrivial eigenvalues (e0, e1) of H(s); e0 + e1 = 1."""
    g = gap(instance, s)
    return (0.5 * (1.0 - g), 0.5 * (1.0 + g))


def min_gap(instance: SearchInstance, verify_points: int | None = None) -> tuple[float, float]:
    """Minimum gap sqrt(M/N), attained at s = 1/2.

    With ``verify_points`` set, additionally scans that many uniformly spaced
    s values and raises ``RuntimeError`` if any grid gap undercuts the
    analytic minimum by more than 1e-12.
    """
    g_min = math.sqrt(instance.n_marked / instance.n_items)
    if verify_points is not None:
        if verify_points < 2:
            raise ValueError("verify_points must be at least 2")
        gaps = _gap_array(instance, np.linspace(0.0, 1.0, verify_points))
        smallest = float(gaps.min())
        if smallest < g_min - 1e-12:
            raise RuntimeError(
                f"grid scan found gap {smallest} below the analytic minimum {g_min}"
            )
    return (g_min, 0.5)


def _one_minus_e(instance: SearchInstance, s: float, k: int, g: float) -> float:
    """1 - E(k,s) without cancellation: (1-g)/2 is rewritten via 1-g^2."""
    if k == 0:
        return 0.5 * (1.0 + g)
    # (1 - g)/2 = (1 - g^2) / (2(1 + g)) and 1 - g^2 = 4s(1-s)a.
    return 2.0 * s * (1.0 - s) * instance.a / (1.0 + g)


def _one_minus_s_minus_e(instance: SearchInstance, s: float, k: int, g: float) -> float:
    """1 - s - E(k,s) without cancellation.

    Uses g^2 - (1-2s)^2 = 4s(1-s)b to avoid subtracting nearly equal numbers
    on whichever side of s = 1/2 the difference degenerates.
    """
    u = 1.0 - 2.0 * s  # positive left of the crossing
    small = 2.0 * s * (1.0 - s) * instance.b / (g + abs(u))
    if k == 0:
        # (u + g)/2; cancels when u < 0 and g ~ |u|.
        return 0.5 * (u + g) if u >= 0.0 else small
    # (u - g)/2; cancels when u > 0 and g ~ u.
    return -0.5 * (abs(u) + g) if u <= 0.0 else -small


# Below this the component-ratio denominators can no longer be squared
# without underflow; the direct 2x2 route takes over.
_DENOMINATOR_FLOOR = 1e-150


def _formula_denominators(
    instance: SearchInstance, s: float, k: int
) -> tuple[float, float] | None:
    """(1-E, 1-s-E) where the component-ratio formulas are numerically safe.

    Returns None at the endpoints, when every item is marked (a = 0), or when
    either denominator is small enough that squaring it would underflow.
    """
    if not 0.0 < s < 1.0 or instance.a == 0.0:
        return None
    g = gap(instance, s)
    d_e = _one_minus_e(instance, s, k, g)
    d_se = _one_minus_s_minus_e(instance, s, k, g)
    if min(abs(d_e), abs(d_se)) < _DENOMINATOR_FLOOR:
        return None
    return d_e, d_se


def _direct_eigenvector(instance: SearchInstance, s: float, k: int) -> tuple[float, float]:
    """Eigenvector of the explicit 2x2 matrix, for the degenerate fallbacks."""
    h = reduced_hamiltonian(instance, s)
    e = eigenvalues(instance, s)[k]
    # Two algebraically equivalent null-vector candidates; keep the larger.
    v1 = (h.h_ab, e - h.h_aa)
    v2 = (e - h.h_bb, h.h_ab)
    n1 = math.hypot(*v1)
    n2 = math.hypot(*v2)
    if max(n1, n2) == 0.0:
        # Diagonal matrix: the eigenvector is the basis vector whose diagonal
        # entry matches e.
        return (1.0, 0.0) if abs(h.h_aa - e) <= abs(h.h_bb - e) else (0.0, 1.0)
    c_alpha, c_beta = (v1[0] / n1, v1[1] / n1) if n1 >= n2 else (v2[0] / n2, v2[1] / n2)
    return c_alpha, c_beta


def eigenvector_components(instance: SearchInstance, s: float, k: int) -> tuple[float, float]:
    """Unit-norm real components (<alpha|E(k,s)>, <beta|E(k,s)>).

    Sign convention: the ground state (k=0) has c_beta >= 0, the excited state
    (k=1) has c_alpha >= 0.  Where the component-ratio route degenerates
    (s in {0, 1}, or a = 0 when every item is marked) the eigenvector is taken
    directly from the 2x2 matrix instead.
    """
    _check_s(s)
    if k not in (0, 1):
        raise ValueError(f"level k must be 0 or 1, got {k}")
    denominators = _formula_denominators(instance, s, k)
    if denominators is not None:
        d_e, d_se = denominators
        # Components are proportional to sqrt(a)/(1-E) and sqrt(b)/(1-s-E).
        w_alpha = math.sqrt(instance.a) / d_e
        w_beta = math.sqrt(instance.b) / d_se
        norm = math.hypot(w_alpha, w_beta)
        c_alpha, c_beta = w_alpha / norm, w_beta / norm
    else:
        c_alpha, c_beta = _direct_eigenvector(instance, s, k)
    flip = c_beta < 0.0 if k == 0 else c_alpha < 0.0
    if flip:
        c_alpha, c_beta = -c_alpha, -c_beta
    return c_alpha, c_beta


def overlap_psi(instance: SearchInstance, s: float, k: int) -> float:
    """|<Psi|E(k,s)>|^2, the squared overlap with the uniform superposition."""
    _check_s(s)
    denominators = _formula_denominators(instance, s, k)
    if denominators is not None:
        d_e, d_se = denominators
        one_minus_s = 1.0 - s
        denom = one_minus_s * one_minus_s * (
            instance.a / (d_e * d_e) + instance.b / (d_se * d_se)
        )
        return 1.0 / denom
    c_alpha, c_beta = eigenvector_components(instance, s, k)
    amp = c_alpha * math.sqrt(instance.a) + c_beta * math.sqrt(instance.b)
    return amp * amp


def overlap_beta(instance: SearchInstance, s: float, k: int) -> float:
    """|<beta|E(k,s)>|^2, the squared overlap with the marked-uniform state."""
    _check_s(s)
    denominators = _formula_denominators(instance, s, k)
    if denominators is not None:
        d_e, d_se = denominators
        ratio = d_se / d_e
        return instance.b / (ratio * ratio * instance.a + instance.b)
    _, c_beta = eigenvector_components(instance, s, k)
    return c_beta * c_beta


def spectral_point(instance: SearchInstance, s: float) -> SpectralPoint:
    """Bundle eigenvalues, gap, and ground-state overlaps at one s."""
    e0, e1 = eigenvalues(instance, s)
    return SpectralPoint(
        s=s,
        e0=e0,
        e1=e1,
        gap=gap(instance, s),
        ov_psi_0=overlap_psi(instance, s, 0),
        ov_beta_0=overlap_beta(instance, s, 0),
    )


def spectral_columns(instance: SearchInstance, s_values) -> dict[str, np.ndarray]:
    """``spectral_point`` over a 1-D grid of s values, as numpy columns.

    Returns one float64 array per ``SpectralPoint`` field, keyed and ordered
    by field name.  Every value is bit-identical to ``spectral_point``: the
    formulas and their order of operations are the same.  When every item
    is marked (a = 0) both overlaps are the constant 1.0 the scalar fallback
    returns; the other points where the scalar code takes its fallback route
    (s in {0, 1}, or a denominator below _DENOMINATOR_FLOOR) are filled from
    the scalar ``overlap_psi``/``overlap_beta``.  An s outside [0, 1] (or
    NaN) raises ValueError, as ``spectral_point`` does.
    """
    s = np.array(s_values, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"s values must form a 1-D grid, got shape {s.shape}")
    outside = ~((s >= 0.0) & (s <= 1.0))
    if outside.any():
        _check_s(float(s[np.argmax(outside)]))
    a, b = instance.a, instance.b
    g = _gap_array(instance, s)
    e0 = 0.5 * (1.0 - g)
    e1 = 0.5 * (1.0 + g)
    # The k = 0 formula route of overlap_psi/overlap_beta, elementwise; the
    # degenerate points it produces here are overwritten below.
    with np.errstate(all="ignore"):
        one_minus_s = 1.0 - s
        u = 1.0 - 2.0 * s
        d_e = e1  # 1 - E(0,s) = (1 + g)/2
        small = 2.0 * s * one_minus_s * b / (g + np.abs(u))
        d_se = np.where(u >= 0.0, 0.5 * (u + g), small)
        ov_psi = 1.0 / (one_minus_s * one_minus_s * (a / (d_e * d_e) + b / (d_se * d_se)))
        ratio = d_se / d_e
        ov_beta = b / (ratio * ratio * a + b)
    if a == 0.0:
        # Every item is marked, so Psi = beta is the ground state at every s;
        # the scalar route (_direct_eigenvector) returns exactly 1.0 for both.
        ov_psi.fill(1.0)
        ov_beta.fill(1.0)
    else:
        fallback = (
            (s <= 0.0)
            | (s >= 1.0)
            | (np.minimum(np.abs(d_e), np.abs(d_se)) < _DENOMINATOR_FLOOR)
        )
        for i in np.flatnonzero(fallback):
            s_i = float(s[i])
            ov_psi[i] = overlap_psi(instance, s_i, 0)
            ov_beta[i] = overlap_beta(instance, s_i, 0)
    return {"s": s, "e0": e0, "e1": e1, "gap": g, "ov_psi_0": ov_psi, "ov_beta_0": ov_beta}


def adiabatic_success_probability(instance: SearchInstance) -> float:
    """One-round success probability in the ideal adiabatic accounting.

    P = |<Psi|E(0,s_minus)>|^2 * |<beta|E(0,s_plus)>|^2: the chance of
    starting in the sweep's ground state times the chance that the final
    ground state measures as a marked item.
    """
    window = evolution_window(instance)
    return overlap_psi(instance, window.s_minus, 0) * overlap_beta(instance, window.s_plus, 0)


def one_round_time(instance: SearchInstance) -> float:
    """Duration of one sweep: omega / g_min^2 = sqrt(N)/M."""
    return math.sqrt(instance.n_items) / instance.n_marked


def expected_total_time(instance: SearchInstance) -> float:
    """Expected repeat-until-success cost: one_round_time / P."""
    return one_round_time(instance) / adiabatic_success_probability(instance)


def bound_report(instance: SearchInstance) -> BoundReport:
    """Evaluate every link of the success-probability bound chain.

    ``all_bounds_hold`` is True iff every intermediate inequality and all
    three final bounds (> 1/8, > 1/3, > 1/24) hold.  Two kinds of comparison
    are deliberately non-strict: those that become exact equalities when all
    items are marked (a = 0), and 1/(2a+1) vs 1/3, whose true margin 2/(9N)
    drops below double resolution for N beyond ~4e15 and rounds to equality.
    """
    window = evolution_window(instance)
    a, b = instance.a, instance.b
    m = instance.n_marked
    g_minus = gap(instance, window.s_minus)
    g_plus = gap(instance, window.s_plus)

    window_factor = (1.0 - window.s_minus) ** 2
    d_e_minus = _one_minus_e(instance, window.s_minus, 0, g_minus)
    d_se_minus = _one_minus_s_minus_e(instance, window.s_minus, 0, g_minus)
    alpha_weight = a / (d_e_minus * d_e_minus)
    beta_weight = b / (d_se_minus * d_se_minus)
    end_ratio = (
        _one_minus_s_minus_e(instance, window.s_plus, 0, g_plus)
        / _one_minus_e(instance, window.s_plus, 0, g_plus)
    )

    ov_psi = overlap_psi(instance, window.s_minus, 0)
    ov_beta = overlap_beta(instance, window.s_plus, 0)
    p = ov_psi * ov_beta

    # g(s_plus) - (2 s_plus - 1), i.e. g - omega, without cancellation via
    # g^2 - (2s-1)^2 = 4s(1-s)b.  Built from the same pieces as end_ratio's
    # numerator so the comparison below cannot be lost to rounding noise of
    # the window edge itself (at N ~ 1e17 that noise exceeds the true
    # separation factor 1/(1+g)).
    u_plus = abs(1.0 - 2.0 * window.s_plus)
    chain_numerator = (
        4.0 * window.s_plus * (1.0 - window.s_plus) * b / (g_plus + u_plus)
    )
    beta_weight_cap = 4.0 * m / (1.0 + math.sqrt(m)) ** 2
    slack = 1.0 + 1e-12  # absorbs fp noise where equality is attained (M = N)

    checks = {
        "window_factor < 1": window_factor < 1.0,
        "alpha_weight < 4": alpha_weight < 4.0,
        "beta_weight <= 4M/(1+sqrt(M))^2": beta_weight <= beta_weight_cap * slack,
        "4M/(1+sqrt(M))^2 < 4": beta_weight_cap < 4.0,
        "end_ratio >= 0": end_ratio >= 0.0,
        "end_ratio <= g(s_plus) - omega": end_ratio <= chain_numerator * slack,
        "end_ratio < sqrt(2b)": end_ratio < math.sqrt(2.0 * b),
        "ov_psi > 1/8": ov_psi > OV_PSI_LOWER_BOUND,
        "ov_beta >= 1/(2a+1)": ov_beta * slack >= 1.0 / (2.0 * a + 1.0),
        "1/(2a+1) >= 1/3": 1.0 / (2.0 * a + 1.0) >= OV_BETA_LOWER_BOUND,
        "ov_beta > 1/3": ov_beta > OV_BETA_LOWER_BOUND,
        "p > 1/24": p > P_LOWER_BOUND,
    }
    failures = tuple(name for name, ok in checks.items() if not ok)

    return BoundReport(
        ov_psi_at_s_minus=ov_psi,
        ov_beta_at_s_plus=ov_beta,
        p_one_round=p,
        window_factor=window_factor,
        alpha_weight=alpha_weight,
        beta_weight=beta_weight,
        end_ratio=end_ratio,
        all_bounds_hold=not failures,
        failures=failures,
    )
