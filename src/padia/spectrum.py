"""Closed-form spectral quantities of the reduced search Hamiltonian.

Eigenvalues of the 2x2 reduction satisfy E^2 - E + s(1-s)a = 0, so
E(0,s), E(1,s) = (1 -/+ g)/2 with g the spectral gap.  The textbook gap
expression sqrt(1 - 4s(1-s)a) cancels catastrophically when b = M/N is tiny
and s is near 1/2, so the gap is evaluated through the algebraically
identical, cancellation-free form

    g(s)^2 = u^2 + 4s(1-s)b,    u = 1 - 2s.

Everything else comes from one kernel, written once for floats and numpy
arrays alike.  The ground state is proportional to
(sqrt(a)/d_e, sqrt(b)/d_se), with the denominators

    d_e  = 1 - E0     = (1 + g)/2,
    d_se = 1 - s - E0 = (u + g)/2               for u >= 0,
                      = 2s(1-s)b / (g + |u|)    for u < 0.

The second form of d_se follows from g^2 - u^2 = 4s(1-s)b and avoids the
cancellation of (u + g)/2 right of the crossing.  The ground-state overlaps
are

    |<Psi|E0>|^2  = 1 / ((1-s)^2 (a/d_e^2 + b/d_se^2)),
    |<beta|E0>|^2 = b / ((d_se/d_e)^2 a + b).

The excited state is orthogonal to the ground state: its components are
(c_beta0, -c_alpha0).  Because d_e - d_se = s exactly, its overlaps need no
subtraction either:

    |<Psi|E1>|^2  = ab s^2 / (a d_se^2 + b d_e^2),
    |<beta|E1>|^2 = a d_se^2 / (a d_se^2 + b d_e^2).

Where the ground state is |beta> the formulas are not used; that fact is
stated exactly instead.  This holds at s = 1, where d_se = 0, and at every s
when all items are marked (a = 0, so Psi = beta).  There the ground state
has components (0, 1) and overlaps (b, 1), and the excited state is |alpha>.
s = 0 is finite on the formulas and needs no case.

``spectral_point`` evaluates one s and ``spectral_columns`` a whole grid as
numpy columns through the same kernel, so every value is bit-identical
between the two.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import SearchInstance, evolution_window

__all__ = [
    "SpectralPoint",
    "BoundReport",
    "eigenvalues",
    "gap",
    "gap_integral",
    "min_gap",
    "eigenvector_components",
    "overlap_psi",
    "overlap_beta",
    "spectral_point",
    "spectral_columns",
    "adiabatic_success_probability",
    "one_round_time",
    "bound_report",
]

# Lower bounds on the window overlaps and the one-round success probability.
OV_PSI_LOWER_BOUND = 1.0 / 8.0
OV_BETA_LOWER_BOUND = 1.0 / 3.0
P_LOWER_BOUND = 1.0 / 24.0

# Absorbs fp noise in the chain's non-strict links, where equality is
# attained (M = N).
_SLACK = 1.0 + 1e-12

# The checks of bound_report, in the order it applies them; a report's
# ``failures`` lists the names of those that fail, in this order.
_CHECK_NAMES = (
    "window_factor < 1",
    "alpha_weight < 4",
    "beta_weight <= 4M/(1+sqrt(M))^2",
    "4M/(1+sqrt(M))^2 < 4",
    "end_ratio >= 0",
    "end_ratio <= g(s_plus) - omega",
    "end_ratio < sqrt(2b)",
    "ov_psi > 1/8",
    "ov_beta >= 1/(2a+1)",
    "1/(2a+1) >= 1/3",
    "ov_beta > 1/3",
    "p > 1/24",
)


class SpectralPoint(NamedTuple):
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


class BoundReport(NamedTuple):
    """Numerical check of the inequality chain lower-bounding the one-round
    success probability.

    The chain members, in the order they are applied:

    * ``window_factor``  = (1 - s_minus)^2, must be < 1;
    * ``alpha_weight``   = a / (1 - E0(s_minus))^2, must be < 4;
    * ``beta_weight``    = b / (1 - s_minus - E0(s_minus))^2, must be
      <= 4M/(1 + sqrt(M))^2 < 4;
    * ``end_ratio``      = (1 - s_plus - E0(s_plus)) / (1 - E0(s_plus)),
      must be < sqrt(2b);

    which together force the three conclusions, each read off the members:

    * ``ov_psi_at_s_minus`` = 1 / ((1 - s_minus)^2 (alpha_weight +
      beta_weight)) > 1/8;
    * ``ov_beta_at_s_plus`` = b / (a end_ratio^2 + b) > 1/3;
    * ``p_one_round``       = ov_psi_at_s_minus * ov_beta_at_s_plus > 1/24.

    The link ``end_ratio <= g(s_plus) - omega`` holds for every instance by
    construction: with end_ratio = d_se/d_e, its right side is 2 d_se, and
    d_e = (1 + g)/2 >= 1/2.  It is still checked, as a link of the chain.
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


def _check_level(k: int) -> None:
    if k not in (0, 1):
        raise ValueError(f"level k must be 0 or 1, got {k}")


# --- the kernel: each function takes a float s or a numpy array of s -------

def _gap_squared(b, s):
    """g(s)^2 = u^2 + 4s(1-s)b with u = 1 - 2s.

    Evaluated by augmented assignment on two fresh values, so an array s
    costs two temporaries and a float s takes the same code.  Every step
    rounds as the plain expression ``u * u + 4.0 * s * (1.0 - s) * b`` does:
    1 + (-2s) is 1 - 2s, s - 1 is -(1 - s) exactly, and scaling by -4 is
    exact, so (s - 1)(-4)s rounds the same real product as (4s)(1 - s).
    """
    g_sq = -2.0 * s
    g_sq += 1.0
    g_sq *= g_sq
    term = s - 1.0
    term *= -4.0
    term *= s
    term *= b
    g_sq += term
    return g_sq


def _energies(g):
    """(E0, E1) = ((1 - g)/2, (1 + g)/2) from the gap."""
    return 0.5 * (1.0 - g), 0.5 * (1.0 + g)


def _denominators(b, s, g):
    """(d_e, d_se) = (1 - E0, 1 - s - E0) without cancellation, given g = g(s).

    The select between the two forms of d_se is the only code that differs
    between floats and arrays: an array computes both forms, a float only
    the one it returns.  Left of the crossing that takes a float call from
    ~300 ns to ~225 ns (CPython 3.11, Intel Xeon); right of it, ~10 ns.
    """
    u = 1.0 - 2.0 * s
    d_e = 0.5 * (1.0 + g)
    if isinstance(u, np.ndarray):
        return d_e, np.where(u >= 0.0, 0.5 * (u + g), 2.0 * s * (1.0 - s) * b / (g + abs(u)))
    return d_e, (0.5 * (u + g) if u >= 0.0 else 2.0 * s * (1.0 - s) * b / (g + abs(u)))


def _ground_overlaps(a, b, s, d_e, d_se):
    """(|<Psi|E0>|^2, |<beta|E0>|^2) on the formulas, for s < 1 and a > 0."""
    one_minus_s = 1.0 - s
    ov_psi = 1.0 / (one_minus_s * one_minus_s * (a / (d_e * d_e) + b / (d_se * d_se)))
    ratio = d_se / d_e
    return ov_psi, b / (ratio * ratio * a + b)


def _ground_is_beta(instance: SearchInstance, s):
    """Where the ground state is exactly |beta>: at s = 1, and everywhere
    when every item is marked."""
    return (s == 1.0) | (instance.a == 0.0)


# --- public scalar and column routes ---------------------------------------

def gap(instance: SearchInstance, s: float) -> float:
    """Spectral gap E(1,s) - E(0,s), in the cancellation-free form."""
    _check_s(s)
    return math.sqrt(_gap_squared(instance.b, s))


def eigenvalues(instance: SearchInstance, s: float) -> tuple[float, float]:
    """The two nontrivial eigenvalues (e0, e1) of H(s); e0 + e1 = 1."""
    return _energies(gap(instance, s))


def _gap_antiderivative(a: float, b: float, x: float) -> float:
    """F(x) with dF/dx = sqrt(b + a x^2), the gap as a function of x = 2s - 1.

    F(x) = (x/2) sqrt(b + a x^2) + (b / (2 sqrt(a))) asinh(x sqrt(a/b)),
    and x sqrt(b) when a = 0.  F is odd, and both of its terms carry the
    sign of x, so nothing cancels.
    """
    root = math.sqrt(b + a * x * x)
    if a == 0.0:
        return x * root
    return 0.5 * x * root + b / (2.0 * math.sqrt(a)) * math.asinh(x * math.sqrt(a / b))


def gap_integral(instance: SearchInstance, s_start: float, s_stop: float) -> float:
    """The integral of g(s) ds over [s_start, s_stop], in closed form.

    With x = 2s - 1 the gap is g^2 = b + a x^2 and ds = dx/2.
    """
    _check_s(s_start)
    _check_s(s_stop)
    a, b = instance.a, instance.b
    return 0.5 * (
        _gap_antiderivative(a, b, 2.0 * s_stop - 1.0)
        - _gap_antiderivative(a, b, 2.0 * s_start - 1.0)
    )


def min_gap(instance: SearchInstance) -> tuple[float, float]:
    """Minimum gap sqrt(M/N), attained at s = 1/2."""
    return (math.sqrt(instance.n_marked / instance.n_items), 0.5)


def _overlaps(instance: SearchInstance, s: float, g: float, k: int) -> tuple[float, float]:
    """(|<Psi|E(k,s)>|^2, |<beta|E(k,s)>|^2) at one s, given g = g(s)."""
    a, b = instance.a, instance.b
    if _ground_is_beta(instance, s):
        return (b, 1.0) if k == 0 else (a, 0.0)
    d_e, d_se = _denominators(b, s, g)
    if k == 0:
        return _ground_overlaps(a, b, s, d_e, d_se)
    # The excited state is orthogonal to the ground state (module docstring).
    weight = a * d_se * d_se + b * d_e * d_e
    return a * b * s * s / weight, a * d_se * d_se / weight


def eigenvector_components(instance: SearchInstance, s: float, k: int) -> tuple[float, float]:
    """Unit-norm real components (<alpha|E(k,s)>, <beta|E(k,s)>).

    Sign convention: the ground state (k=0) has c_beta >= 0, the excited state
    (k=1) has c_alpha >= 0.
    """
    _check_level(k)
    g = gap(instance, s)
    if _ground_is_beta(instance, s):
        c_alpha, c_beta = 0.0, 1.0
    else:
        d_e, d_se = _denominators(instance.b, s, g)
        w_alpha = math.sqrt(instance.a) / d_e
        w_beta = math.sqrt(instance.b) / d_se
        norm = math.hypot(w_alpha, w_beta)
        c_alpha, c_beta = w_alpha / norm, w_beta / norm
    # 0.0 - c_alpha rather than -c_alpha, so that |alpha> comes out as (1.0, 0.0).
    return (c_alpha, c_beta) if k == 0 else (c_beta, 0.0 - c_alpha)


def overlap_psi(instance: SearchInstance, s: float, k: int) -> float:
    """|<Psi|E(k,s)>|^2, the squared overlap with the uniform superposition."""
    _check_level(k)
    return _overlaps(instance, s, gap(instance, s), k)[0]


def overlap_beta(instance: SearchInstance, s: float, k: int) -> float:
    """|<beta|E(k,s)>|^2, the squared overlap with the marked-uniform state."""
    _check_level(k)
    return _overlaps(instance, s, gap(instance, s), k)[1]


def spectral_point(instance: SearchInstance, s: float) -> SpectralPoint:
    """Bundle eigenvalues, gap, and ground-state overlaps at one s."""
    g = gap(instance, s)
    e0, e1 = _energies(g)
    ov_psi, ov_beta = _overlaps(instance, s, g, 0)
    return SpectralPoint(s, e0, e1, g, ov_psi, ov_beta)


def spectral_columns(instance: SearchInstance, s_values) -> dict[str, np.ndarray]:
    """``spectral_point`` over a 1-D grid of s values, as numpy columns.

    Returns one float64 array per ``SpectralPoint`` field, keyed and ordered
    by field name.  Every value is bit-identical to ``spectral_point``: both
    run the same kernel.  An s outside [0, 1] (or NaN) raises ValueError, as
    ``spectral_point`` does.
    """
    s = np.array(s_values, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"s values must form a 1-D grid, got shape {s.shape}")
    outside = ~((s >= 0.0) & (s <= 1.0))
    if outside.any():
        _check_s(float(s[np.argmax(outside)]))
    a, b = instance.a, instance.b
    g = np.sqrt(_gap_squared(b, s))
    e0, e1 = _energies(g)
    # The formulas divide by d_se = 0 at s = 1; those points are replaced below.
    with np.errstate(divide="ignore", invalid="ignore"):
        ov_psi, ov_beta = _ground_overlaps(a, b, s, *_denominators(b, s, g))
    beta = _ground_is_beta(instance, s)
    ov_psi[beta] = b
    ov_beta[beta] = 1.0
    return {"s": s, "e0": e0, "e1": e1, "gap": g, "ov_psi_0": ov_psi, "ov_beta_0": ov_beta}


def adiabatic_success_probability(instance: SearchInstance) -> float:
    """One-round success probability in the ideal adiabatic accounting.

    P = |<Psi|E(0,s_minus)>|^2 * |<beta|E(0,s_plus)>|^2: the chance of
    starting in the sweep's ground state times the chance that the final
    ground state measures as a marked item.  It is ``bound_report``'s
    ``p_one_round``, so the bound chain and this value cannot drift apart.
    """
    return bound_report(instance).p_one_round


def one_round_time(instance: SearchInstance) -> float:
    """Duration of one sweep: omega / g_min^2 = sqrt(N)/M."""
    return math.sqrt(instance.n_items) / instance.n_marked


def bound_report(instance: SearchInstance) -> BoundReport:
    """Evaluate every link of the success-probability bound chain.

    ``all_bounds_hold`` is True iff every intermediate inequality and all
    three final bounds (> 1/8, > 1/3, > 1/24) hold; ``failures`` names the
    checks that fail, in chain order.  Two kinds of comparison are
    deliberately non-strict: those that become exact equalities when all
    items are marked (a = 0), and 1/(2a+1) vs 1/3, whose true margin 2/(9N)
    drops below double resolution for N beyond ~4e15 and rounds to equality.
    """
    s_minus, s_plus, _ = evolution_window(instance)
    _, m, a, b = instance
    # The window edges lie inside (0, 1) for every N >= 2, so gap's domain
    # check is not needed there.
    d_e_minus, d_se_minus = _denominators(b, s_minus, math.sqrt(_gap_squared(b, s_minus)))
    d_e_plus, d_se_plus = _denominators(b, s_plus, math.sqrt(_gap_squared(b, s_plus)))

    window_factor = (1.0 - s_minus) ** 2
    alpha_weight = a / (d_e_minus * d_e_minus)
    beta_weight = b / (d_se_minus * d_se_minus)
    end_ratio = d_se_plus / d_e_plus

    # The window overlaps, read off the chain members, round as in
    # _ground_overlaps.  Both edges lie below s = 1 for N >= 2, so the
    # ground state there is |beta> only when a = 0.
    if a == 0.0:
        ov_psi, ov_beta = b, 1.0
    else:
        one_minus_s = 1.0 - s_minus
        ov_psi = 1.0 / (one_minus_s * one_minus_s * (alpha_weight + beta_weight))
        ov_beta = b / (end_ratio * end_ratio * a + b)
    p = ov_psi * ov_beta

    beta_weight_cap = 4.0 * m / (1.0 + math.sqrt(m)) ** 2
    ov_beta_floor = 1.0 / (2.0 * a + 1.0)
    checks = (
        window_factor < 1.0,
        alpha_weight < 4.0,
        beta_weight <= beta_weight_cap * _SLACK,
        beta_weight_cap < 4.0,
        end_ratio >= 0.0,
        # g(s_plus) - omega = g + u = 2 d_se, since s_plus > 1/2, without
        # cancellation.  Taking it from the same d_se as end_ratio's
        # numerator means this comparison cannot be lost to rounding noise
        # of the window edge itself (at N ~ 1e17 that noise exceeds the
        # true separation factor 1/(1+g)).
        end_ratio <= 2.0 * d_se_plus * _SLACK,
        end_ratio < math.sqrt(2.0 * b),
        ov_psi > OV_PSI_LOWER_BOUND,
        ov_beta * _SLACK >= ov_beta_floor,
        ov_beta_floor >= OV_BETA_LOWER_BOUND,
        ov_beta > OV_BETA_LOWER_BOUND,
        p > P_LOWER_BOUND,
    )
    failures = () if all(checks) else tuple(
        name for name, ok in zip(_CHECK_NAMES, checks) if not ok
    )
    return BoundReport(
        ov_psi, ov_beta, p, window_factor, alpha_weight, beta_weight, end_ratio,
        not failures, failures,
    )
