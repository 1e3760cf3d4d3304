"""Dense full-Hilbert-space cross-checks of the two-level reduction.

Everything here works with the explicit N x N Hamiltonian

    H(s)[x, y] = delta_xy - (1-s)/N - s * [x in S][y in S] / M

built from an explicit marked set S, diagonalizes or evolves it without using
the subspace structure, and compares against the closed-form module.  This is
deliberately brute force: the point is certification at desk scale, not
performance, so capacities are capped (N <= 4096 for diagonalization,
N <= 512 for dynamics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dynamics import NORM_DRIFT_LIMIT, NormDriftExceeded, Schedule, schedule_stage_values
from .model import NonEmptyMarkedSetRequired, SearchInstance, make_instance
from .spectrum import eigenvalues, gap, overlap_beta, overlap_psi

__all__ = [
    "DIAGONALIZATION_CAP",
    "DYNAMICS_CAP",
    "CapacityExceeded",
    "ConvergenceFailure",
    "FullInstance",
    "DenseSpectrum",
    "make_full_instance",
    "full_hamiltonian",
    "dense_spectrum",
    "certify_reduction",
    "full_evolve",
]

DIAGONALIZATION_CAP = 4096
DYNAMICS_CAP = 512

# Worst acceptable eigen-residual ||H v - e v|| relative to ||H||; LAPACK
# lands orders of magnitude below this at the capped sizes.
_RESIDUAL_TOL = 1e-9


class CapacityExceeded(ValueError):
    """The requested dense problem is larger than this module supports."""


class ConvergenceFailure(RuntimeError):
    """The dense eigensolve did not reach the required residual."""


@dataclass(frozen=True)
class FullInstance:
    """A search problem with its marked items spelled out explicitly."""

    n_items: int
    marked_set: frozenset[int]

    @property
    def n_marked(self) -> int:
        return len(self.marked_set)

    def reduced(self) -> SearchInstance:
        return make_instance(self.n_items, self.n_marked)


@dataclass(frozen=True)
class DenseSpectrum:
    """Full eigendecomposition summary: all eigenvalues (ascending) plus the
    two lowest eigenvectors with a deterministic sign."""

    eigenvalues: np.ndarray
    ground_vector: np.ndarray
    first_excited_vector: np.ndarray


def make_full_instance(n_items: int, marked_set: Iterable[int]) -> FullInstance:
    """Validate the item count and marked indices."""
    marked = frozenset(int(i) for i in marked_set)
    if n_items < 2:
        raise ValueError(f"need at least 2 items, got N={n_items}")
    if n_items > DIAGONALIZATION_CAP:
        raise CapacityExceeded(
            f"dense oracle supports N <= {DIAGONALIZATION_CAP}, got {n_items}"
        )
    if not marked:
        raise NonEmptyMarkedSetRequired("the marked set must not be empty")
    if not all(0 <= i < n_items for i in marked):
        raise ValueError(f"marked indices must lie in [0, {n_items}), got {sorted(marked)}")
    return FullInstance(n_items=n_items, marked_set=marked)


def uniform_vector(full: FullInstance) -> np.ndarray:
    return np.full(full.n_items, 1.0 / math.sqrt(full.n_items))


def marked_vector(full: FullInstance) -> np.ndarray:
    v = np.zeros(full.n_items)
    v[sorted(full.marked_set)] = 1.0 / math.sqrt(full.n_marked)
    return v


def full_hamiltonian(full: FullInstance, s: float) -> np.ndarray:
    """The dense N x N interpolating Hamiltonian at parameter s."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    n = full.n_items
    h = np.full((n, n), -(1.0 - s) / n)
    idx = sorted(full.marked_set)
    h[np.ix_(idx, idx)] -= s / full.n_marked
    h[np.diag_indices(n)] += 1.0
    return h


def _fix_sign(vector: np.ndarray) -> np.ndarray:
    """Deterministic sign: the largest-magnitude component is positive."""
    pivot = int(np.argmax(np.abs(vector)))
    return -vector if vector[pivot] < 0.0 else vector


def dense_spectrum(full: FullInstance, s: float) -> DenseSpectrum:
    """Diagonalize the dense Hamiltonian; eigenvalues ascending.

    Raises ConvergenceFailure if the eigensolve fails outright or leaves an
    eigen-residual above _RESIDUAL_TOL * ||H||.
    """
    h = full_hamiltonian(full, s)
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"dense eigensolve failed for N={full.n_items}: {exc}") from exc
    h_norm = float(np.linalg.norm(h))
    residual = float(np.linalg.norm(h @ vectors - vectors * values))
    if residual > _RESIDUAL_TOL * max(1.0, h_norm):
        raise ConvergenceFailure(
            f"eigen-residual {residual:.3e} exceeds {_RESIDUAL_TOL:.0e} * ||H||"
        )
    return DenseSpectrum(
        eigenvalues=values,
        ground_vector=_fix_sign(vectors[:, 0]),
        first_excited_vector=_fix_sign(vectors[:, 1]),
    )


def _stacked_eigh(full: FullInstance, s_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh over a whole s grid at once, chunked to bound memory."""
    n = full.n_items
    values = np.empty((len(s_grid), n))
    ground = np.empty((len(s_grid), n))
    chunk = max(1, int(2_000_000 // (n * n)))
    for start in range(0, len(s_grid), chunk):
        block = s_grid[start : start + chunk]
        stack = np.stack([full_hamiltonian(full, float(s)) for s in block])
        w, v = np.linalg.eigh(stack)
        values[start : start + len(block)] = w
        ground[start : start + len(block)] = v[:, :, 0]
    return values, ground


def certify_reduction(full: FullInstance, s_grid: Sequence[float]) -> float:
    """Worst absolute discrepancy between the dense spectrum and the
    closed-form reduction over the given s grid.

    Compares (E0, E1, gap, |<Psi|E0>|^2, |<beta|E0>|^2) pointwise.
    """
    s_values = np.asarray(list(s_grid), dtype=float)
    if s_values.size == 0:
        raise ValueError("s_grid must not be empty")
    reduced = full.reduced()
    psi = uniform_vector(full)
    beta = marked_vector(full)
    values, ground = _stacked_eigh(full, s_values)
    worst = 0.0
    for i, s in enumerate(s_values):
        s = float(s)
        e0, e1 = eigenvalues(reduced, s)
        v0 = ground[i]
        dense_quartet = (
            values[i, 0],
            values[i, 1],
            values[i, 1] - values[i, 0],
            float(psi @ v0) ** 2,
            float(beta @ v0) ** 2,
        )
        closed_quartet = (
            e0,
            e1,
            gap(reduced, s),
            overlap_psi(reduced, s, 0),
            overlap_beta(reduced, s, 0),
        )
        worst = max(
            worst,
            max(abs(d - c) for d, c in zip(dense_quartet, closed_quartet)),
        )
    return worst


def full_evolve(full: FullInstance, schedule: Schedule, steps: int) -> float:
    """Integrate the N-dimensional Schroedinger equation for one round.

    Starts from the uniform superposition, uses the same fixed-step RK4 and
    stage times as the reduced integrator, and returns the probability of
    measuring a marked item at the end.
    """
    if full.n_items > DYNAMICS_CAP:
        raise CapacityExceeded(
            f"dense dynamics supports N <= {DYNAMICS_CAP}, got {full.n_items}"
        )
    if steps < 10:
        raise ValueError(f"need at least 10 steps, got {steps}")
    n = full.n_items
    # H(s) = c0 + s * c1 with both pieces dense; evaluating the derivative as
    # c0 @ psi + s * (c1 @ psi) avoids rebuilding N x N matrices every stage.
    # Both are cast to complex once: a float64 @ complex128 matvec would
    # upcast the whole N x N matrix on every call.
    c0 = full_hamiltonian(full, 0.0).astype(complex)
    c1 = full_hamiltonian(full, 1.0).astype(complex) - c0

    def deriv(s: float, psi: np.ndarray) -> np.ndarray:
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
    drift = abs(float(np.linalg.norm(psi)) - 1.0)
    if drift > NORM_DRIFT_LIMIT:
        raise NormDriftExceeded(
            f"norm drifted by {drift:.3e} after {steps} steps over duration "
            f"{schedule.total_time:g}; increase steps"
        )
    marked = sorted(full.marked_set)
    return float(np.sum(np.abs(psi[marked]) ** 2))
