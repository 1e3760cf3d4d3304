"""Dense full-Hilbert-space cross-checks of the two-level reduction.

Everything here works with the explicit N x N Hamiltonian

    H(s)[x, y] = delta_xy - (1-s)/N - s * [x in S][y in S] / M

built from an explicit marked set S, and solves or evolves it without using
the subspace structure:

* ``dense_spectrum`` runs a full eigendecomposition and checks every
  eigenpair's residual.
* ``certify_reduction`` takes all eigenvalues from an eigenvalues-only
  LAPACK solve and the ground vector from one step of shifted inverse
  iteration on H(s), started from a fixed positive pseudo-random vector
  rather than from |Psi> or |beta>.  The vector is accepted only when its
  residual, divided by the dense gap, bounds its angle to the true ground
  vector below _RESIDUAL_TOL.  Nothing in either solve knows that the
  interesting dynamics lives in a plane, so comparing them with the
  closed-form module is still an independent check.
* ``full_evolve`` integrates the N-dimensional Schroedinger equation with
  the same RK4 as the reduced model.  H(s) is real, so the state is kept as
  two real rows (its real and imaginary parts) and each RK4 stage is one
  real product with the dense matrices.

This is deliberately brute force: the point is certification at desk scale,
so capacities are capped (N <= 4096 for diagonalization, N <= 512 for
dynamics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dynamics import NORM_DRIFT_LIMIT, NormDriftExceeded, Schedule, schedule_stage_values
from .model import NonEmptyMarkedSetRequired, SearchInstance, make_instance
from .spectrum import spectral_columns

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

# Worst acceptable eigen-residual ||H v - e v|| relative to ||H|| for
# dense_spectrum, and worst acceptable residual-over-gap bound on the angle
# of certify's ground vector; both land orders of magnitude below this at
# the capped sizes.
_RESIDUAL_TOL = 1e-9

# Inverse iteration solves (H - (e0 - _INVERSE_SHIFT) I) x = x0.  The
# spectrum lies in [0, 1], so an absolute shift serves every instance: one
# solve leaves the excited components of x0 at about _INVERSE_SHIFT / gap of
# the ground one, while a shift near 1e-15 lets LU meet an exactly singular
# pivot on small instances.
_INVERSE_SHIFT = 1e-14

# Seed of the inverse-iteration start vector (see _start_vector).
_START_SEED = 2010


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


def _start_vector(n_items: int) -> np.ndarray:
    """The fixed, strictly positive pseudo-random start of inverse iteration.

    H(s) has no positive off-diagonal entry, so by Perron-Frobenius its
    ground vector is nonnegative and a strictly positive start overlaps it.
    Being neither |Psi> nor |beta>, the start also carries components
    outside their span, so the solve cannot inherit the reduction.
    """
    return np.random.default_rng(_START_SEED).uniform(1.0, 2.0, n_items)


def _stacked_ground(full: FullInstance, s_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues (ascending) and the unit ground vector of H(s) over an
    s grid, chunked to bound memory.

    The eigenvalues come from an eigenvalues-only solve of the stacked dense
    matrices, the ground vectors from one shifted inverse-iteration solve per
    s.  Raises ConvergenceFailure when LAPACK fails or when a ground vector's
    residual ||H x - e0 x|| divided by the dense gap e1 - e0, which bounds
    the sine of its angle to the true ground vector, exceeds _RESIDUAL_TOL.
    """
    n = full.n_items
    values = np.empty((len(s_grid), n))
    ground = np.empty((len(s_grid), n))
    start_vector = _start_vector(n)[:, None]
    chunk = max(1, int(2_000_000 // (n * n)))
    for start in range(0, len(s_grid), chunk):
        block = s_grid[start : start + chunk]
        stack = np.stack([full_hamiltonian(full, float(s)) for s in block])
        diagonal = stack.reshape(len(block), n * n)[:, :: n + 1]  # a view
        h_diagonal = diagonal.copy()
        try:
            w = np.linalg.eigvalsh(stack)
            diagonal -= (w[:, 0] - _INVERSE_SHIFT)[:, None]
            x = np.linalg.solve(stack, start_vector)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"dense solve failed for N={n}: {exc}") from exc
        diagonal[...] = h_diagonal
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        residual = np.linalg.norm((stack @ x[..., None])[..., 0] - w[:, :1] * x, axis=1)
        angle_bound = residual / (w[:, 1] - w[:, 0])
        if not np.all(angle_bound <= _RESIDUAL_TOL):  # NaN fails this test too
            worst = int(np.argmax(np.nan_to_num(angle_bound, nan=np.inf)))
            raise ConvergenceFailure(
                f"ground vector for N={n} at s={float(block[worst])}: residual/gap "
                f"{angle_bound[worst]:.3e} exceeds {_RESIDUAL_TOL:.0e}"
            )
        values[start : start + len(block)] = w
        ground[start : start + len(block)] = x
    return values, ground


def certify_reduction(full: FullInstance, s_grid: Sequence[float]) -> float:
    """Worst absolute discrepancy between the dense spectrum and the
    closed-form reduction over the given s grid.

    Compares (E0, E1, gap, |<Psi|E0>|^2, |<beta|E0>|^2) pointwise.
    """
    s_values = np.asarray(list(s_grid), dtype=float)
    if s_values.size == 0:
        raise ValueError("s_grid must not be empty")
    closed = spectral_columns(full.reduced(), s_values)
    values, ground = _stacked_ground(full, s_values)
    dense = np.stack([
        values[:, 0],
        values[:, 1],
        values[:, 1] - values[:, 0],
        (ground @ uniform_vector(full)) ** 2,
        (ground @ marked_vector(full)) ** 2,
    ])
    closed_form = np.stack([closed[k] for k in ("e0", "e1", "gap", "ov_psi_0", "ov_beta_0")])
    return float(np.max(np.abs(dense - closed_form)))


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
    # H(s) = c0 + s * c1 is real, so the state is kept as the real rows
    # X = (Re psi, Im psi), and -i H psi becomes dX/dt = (H Im psi, -H Re psi).
    # With Y = (Im psi, -Re psi) that is Y H(s) = [Y | s Y] @ [c0 ; c1] (H is
    # symmetric), one real product per stage; [Y | s Y] is filled in place.
    c0 = full_hamiltonian(full, 0.0)
    c01 = np.vstack([c0, full_hamiltonian(full, 1.0) - c0])
    row_sign = np.array([[1.0], [-1.0]])
    stacked = np.empty((2, 2 * n))
    y, sy = stacked[:, :n], stacked[:, n:]

    def deriv(s: float, x: np.ndarray) -> np.ndarray:
        np.multiply(x[::-1], row_sign, out=y)
        np.multiply(y, s, out=sy)
        return stacked @ c01

    s_nodes, s_mids = schedule_stage_values(schedule, steps)
    nodes, mids = s_nodes.tolist(), s_mids.tolist()
    dt = schedule.total_time / steps
    x = np.zeros((2, n))
    x[0] = uniform_vector(full)
    # A blown-up state overflows to inf/NaN; the norm guard reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            k1 = deriv(nodes[i], x)
            k2 = deriv(mids[i], x + 0.5 * dt * k1)
            k3 = deriv(mids[i], x + 0.5 * dt * k2)
            k4 = deriv(nodes[i + 1], x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        drift = abs(float(np.linalg.norm(x)) - 1.0)
    if not drift <= NORM_DRIFT_LIMIT:  # NaN fails this test too
        raise NormDriftExceeded(
            f"norm drifted by {drift:.3e} after {steps} steps over duration "
            f"{schedule.total_time:g}; increase steps"
        )
    marked = sorted(full.marked_set)
    return float(np.sum(x[:, marked] ** 2))
