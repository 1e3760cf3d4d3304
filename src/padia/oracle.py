"""Dense full-Hilbert-space cross-checks of the two-level reduction.

Everything here works with the N x N Hamiltonian given by its entry rule

    H(s)[x, y] = delta_xy - (1-s)/N - s * [x in S][y in S] / M

for an explicit marked set S, and solves or evolves it without using the
subspace structure:

* ``dense_spectrum`` runs a full eigendecomposition and checks every
  eigenpair's residual.
* ``certify_reduction`` bounds the two lowest eigenvalues of H(s) and finds
  its ground vector with an a-posteriori certificate.  Rayleigh-Ritz on the
  Krylov block [x, Hx, H^2 x, H^3 x] of a fixed positive pseudo-random vector
  x, rather than of |Psi> or |beta>, gives Ritz values theta0 <= theta1,
  which bound lambda1 and lambda2 from above (min-max).  One block Cholesky
  factorization of A = H + 2 y0 y0^T - (theta1 - delta) I, with y0 the
  lowest Ritz vector, proves lambda2 >= theta1 - delta: A is a rank-one
  positive update of H - (theta1 - delta) I, so by Cauchy interlacing A
  positive definite means lambda2 >= theta1 - delta.  (The factorization
  forms W = L11^-1 A12 by blocked forward substitution, since numpy has no
  triangular solve: one small dense solve per diagonal block of L11, the
  rest folded in by matrix products.)  With that gap, Temple's bound gives
  lambda1 >= theta0 - r0^2 / (theta1 - delta - theta0), where r0 is the
  residual of y0, and r0 / (theta1 - delta - theta0) bounds the sine of the
  angle between y0 and the true ground vector; it must stay below
  _RESIDUAL_TOL.  Nothing in either step knows that the interesting dynamics
  lives in a plane, so comparing them with the closed-form module is still
  an independent check.
* ``full_evolve`` integrates the N-dimensional Schroedinger equation with
  classical fixed-step RK4, a different scheme from the reduced model's
  Magnus-4 propagator, so the two integrators check each other.  It applies
  the entry rule as H(s) = I - B D(s) B^T, B = [1 | 1_S], D(s) =
  diag((1-s)/N, s/M) = diag((1-x)/(2N), (1+x)/(2M)), at O(N) per RK4 stage,
  projecting onto no basis of the plane.  The stage offsets x = 2s - 1 come
  from the sampler the reduced model uses, one chunk of steps at a time, so
  memory does not grow with the step count.  The state is kept as two real
  rows (its real and imaginary parts), since H(s) is real.

This is deliberately brute force: the point is certification at desk scale,
so N is capped at 4096 (DIAGONALIZATION_CAP).
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .dynamics import (
    Schedule,
    _check_drift,
    _check_step_cap,
    _checked_steps,
    _stage_offsets,
)
from .model import NonEmptyMarkedSetRequired, SearchInstance, make_instance, require_integer
from .spectrum import spectral_columns

__all__ = [
    "DIAGONALIZATION_CAP",
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

# The oracle's one size cap, checked by make_full_instance.
DIAGONALIZATION_CAP = 4096

# Worst acceptable eigen-residual ||H v - e v|| relative to ||H|| for
# dense_spectrum, and worst acceptable residual-over-gap bound on the angle
# of certify's ground vector; both land orders of magnitude below this at
# the capped sizes.
_RESIDUAL_TOL = 1e-9

# H(s) = I - (rank <= 2), so the Krylov space of any start vector is
# invariant at dimension 3 or less; a block of _KRYLOV_DIM = 4 Krylov vectors
# holds it with one spare direction.
_KRYLOV_DIM = 4

# The certified lower bound on lambda2 is theta1 - _PD_MARGIN.  The margin
# must exceed the rounding of the positive-definiteness test, or an accurate
# theta1 would be refused: the computed Cholesky factor is exact for A + dA
# with |dA| <= gamma_{n+1} |L^T| |L| (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., Thm 10.3), and gamma_{4097} = 4.5e-13 at
# DIAGONALIZATION_CAP, with ||A|| <= 3 here (measured: a margin of 1e-14
# passes every H(s) tried up to N = 4096).  It must also stay well below the
# 1e-9 certify tolerance, since the certified interval for lambda2 is
# [theta1 - _PD_MARGIN, theta1].
_PD_MARGIN = 1e-11

# Seed of the Krylov start vector (see _start_vector).
_START_SEED = 2010

# Rows per diagonal block of _forward_substitute.  Each block costs one small
# LU solve; the off-diagonal work goes to matrix products.
_SOLVE_BLOCK = 64

# full_evolve splits a requested step longer than _MAX_RK4_DT into up to
# _MAX_RK4_SPLIT equal RK4 steps.  RK4's error grows like T h^4: a global
# sweep at N/M = 2, c = 4 (T = 8) over 100 steps (h = 0.08) is 3.8e-8 off in
# the marked probability, and 2.3e-9 at h = 0.04, so the oracle stays well
# inside the 1e-8 it is compared with.  A request coarser than
# _MAX_RK4_SPLIT * _MAX_RK4_DT per step is no near miss and is left to the
# norm guard.
_MAX_RK4_DT = 0.04
_MAX_RK4_SPLIT = 4

# Steps full_evolve samples per chunk of the schedule: its offsets take
# O(chunk) memory for any run length, while the sampler's numpy call
# overhead is spread over thousands of steps.
_CHUNK_STEPS = 8192


class CapacityExceeded(ValueError):
    """The requested dense problem is larger than this module supports."""


class ConvergenceFailure(RuntimeError):
    """A dense eigensolve failed, or its residual or certificate did not hold."""


class FullInstance(NamedTuple):
    """A search problem with its marked items spelled out explicitly."""

    n_items: int
    marked_set: frozenset[int]

    @property
    def n_marked(self) -> int:
        return len(self.marked_set)

    def reduced(self) -> SearchInstance:
        return make_instance(self.n_items, self.n_marked)


class DenseSpectrum(NamedTuple):
    """Full eigendecomposition summary: all eigenvalues (ascending) plus the
    two lowest eigenvectors with a deterministic sign."""

    eigenvalues: np.ndarray
    ground_vector: np.ndarray
    first_excited_vector: np.ndarray


def make_full_instance(n_items: int, marked_set: Iterable[int]) -> FullInstance:
    """Validate the item count and marked indices.

    N and every index must be integers under ``make_instance``'s rule (any
    ``numbers.Integral`` except ``bool``); anything else raises ValueError.
    """
    n_items = require_integer("N", n_items)
    marked = frozenset(require_integer("marked index", i) for i in marked_set)
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


def _hamiltonians(full: FullInstance, s_values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write H(s) for each s into ``out[i]`` and return ``out``.

    Every entry starts at -(1-s)/N; the marked rows get one template row that
    subtracts s/M through a 0/1 column mask, so an unmarked column subtracts
    0.0 and keeps its value bit for bit; then 1 is added on the diagonal.
    """
    s_values = np.asarray(s_values, dtype=float)
    outside = ~((s_values >= 0.0) & (s_values <= 1.0))  # NaN is outside too
    if np.any(outside):
        raise ValueError(f"s must lie in [0, 1], got {s_values[np.argmax(outside)]}")
    n = full.n_items
    idx = sorted(full.marked_set)
    fill = -(1.0 - s_values) / n
    out[...] = fill[:, None, None]
    mask = np.zeros(n)
    mask[idx] = 1.0
    marked_row = fill[:, None] - (s_values / full.n_marked)[:, None] * mask
    out[:, idx, :] = marked_row[:, None, :]
    out.reshape(len(s_values), n * n)[:, :: n + 1] += 1.0
    return out


def full_hamiltonian(full: FullInstance, s: float) -> np.ndarray:
    """The dense N x N interpolating Hamiltonian at parameter s."""
    n = full.n_items
    return _hamiltonians(full, np.array([s], dtype=float), np.empty((1, n, n)))[0]


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
    """The fixed, strictly positive pseudo-random start of the Krylov block.

    H(s) has no positive off-diagonal entry, so by Perron-Frobenius its
    ground vector is nonnegative and a strictly positive start overlaps it.
    Being neither |Psi> nor |beta>, the start also carries components
    outside their span, so the Ritz pairs cannot inherit the reduction.
    """
    return np.random.default_rng(_START_SEED).uniform(1.0, 2.0, n_items)


def _ritz_pairs(stack: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest Ritz values (ascending) and the unit lowest Ritz vector
    of every matrix in a stack, by Rayleigh-Ritz on the Krylov block
    [x, Hx, H^2 x, H^3 x] (the first min(_KRYLOV_DIM, N) columns) of the unit
    start vector x.

    Householder QR makes the block orthonormal even when its columns are
    linearly dependent, and the Ritz values of any orthonormal basis bound
    the eigenvalues from above, so nothing here has to detect breakdown or
    decide when to stop.  The powers are not normalised: a start in H's null
    space gives zero columns, not NaN.  Raises ConvergenceFailure when the
    small projected eigensolve fails.
    """
    count, n, _ = stack.shape
    dim = min(_KRYLOV_DIM, n)
    block = np.empty((count, n, dim))
    block[:, :, 0] = start / np.linalg.norm(start)
    for j in range(1, dim):
        block[:, :, j] = np.matmul(stack, block[:, :, j - 1 : j])[..., 0]
    q = np.linalg.qr(block)[0]
    try:
        theta, y = np.linalg.eigh(np.matmul(np.swapaxes(q, 1, 2), np.matmul(stack, q)))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"Rayleigh-Ritz eigensolve failed for N={n}: {exc}") from exc
    return theta[:, :2], np.matmul(q, y[:, :, :1])[..., 0]


def _forward_substitute(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``lower @ x = rhs`` for a stack of lower-triangular matrices with
    a nonzero diagonal, overwriting ``rhs`` with x and returning it.

    Block rows of _SOLVE_BLOCK: each first subtracts the product of the
    rows' left part of ``lower`` with the already solved rows, then is
    solved with its diagonal block of ``lower``.
    """
    m = lower.shape[-1]
    for start in range(0, m, _SOLVE_BLOCK):
        rows = slice(start, start + _SOLVE_BLOCK)
        if start:
            rhs[:, rows] -= np.matmul(lower[:, rows, :start], rhs[:, :start])
        rhs[:, rows] = np.linalg.solve(lower[:, rows, rows], rhs[:, rows])
    return rhs


def _lowest_pair(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified bounds on the two lowest eigenvalues of every symmetric
    matrix in a stack, and a unit ground vector.  Overwrites the stack.

    Returns ``(upper, lower, ground)``: ``upper`` holds the Ritz values
    (theta0, theta1), ``lower`` the certified lower bounds on (lambda1,
    lambda2), and ``ground`` the lowest Ritz vectors, each within angle
    _RESIDUAL_TOL of the true ground vector.  The certificate:

    * min-max: the Ritz values bound lambda1 <= theta0 and lambda2 <= theta1;
    * interlacing: A = H + 2 y0 y0^T - (theta1 - _PD_MARGIN) I is a rank-one
      positive update of H - (theta1 - _PD_MARGIN) I, so lambda1(A) <=
      lambda2(H) - theta1 + _PD_MARGIN, and A positive definite proves
      lambda2 >= l = theta1 - _PD_MARGIN.  A succeeding block Cholesky
      factorization is that proof: L11 L11^T = A11, W = L11^-1 A12 by
      blocked forward substitution with L11 (never with A11, whose
      condition number would multiply the rounding), and a Cholesky factor
      of the Schur complement A22 - W^T W;
    * Temple: with r0 = ||H y0 - theta0 y0|| and theta0 < l, lambda1 >=
      theta0 - r0^2 / (l - theta0), and r0 / (l - theta0) bounds the sine of
      the angle between y0 and the ground vector.

    Raises ConvergenceFailure when the Rayleigh-Ritz eigensolve fails (see
    _ritz_pairs), when the angle bound exceeds _RESIDUAL_TOL or l <= theta0,
    or when the factorization of A fails.
    """
    count, n, _ = stack.shape
    upper, ground = _ritz_pairs(stack, _start_vector(n))
    residual = np.linalg.norm(
        np.matmul(stack, ground[:, :, None])[..., 0] - upper[:, :1] * ground, axis=1
    )
    separation = upper[:, 1] - _PD_MARGIN - upper[:, 0]
    angle_bound = residual / separation
    certified = (separation > 0.0) & (angle_bound <= _RESIDUAL_TOL)  # NaN fails too
    if not np.all(certified):
        worst = int(np.argmin(certified))
        raise ConvergenceFailure(
            f"ground vector for N={n}: residual {residual[worst]:.3e} over separation "
            f"{separation[worst]:.3e} does not bound its angle by {_RESIDUAL_TOL:.0e}"
        )
    # A = H + 2 y0 y0^T - l I, formed in place, half the rows at a time.
    half = n // 2
    for rows in (slice(0, half), slice(half, n)):
        stack[:, rows] += (2.0 * ground[:, rows, None]) * ground[:, None, :]
    stack.reshape(count, n * n)[:, :: n + 1] -= (upper[:, 1] - _PD_MARGIN)[:, None]
    # Block Cholesky: L11 L11^T = A11, W = L11^-1 A12 (written over A12),
    # then the Schur complement A22 - W^T W must have a Cholesky factor too.
    a11, a12, a22 = stack[:, :half, :half], stack[:, :half, half:], stack[:, half:, half:]
    try:
        l11 = np.linalg.cholesky(a11)
        w = _forward_substitute(l11, a12)
        a22 -= np.matmul(np.swapaxes(w, 1, 2), w)
        np.linalg.cholesky(a22)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(
            f"N={n}: H + 2 y0 y0^T - (theta1 - {_PD_MARGIN:.0e}) I is not positive "
            f"definite, so theta1 is not certified as the second eigenvalue: {exc}"
        ) from exc
    lower = np.column_stack([upper[:, 0] - residual * angle_bound, upper[:, 1] - _PD_MARGIN])
    return upper, lower, ground


def _stacked_ground(
    full: FullInstance, s_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_lowest_pair`` of H(s) over an s grid, chunked to bound memory.

    Each chunk's Hamiltonians are written into one preallocated buffer.
    """
    n = full.n_items
    upper = np.empty((len(s_grid), 2))
    lower = np.empty((len(s_grid), 2))
    ground = np.empty((len(s_grid), n))
    chunk = min(len(s_grid), max(1, int(2_000_000 // (n * n))))
    buffer = np.empty((chunk, n, n))
    for start in range(0, len(s_grid), chunk):
        block = slice(start, start + chunk)
        s_block = s_grid[block]
        stack = _hamiltonians(full, s_block, buffer[: len(s_block)])
        try:
            upper[block], lower[block], ground[block] = _lowest_pair(stack)
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(
                f"{exc} (s in [{s_block.min()}, {s_block.max()}])"
            ) from exc
    return upper, lower, ground


def certify_reduction(full: FullInstance, s_grid: Sequence[float]) -> float:
    """Worst absolute discrepancy between the dense spectrum and the
    closed-form reduction over the given s grid.

    Compares (E0, E1, gap, |<Psi|E0>|^2, |<beta|E0>|^2) pointwise, taking
    E0 and E1 as the certified Ritz values theta0 and theta1 (see the module
    docstring): the true E0 lies within r0^2 / (theta1 - delta - theta0) of
    theta0 and the true E1 within delta = _PD_MARGIN of theta1.  Raises
    ConvergenceFailure when any part of that certificate fails.
    """
    s_values = np.asarray(list(s_grid), dtype=float)
    if s_values.size == 0:
        raise ValueError("s_grid must not be empty")
    closed = spectral_columns(full.reduced(), s_values)
    ritz, _, ground = _stacked_ground(full, s_values)
    dense = np.stack([
        ritz[:, 0],
        ritz[:, 1],
        ritz[:, 1] - ritz[:, 0],
        (ground @ uniform_vector(full)) ** 2,
        (ground @ marked_vector(full)) ** 2,
    ])
    closed_form = np.stack([closed[k] for k in ("e0", "e1", "gap", "ov_psi_0", "ov_beta_0")])
    return float(np.max(np.abs(dense - closed_form)))


def full_evolve(full: FullInstance, schedule: Schedule, steps: int) -> float:
    """Integrate the N-dimensional Schroedinger equation for one round.

    Starts from the uniform superposition, takes ``steps`` classical RK4
    steps, each split into equal RK4 steps no longer than _MAX_RK4_DT (at
    most _MAX_RK4_SPLIT of them), and returns the probability of measuring a
    marked item at the end.  The schedule's offset x is sampled at the start,
    middle and end of every step, one chunk of steps at a time.

    Raises ValueError, before any work, for a step count that is not an
    integer under ``make_instance``'s rule, below 10, or above MAX_STEPS
    after splitting, and NormDriftExceeded when the final norm strays from 1
    by more than NORM_DRIFT_LIMIT (NaN included).
    """
    steps = _checked_steps(steps)
    steps *= min(_MAX_RK4_SPLIT, math.ceil(schedule.total_time / steps / _MAX_RK4_DT))
    _check_step_cap(steps, schedule.total_time)
    n, marked = full.n_items, sorted(full.marked_set)
    half_dt = 0.5 * schedule.total_time / steps
    # H(s) is real, so the state is kept as the real rows X = (Re psi, Im psi)
    # and -i H psi becomes dX/dt = J X H(s), J = [[0, 1], [-1, 0]].  RK4 runs on
    # the half-step increments k = (dt/2) dX/dt: the stages start from x + k1,
    # x + k2 and x + 2 k3, and the step ends at x + (k1 + 2 k2 + 2 k3 + k4) / 3.
    # By the entry rule X H(s) = X - P D(s) B^T, where P = X B holds each row's
    # sum and marked sum.  The state and the stage rows each sit above B^T in a
    # (4, N) buffer R, so a stage is P and k = (dt/2) [J | -J P D(s)] @ R.
    # D(s) = diag((1 - offset)/(2N), (1 + offset)/(2M)) is formed from the
    # offset 2s - 1 that the schedule samples.
    buffers = np.zeros((2, 4, n))
    buffers[:, 2] = 1.0
    buffers[:, 3, marked] = 1.0
    state, stage = buffers
    x, y = state[:2], stage[:2]
    b = state[2:].T
    sums = np.empty((2, 2))
    combine = np.array([[0.0, half_dt, 0.0, 0.0], [-half_dt, 0.0, 0.0, 0.0]])
    scale_all, scale_marked = 0.5 * half_dt / n, 0.5 * half_dt / full.n_marked
    increments = np.empty((4, 2, n))
    k1, k2, k3, k4 = increments
    weights = np.array([1.0, 2.0, 2.0, 1.0]) / 3.0
    stacked_increments = increments.reshape(4, 2 * n)
    update = np.empty(2 * n)

    def increment(offset: float, rows: np.ndarray, buffer: np.ndarray, out: np.ndarray) -> None:
        (re_all, re_marked), (im_all, im_marked) = np.dot(rows, b, out=sums).tolist()
        d_all, d_marked = (1.0 - offset) * scale_all, (1.0 + offset) * scale_marked
        combine[0, 2], combine[0, 3] = -d_all * im_all, -d_marked * im_marked
        combine[1, 2], combine[1, 3] = d_all * re_all, d_marked * re_marked
        np.dot(combine, buffer, out=out)

    x[0] = uniform_vector(full)
    flat_x = x.reshape(2 * n)
    # A blown-up state overflows to inf/NaN; the norm guard reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, steps, _CHUNK_STEPS):
            run = (first, min(_CHUNK_STEPS, steps - first), schedule.total_time / steps)
            starts, mids, ends = _stage_offsets(schedule, (0.0, 0.5, 1.0), [run])
            for start, mid, end in zip(starts.tolist(), mids.tolist(), ends.tolist()):
                increment(start, x, state, k1)
                np.add(x, k1, out=y)
                increment(mid, y, stage, k2)
                np.add(x, k2, out=y)
                increment(mid, y, stage, k3)
                np.add(x, k3, out=y)
                y += k3
                increment(end, y, stage, k4)
                flat_x += np.dot(weights, stacked_increments, out=update)
        drift = abs(float(np.linalg.norm(x)) - 1.0)
    _check_drift("norm drifted by", drift, steps, schedule.total_time)
    return float(np.sum(x[:, marked] ** 2))
