"""Problem instance and exact two-level reduction of the search Hamiltonian.

The interpolating Hamiltonian H(s) = (1-s)(1 - |Psi><Psi|) + s(1 - |beta><beta|)
acts on N items of which M are marked.  |beta> is the uniform superposition of
the marked items, |alpha> of the unmarked ones, and |Psi> the uniform
superposition of everything.  Every state orthogonal to span{|alpha>, |beta>}
is an eigenstate of H(s) with eigenvalue 1, so the interesting dynamics lives
entirely in that two-dimensional subspace.  This module defines the problem
data and the exact 2x2 restriction everything else consumes.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

__all__ = [
    "STATE_NORM_TOL",
    "NonEmptyMarkedSetRequired",
    "SearchInstance",
    "EvolutionWindow",
    "ReducedHamiltonian",
    "ReducedState",
    "require_integer",
    "make_instance",
    "evolution_window",
    "reduced_hamiltonian",
    "initial_state",
]

# |amp_alpha|^2 + |amp_beta|^2 may deviate from 1 by at most this much.
STATE_NORM_TOL = 1e-9


class NonEmptyMarkedSetRequired(ValueError):
    """Raised when an instance with zero marked items is requested."""


class _InstanceFields(NamedTuple):
    n_items: int
    n_marked: int
    a: float
    b: float


class SearchInstance(_InstanceFields):
    """A search problem: ``n_items`` items of which ``n_marked`` are marked.

    ``a`` and ``b`` are the squared overlaps of the uniform superposition with
    the unmarked-uniform and marked-uniform states: a = (N-M)/N, b = M/N.
    They are stored, so reading them costs nothing, and they are always the
    correctly rounded ratios of the exact integers: the constructor, ``_make``
    and ``_replace`` check (N, M) as ``make_instance`` does and refuse an
    ``a`` or ``b`` that differs from its ratio with ValueError.
    """

    __slots__ = ()

    def __new__(cls, n_items: int, n_marked: int, a: float, b: float) -> SearchInstance:
        fields = _checked_fields(n_items, n_marked)
        if (a, b) != fields[2:]:
            raise ValueError(
                f"a and b must be (N-M)/N = {fields[2]!r} and M/N = {fields[3]!r} "
                f"at N={fields[0]}, M={fields[1]}, got a={a!r}, b={b!r}"
            )
        return tuple.__new__(cls, fields)

    @classmethod
    def _make(cls, iterable) -> SearchInstance:
        # namedtuple's _make (and _replace, which calls it) skips __new__.
        return cls(*iterable)


class EvolutionWindow(NamedTuple):
    """The narrow sweep window [s_minus, s_plus], symmetric about s = 1/2.

    s_minus = 1/2 - 1/(2 sqrt(N)), s_plus = 1/2 + 1/(2 sqrt(N)), and
    omega = s_plus - s_minus = 1/sqrt(N) is the window width.
    """

    s_minus: float
    s_plus: float
    omega: float


class ReducedHamiltonian(NamedTuple):
    """Real symmetric 2x2 restriction of H(s) in the ordered basis (|alpha>, |beta>).

    Satisfies h_aa + h_bb = 1 and h_aa*h_bb - h_ab**2 = s(1-s)*a for every
    valid instance; both identities are enforced by tests, not at runtime.
    """

    h_aa: float
    h_ab: float
    h_bb: float
    s: float


class ReducedState(NamedTuple):
    """State in the invariant subspace: complex amplitudes on |alpha> and |beta>."""

    amp_alpha: complex
    amp_beta: complex

    def norm(self) -> float:
        return math.sqrt(abs(self.amp_alpha) ** 2 + abs(self.amp_beta) ** 2)


def require_integer(name: str, value: object) -> int:
    """``value`` as a Python int; anything but a ``numbers.Integral`` other
    than ``bool`` raises ValueError naming ``name``."""
    # A plain int skips the ABC check, the slow part of this test.
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Integral)
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _checked_fields(n_items: int, n_marked: int) -> tuple[int, int, float, float]:
    """(N, M, a, b) of a valid (N, M); the one check behind every SearchInstance."""
    # Python ints keep the ratios below correctly rounded for numpy integers.
    n_items, n_marked = require_integer("N", n_items), require_integer("M", n_marked)
    if n_marked == 0:
        raise NonEmptyMarkedSetRequired("the marked set must not be empty (need M >= 1)")
    if n_items < 2:
        raise ValueError(f"need at least 2 items, got N={n_items}")
    if not 1 <= n_marked <= n_items:
        raise ValueError(f"need 1 <= M <= N, got M={n_marked}, N={n_items}")
    return n_items, n_marked, (n_items - n_marked) / n_items, n_marked / n_items


def make_instance(n_items: int, n_marked: int) -> SearchInstance:
    """Validate (N, M) and derive the squared overlaps a = (N-M)/N, b = M/N.

    Both must be integers (any ``numbers.Integral`` except ``bool``; numpy
    integers are taken as Python ints), the marked set must be nonempty
    (1 <= M <= N) and there must be at least two items.  Integers up to
    2**63 - 1 are handled exactly; a and b are the correctly rounded ratios.
    """
    # The fields are derived here, so SearchInstance's comparison is skipped.
    return tuple.__new__(SearchInstance, _checked_fields(n_items, n_marked))


def evolution_window(instance: SearchInstance) -> EvolutionWindow:
    """Sweep window for the instance; omega = 1/sqrt(N)."""
    half_width = 0.5 / math.sqrt(instance.n_items)
    s_minus = 0.5 - half_width
    s_plus = 0.5 + half_width
    return EvolutionWindow(s_minus, s_plus, s_plus - s_minus)


def reduced_hamiltonian(instance: SearchInstance, s: float) -> ReducedHamiltonian:
    """Project H(s) onto span{|alpha>, |beta>}.

    Entries: h_aa = 1 - (1-s)a, h_ab = -(1-s)sqrt(ab), h_bb = (1-s)a.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    one_minus_s = 1.0 - s
    h_bb = one_minus_s * instance.a  # equals 1 - (1-s)b - s
    return ReducedHamiltonian(
        h_aa=1.0 - h_bb,
        h_ab=-one_minus_s * math.sqrt(instance.a * instance.b),
        h_bb=h_bb,
        s=s,
    )


def initial_state(instance: SearchInstance) -> ReducedState:
    """The uniform superposition, written in the (|alpha>, |beta>) basis."""
    return ReducedState(
        amp_alpha=complex(math.sqrt(instance.a)),
        amp_beta=complex(math.sqrt(instance.b)),
    )
