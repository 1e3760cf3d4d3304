"""Quantum search by a partial adiabatic sweep: closed-form spectral
analysis, reduced two-level dynamics, dense full-space cross-checks, and
scaling experiments.  Import each name from its module: ``padia.model``,
``padia.spectrum``, ``padia.dynamics``, ``padia.oracle``, ``padia.sweeps``."""

# The one re-export: perfbench's tracer test asserts ``padia.evolve``; it goes
# once that test reads ``padia.dynamics.evolve``.
from .dynamics import evolve

__version__ = "0.1.0"
