"""Quantum search by a partial adiabatic sweep: closed-form spectral
analysis, reduced two-level dynamics, dense full-space cross-checks, and
scaling experiments."""

from .model import (
    NonEmptyMarkedSetRequired,
    SearchInstance,
    EvolutionWindow,
    ReducedState,
    make_instance,
    evolution_window,
    initial_state,
)
from .spectrum import (
    SpectralPoint,
    BoundReport,
    eigenvalues,
    gap,
    gap_integral,
    min_gap,
    eigenvector_components,
    overlap_psi,
    overlap_beta,
    spectral_point,
    adiabatic_success_probability,
    one_round_time,
    bound_report,
)
from .dynamics import (
    NormDriftExceeded,
    Schedule,
    RoundOutcome,
    RepeatStats,
    make_partial_schedule,
    make_global_schedule,
    make_local_schedule,
    make_schedule,
    default_step_count,
    schedule_step_count,
    evolve,
    run_round,
    draw_repeat_stats,
    simulate_until_success,
)
from .oracle import (
    CapacityExceeded,
    ConvergenceFailure,
    FullInstance,
    DenseSpectrum,
    make_full_instance,
    full_hamiltonian,
    dense_spectrum,
    certify_reduction,
    full_evolve,
)
from .sweeps import (
    DegenerateFit,
    FitResult,
    SweepRecord,
    fit_loglog,
    make_sweep_record,
    sweep,
)

__version__ = "0.1.0"
