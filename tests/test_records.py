"""padia's value records: immutable named tuples with a pinned field order.

A named tuple compares equal to a plain tuple, or to a record of another
type, that holds the same values.  So ``result == Kind(...)`` does not check
the type of a result; ``test_results_have_their_record_type`` does.
"""

import importlib

import pytest

from padia.dynamics import (
    RepeatStats,
    RoundOutcome,
    Schedule,
    draw_repeat_stats,
    evolve,
    make_schedule,
)
from padia.model import (
    EvolutionWindow,
    ReducedState,
    SearchInstance,
    evolution_window,
    initial_state,
    make_instance,
)
from padia.oracle import DenseSpectrum, FullInstance, dense_spectrum, make_full_instance
from padia.spectrum import BoundReport, SpectralPoint, bound_report, spectral_point
from padia.sweeps import FitResult, SweepRecord, fit_loglog, make_sweep_record

FIELDS = {
    SearchInstance: ("n_items", "n_marked", "a", "b"),
    EvolutionWindow: ("s_minus", "s_plus", "omega"),
    ReducedState: ("amp_alpha", "amp_beta"),
    SpectralPoint: ("s", "e0", "e1", "gap", "ov_psi_0", "ov_beta_0"),
    BoundReport: (
        "ov_psi_at_s_minus", "ov_beta_at_s_plus", "p_one_round", "window_factor",
        "alpha_weight", "beta_weight", "end_ratio", "all_bounds_hold", "failures",
    ),
    Schedule: ("kind", "total_time", "sample_x"),
    RoundOutcome: (
        "final_state", "success_probability", "ground_fidelity", "norm_drift",
        "error_estimate",
    ),
    RepeatStats: ("rounds_used", "total_evolution_time", "succeeded"),
    FullInstance: ("n_items", "marked_set"),
    DenseSpectrum: ("eigenvalues", "ground_vector", "first_excited_vector"),
    FitResult: ("slope", "intercept", "r_squared", "axis"),
    SweepRecord: (
        "n_items", "n_marked", "schedule_kind", "g_min", "t_prime", "p_adiabatic",
        "t_expected", "ov_psi_minus", "ov_beta_plus", "bounds_hold", "sim_success",
    ),
}
DEFAULTS = {BoundReport: {"failures": ()}, SweepRecord: {"sim_success": None}}
RECORDS = list(FIELDS)
# Records whose constructor checks its fields: the values of ``_record`` and
# a valid ``_replace`` of them.
CHECKED = {SearchInstance: ((4, 1, 0.75, 0.25), {"n_items": 8, "a": 0.875, "b": 0.125})}


def _values(kind):
    """The field values of ``_record(kind)``: 0, 1, 2, ... unless ``kind`` checks them."""
    return CHECKED[kind][0] if kind in CHECKED else tuple(range(len(FIELDS[kind])))


def _record(kind):
    return kind(*_values(kind))


def test_every_record_is_listed():
    """Every public tuple type of the six modules, imported or defined there."""
    records = {
        value
        for name in ("model", "spectrum", "dynamics", "oracle", "sweeps", "cli")
        for attr, value in vars(importlib.import_module(f"padia.{name}")).items()
        if not attr.startswith("_") and isinstance(value, type) and issubclass(value, tuple)
    }
    assert records == set(FIELDS)


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_field_order_and_defaults(kind):
    assert kind._fields == FIELDS[kind]
    assert kind._field_defaults == DEFAULTS.get(kind, {})


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_fields_refuse_assignment(kind):
    record = _record(kind)
    for name in FIELDS[kind]:
        with pytest.raises(AttributeError):
            setattr(record, name, -1)
    assert tuple(record) == _values(kind)


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_named_tuple_access(kind):
    record = _record(kind)
    values = dict(zip(FIELDS[kind], _values(kind)))
    assert record._asdict() == values
    assert [getattr(record, name) for name in FIELDS[kind]] == list(values.values())
    changes = CHECKED[kind][1] if kind in CHECKED else {FIELDS[kind][0]: -1}
    changed = record._replace(**changes)
    assert type(changed) is kind
    assert {name: getattr(changed, name) for name in changes} == changes
    assert record._asdict() == values


def test_results_have_their_record_type():
    inst = make_instance(16, 2)
    schedule = make_schedule(inst, "partial", 1.0)
    results = {
        SearchInstance: inst,
        EvolutionWindow: evolution_window(inst),
        ReducedState: initial_state(inst),
        SpectralPoint: spectral_point(inst, 0.5),
        BoundReport: bound_report(inst),
        Schedule: schedule,
        RoundOutcome: evolve(inst, schedule, 200, initial_state(inst)),
        RepeatStats: draw_repeat_stats(0.5, 1.0, 0, 10),
        FullInstance: make_full_instance(4, [1]),
        DenseSpectrum: dense_spectrum(make_full_instance(4, [1]), 0.5),
        FitResult: fit_loglog([1.0, 2.0, 4.0], [1.0, 4.0, 16.0]),
        SweepRecord: make_sweep_record(inst),
    }
    assert set(results) == set(FIELDS)
    for kind, result in results.items():
        assert type(result) is kind, (kind.__name__, type(result))
