"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

import copy
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402


# --- self time -------------------------------------------------------------

def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 7]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 7.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # children [1, 4] and [3, 6] overlap; [9, 12] sticks out of the parent
    starts = [0.0, 1.0, 3.0, 9.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_times_add_up_to_root_time():
    starts = [0.0, 0.5, 0.6, 2.0, 3.0]
    ends = [4.0, 1.5, 0.9, 3.5, 3.2]
    parents = [-1, 0, 1, 0, 3]
    assert sum(self_times(starts, ends, parents)) == pytest.approx(4.0)


# --- tail percentile -------------------------------------------------------

def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    percentile, value = stats.tail_percentile([float(i) for i in range(1, 251)])
    assert (percentile, value) == (96.0, 240.0)
    percentile, value = stats.tail_percentile([float(i) for i in range(1, 12)])
    assert value == 1.0 and percentile == pytest.approx(100 / 11)


def test_tail_percentile_without_enough_samples_is_the_maximum():
    assert stats.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_window_medians_take_neighbours_on_either_side():
    # The slow probe after job 2 moves no job's window median.
    assert stats.window_medians([1.0, 2.0, 9.0, 3.0, 4.0], half=1) == [1.5, 2.0, 3.0, 4.0, 3.5]
    assert stats.window_medians([5.0, 1.0, 3.0], half=2) == [3.0, 3.0, 3.0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_is_long_enough_for_p90(workload):
    # 100 jobs per pass: the p90 has 10 jobs beyond it without pooling passes
    jobs_ = workloads.make_jobs(workload, 3)
    assert stats.tail_percentile([float(i) for i in range(len(jobs_))])[0] >= 90.0


# --- job generator ---------------------------------------------------------

# Changing a job list changes what every later commit is measured on; these
# pins make such a change visible.
PINNED_SEED0 = {
    "rounds": "79113230dbc64058d94079a5536077b0b2434e159e05a1638d3447ab6168147a",
    "dense": "56bda6e81a198c374eb58fb4c2f6a78a3633ae952290ad221718d14a51cc55fd",
    "tables": "8e5d4a56fd55c5e89f03d5f94374e1902ac232307783bd7e8d1d7b8f9ff69a02",
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = workloads.make_jobs(workload, 7)
    assert first == workloads.make_jobs(workload, 7)
    assert first != workloads.make_jobs(workload, 8)
    assert len(first) == workloads.JOBS_PER_PASS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_matches_pinned_job_list(workload):
    assert workloads.fingerprint(workloads.make_jobs(workload, 0)) == PINNED_SEED0[workload]


def _rk4_steps(job):
    if job["kind"] in ("run_round", "simulate_until_success", "cli_evolve"):
        return 1000 * job["c"] * workloads.math.isqrt(job["n"]) // job["m"]
    if job["kind"] == "evolve_global":
        return 1000 * job["c"] * job["n"] // job["m"]
    return 0


def test_seed_does_not_change_the_rounds_work():
    totals = {sum(_rk4_steps(j) for j in workloads.make_jobs("rounds", s)) for s in range(10)}
    assert len(totals) == 1


def test_every_drawable_input_has_a_reference():
    rounds = jobs.load_refs("rounds")
    tables = jobs.load_refs("tables")
    for units in (2, 16, 256):
        for n, m, c in workloads.partial_configs(units):
            assert jobs.partial_key(n, m, c) in rounds["partial"]
    for n, m, c in workloads.partial_configs(2):
        assert len(rounds["repeat"][jobs.partial_key(n, m, c)]) == workloads.DRAW_SEEDS
    for n, m in workloads.SPECTRUM_CONFIGS:
        assert f"{n}/{m}" in tables["spectrum"]
    assert len(tables["spectral_pool"]) == len(workloads.SPECTRAL_POOL)
    assert len(tables["bound_pool"]) == len(workloads.BOUND_POOL)


# --- reference checks ------------------------------------------------------

def _run(job, tmp_path, refs):
    output = jobs.prepare(job, 0, tmp_path)()
    return jobs.check(job, output, refs, {})


def test_round_reference_perturbed_by_1e_6_fails(tmp_path):
    refs = jobs.load_refs("rounds")
    job = {"kind": "run_round", "n": 64, "m": 4, "c": 1}
    assert _run(job, tmp_path, refs) == []
    key = jobs.partial_key(64, 4, 1)
    perturbed = copy.deepcopy(refs)
    perturbed["partial"][key]["p2x"] += 1e-6
    assert _run(job, tmp_path, perturbed)


def test_repeat_reference_mismatch_fails(tmp_path):
    refs = jobs.load_refs("rounds")
    job = {"kind": "simulate_until_success", "n": 64, "m": 4, "c": 1, "draw_seed": 5}
    assert _run(job, tmp_path, refs) == []
    perturbed = copy.deepcopy(refs)
    perturbed["repeat"][jobs.partial_key(64, 4, 1)][5] += 1
    assert _run(job, tmp_path, perturbed)


def test_table_reference_perturbed_by_1e_6_fails(tmp_path):
    refs = jobs.load_refs("tables")
    job = {"kind": "spectral_batch", "pool_index": 3}
    assert _run(job, tmp_path, refs) == []
    perturbed = copy.deepcopy(refs)
    perturbed["spectral_pool"][3][10][3] *= 1.0 + 1e-6
    assert _run(job, tmp_path, perturbed)


def test_cli_table_extra_column_is_not_a_failure(tmp_path):
    refs = jobs.load_refs("tables")
    job = {"kind": "cli_sweep", "sweep": "vs_n", "format": "json"}
    output = jobs.prepare(job, 0, tmp_path)()
    assert jobs.check(job, output, refs, {}) == []
    trimmed = copy.deepcopy(refs)
    del trimmed["sweeps"]["vs_n"]["columns"]["t_prime"]  # as if t_prime were new
    assert jobs.check(job, output, trimmed, {}) == []
    trimmed["sweeps"]["vs_n"]["columns"]["g_min"][2] *= 1.0 + 1e-6
    assert jobs.check(job, output, trimmed, {})


# --- tracer ----------------------------------------------------------------

def test_tracer_wraps_imported_names_and_restores_them():
    import padia
    from padia import cli, dynamics, model, sweeps

    run_round, cli_evolve = dynamics.run_round, cli.evolve
    tracer = Tracer()
    tracer.install()
    try:
        assert dynamics.run_round is not run_round
        assert cli.evolve is dynamics.evolve is sweeps.evolve is padia.evolve
        inst = model.make_instance(64, 4)
        dynamics.run_round(inst, 1.0, steps=200)
    finally:
        tracer.uninstall()
    assert dynamics.run_round is run_round and cli.evolve is cli_evolve

    snap = tracer.snapshot()
    names = [snap.names[f] for f in snap.fn_ids]
    assert names[:2] == ["model.make_instance", "dynamics.run_round"]
    assert "dynamics.evolve" in names  # nested in its own layer, still a span
    metrics = layer_metrics(snap)
    assert metrics["dynamics.rounds"] == 1 and metrics["dynamics.steps"] == 200
    assert metrics["model.calls"] >= 2 and metrics["spectrum.calls"] >= 1
    roots = sum(e - s for s, e, p in zip(snap.starts, snap.ends, snap.parents) if p < 0)
    own = self_times(snap.starts, snap.ends, snap.parents)
    assert sum(own) == pytest.approx(roots)
