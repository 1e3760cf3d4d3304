"""The benchmark pair summary in scripts/bench_pairs.py."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = json.loads(bench_pairs.BENCHMARK.read_text())["end_to_end"]


def write_run(directory, workload, seed, wall_s, source, failed=0, **changed):
    metrics = {m["name"]: 1.0 for m in METRICS}
    metrics["wall_s"] = wall_s
    environment = {
        "source_sha256": source, "python": "3.11.7", "numpy": "2.4.6",
        "cpu_model": "Example CPU", "blas_threads": 1,
    }
    payload = {
        "seconds": 30.0,
        "jobs_sha256": "j" + workload,
        "environment": environment,
        "attempted": 100,
        "failed": failed,
        "metrics": metrics,
    }
    for name, value in changed.items():
        target = environment if name in environment else payload
        if value is None:
            del target[name]
        else:
            target[name] = value
    (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(payload))


def test_pairs_by_workload_and_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed, (before, after) in enumerate([(4.0, 1.0), (2.0, 3.0), (3.0, 2.0), (5.0, 5.0)]):
        write_run(parent, "rounds", seed, before, "p")
        write_run(change, "rounds", seed, after, "c", failed=seed)
    write_run(parent, "dense", 0, 1.0, "p")  # no change run: not a pair
    (parent / "rounds-seed9-trace1.json").write_text("{}")  # traced runs are ignored
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert list(report) == ["rounds"]
    rounds = report["rounds"]
    assert rounds["seeds"] == [0, 1, 2, 3]
    assert rounds["source_sha256"] == {"parent": ["p"], "change": ["c"]}
    assert rounds["jobs"]["change"] == {"failed": 6, "attempted": 400}
    wall = rounds["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 3.5, "q1": 2.75, "q3": 4.25}
    assert wall["change"] == {"median": 2.5, "q1": 1.75, "q3": 3.5}
    assert wall["change_wins"] == 2  # the tie at seed 3 counts for neither side
    assert wall["pairs"] == 4
    assert rounds["metrics"]["setup_s"]["change_wins"] == 0


def test_no_common_pairs_is_an_error(tmp_path, capsys):
    write_run(tmp_path, "rounds", 1, 1.0, "p")
    empty = tmp_path / "empty"
    empty.mkdir()
    assert bench_pairs.main([str(tmp_path), str(empty), "--out", str(tmp_path / "o.json")]) == 2
    assert "no (workload, seed)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values, expected", [([2.0], (2.0, 2.0, 2.0)), ([1.0, 3.0], (1.5, 2.0, 2.5))]
)
def test_quartiles(values, expected):
    q = bench_pairs.quartiles(values)
    assert (q["q1"], q["median"], q["q3"]) == expected


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("jobs_sha256", "other", "jobs_sha256 ('jrounds' against 'other')"),
        ("seconds", 20.0, "seconds (30.0 against 20.0)"),
        ("python", "3.12.1", "environment.python ('3.11.7' against '3.12.1')"),
        ("numpy", "1.26.4", "environment.numpy ('2.4.6' against '1.26.4')"),
        ("cpu_model", "Other CPU", "environment.cpu_model ('Example CPU' against 'Other CPU')"),
        ("blas_threads", 2, "environment.blas_threads (1 against 2)"),
        ("blas_threads", None, "environment.blas_threads (1 against missing)"),
    ],
)
def test_pair_with_different_settings_is_an_error(tmp_path, capsys, field, value, shown):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed in (1, 2):
        write_run(parent, "rounds", seed, 2.0, "p")
    write_run(change, "rounds", 1, 1.0, "c")
    write_run(change, "rounds", 2, 1.0, "c", **{field: value})
    out = tmp_path / "o.json"
    assert bench_pairs.main([str(parent), str(change), "--out", str(out)]) == 2
    expected = f"error: rounds seed 2: the parent and change runs differ in {shown}\n"
    assert capsys.readouterr().err == expected
    assert not out.exists()


def _runs(values, source):
    """In-memory ``rounds`` runs, one per seed, holding ``values`` as metric ``m``."""
    environment = {
        "source_sha256": source, "python": "3.11.7", "numpy": "2.4.6",
        "cpu_model": "Example CPU", "blas_threads": 1,
    }
    return {
        ("rounds", seed): {
            "seconds": 30.0, "jobs_sha256": "j", "environment": environment,
            "attempted": 100, "failed": 0, "metrics": {"m": value},
        }
        for seed, value in enumerate(values)
    }


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]  # q1 9.925, q3 10.075


@pytest.mark.parametrize("change, better, claim_met, worse", [
    ([v - 1.0 for v in PARENT], "lower", True, False),  # wins 10 of 10, gain 1 > IQR
    ([v - 1.0 for v in PARENT[:9]] + [11.0], "lower", True, False),  # wins 9 of 10
    ([v - 1.0 for v in PARENT[:8]] + [11.0, 11.0], "lower", False, False),  # 8 of 10
    ([v - 0.1 for v in PARENT], "lower", False, False),  # wins 10, gain 0.1 < IQR 0.15
    ([v * 1.2 for v in PARENT], "lower", False, False),  # 20% worse, within the bound
    ([v * 1.3 for v in PARENT], "lower", False, True),  # 30% worse, past the bound
    ([v + 1.0 for v in PARENT], "higher", True, False),
    ([v * 0.7 for v in PARENT], "higher", False, True),
])
def test_claim_and_bound_verdicts(change, better, claim_met, worse):
    metric = {"name": "m", "unit": "s", "better": better, "bound": 0.25}
    report = bench_pairs.summarise(_runs(PARENT, "p"), _runs(change, "c"), [metric])
    entry = report["rounds"]["metrics"]["m"]
    assert (entry["claim_met"], entry["worse_than_bound"]) == (claim_met, worse)


def test_verdicts_are_written(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed in range(10):
        write_run(parent, "rounds", seed, 2.0 + seed / 100, "p")
        write_run(change, "rounds", seed, 1.0, "c")
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["rounds"]["metrics"]
    assert metrics["wall_s"]["claim_met"] is True
    assert metrics["setup_s"]["claim_met"] is False  # 1.0 on both sides: no win
    assert not any(entry["worse_than_bound"] for entry in metrics.values())
