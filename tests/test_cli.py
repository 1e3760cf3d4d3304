"""End-to-end checks of the command-line surface and its exit-code contract."""

import argparse
import csv
import errno
import hashlib
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from padia import cli, dynamics, spectrum
from padia.dynamics import (
    default_step_count,
    evolve,
    make_local_schedule,
    make_partial_schedule,
    run_round,
)
from padia.model import initial_state, make_instance
from padia.oracle import ConvergenceFailure
from padia.spectrum import (
    BoundReport,
    adiabatic_success_probability,
    bound_report,
    spectral_point,
)
from padia.sweeps import (
    bound_reports_to_rows,
    spectral_points_to_rows,
    sweep,
    sweep_records_to_rows,
)


def run_cli(args):
    return cli.main(args)


def fresh_env():
    """The environment of a new process that imports this checkout's sources."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_fresh(args):
    """``python -m padia`` in a new process, on this checkout's sources."""
    return subprocess.run([sys.executable, "-m", "padia", *args],
                          capture_output=True, text=True, env=fresh_env(), timeout=120)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def reference_table(rows, fmt, extra=None):
    """A table as the row-by-row writers rendered it before the column writers."""
    if fmt == "json":
        return json.dumps({"records": rows, **(extra or {})}, indent=2) + "\n"

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return f"{value:.17g}" if isinstance(value, float) else str(value)

    header = list(rows[0])
    lines = [",".join(header)] + [",".join(cell(row[k]) for k in header) for row in rows]
    return "\n".join(lines) + "\n"


class TestSpectrumCommand:
    def test_gap_at_center(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run_cli(["spectrum", "--n", "100", "--m", "1", "--points", "11",
                        "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 11
        center = next(r for r in rows if float(r["s"]) == 0.5)
        assert float(center["gap"]) == pytest.approx(0.1, abs=1e-15)

    def test_all_marked_constant_gap(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run_cli(["spectrum", "--n", "8", "--m", "8", "--points", "3",
                        "--out", str(out)]) == 0
        assert all(float(r["gap"]) == 1.0 for r in read_csv(out))

    def test_json_output(self, capsys):
        assert run_cli(["spectrum", "--n", "4", "--m", "1", "--points", "5",
                        "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 5
        assert payload["records"][0]["e0"] == pytest.approx(0.0, abs=1e-12)

    def test_points_validation(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["spectrum", "--n", "4", "--m", "1", "--points", "1"])
        assert exc.value.code == 2

    def test_points_above_the_cap_are_usage_error(self, capsys):
        argv = ["spectrum", "--n", "4", "--m", "1", "--points"]
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + [str(cli.MAX_POINTS + 1)])
        assert exc.value.code == 2
        assert f"in [2, {cli.MAX_POINTS}]" in capsys.readouterr().err
        # Parsed only: a table this large would run for half a minute.
        assert cli._build_parser().parse_args(argv + [str(cli.MAX_POINTS)]).points == (
            cli.MAX_POINTS
        )

    def test_closed_stdout_is_usage_error(self):
        # The reader goes after one line of a 12-MB table, as `| head -1` does.
        with subprocess.Popen(
            [sys.executable, "-m", "padia", "spectrum", "--n", "64", "--m", "1",
             "--points", "100001"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=fresh_env(),
        ) as proc:
            assert proc.stdout.readline() == "s,e0,e1,gap,ov_psi_0,ov_beta_0\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 2
        assert re.fullmatch(r"error: cannot write <stdout>: .+\n", err), err

    def test_invalid_instance_is_usage_error(self, capsys):
        assert run_cli(["spectrum", "--n", "4", "--m", "9"]) == 2
        assert "error" in capsys.readouterr().err


class TestTableBytes:
    """Every table matches the scalar, row-by-row rendering byte for byte."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n, m, points", [
        (2, 1, 2), (2, 2, 5), (7, 7, 11), (64, 1, 2), (64, 1, 101), (2**60, 1, 33),
    ])
    def test_spectrum(self, n, m, points, fmt, capsys):
        inst = make_instance(n, m)
        grid = np.linspace(0.0, 1.0, points)
        rows = spectral_points_to_rows(spectral_point(inst, float(s)) for s in grid)
        assert run_cli(["spectrum", "--n", str(n), "--m", str(m), "--points", str(points),
                        "--output", fmt]) == 0
        assert capsys.readouterr().out == reference_table(rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n, m, points", [(64, 1, 101), (2**60, 1, 33)])
    def test_spectrum_across_blocks(self, n, m, points, fmt, capsys, monkeypatch):
        monkeypatch.setattr(cli, "BLOCK_ROWS", 7)
        self.test_spectrum(n, m, points, fmt, capsys)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_spectrum_block_is_one_piece(self, fmt, monkeypatch):
        # 5000 points are blocks of 2048, 2048 and 904 rows: three pieces of
        # text, and JSON's closing piece.
        pieces = []
        monkeypatch.setattr(cli, "_emit", lambda chunks, out_path: pieces.extend(chunks))
        assert run_cli(["spectrum", "--n", "64", "--m", "1", "--points", "5000",
                        "--output", fmt]) == 0
        if fmt == "csv":
            assert [piece.count("\n") for piece in pieces] == [1 + 2048, 2048, 904]
        else:
            assert [piece.count('"s": ') for piece in pieces] == [2048, 2048, 904, 0]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bounds(self, fmt, capsys):
        cases = [(n, m) for n in (4, 16, 64) for m in range(1, n + 1) if n % m == 0]
        rows = bound_reports_to_rows(
            [(n, m, bound_report(make_instance(n, m))) for n, m in cases]
        )
        assert run_cli(["bounds", "--n-list", "4,16,64", "--m-rule", "all-divisors",
                        "--output", fmt]) == 0
        assert capsys.readouterr().out == reference_table(rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_with_fit(self, fmt, capsys):
        grid = [64, 128, 256, 512, 1024]
        records, fit = sweep("n", 1, grid)
        fit_payload = {"slope": fit.slope, "intercept": fit.intercept,
                       "r_squared": fit.r_squared, "axis": fit.axis}
        extra = {"fit": fit_payload} if fmt == "json" else None
        assert run_cli(["sweep", "--axis", "n", "--fixed", "1", "--grid",
                        ",".join(map(str, grid)), "--output", fmt]) == 0
        assert capsys.readouterr().out == reference_table(
            sweep_records_to_rows(records), fmt, extra
        )


class TestTableDigests:
    """SHA-256 of the published tables.  The closed-form kernel may be
    reorganised, but not one byte of these tables may move."""

    SCALING = {
        "expected_time_vs_n.csv":
            "7aa37041ce3c1e9eb9f8c51839389794494a6e621540f70f6981bf64894dc732",
        "expected_time_vs_m.csv":
            "28530440a631872ef09628212b6cdf56fd3a683ce85a31d7bde95f126a84d0c5",
        "local_baseline_vs_m.csv":
            "e2b0edd5c3f2189ca4e8b3d83f2f249508167c03b7abb96993915f9534556cb2",
    }
    BOUNDS = {
        "csv": "c58fc18ae91027deb3b2bdfdceadbbbe8919199b1eb945bbc00d2b90ab3300d7",
        "json": "e6e3f592d48b1fac960c2e7886e1f6a5af31f8511208aa1994547cc74410f97c",
    }

    def test_reproduce_scaling(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_scaling.py"
        proc = subprocess.run([sys.executable, str(script), "--outdir", str(tmp_path)],
                              check=True, capture_output=True, text=True)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.SCALING
        }
        assert digests == self.SCALING
        m_grid = [2**k for k in range(0, 9)]
        fits = [
            sweep(axis="n", fixed_value=1, grid=[2**k for k in range(6, 17)])[1],
            sweep(axis="m", fixed_value=2**16, grid=m_grid)[1],
            sweep(axis="m", fixed_value=2**16, grid=m_grid, schedule_kind="local_adiabatic")[1],
        ]
        assert proc.stderr.count("fit [") == 3
        assert re.findall(r"^fit \[(.+)\]: slope=(\S+) ", proc.stderr, re.M) == [
            (fit.axis, f"{fit.slope:.6f}") for fit in fits
        ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bounds_all_divisors(self, fmt, capsys):
        assert run_cli(["bounds", "--m-rule", "all-divisors", "--output", fmt]) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == self.BOUNDS[fmt]


class TestScripts:
    SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

    def run_script(self, name, *args):
        return subprocess.run([sys.executable, str(self.SCRIPTS / name), *args],
                              capture_output=True, text=True, timeout=300)

    def test_reproduce_scaling_refuses_a_file_as_outdir(self, tmp_path):
        blocker = tmp_path / "results"
        blocker.write_text("previous\n")
        proc = self.run_script("reproduce_scaling.py", "--outdir", str(blocker))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert blocker.read_text() == "previous\n"

    def test_convergence_study(self):
        proc = self.run_script("convergence_study.py", "--n", "64", "--m", "1",
                               "--c-list", "1,16")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        inst = make_instance(64, 1)
        p_printed = re.search(r"\bP=(\S+)", lines[0]).group(1)
        assert p_printed == f"{adiabatic_success_probability(inst):.6f}"
        rows = [line.split() for line in lines[3:]]
        assert [row[0] for row in rows] == ["1", "16"]
        for c_text, success, *_ in rows:
            assert success == f"{run_round(inst, float(c_text)).success_probability:.6f}"

    def test_percall(self):
        proc = self.run_script("percall.py", "--number", "3", "--repeat", "2")
        assert proc.returncode == 0, proc.stderr
        header, *rows = proc.stdout.splitlines()
        assert header == "per-call time at N=4096, M=32 (fastest of 2 x 3 calls)"
        assert [row.split()[0] for row in rows] == [
            "make_instance", "evolution_window", "spectral_point(s=0.3)",
            "spectral_point(s=0.7)", "bound_report", "make_partial_schedule",
            "make_global_schedule", "schedule_step_count",
            "run_round(c=1)", "csv_chunks(block)", "json_chunks(block)",
        ]
        for row in rows:
            _, ns, unit = row.split()
            assert unit == "ns" and float(ns) > 0.0

    def test_percall_refuses_zero_repeats(self):
        proc = self.run_script("percall.py", "--repeat", "0")
        assert proc.returncode == 2
        assert "must be at least 1" in proc.stderr


class TestAtomicOut:
    def test_failed_run_keeps_existing_file(self, tmp_path):
        out = tmp_path / "table.csv"
        out.write_text("previous\n")
        assert run_cli(["spectrum", "--n", "4", "--m", "9", "--out", str(out)]) == 2
        assert out.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["table.csv"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys):
        # The temporary file is written, then a chmod or the rename is refused.
        out = tmp_path / "table.csv"
        out.write_text("previous\n")
        for call, code in (("replace", errno.EBUSY), ("chmod", errno.EPERM)):

            def refuse(*args, code=code):
                raise OSError(code, os.strerror(code))

            with monkeypatch.context() as patch:
                patch.setattr(cli.os, call, refuse)
                assert run_cli(["spectrum", "--n", "4", "--m", "1", "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: cannot write {out}: {os.strerror(code)}\n"
            assert out.read_text() == "previous\n"
            assert os.listdir(tmp_path) == ["table.csv"]

    @pytest.mark.parametrize("command", [
        ["spectrum", "--n", "4", "--m", "1"],
        ["evolve", "--n", "4", "--m", "1"],
    ], ids=lambda argv: argv[0])
    def test_directory_is_usage_error(self, command, tmp_path, capsys):
        assert run_cli(command + ["--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {tmp_path}: {os.strerror(errno.EISDIR)}\n"
        assert os.listdir(tmp_path) == []

    def test_missing_parent_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "table.csv"
        assert run_cli(["spectrum", "--n", "4", "--m", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: {os.strerror(errno.ENOENT)}\n"
        )
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unequal_columns_write_nothing(self, fmt, tmp_path, capsys):
        columns = [{"a": [1.0, 2.0], "b": [1.0]}]
        with pytest.raises(ValueError, match="columns differ in length"):
            cli._emit_table(columns, argparse.Namespace(output=fmt, out=None))
        assert capsys.readouterr().out == ""
        out = tmp_path / "table.csv"
        out.write_text("previous\n")
        for target in (out, tmp_path / "new.csv"):
            with pytest.raises(ValueError, match="columns differ in length"):
                cli._emit_table(columns, argparse.Namespace(output=fmt, out=str(target)))
        assert out.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["table.csv"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_does_not_grow_with_the_table(self, fmt, tmp_path):
        # 12 MB of CSV or 21 MB of JSON, computed, formatted and written in
        # blocks; the 0.8 MB s grid is the one whole-table array.
        out = tmp_path / f"table.{fmt}"
        argv = ["spectrum", "--n", "1024", "--m", "3", "--points", "100001",
                "--output", fmt, "--out", str(out)]
        tracemalloc.start()
        try:
            assert run_cli(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 12 * 10**6
        assert peak < 4 * 2**20

    def test_success_replaces_file(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        out.write_text("previous\n")
        args = ["spectrum", "--n", "16", "--m", "2", "--points", "9", "--output", "json"]
        assert run_cli(args + ["--out", str(out)]) == 0
        assert run_cli(args) == 0
        assert out.read_text() == capsys.readouterr().out
        assert os.listdir(tmp_path) == ["table.json"]

    def test_replacement_keeps_permission_bits(self, tmp_path):
        out = tmp_path / "table.csv"
        out.write_text("previous\n")
        os.chmod(out, 0o640)
        assert run_cli(["spectrum", "--n", "4", "--m", "1", "--out", str(out)]) == 0
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o640
        assert out.read_text().startswith("s,")

    def test_device_is_written_in_place(self):
        assert run_cli(["spectrum", "--n", "4", "--m", "1", "--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "table.pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        args = ["spectrum", "--n", "16", "--m", "2", "--points", "9"]
        try:
            assert run_cli(args + ["--out", str(fifo)]) == 0
        finally:
            reader.join(timeout=10)
        assert run_cli(args) == 0
        assert received == [capsys.readouterr().out]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["table.pipe"]


class TestBoundsCommand:
    def test_default_rule_passes(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run_cli(["bounds", "--n-list", "4,16,64,256", "--m-rule", "one",
                        "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [int(r["n"]) for r in rows] == [4, 16, 64, 256]
        assert all(r["bounds_hold"] == "true" for r in rows)

    def test_all_divisors_includes_fully_marked(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run_cli(["bounds", "--n-list", "16", "--m-rule", "all-divisors",
                        "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [int(r["m"]) for r in rows] == [1, 2, 4, 8, 16]
        fully_marked = rows[-1]
        assert float(fully_marked["p_one_round"]) == 1.0

    def test_violation_exit_code(self, monkeypatch, tmp_path, capsys):
        broken = BoundReport(
            ov_psi_at_s_minus=0.0, ov_beta_at_s_plus=0.0, p_one_round=0.0,
            window_factor=2.0, alpha_weight=9.0, beta_weight=9.0, end_ratio=9.0,
            all_bounds_hold=False, failures=("window_factor < 1",),
        )
        monkeypatch.setattr(cli, "bound_report", lambda inst: broken)
        out = tmp_path / "bounds.csv"
        assert run_cli(["bounds", "--n-list", "4", "--m-rule", "one",
                        "--out", str(out)]) == 1
        assert "violation" in capsys.readouterr().err

    def test_bad_rule(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bounds", "--n-list", "4", "--m-rule", "mystery"])
        assert exc.value.code == 2

    def test_divisors_match_brute_force(self):
        limit = 5000
        expected = [[] for _ in range(limit + 1)]
        for d in range(1, limit + 1):
            for multiple in range(d, limit + 1, d):
                expected[multiple].append(d)
        for n in range(1, limit + 1):
            assert cli._divisors(n) == expected[n], n

    def test_divisors_of_a_large_power_of_two(self):
        assert cli._divisors(2**62) == [2**k for k in range(63)]

    def test_divisors_below_2_to_the_44(self):
        # The largest prime below 2^44, and the two largest primes below 2^22
        # with their product.
        assert cli._divisors(17592186044399) == [1, 17592186044399]
        assert cli._divisors(4194287 * 4194301) == [1, 4194287, 4194301, 4194287 * 4194301]

    def test_unsplit_cofactor_is_refused_quickly(self, capsys):
        n = 2**61 - 1  # prime
        start = time.perf_counter()
        assert run_cli(["bounds", "--n-list", str(n), "--m-rule", "all-divisors"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and f"N={n}" in err

    def test_chain_failure_names_in_order(self, monkeypatch, capsys):
        for name in ("OV_PSI_LOWER_BOUND", "OV_BETA_LOWER_BOUND", "P_LOWER_BOUND"):
            monkeypatch.setattr(spectrum, name, 1.0)
        expected = ("ov_psi > 1/8", "1/(2a+1) >= 1/3", "ov_beta > 1/3", "p > 1/24")
        report = bound_report(make_instance(64, 1))
        assert report.failures == expected
        assert report.all_bounds_hold is False
        assert run_cli(["bounds", "--n-list", "64", "--m-rule", "one"]) == 1
        assert capsys.readouterr().err == (
            f"bound violation at N=64, M=1: {', '.join(expected)}\n"
        )


class TestEvolveCommand:
    def test_all_marked_round(self, capsys):
        assert run_cli(["evolve", "--n", "64", "--m", "64", "--c", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success_probability"] == pytest.approx(1.0, abs=1e-12)

    def test_repeat_is_deterministic(self, capsys):
        args = ["evolve", "--n", "16", "--m", "1", "--c", "2", "--repeat",
                "--seed", "7", "--max-rounds", "1000"]
        assert run_cli(args) == 0
        first = capsys.readouterr().out
        assert run_cli(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["repeat"]["rounds_used"] >= 1

    def test_norm_drift_exit_code(self, capsys):
        # The unitary propagator keeps the norm; the error bound is what
        # refuses this grid, before any step.
        assert run_cli(["evolve", "--n", "64", "--m", "1", "--c", "64",
                        "--steps", "10"]) == 1
        assert "Magnus-4 error bound" in capsys.readouterr().err

    def test_local_round_keeps_the_step_halving_estimate(self, capsys):
        assert run_cli(["evolve", "--n", "64", "--m", "1", "--schedule", "local",
                        "--c", "1e9", "--steps", "10"]) == 1
        assert re.fullmatch(r"error: error estimate is \S+ after 10 steps over duration "
                            r"\S+; increase steps\n", capsys.readouterr().err)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_state_exit_code(self, capsys):
        # The local schedule has no bound to refuse it up front, so the
        # round is integrated and its state turns NaN.
        assert run_cli(["evolve", "--n", "64", "--m", "1", "--schedule", "local",
                        "--c", "1e200", "--steps", "10"]) == 1
        assert "norm drifted by nan" in capsys.readouterr().err

    def test_blown_up_run_prints_only_the_error(self):
        # numpy warnings go to the real stderr of a fresh process, which the
        # in-process capture above would not show.
        result = run_fresh(["evolve", "--n", "64", "--m", "1", "--schedule", "local",
                            "--c", "1e200", "--steps", "10"])
        assert result.returncode == 1
        assert re.fullmatch(
            r"error: norm drifted by nan after 10 steps over duration \S+; increase steps\n",
            result.stderr,
        )

    @pytest.mark.parametrize("argv, shown", [
        (["--n", "64", "--c", "1e9", "--steps", "10"], r"\S+ at 10 steps over duration 8e\+09"),
        # The step-halving twin accepted this count with an estimate of 8.4e-9.
        (["--n", "1024", "--schedule", "global", "--c", "4", "--steps", "5000"],
         r"6\.554e-06 at 5000 steps over duration 4096"),
    ])
    def test_over_coarse_count_is_refused_by_the_bound(self, argv, shown):
        result = run_fresh(["evolve", "--m", "1", *argv])
        assert result.returncode == 1
        assert result.stdout == ""
        assert re.fullmatch(
            rf"error: Magnus-4 error bound {shown} exceeds 1e-06; increase steps\n",
            result.stderr,
        )

    def test_round_too_short_to_sweep_is_a_usage_error(self):
        result = run_fresh(["evolve", "--n", "4", "--m", "1", "--c", "5e-324"])
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: a partial round of duration 9.88131e-324 is too short to sweep "
            "its window: the sweep rate overflows\n"
        )

    def test_global_round_too_short_to_sweep_is_a_usage_error(self):
        result = run_fresh(["evolve", "--n", "4", "--m", "1", "--schedule", "global",
                            "--c", "5e-324"])
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: a global_linear round of duration 1.97626e-323 is too short to sweep "
            "its window: the sweep rate overflows\n"
        )

    def test_reports_error_estimate(self, capsys):
        assert run_cli(["evolve", "--n", "64", "--m", "1", "--c", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steps"] == 212  # the least n with (T/n)^4 E <= 5e-10
        assert 0.0 <= payload["error_estimate"] < 1e-9
        assert list(payload)[5:9] == [
            "success_probability", "ground_fidelity", "norm_drift", "error_estimate"
        ]

    def test_large_n_round_runs_at_the_step_floor(self, capsys):
        # At c = 1 and M = 1 the error bound's count does not grow with N:
        # 68 steps from N = 2^10 on.
        assert run_cli(["evolve", "--n", "4398046511104", "--m", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steps"] == 68
        assert payload["error_estimate"] < 5e-10

    def test_oversized_run_is_usage_error(self, capsys):
        # The local schedule keeps 64 steps per unit time; at N = 2^42 its
        # table lasts 2.2e8 and would need over 10^10 steps.
        assert run_cli(["evolve", "--n", "4398046511104", "--m", "1",
                        "--schedule", "local"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: \d+ steps over duration \S+ exceed the cap of 100000000 steps\n", err
        )

    @pytest.mark.parametrize("n, flags", [
        ("4611686018427387904", ["--schedule", "global", "--c", "1e300"]),
        ("4611686018427387904", ["--schedule", "local", "--c", "1e300"]),
        ("4611686018427387904", ["--c", "1e300"]),
        ("4", ["--schedule", "local", "--c", "2.5e307"]),
    ])
    def test_overflowing_duration_is_usage_error(self, n, flags, capsys):
        assert run_cli(["evolve", "--n", n, "--m", "1", *flags]) == 2
        err = capsys.readouterr().err
        assert err == "error: total_time must be positive and finite, got inf\n"

    def test_finite_duration_past_the_step_range_is_usage_error(self, capsys):
        # The error-bound count of a duration of 2e307, about 4.2e308, passes
        # the float range; the 309-digit count is named by its order of magnitude.
        assert run_cli(["evolve", "--n", "4", "--m", "1", "--c", "1e307"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: at least 10\^308 steps over duration 2e\+307 exceed "
                            r"the cap of 100000000 steps\n", err)
        assert len(err) < 160

    @pytest.mark.parametrize("schedule", ["partial", "global", "local"])
    def test_c_scales_every_schedule(self, schedule, capsys):
        totals = []
        for c in ("1", "2"):
            argv = ["evolve", "--n", "256", "--m", "4", "--schedule", schedule, "--c", c]
            assert run_cli(argv) == 0
            totals.append(json.loads(capsys.readouterr().out)["total_time"])
        assert totals[1] == 2.0 * totals[0]

    def test_round_cap_is_usage_error(self, capsys):
        assert run_cli(["evolve", "--n", "16", "--m", "1", "--repeat",
                        "--max-rounds", "10000001"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_rounds must lie in [1, 10000000], got 10000001\n"

    def test_round_cap_is_checked_without_repeat(self, capsys):
        assert run_cli(["evolve", "--n", "4", "--m", "1", "--max-rounds", "20000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_rounds must lie in [1, 10000000], got 20000000\n"

    def test_round_cap_is_checked_before_integrating(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated before checking --max-rounds")

        monkeypatch.setattr(dynamics, "evolve", refuse)
        monkeypatch.setattr(cli, "evolve", refuse)
        assert run_cli(["evolve", "--n", "68719476736", "--m", "1", "--repeat",
                        "--max-rounds", "100000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_rounds must lie in [1, 10000000], got 100000000\n"

    def test_rejects_bad_numeric_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["evolve", "--n", "abc", "--m", "1"])
        assert exc.value.code == 2

    def test_local_round_uses_the_library_table(self, capsys):
        # The CLI has no knot setting; its local table is the 20,001-knot one.
        assert run_cli(["evolve", "--n", "256", "--m", "4", "--schedule", "local"]) == 0
        payload = json.loads(capsys.readouterr().out)
        inst = make_instance(256, 4)
        schedule = make_local_schedule(inst, 1.0, 20_001)
        steps = default_step_count(schedule.total_time)
        outcome = evolve(inst, schedule, steps, initial_state(inst))
        assert payload["total_time"] == schedule.total_time
        assert payload["steps"] == steps
        assert payload["success_probability"] == outcome.success_probability


class TestSweepCommand:
    def test_n_axis_json(self, capsys):
        assert run_cli(["sweep", "--axis", "n", "--fixed", "1",
                        "--grid", "64,128,256,512,1024", "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 5
        assert 0.45 <= payload["fit"]["slope"] <= 0.55

    def test_csv_fit_goes_to_stderr(self, capsys):
        assert run_cli(["sweep", "--axis", "m", "--fixed", "4096",
                        "--grid", "1,2,4,8,16"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0].startswith("n,m,schedule,")
        assert "fit" in captured.err

    @pytest.mark.parametrize("schedule", ["partial", "global", "local"])
    def test_c_scales_the_duration_of_every_schedule(self, schedule, capsys):
        tables = []
        for c in ("1", "2"):
            assert run_cli(["sweep", "--axis", "n", "--fixed", "1", "--grid",
                            "64,128,256,512,1024", "--schedule", schedule, "--c", c,
                            "--output", "json"]) == 0
            tables.append(json.loads(capsys.readouterr().out)["records"])
        single, double = tables
        for one, two in zip(single, double):
            assert two["t_prime"] == 2.0 * one["t_prime"]
            assert two["t_expected"] == 2.0 * one["t_expected"]
            assert two["p_adiabatic"] == one["p_adiabatic"]

    def test_grid_validation(self, capsys):
        # sweeps.sweep owns the rule; its ValueError is a usage error.
        assert run_cli(["sweep", "--axis", "n", "--fixed", "1", "--grid", "64,128"]) == 2
        assert "need a grid of at least 5 points, got 2" in capsys.readouterr().err


class TestCertifyCommand:
    def test_small_range_passes(self, capsys):
        assert run_cli(["certify", "--n-max", "8"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "worst" in out

    def test_cap_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["certify", "--n-max", "2048"])
        assert exc.value.code == 2

    def test_points_above_the_cap_are_usage_error(self, capsys):
        # Parsed only: the largest grid allowed already takes the better
        # part of an hour at --n-max 1024.
        cap = cli._CERTIFY_MAX_POINTS
        with pytest.raises(SystemExit) as exc:
            run_cli(["certify", "--n-max", "1024", "--points", str(cap + 1)])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [
            f"padia certify: error: argument --points: expected an integer in [1, {cap}], "
            f"got {cap + 1}"
        ]
        assert cli._build_parser().parse_args(["certify", "--points", str(cap)]).points == cap

    def test_empty_case_grid_is_usage_error(self, capsys):
        # N starts at 2, so --n-max 1 would leave no case to certify.
        with pytest.raises(SystemExit) as exc:
            run_cli(["certify", "--n-max", "1"])
        assert exc.value.code == 2
        assert "--n-max: expected an integer in [2, 1024], got 1" in capsys.readouterr().err

    @staticmethod
    def failing_in_one_case(failure):
        """A ``certify_reduction`` that meets ``failure`` at (N, M) = (8, 2) only."""

        def certify(full, s_grid):
            if (full.n_items, len(full.marked_set)) == (8, 2):
                return failure()
            return 0.0

        return certify

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_discrepancy_above_tolerance_fails(self, workers, monkeypatch, capsys):
        monkeypatch.setattr(cli, "certify_reduction", self.failing_in_one_case(lambda: 1e-6))
        assert run_cli(["certify", "--n-max", "16", "--points", "3",
                        "--workers", workers]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            "certified 13 (N, M) cases up to N=16 on a 3-point s grid\n"
            "worst |dense - closed-form| discrepancy: 1.000e-06 at (N, M) = (8, 2)\n"
        )
        assert captured.err == "FAIL: above tolerance 1e-09\n"

    @staticmethod
    def failing_at(failures):
        """A ``certify_reduction`` that returns ``failures[(N, M)]`` there, 0 elsewhere."""

        def certify(full, s_grid):
            return failures.get((full.n_items, len(full.marked_set)), 0.0)

        return certify

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("failures, worst, others", [
        ({(2, 1): math.nan}, "nan at (N, M) = (2, 1)", []),
        ({(8, 2): math.nan}, "nan at (N, M) = (8, 2)", []),
        ({(8, 2): math.nan, (16, 4): 1e-6}, "nan at (N, M) = (8, 2)", [(16, 4)]),
        ({(2, 1): 1e-6, (16, 4): 1e-3}, "1.000e-03 at (N, M) = (16, 4)", [(2, 1)]),
    ], ids=["nan-first", "nan-later", "nan-and-above", "two-above"])
    def test_nan_discrepancy_fails(self, failures, worst, others, workers, monkeypatch,
                                   capsys):
        # A NaN is not within tolerance: it fails the run and is named as the
        # worst case, and every other case above tolerance is named after it.
        monkeypatch.setattr(cli, "certify_reduction", self.failing_at(failures))
        assert run_cli(["certify", "--n-max", "16", "--points", "3",
                        "--workers", workers]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            "certified 13 (N, M) cases up to N=16 on a 3-point s grid\n"
            f"worst |dense - closed-form| discrepancy: {worst}\n"
            + "".join(f"also above tolerance at (N, M) = {case}\n" for case in others)
        )
        assert captured.err == "FAIL: above tolerance 1e-09\n"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_convergence_failure_is_one_error_line(self, workers, monkeypatch, capsys):
        def fail():
            raise ConvergenceFailure("eigensolve did not converge")

        monkeypatch.setattr(cli, "certify_reduction", self.failing_in_one_case(fail))
        assert run_cli(["certify", "--n-max", "16", "--points", "3",
                        "--workers", workers]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: eigensolve did not converge\n"


class TestWorkers:
    """Only certify runs its cases on a pool; no command's output depends on
    the worker count."""

    @pytest.mark.parametrize("argv", [
        ["certify", "--n-max", "16", "--points", "3"],
        ["bounds", "--m-rule", "all-divisors"],
        ["sweep", "--axis", "n", "--fixed", "1", "--simulate"],
    ], ids=["certify", "bounds", "sweep"])
    def test_workers_change_no_byte(self, argv, capsys):
        runs = []
        for workers in ("1", "2"):
            code = run_cli([*argv, "--workers", workers])
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][1]


class TestParser:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["teleport"])
        assert exc.value.code == 2

    # Each subcommand's option strings, apart from -h/--help.  A flag that a
    # handler does not read has no place here.
    OPTIONS = {
        "spectrum": {"--n", "--m", "--points", "--output", "--out", "--workers"},
        "bounds": {"--n-list", "--m-rule", "--output", "--out", "--workers"},
        "evolve": {"--n", "--m", "--c", "--steps", "--schedule",
                   "--repeat", "--max-rounds", "--seed", "--out", "--workers"},
        "sweep": {"--axis", "--fixed", "--grid", "--schedule", "--c",
                  "--simulate", "--output", "--out", "--workers"},
        "certify": {"--n-max", "--points", "--workers"},
    }

    def test_each_command_takes_only_its_own_flags(self):
        (commands,) = [action for action in cli._build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        found = {
            name: {opt for action in sub._actions for opt in action.option_strings}
            - {"-h", "--help"}
            for name, sub in commands.choices.items()
        }
        assert found == self.OPTIONS

    VALID = {
        "spectrum": ["spectrum", "--n", "4", "--m", "1", "--points", "3"],
        "bounds": ["bounds", "--n-list", "4"],
        "sweep": ["sweep", "--axis", "n", "--fixed", "1", "--grid", "64,128,256,512,1024"],
        "evolve": ["evolve", "--n", "4", "--m", "1"],
        "certify": ["certify", "--n-max", "4", "--points", "3"],
    }

    @pytest.mark.parametrize("command, flag, value", [
        ("spectrum", "--seed", "9"),
        ("bounds", "--seed", "9"),
        ("sweep", "--seed", "9"),
        ("certify", "--seed", "9"),
        ("evolve", "--output", "csv"),
        ("certify", "--output", "json"),
        ("certify", "--out", "PATH"),
        ("evolve", "--knots", "101"),
        ("sweep", "--knots", "101"),
        ("evolve", "--epsilon", "2"),
        ("sweep", "--epsilon", "2"),
        ("sweep", "--steps", "500"),
    ])
    def test_flag_the_command_does_not_read_is_rejected(
        self, command, flag, value, tmp_path, capsys
    ):
        out = tmp_path / "report.txt"
        assert run_cli(self.VALID[command]) == 0
        with pytest.raises(SystemExit) as exc:
            run_cli([*self.VALID[command], flag, str(out) if value == "PATH" else value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()


class TestUnwritableStdout:
    """A standard output that cannot be written is a usage error, in one line."""

    @staticmethod
    def run(argv, **streams):
        return subprocess.run([sys.executable, "-m", "padia", *argv], stderr=subprocess.PIPE,
                              text=True, env=fresh_env(), timeout=120, **streams)

    @pytest.mark.parametrize("command", sorted(TestParser.VALID))
    def test_closed_from_the_start(self, command):
        # With fd 1 closed at start-up, Python sets sys.stdout to None.
        result = self.run(TestParser.VALID[command], preexec_fn=lambda: os.close(1))
        assert result.returncode == 2
        assert result.stderr == "error: cannot write <stdout>: it is closed\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("command", sorted(TestParser.VALID))
    def test_full_device(self, command):
        with open("/dev/full", "w") as full:
            result = self.run(TestParser.VALID[command], stdout=full)
        assert result.returncode == 2
        assert result.stderr == f"error: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n"


class TestParserReuse:
    """``main`` may run many times in one process; no call sees another's parse."""

    REPEAT = ["evolve", "--n", "16", "--m", "1", "--repeat"]

    @pytest.fixture(scope="class")
    def fresh_repeat_output(self):
        """The output of REPEAT from a process that has parsed nothing else."""
        result = run_fresh(self.REPEAT)
        assert result.returncode == 0
        return result.stdout

    @pytest.mark.parametrize("command", sorted(TestParser.VALID))
    def test_same_argv_twice_gives_the_same_bytes(self, command, capsys):
        argv = TestParser.VALID[command]
        first = run_cli(argv), capsys.readouterr()
        second = run_cli(argv), capsys.readouterr()
        assert second == first

    @pytest.mark.parametrize("argv, code", [
        # Fails on --steps after --c, --seed and --repeat are already parsed.
        (["evolve", "--n", "4", "--m", "1", "--c", "4", "--seed", "3", "--repeat",
          "--steps", "x"], 2),
        (["evolve", "--c", "4", "--seed", "3", "--help"], 0),
    ])
    def test_exit_from_parse_leaves_next_call_fresh(
        self, argv, code, fresh_repeat_output, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == code
        capsys.readouterr()
        assert run_cli(self.REPEAT) == 0
        assert capsys.readouterr().out == fresh_repeat_output

    def test_explicit_flags_do_not_leak_into_the_next_call(self, capsys):
        assert run_cli(["evolve", "--n", "16", "--m", "1", "--c", "4", "--seed", "3",
                        "--repeat"]) == 0
        flagged = json.loads(capsys.readouterr().out)
        assert run_cli(self.REPEAT) == 0
        plain = json.loads(capsys.readouterr().out)
        assert flagged["total_time"] == 4 * plain["total_time"]
        assert plain["total_time"] == make_partial_schedule(make_instance(16, 1), 1.0).total_time
        assert (flagged["repeat"]["seed"], plain["repeat"]["seed"]) == (3, 0)

    def test_later_calls_build_no_parser(self, monkeypatch, capsys):
        run_cli(TestParser.VALID["evolve"])
        built = []

        class CountingParser(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(argparse, "ArgumentParser", CountingParser)
        assert run_cli(TestParser.VALID["evolve"]) == 0
        assert built == []


def readme_commands():
    """The argv of every ``padia ...`` line in README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("padia ")]


class TestReadme:
    def test_every_command_has_an_example(self):
        assert {argv[0] for argv in readme_commands()} == set(TestParser.OPTIONS)

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_example_runs(self, argv, capsys):
        assert run_cli(argv) == 0
