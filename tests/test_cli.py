"""End-to-end checks of the command-line surface and its exit-code contract."""

import csv
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from padia import cli
from padia.model import make_instance
from padia.spectrum import BoundReport, bound_report, spectral_point
from padia.sweeps import (
    bound_reports_to_rows,
    spectral_points_to_rows,
    sweep,
    sweep_records_to_rows,
)


def run_cli(args):
    return cli.main(args)


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
        subprocess.run([sys.executable, str(script), "--outdir", str(tmp_path)],
                       check=True, capture_output=True)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.SCALING
        }
        assert digests == self.SCALING

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bounds_all_divisors(self, fmt, capsys):
        assert run_cli(["bounds", "--m-rule", "all-divisors", "--output", fmt]) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == self.BOUNDS[fmt]


class TestAtomicOut:
    def test_failed_run_keeps_existing_file(self, tmp_path):
        out = tmp_path / "table.csv"
        out.write_text("previous\n")
        assert run_cli(["spectrum", "--n", "4", "--m", "9", "--out", str(out)]) == 2
        assert out.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["table.csv"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        out = tmp_path / "table.csv"
        out.write_text("previous\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            run_cli(["spectrum", "--n", "4", "--m", "1", "--out", str(out)])
        assert out.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["table.csv"]

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
        # The unitary propagator keeps the norm; the step-halving estimate
        # is what refuses this grid.
        assert run_cli(["evolve", "--n", "64", "--m", "1", "--c", "64",
                        "--steps", "10"]) == 1
        assert "error estimate" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_state_exit_code(self, capsys):
        assert run_cli(["evolve", "--n", "64", "--m", "1", "--c", "1e9",
                        "--steps", "10"]) == 1
        assert "error estimate" in capsys.readouterr().err

    def test_blown_up_run_prints_only_the_error(self):
        # numpy warnings go to the real stderr of a fresh process, which the
        # in-process capture above would not show.
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "padia", "evolve", "--n", "64", "--m", "1",
             "--c", "1e9", "--steps", "10"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 1
        # The estimate's digits depend on libm's sin/cos at angles near 4e8.
        assert re.fullmatch(
            r"error: error estimate is \S+ after 10 steps over duration 8e\+09; "
            r"increase steps\n",
            result.stderr,
        )

    def test_reports_error_estimate(self, capsys):
        assert run_cli(["evolve", "--n", "64", "--m", "1", "--c", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steps"] == 2048  # 64 per unit time over 32
        assert 0.0 <= payload["error_estimate"] < 1e-9
        assert list(payload)[5:9] == [
            "success_probability", "ground_fidelity", "norm_drift", "error_estimate"
        ]

    def test_oversized_run_is_usage_error(self, capsys):
        # The local schedule at N = 2^42 would need over 10^10 steps.
        assert run_cli(["evolve", "--n", "4398046511104", "--m", "1",
                        "--schedule", "local"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: \d+ steps over duration \S+ exceed the cap of 100000000 steps\n", err
        )

    def test_rejects_bad_numeric_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["evolve", "--n", "abc", "--m", "1"])
        assert exc.value.code == 2


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

    def test_grid_validation(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["sweep", "--axis", "n", "--fixed", "1", "--grid", "64,128"])
        assert exc.value.code == 2


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


class TestParser:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["teleport"])
        assert exc.value.code == 2
