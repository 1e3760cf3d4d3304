"""Power-law fitting, sweep records, and lossless emission."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padia import cli, sweeps
from padia.model import make_instance
from padia.spectrum import BoundReport, adiabatic_success_probability, bound_report, one_round_time
from padia.sweeps import (
    _BOUND_HEADER,
    _SWEEP_HEADER,
    DegenerateFit,
    SweepRecord,
    bound_columns,
    bound_reports_to_rows,
    csv_chunks,
    fit_loglog,
    json_chunks,
    make_sweep_record,
    rows_to_csv,
    run_parallel,
    sweep,
    sweep_columns,
    sweep_records_to_rows,
)


SWEEP_CSV_HEADER = (
    "n,m,schedule,g_min,t_prime,p_adiabatic,t_expected,"
    "ov_psi_minus,ov_beta_plus,bounds_hold,sim_success"
)


def rows_to_columns(rows):
    """Columns of rows that share one key order (the first row's)."""
    return {key: [row[key] for row in rows] for key in rows[0]} if rows else {}


def columns_to_csv(columns) -> str:
    return "".join(csv_chunks([columns]))


def columns_to_json(columns, extra=None) -> str:
    return "".join(json_chunks([columns], extra))


def split_columns(columns, cuts):
    """The table as blocks of its rows, cut at the sorted row indices ``cuts``."""
    bounds = [0, *cuts, len(next(iter(columns.values())))]
    return [
        {key: column[start:stop] for key, column in columns.items()}
        for start, stop in zip(bounds, bounds[1:])
    ]


def reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def reference_csv(rows) -> str:
    """The row-by-row, cell-by-cell CSV loop the column writer replaced."""
    if not rows:
        return ""
    header = list(rows[0].keys())
    lines = [",".join(header)]
    lines.extend(",".join(reference_cell(row[key]) for key in header) for row in rows)
    return "\n".join(lines) + "\n"


def reference_json(rows, extra=None) -> str:
    payload = {"records": rows}
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2) + "\n"


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                  2.2250738585072014e-308, 1e-310, 1.7976931348623157e308]
any_floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2**70, max_value=2**70), any_floats,
    st.text(max_size=5),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)
cells = st.one_of(json_scalars, st.lists(json_scalars, max_size=2),
                  st.dictionaries(st.text(max_size=3), json_scalars, max_size=2))
keys = st.one_of(st.text(max_size=6), st.sampled_from(["%", "%r", "100%s", 'q"t', "\u00e9"]))
COLUMN_KINDS = {
    "float": any_floats,
    "finite": st.floats(allow_nan=False, allow_infinity=False),
    "int": st.integers(min_value=-2**64, max_value=2**64),
    "bool": st.booleans(),
    "mixed": cells,
}


@st.composite
def tables(draw):
    """(columns, rows): the same table column-wise and as row dicts."""
    names = draw(st.lists(keys, min_size=1, max_size=5, unique=True))
    n_rows = draw(st.sampled_from([0, 1, draw(st.integers(min_value=2, max_value=12))]))
    columns = {}
    for name in names:
        values = COLUMN_KINDS[draw(st.sampled_from(sorted(COLUMN_KINDS)))]
        columns[name] = draw(st.lists(values, min_size=n_rows, max_size=n_rows))
    rows = [{name: columns[name][i] for name in names} for i in range(n_rows)]
    return columns, rows


def as_arrays(columns):
    """Each all-float, all-int64 or all-bool column as a numpy array."""
    arrays = {}
    for name, values in columns.items():
        kinds = {type(value) for value in values}
        if kinds == {float}:
            arrays[name] = np.array(values, dtype=np.float64)
        elif kinds == {int} and all(-2**63 <= value < 2**63 for value in values):
            arrays[name] = np.array(values, dtype=np.int64)
        elif kinds == {bool}:
            arrays[name] = np.array(values, dtype=np.bool_)
        else:
            arrays[name] = values
    return arrays


extras = st.dictionaries(keys.filter(lambda k: k != "records"), json_values, max_size=3)


class TestFitLogLog:
    def test_identity(self):
        fit = fit_loglog([1.0, 2.0, 4.0, 8.0], [1.0, 2.0, 4.0, 8.0])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_inverse_with_prefactor(self):
        xs = [1.0, 2.0, 4.0, 8.0, 16.0]
        fit = fit_loglog(xs, [7.0 / x for x in xs])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_square_root_with_noise(self):
        rng = np.random.default_rng(42)
        xs = np.geomspace(1.0, 1e4, 25)
        ys = np.sqrt(xs) * (1.0 + 0.01 * rng.standard_normal(25))
        fit = fit_loglog(list(xs), list(ys))
        assert 0.45 <= fit.slope <= 0.55
        assert fit.r_squared > 0.99

    def test_flat_response(self):
        fit = fit_loglog([1.0, 2.0, 4.0], [5.0, 5.0, 5.0])
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateFit):
            fit_loglog([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])

    def test_validations(self):
        with pytest.raises(ValueError):
            fit_loglog([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_loglog([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_loglog([0.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="strictly positive"):
                fit_loglog([1.0, 2.0, 3.0], [1.0, bad, 3.0])
            with pytest.raises(ValueError, match="strictly positive"):
                fit_loglog([1.0, 2.0, bad], [1.0, 2.0, 3.0])


class TestSweepRecord:
    def test_partial_record_identities(self):
        inst = make_instance(256, 4)
        record = make_sweep_record(inst)
        assert record.schedule_kind == "partial"
        assert record.t_prime == one_round_time(inst)
        assert record.p_adiabatic == adiabatic_success_probability(inst)
        assert record.t_expected == pytest.approx(
            record.t_prime / record.p_adiabatic, rel=1e-12
        )
        assert record.bounds_hold
        assert record.sim_success is None

    def test_local_record_uses_schedule_duration(self):
        record = make_sweep_record(make_instance(256, 4), schedule_kind="local_adiabatic")
        assert record.p_adiabatic == 1.0
        assert record.t_prime == pytest.approx(11.655162414955429, rel=1e-6)
        assert record.t_expected == record.t_prime

    def test_simulated_success_attached(self):
        record = make_sweep_record(make_instance(16, 4), time_multiplier=2.0, simulate=True)
        assert record.sim_success is not None
        assert 0.0 <= record.sim_success <= 1.0

    def test_unknown_schedule(self):
        with pytest.raises(ValueError):
            make_sweep_record(make_instance(16, 4), schedule_kind="warp")


class TestSweep:
    def test_n_axis_partial(self):
        records, fit = sweep("n", 1, [64, 128, 256, 512, 1024])
        assert [r.n_items for r in records] == [64, 128, 256, 512, 1024]
        assert all(r.n_marked == 1 for r in records)
        assert 0.45 <= fit.slope <= 0.55

    def test_m_axis_partial(self):
        records, fit = sweep("m", 4096, [1, 2, 4, 8, 16])
        assert [r.n_marked for r in records] == [1, 2, 4, 8, 16]
        assert fit.slope < -0.5

    def test_workers_do_not_change_output(self):
        grid = [64, 128, 256, 512, 1024]
        solo, fit_solo = sweep("n", 1, grid, workers=1)
        multi, fit_multi = sweep("n", 1, grid, workers=4)
        assert solo == multi
        assert fit_solo == fit_multi

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep("n", 1, [64, 128])
        with pytest.raises(ValueError):
            sweep("q", 1, [64, 128, 256, 512, 1024])

    def test_run_parallel_preserves_order(self):
        items = list(range(20))
        assert run_parallel(lambda x: x * x, items, workers=3) == [x * x for x in items]


class TestEmission:
    def test_csv_header_is_exact(self):
        records, _ = sweep("n", 1, [64, 128, 256, 512, 1024])
        text = rows_to_csv(sweep_records_to_rows(records))
        assert text.splitlines()[0] == SWEEP_CSV_HEADER

    def test_csv_floats_round_trip(self):
        records, _ = sweep("n", 1, [64, 128, 256, 512, 1024])
        text = rows_to_csv(sweep_records_to_rows(records))
        header, *lines = text.strip().splitlines()
        columns = header.split(",")
        parsed = dict(zip(columns, lines[0].split(",")))
        record = records[0]
        assert float(parsed["t_expected"]) == record.t_expected
        assert float(parsed["p_adiabatic"]) == record.p_adiabatic
        assert float(parsed["g_min"]) == record.g_min
        assert parsed["bounds_hold"] == "true"
        assert parsed["sim_success"] == ""

    def test_csv_and_json_values_identical(self):
        records, _ = sweep("n", 1, [64, 128, 256, 512, 1024])
        rows = sweep_records_to_rows(records)
        csv_lines = rows_to_csv(rows).strip().splitlines()
        json_rows = json.loads(json.dumps({"records": rows}))["records"]
        columns = csv_lines[0].split(",")
        for line, json_row in zip(csv_lines[1:], json_rows):
            csv_row = dict(zip(columns, line.split(",")))
            for key in ("g_min", "t_prime", "p_adiabatic", "t_expected",
                        "ov_psi_minus", "ov_beta_plus"):
                assert float(csv_row[key]) == json_row[key]
            assert (csv_row["bounds_hold"] == "true") == json_row["bounds_hold"]

    def test_empty_rows(self):
        assert rows_to_csv([]) == ""

    @given(tables())
    @settings(max_examples=300, deadline=None)
    def test_csv_writer_matches_row_loop(self, table):
        columns, rows = table
        assert columns_to_csv(columns) == reference_csv(rows)
        assert rows_to_csv(rows) == reference_csv(rows)

    @given(tables(), extras)
    @settings(max_examples=300, deadline=None)
    def test_json_writer_matches_json_dumps(self, table, extra):
        columns, rows = table
        assert columns_to_json(columns, extra) == reference_json(rows, extra)
        assert columns_to_json(rows_to_columns(rows)) == reference_json(rows)

    @given(
        tables(),
        st.booleans(),
        st.integers(min_value=1, max_value=3),
        st.one_of(st.none(), extras),
    )
    @settings(max_examples=300, deadline=None)
    def test_blocks_join_to_the_row_loop(self, table, arrays, block_rows, extra):
        columns, rows = table
        if arrays:
            columns = as_arrays(columns)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweeps, "BLOCK_ROWS", block_rows)
            assert columns_to_csv(columns) == reference_csv(rows)
            assert columns_to_json(columns, extra) == reference_json(rows, extra)

    @given(st.lists(any_floats, max_size=12), st.lists(any_floats, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_numpy_columns_match_python_floats(self, xs, ys):
        n = min(len(xs), len(ys))
        columns = {"x": np.array(xs[:n]), "y": np.array(ys[:n])}
        rows = [{"x": x, "y": y} for x, y in zip(xs[:n], ys[:n])]
        assert columns_to_csv(columns) == reference_csv(rows)
        assert columns_to_json(columns) == reference_json(rows)

    @pytest.mark.parametrize("rows", [
        [],
        [{"s": -0.0, "flag": True, "n": 3, "label": "x", "none": None}],
        [{"v": math.nan, "w": 5e-324}, {"v": math.inf, "w": -math.inf}],
    ])
    def test_small_tables(self, rows):
        extra = {"fit": {"slope": -0.5, "axis": "log t vs log n"}}
        assert columns_to_csv(rows_to_columns(rows)) == reference_csv(rows)
        assert columns_to_json(rows_to_columns(rows), extra) == reference_json(rows, extra)

    def test_sweep_table_with_fit(self):
        records, fit = sweep("n", 1, [64, 128, 256, 512, 1024])
        rows = sweep_records_to_rows(records)
        extra = {"fit": {"slope": fit.slope, "intercept": fit.intercept,
                         "r_squared": fit.r_squared, "axis": fit.axis}}
        assert columns_to_json(sweep_columns(records), extra) == reference_json(rows, extra)

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            columns_to_csv({"a": [1.0, 2.0], "b": [1.0]})


class TestTableSchema:
    """Each table's header is defined once, in field order of its record."""

    SWEEP_FIELDS = (
        ("n", "n_items"), ("m", "n_marked"), ("schedule", "schedule_kind"),
        ("g_min", "g_min"), ("t_prime", "t_prime"), ("p_adiabatic", "p_adiabatic"),
        ("t_expected", "t_expected"), ("ov_psi_minus", "ov_psi_minus"),
        ("ov_beta_plus", "ov_beta_plus"), ("bounds_hold", "bounds_hold"),
        ("sim_success", "sim_success"),
    )
    BOUND_FIELDS = (
        ("ov_psi_minus", "ov_psi_at_s_minus"), ("ov_beta_plus", "ov_beta_at_s_plus"),
        ("p_one_round", "p_one_round"), ("window_factor", "window_factor"),
        ("alpha_weight", "alpha_weight"), ("beta_weight", "beta_weight"),
        ("end_ratio", "end_ratio"), ("bounds_hold", "all_bounds_hold"),
    )

    def test_sweep_header_lines_up_with_the_record(self):
        assert len(_SWEEP_HEADER) == len(SweepRecord._fields)
        assert tuple(zip(_SWEEP_HEADER, SweepRecord._fields)) == self.SWEEP_FIELDS
        assert ",".join(_SWEEP_HEADER) == SWEEP_CSV_HEADER

    def test_bound_header_lines_up_with_the_report(self):
        assert _BOUND_HEADER[:2] == ("n", "m")
        assert len(_BOUND_HEADER) == 10
        assert tuple(zip(_BOUND_HEADER[2:], BoundReport._fields[:8])) == self.BOUND_FIELDS

    @staticmethod
    def emitted_table(monkeypatch, argv):
        """The one block of columns that ``padia <argv>`` hands to its writer."""
        tables = []
        monkeypatch.setattr(cli, "_emit_table", lambda table, *_: tables.append(list(table)))
        assert cli.main(argv) == 0
        [[columns]] = tables
        return columns

    def test_sweep_rows_transpose_to_the_cli_columns(self, monkeypatch):
        grid = [64, 128, 256, 512, 1024]
        records, _ = sweep("n", 1, grid)
        argv = ["sweep", "--axis", "n", "--fixed", "1", "--grid", ",".join(map(str, grid))]
        columns = self.emitted_table(monkeypatch, argv)
        assert columns == sweep_columns(records)
        assert {key: list(column) for key, column in columns.items()} == rows_to_columns(
            sweep_records_to_rows(records)
        )

    def test_bound_rows_transpose_to_the_cli_columns(self, monkeypatch):
        cases = [(n, m) for n in (4, 16, 64) for m in range(1, n + 1) if n % m == 0]
        triples = [(n, m, bound_report(make_instance(n, m))) for n, m in cases]
        columns = self.emitted_table(
            monkeypatch, ["bounds", "--n-list", "4,16,64", "--m-rule", "all-divisors"]
        )
        assert columns == bound_columns(triples)
        assert {key: list(column) for key, column in columns.items()} == rows_to_columns(
            bound_reports_to_rows(triples)
        )


class TestBlocks:
    """A table given as several column blocks prints as the same table in one."""

    @given(
        st.integers(min_value=1, max_value=12),
        st.data(),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.booleans(),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_special_float_in_one_block(self, n_rows, data, special, arrays, block_rows):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        columns = {
            "x": data.draw(st.lists(finite, min_size=n_rows, max_size=n_rows)),
            "y": data.draw(st.lists(finite, min_size=n_rows, max_size=n_rows)),
        }
        columns["y"][data.draw(st.integers(min_value=0, max_value=n_rows - 1))] = special
        if arrays:
            columns = {key: np.array(column) for key, column in columns.items()}
        cuts = sorted(data.draw(st.lists(st.integers(min_value=0, max_value=n_rows), max_size=4)))
        blocks = split_columns(columns, cuts)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweeps, "BLOCK_ROWS", block_rows)
            assert "".join(csv_chunks(blocks)) == columns_to_csv(columns)
            assert "".join(json_chunks(blocks, {"k": 1})) == columns_to_json(columns, {"k": 1})

    @given(tables(), st.data(), st.one_of(st.none(), extras))
    @settings(max_examples=200, deadline=None)
    def test_empty_blocks_change_nothing(self, table, data, extra):
        columns, rows = table
        cuts = sorted(data.draw(st.lists(st.integers(min_value=0, max_value=len(rows)),
                                         max_size=5)))
        blocks = split_columns(columns, cuts)  # repeated and end cuts make empty blocks
        assert "".join(csv_chunks(blocks)) == reference_csv(rows)
        assert "".join(json_chunks(blocks, extra)) == reference_json(rows, extra)

    @pytest.mark.parametrize("blocks", [
        [],
        [{"a": [], "b": []}],
        [{"a": [], "b": []}, {"a": [], "b": []}],
    ], ids=["no-blocks", "one-empty", "two-empty"])
    def test_table_without_rows(self, blocks):
        assert "".join(csv_chunks(blocks)) == ""
        assert "".join(json_chunks(blocks)) == '{\n  "records": []\n}\n'
        assert "".join(json_chunks(blocks, {"fit": 1})) == reference_json([], {"fit": 1})

    @pytest.mark.parametrize("later", [
        {"b": [2.0], "a": [2.0]},
        {"a": [2.0]},
        {"a": [2.0], "b": [2.0], "c": [2.0]},
        {"a": [2.0], "c": [2.0]},
    ], ids=["order", "fewer", "more", "other"])
    @pytest.mark.parametrize("chunks", [csv_chunks, json_chunks])
    def test_later_block_with_other_keys_raises(self, chunks, later):
        blocks = [{"a": [1.0], "b": [1.0]}, later]
        text = chunks(blocks)
        with pytest.raises(ValueError, match="block keys"):
            "".join(text)

    @pytest.mark.parametrize("chunks", [csv_chunks, json_chunks])
    def test_first_block_is_checked_when_called(self, chunks):
        def blocks():
            yield {"a": [1.0, 2.0], "b": [1.0]}
            raise AssertionError("a later block was read")

        with pytest.raises(ValueError, match="columns differ in length"):
            chunks(blocks())
