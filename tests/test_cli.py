import csv
import io
import json
import math

import pytest
from click.testing import CliRunner

from meandro.cli import _fmt, main


@pytest.fixture()
def runner():
    return CliRunner()


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


MEANDER = {"name": "meander", "x": 0.5, "c": 0.1, "alpha": 2, "lambda": 1.5}
QLOG = {"name": "qlog", "x": 0.5, "c": 0.05, "alpha": 2, "lambda": 1.5}


def test_eval_points(runner, tmp_path):
    cfg = _write_config(tmp_path, {"model": MEANDER, "eval": {"points": [[0.0, 0.0]]}})
    result = runner.invoke(main, ["eval", "--config", cfg, "--tol", "1e-12"])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert float(rows[0]["S_re"]) == pytest.approx(1.0, abs=1e-11)
    assert float(rows[0]["tail_bound"]) <= 1e-12
    assert rows[0]["status"] == "ok"


def test_eval_ray_emits_bridge_dataset(runner, tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "model": QLOG,
            "eval": {"ray": {"theta_turns": math.sqrt(2.0), "t_start": 0.0, "t_stop": 2.0, "t_step": 0.05}},
        },
    )
    result = runner.invoke(main, ["eval", "--config", cfg])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert len(rows) == 40
    assert all(row["status"] == "ok" for row in rows)


def test_eval_flagged_point_exit_code(runner, tmp_path):
    cfg = _write_config(tmp_path, {"model": QLOG, "eval": {"points": [[1.0, 0.0]]}})
    result = runner.invoke(main, ["eval", "--config", cfg])
    assert result.exit_code == 3
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert rows[0]["status"].startswith("pole_proximity")
    assert rows[0]["S_re"] == ""


def test_malformed_config_exit_two(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"model": {')
    result = runner.invoke(main, ["eval", "--config", str(path)])
    assert result.exit_code == 2


def test_schema_violation_exit_two(runner, tmp_path):
    cfg = _write_config(tmp_path, {"model": {"name": "meander", "lambda": 0.5}})
    result = runner.invoke(main, ["eval", "--config", cfg])
    assert result.exit_code == 2


def test_json_error_objects(runner, tmp_path):
    cfg = _write_config(tmp_path, {"model": MEANDER})  # no eval section
    result = runner.invoke(main, ["eval", "--config", cfg, "--json"])
    assert result.exit_code == 2
    payload = json.loads(result.stderr)
    assert payload["error"] == "config"


def test_jet_rows(runner, tmp_path):
    cfg = _write_config(tmp_path, {"model": MEANDER, "jet": {"z0": [0, 0], "order": 8}})
    result = runner.invoke(main, ["jet", "--config", cfg])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert len(rows) == 9
    assert float(rows[1]["a_re"]) == pytest.approx(-2.0, rel=1e-10)


def test_model_override_flag(runner, tmp_path):
    cfg = _write_config(tmp_path, {"eval": {"points": [[0.0, 0.0]]}, "model": MEANDER})
    result = runner.invoke(main, ["eval", "--config", cfg, "--model", "qlog", "--tol", "1e-12"])
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert float(rows[0]["S_re"]) == pytest.approx(-1.0, abs=1e-11)  # the q-log value


def test_polar_fiber_row(runner, tmp_path):
    cfg = _write_config(
        tmp_path,
        {"model": QLOG, "polar": {"mode": "fiber", "omega": [1.0, 0.0], "z": [2.0, 0.0]}},
    )
    result = runner.invoke(main, ["polar", "--config", cfg, "--tol", "1e-12"])
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert float(rows[0]["S_re"]) == pytest.approx(math.log(2.0), abs=1e-10)


def test_polar_laurent_rows(runner, tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "model": QLOG,
            "polar": {"mode": "laurent", "sheet": 3, "center": [1.0, 0.0], "r": 0.05, "k_min": -2, "k_max": 2},
        },
    )
    result = runner.invoke(main, ["polar", "--config", cfg])
    rows = {int(r["k"]): r for r in csv.DictReader(io.StringIO(result.output))}
    assert float(rows[-1]["c_re"]) == pytest.approx(0.5**3 / 3.0, abs=1e-10)


def test_polar_laurent_default_window(runner, tmp_path):
    # No k_min/k_max: the default window -8..8, where R**(-8) ~ 5e9 at
    # R = sqrt(1.5)*0.05 amplifies FFT round-off in the raw coefficients.
    cfg = _write_config(
        tmp_path,
        {"model": QLOG, "polar": {"mode": "laurent", "sheet": 3, "center": [1.0, 0.0], "r": 0.05}},
    )
    result = runner.invoke(main, ["polar", "--config", cfg])
    assert result.exit_code == 0
    rows = {int(r["k"]): r for r in csv.DictReader(io.StringIO(result.output))}
    assert sorted(rows) == list(range(-8, 9))
    assert float(rows[-1]["c_re"]) == pytest.approx(0.5**3 / 3.0, abs=1e-10)
    assert float(rows[-1]["c_im"]) == pytest.approx(0.0, abs=1e-10)
    for k in range(-8, -1):  # a simple pole: no deeper polar terms
        assert abs(complex(float(rows[k]["c_re"]), float(rows[k]["c_im"]))) <= 1e-10


def test_gevrey_summary(runner, tmp_path):
    cfg = _write_config(
        tmp_path,
        {"model": MEANDER, "gevrey": {"order": 24, "window": [5, 24], "z_values": [0.05, 0.1]}},
    )
    result = runner.invoke(main, ["gevrey", "--config", cfg])
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert rows[0]["verdict"] == "divergent-like"
    assert 0.85 <= float(rows[0]["fit_alpha"]) <= 1.15
    assert float(rows[1]["abs_error"]) > float(rows[0]["abs_error"])  # larger z, larger error


def test_curve_rows(runner, tmp_path):
    cfg = _write_config(
        tmp_path,
        {"curve": {"n": 3, "x_start": 0.05, "x_stop": 0.9, "x_count": 5}},
    )
    result = runner.invoke(main, ["curve", "--config", cfg])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert {r["x"] for r in rows} and all(r["z"] for r in rows)


def test_residual_grid(runner, tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "perforation": {"poles": "roots_of_unity", "radius": {"c": 0.05, "alpha": 2}, "lambda": 1.5},
            "residual": {
                "grid": {"re_start": 0.9, "re_stop": 1.1, "re_count": 3, "im_start": 0.0, "im_stop": 0.0, "im_count": 1},
                "margin": 0.0,
            },
        },
    )
    result = runner.invoke(main, ["residual", "--config", cfg, "--cutoff", "200"])
    rows = list(csv.DictReader(io.StringIO(result.output)))
    by_re = {float(r["z_re"]): r["status"] for r in rows}
    assert by_re[1.0] == "out"
    assert by_re[0.9] in ("in", "unknown") and by_re[1.1] in ("in", "unknown")


def test_covering_sweep(runner, tmp_path):
    cfg = _write_config(
        tmp_path,
        {"covering": {"alphas": [2, 3], "radii": [0.01, 0.001], "moduli": [0.2, 0.5, 0.9, 1.0], "angles": 360, "phase": 0.3}},
    )
    result = runner.invoke(main, ["covering", "--config", cfg])
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert len(rows) == 16
    statuses = {(int(r["alpha"]), float(r["r"]), float(r["omega_abs"])): r["status"] for r in rows}
    assert statuses[(3, 0.01, 0.2)].startswith("hypothesis_violated")
    assert sum(1 for s in statuses.values() if s == "pass") == 15


def test_csv_round_trip_is_byte_identical(runner, tmp_path):
    cfg = _write_config(
        tmp_path,
        {"model": QLOG, "eval": {"ray": {"theta_turns": math.sqrt(2.0), "t_stop": 1.0, "t_step": 0.1}}},
    )
    out = tmp_path / "rows.csv"
    result = runner.invoke(main, ["eval", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0
    original = out.read_bytes()

    # Re-ingest and re-emit with the same formatter.
    with open(out, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [
            [cell if i >= 6 else (float(cell) if cell else None) for i, cell in enumerate(row)]
            for row in reader
        ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(int(v) if i == 5 and v is not None else v) for i, v in enumerate(row)])
    assert buf.getvalue().encode() == original


def test_output_is_deterministic(runner, tmp_path):
    cfg = _write_config(
        tmp_path,
        {"model": QLOG, "eval": {"ray": {"theta_turns": math.sqrt(2.0), "t_stop": 1.5, "t_step": 0.05}}},
    )
    first = runner.invoke(main, ["eval", "--config", cfg]).output
    second = runner.invoke(main, ["eval", "--config", cfg]).output
    assert first == second


def test_json_format(runner, tmp_path):
    cfg = _write_config(tmp_path, {"model": MEANDER, "eval": {"points": [[0.0, 0.0]]}})
    result = runner.invoke(main, ["eval", "--config", cfg, "--format", "json"])
    payload = json.loads(result.output)
    assert payload["command"] == "eval"
    assert payload["rows"][0]["status"] == "ok"


def test_overflowing_jet_is_a_typed_error(runner, tmp_path):
    # At order 120 the meander terms overflow a float; the CLI reports it.
    cfg = _write_config(tmp_path, {"model": MEANDER, "jet": {"z0": [0, 0], "order": 120}})
    result = runner.invoke(main, ["jet", "--config", cfg, "--json"])
    assert result.exit_code == 1
    payload = json.loads(result.stderr)
    assert payload["error"] == "OutOfRegime"
    assert "sheet 9" in payload["detail"] and "order-120" in payload["detail"]


@pytest.mark.parametrize(
    "command, payload",
    [
        # The certified tails of orders near 60 overflow on the early sheets.
        ("jet", {"model": MEANDER, "jet": {"z0": [0, 0], "order": 60}}),
        # 7055 sheets: z**n itself would overflow from sheet 1106 on at z = 1.9.
        ("eval", {"model": dict(QLOG, x=0.99), "eval": {"points": [[1.9, 0.0], [0.3, 0.2]]}}),
    ],
)
def test_clean_runs_write_nothing_to_stderr(runner, tmp_path, command, payload):
    cfg = _write_config(tmp_path, payload)
    result = runner.invoke(main, [command, "--config", cfg])
    assert result.exit_code == 0
    assert result.stderr == ""
