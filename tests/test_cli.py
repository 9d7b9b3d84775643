import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from jsonschema.validators import validator_for

import meandro
from meandro.cli import CONFIG_SCHEMA, _fmt, main
from meandro.errors import ConfigError
from meandro.geometry import PERFORATION_SCHEMA, perforation_from_config


@pytest.fixture()
def runner():
    return CliRunner()


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


MEANDER = {"name": "meander", "x": 0.5, "c": 0.1, "alpha": 2, "lambda": 1.5}
QLOG = {"name": "qlog", "x": 0.5, "c": 0.05, "alpha": 2, "lambda": 1.5}
ROOTS = {"poles": "roots_of_unity", "radius": {"c": 0.05, "alpha": 2}, "lambda": 1.5}
GRID = {"re_start": 1.01, "re_stop": 1.01, "re_count": 1, "im_start": 0, "im_stop": 0, "im_count": 1}


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


def test_schemas_are_valid_json_schemas():
    # The CLI validates configs without re-checking its own schemas.
    for schema in (CONFIG_SCHEMA, PERFORATION_SCHEMA):
        validator_for(schema).check_schema(schema)


def test_schema_rejections_name_the_best_match(runner, tmp_path):
    grid = {"re_start": 0, "re_stop": 1, "re_count": 2, "im_start": 0, "im_stop": 1}
    cfg = _write_config(tmp_path, {"perforation": ROOTS, "residual": {"grid": grid}})
    result = runner.invoke(main, ["residual", "--config", cfg])
    assert result.exit_code == 2
    assert result.output == "error (config): config rejected by schema: 'im_count' is a required property\n"
    for poles, message in (
        ("circle", "'circle' is not valid under any of the given schemas"),
        ({"explicit": [[1, 0.5]]}, "[1, 0.5] is too short"),
    ):
        with pytest.raises(ConfigError) as err:
            perforation_from_config(dict(ROOTS, poles=poles))
        assert str(err.value) == f"invalid perforation config: {message}"


@pytest.mark.parametrize(
    "command, payload, option",
    [
        ("residual", {"perforation": ROOTS, "residual": {"grid": GRID}}, ["--cutoff", "-5"]),
        ("residual", {"perforation": ROOTS, "residual": {"grid": GRID}}, ["--cutoff", "0"]),
        ("eval", {"model": MEANDER, "eval": {"points": [[0.0, 0.0]]}}, ["--tol", "-1"]),
    ],
    ids=["negative-cutoff", "zero-cutoff", "negative-tol"],
)
def test_out_of_range_cutoff_or_tol_is_a_usage_error(runner, tmp_path, command, payload, option):
    cfg = _write_config(tmp_path, payload)
    result = runner.invoke(main, [command, "--config", cfg, *option])
    assert result.exit_code == 2
    assert f"Invalid value for '{option[0]}'" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "model, message",
    [
        ({"name": "meander", "x": 1.5}, "invalid meander model: meander series needs |x| < 1"),
        ({"name": "qlog", "c": 2}, "invalid qlog model: need 0 < c <= 1"),
        # A field the model does not read is refused, not dropped.
        ({"name": "zero_sum_general", "poles": [0.5], "c": 0.05},
         "the zero_sum_general model reads no field 'c'"),
    ],
    ids=["meander-x", "qlog-c", "zero-sum-general-c"],
)
def test_model_parameter_a_model_refuses_is_a_config_error(runner, tmp_path, model, message):
    # The schema admits these values; the model constructor refuses them.
    cfg = _write_config(tmp_path, {"model": model, "eval": {"points": [[0.1, 0.0]]}})
    result = runner.invoke(main, ["eval", "--config", cfg])
    assert result.exit_code == 2
    assert result.output.startswith(f"error (config): {message}")
    assert result.exception is None or isinstance(result.exception, SystemExit)


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


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("curve", {"curve": {"n": 40}}, "config rejected by schema: 40 is greater than the maximum of 39"),
        ("polar", {"model": QLOG, "polar": {"mode": "laurent", "sheet": 3, "center": [1.0, 0.0], "r": 0.05,
                                            "k_min": 2, "k_max": -2}},
         "polar laurent needs k_min <= k_max, got 2 > -2"),
        ("polar", {"model": {"name": "zero_sum_general", "poles": [0.5, 0.25]},
                   "polar": {"mode": "laurent", "sheet": 5, "center": [0.1, 0.0], "r": 0.01}},
         "the model has no sheet 5 (its sheets run 0 to 1)"),
        ("polar", {"model": QLOG, "polar": {"mode": "laurent", "sheet": 0, "center": [0.1, 0.0], "r": 0.01}},
         "the model has no sheet 0 (its sheets run from 1)"),
        ("polar", {"model": MEANDER, "polar": {"mode": "fiber", "omega": [0.3, 0.1], "z": [0.1, 0.1]}},
         "invalid polar fiber: (0.3+0.1j) is not a pole projection of this family"),
        ("covering", {"covering": {"radii": [1.5]}}, "config rejected by schema: 1.5 is greater than the maximum of 1"),
        # 2.0**alpha overflows from alpha = 1024 on.
        ("covering", {"covering": {"alphas": [2, 2000]}},
         "config rejected by schema: 2000 is greater than the maximum of 1023"),
        # The pole -0.5 of sheet 2 lies in 0.49 < |z| < 0.735.
        ("polar", {"model": MEANDER, "polar": {"mode": "laurent", "sheet": 2, "center": 0, "r": 0.49}},
         "the annulus 0.49 < |z - 0j| < 0.735 holds the pole (-0.5+0j) of sheet 2, "
         "so no Laurent expansion exists there"),
        # Rays are refused on their point count, before numpy allocates
        # anything: 2e17 points would take 1.39 EiB, 2e300 more than numpy allows.
        ("eval", {"model": MEANDER, "eval": {"ray": {"t_step": 1e-300}}},
         "the eval ray from 0 to 2 in steps of 1e-300 has more than 100000 points"),
        ("eval", {"model": MEANDER, "eval": {"ray": {"t_step": 1e-17}}},
         "the eval ray from 0 to 2 in steps of 1e-17 has more than 100000 points"),
        ("residual", {"perforation": ROOTS, "residual": {"grid": dict(GRID, re_start=-1e308, re_stop=1e308,
                                                                       re_count=2)}},
         "the residual grid's real part from -1e+308 to 1e+308 leaves the float range"),
        ("curve", {"curve": {"n": 3, "x_start": -1e308, "x_stop": 1e308, "x_count": 3}},
         "the curve x grid from -1e+308 to 1e+308 leaves the float range"),
        # Grids too are refused on their point count before numpy sees them.
        ("residual", {"perforation": ROOTS, "residual": {"grid": dict(GRID, re_count=10**20)}},
         "the residual grid of 100000000000000000000 by 1 points has more than 100000 points"),
        ("curve", {"curve": {"n": 3, "x_count": 10**20}},
         "the curve x grid has 100000000000000000000 points, more than 100000"),
    ],
    ids=["curve-degree", "laurent-window", "laurent-sheet-past-the-last", "laurent-sheet-before-the-first",
         "fiber-omega", "covering-radius", "covering-exponent", "laurent-annulus-holds-a-pole",
         "eval-ray-too-long", "eval-ray-past-memory", "residual-grid-past-the-float-range", "curve-grid-past-the-float-range",
         "residual-grid-too-large", "curve-grid-too-large"],
)
def test_inputs_a_command_refuses_are_config_errors(runner, tmp_path, command, payload, message):
    cfg = _write_config(tmp_path, payload)
    result = runner.invoke(main, [command, "--config", cfg])
    assert result.exit_code == 2
    assert result.stderr == f"error (config): {message}\n"
    assert "Traceback" not in result.stderr


_DIOPHANTINE = {"c": 0.1, "alpha": 2}


@pytest.mark.parametrize(
    "poles, radius, message",
    [
        ({"explicit": [[-1, 0.5, 0]]}, _DIOPHANTINE, "sheet indices must be non-negative"),
        ({"explicit": [[1, 0.5, 0], [1, 0.5, 0]]}, _DIOPHANTINE, "poles on sheet 1 must be distinct"),
        ("meander", {"table": {"x": 0.1}}, "invalid literal for int() with base 10: 'x'"),
        ("meander", {"table": {"1": 5}}, "radius on sheet 1 must lie in (0, 1]"),
        ("meander", {"c": 5, "alpha": 2}, "need 0 < c <= 1 so that every sheet radius is <= 1"),
        ({"explicit": [[1e300, 0.5, 0]]}, _DIOPHANTINE, "too large"),
        ({"explicit": [[0, 0.5, 0]]}, _DIOPHANTINE, "Diophantine radii start on sheet 1, and the poles on sheet 0"),
        ({"explicit": [[1.5, 0.5, 0]]}, _DIOPHANTINE, "sheet index 1.5 is not an integer"),
    ],
    ids=["negative-sheet", "repeated-pole", "table-key", "table-radius", "diophantine-c", "huge-sheet",
         "sheet-0-diophantine", "non-integral-sheet"],
)
def test_a_perforation_its_family_refuses_is_a_config_error(runner, tmp_path, poles, radius, message):
    perforation = {"poles": poles, "radius": radius, "lambda": 1.5}
    with pytest.raises(ConfigError) as err:
        perforation_from_config(perforation)
    assert str(err.value).startswith("invalid perforation config: ") and message in str(err.value)
    cfg = _write_config(tmp_path, {"perforation": perforation, "residual": {"grid": GRID}})
    result = runner.invoke(main, ["residual", "--config", cfg])
    assert result.exit_code == 2
    assert result.stderr == f"error (config): {err.value}\n"


@pytest.mark.parametrize(
    "command, payload, detail",
    [
        # The radius of sheet 2 is past the float range, and so are the tails.
        ("eval", {"model": dict(MEANDER, alpha=1e308), "eval": {"points": [0.1]}},
         "OutOfRegime: the radius c/(n + shift)**alpha is below the float range on sheet 2 (alpha = 1e+308)"),
        ("eval", {"model": {"name": "zero_sum_general", "poles": [1e-320, 0.5]}, "eval": {"points": [0.1]}},
         "OutOfRegime: the coefficient a_1 overflows a float: a pole is too small"),
        ("eval", {"model": {"name": "zero_sum_general", "poles": [1e-200, 1e-200, 0.5]}, "eval": {"points": [0.1]}},
         "OutOfRegime: the coefficient a_2 overflows a float: a pole is too small"),
        # The scalar term divides by zero at z0; the removed disc about 1 holds z0.
        ("jet", {"model": {"name": "zero_sum_general", "poles": [1.0]},
                 "jet": {"z0": [1, 1e-320], "order": 2}},
         "PoleProximity: point inside removed disc around (1+0j) on sheet 0"),
    ],
    ids=["meander-alpha", "zero-sum-overflow", "zero-sum-zero-division", "zero-sum-jet-at-a-pole"],
)
def test_model_arithmetic_past_the_float_range_is_a_typed_error(runner, tmp_path, command, payload, detail):
    cfg = _write_config(tmp_path, payload)
    result = runner.invoke(main, [command, "--config", cfg])
    assert result.exit_code == 1
    kind, message = detail.split(": ", 1)
    assert result.stderr == f"error ({kind}): {message}\n"


def test_a_covering_modulus_past_the_float_range_violates_the_hypothesis(runner, tmp_path):
    cfg = _write_config(tmp_path, {"covering": {"alphas": [2], "radii": [0.01], "moduli": [1e308], "angles": 8}})
    result = runner.invoke(main, ["covering", "--config", cfg])
    assert result.exit_code == 0
    [row] = csv.DictReader(io.StringIO(result.stdout))
    assert row["status"] == "hypothesis_violated:|omega| = 1e+308 > 1"


def test_a_norm_bound_sample_on_a_pole_is_out_of_regime(runner, tmp_path):
    # Sheet 1's removed discs have radius 0.05/2**1000.  A sampled norm bound
    # once put rim samples onto the poles 1 and 1/2 and refused this point as
    # OutOfRegime; no norm bound is sampled any more: the remainder
    # 2*|P_1| ~ 2e-200 stops the sum at sheet 0, whose term is 1/(1 - z).
    payload = {"model": {"name": "zero_sum_pik", "alpha": 1000}, "eval": {"points": [[0, 1e-200]]}}
    result = runner.invoke(main, ["eval", "--config", _write_config(tmp_path, payload), "--json"])
    assert result.exit_code == 0
    assert result.stderr == ""
    [row] = csv.DictReader(io.StringIO(result.stdout))
    assert (row["S_re"], row["S_im"], row["terms_used"], row["status"]) == ("1", "9.9999999999999998e-201", "0", "ok")
    assert 2e-200 <= float(row["tail_bound"]) <= 2.0000001e-200


def test_pik_eval_in_the_right_half_plane_diverges(runner, tmp_path):
    payload = {"model": {"name": "zero_sum_pik"}, "eval": {"points": [[-0.3, 0], [0.05, 0.05]]}}
    result = runner.invoke(main, ["eval", "--config", _write_config(tmp_path, payload)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error (NonConvergent): the pi_k series diverges at (0.05+0.05j): |P_N| grows like N**10\n"


def test_a_pik_jet_past_sheet_170_ends_cleanly(runner, tmp_path):
    # Sheet 171 once ended this jet with OutOfRegime: its derivative terms formed 171! as a float.
    payload = {"model": {"name": "zero_sum_pik"}, "jet": {"z0": [-0.3, 0], "order": 2}}
    result = runner.invoke(main, ["jet", "--config", _write_config(tmp_path, payload)])
    assert result.exit_code in (0, 1)
    if result.exit_code == 1:
        assert result.stderr.startswith("error (TolUnreachable): ")


def test_a_laurent_circle_that_rounds_onto_its_centre_is_out_of_regime(runner, tmp_path):
    # 2 + R*cos(theta) rounds to 2 at R = sqrt(1.5)*1e-100; the window -2..3
    # stays finite and settles, with c_1 half of f'(2).
    cfg = _write_config(tmp_path, {"model": QLOG, "polar": {"mode": "laurent", "sheet": 3, "center": 2, "r": 1e-100,
                                                           "k_min": -2, "k_max": 3}})
    result = runner.invoke(main, ["polar", "--config", cfg])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (
        "error (OutOfRegime): the radius 1e-100 is below 64 ulps of |center| = 2, "
        "so the quadrature nodes round onto too few points\n"
    )


@pytest.mark.parametrize("r, k", [(1e-320, 1), (1e-200, 2)])
def test_a_laurent_coefficient_past_the_float_range_is_out_of_regime(runner, tmp_path, r, k):
    # R**-k overflows on the quadrature circle of radius sqrt(1.5)*r.
    cfg = _write_config(tmp_path, {"model": QLOG, "polar": {"mode": "laurent", "sheet": 3, "center": 2, "r": r}})
    result = runner.invoke(main, ["polar", "--config", cfg])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith(f"error (OutOfRegime): the Laurent coefficient c_{k} on the radius ")
    assert result.stderr.count("\n") == 1


_EVERY_COMMAND = {"--config", "--out", "--format", "--json"}


@pytest.mark.parametrize(
    "command, reads",
    [
        ("eval", {"--model", "--tol", "--cutoff"}),
        ("jet", {"--model", "--tol", "--cutoff"}),
        ("polar", {"--model", "--tol", "--cutoff"}),
        ("gevrey", {"--model", "--tol", "--cutoff"}),
        ("residual", {"--cutoff"}),
        ("curve", set()),
        ("covering", set()),
    ],
    ids=["eval", "jet", "polar", "gevrey", "residual", "curve", "covering"],
)
def test_each_command_takes_only_the_options_it_reads(command, reads):
    assert {opt for param in main.commands[command].params for opt in param.opts} == _EVERY_COMMAND | reads


@pytest.mark.parametrize(
    "command, payload, option",
    [
        ("curve", {"curve": {"n": 3}}, ["--tol", "1e-3"]),
        ("covering", {"covering": {}}, ["--cutoff", "5"]),
        ("residual", {"perforation": ROOTS, "residual": {"grid": GRID}}, ["--model", "qlog"]),
    ],
    ids=["curve-tol", "covering-cutoff", "residual-model"],
)
def test_an_option_the_command_does_not_read_is_a_usage_error(runner, tmp_path, command, payload, option):
    cfg = _write_config(tmp_path, payload)
    result = runner.invoke(main, [command, "--config", cfg, *option])
    assert result.exit_code == 2
    assert f"No such option '{option[0]}'" in result.output


def test_region_radius_reaches_zero_sum_general(runner, tmp_path):
    # A finite family's sum has no tail at every point off its discs, also
    # outside twice its largest pole: the printed bound is the rounding of
    # its three terms alone.  No model has a working region, so the schema
    # refuses a region_radius field for every model.
    model = {"name": "zero_sum_general", "poles": [0.5, 0.25]}
    cfg = _write_config(tmp_path, {"model": model, "eval": {"points": [[1.5, 0.0], [0.1, 0.0]]}})
    result = runner.invoke(main, ["eval", "--config", cfg])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert [(r["z_re"], r["terms_used"], r["status"]) for r in rows] == [
        ("1.5", "1", "ok"), ("0.10000000000000001", "1", "ok")
    ]
    assert all(0.0 < float(r["tail_bound"]) < 1e-15 for r in rows)
    for refused in (model, {"name": "qlog"}):
        cfg = _write_config(tmp_path, {"model": dict(refused, region_radius=3.0), "eval": {"points": [[1.5, 0.0]]}})
        result = runner.invoke(main, ["eval", "--config", cfg])
        assert result.exit_code == 2
        assert "config rejected by schema" in result.stderr
        assert "'region_radius' was unexpected" in result.stderr


def test_qlog_eval_far_outside_the_unit_circle_is_summed(runner, tmp_path):
    # The q-log's norm bound holds on the whole perforated plane, so a point
    # at |z| = 2.5 gets the certified tails of any other point.
    cfg = _write_config(tmp_path, {"model": {"name": "qlog", "x": 0.5}, "eval": {"points": [[2.5, 0.0]]}})
    result = runner.invoke(main, ["eval", "--config", cfg])
    assert result.exit_code == 0, result.stderr
    (row,) = list(csv.DictReader(io.StringIO(result.output)))
    assert (row["z_re"], row["status"]) == ("2.5", "ok")
    assert float(row["tail_bound"]) <= 1e-10


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
    # At x = 0.95 the meander's coefficient terms of orders near 150 overflow
    # a float; the first non-finite one, in (sheet, order) order, is the
    # order-150 term on sheet 119, and the CLI reports it.
    cfg = _write_config(tmp_path, {"model": dict(MEANDER, x=0.95), "jet": {"z0": [0, 0], "order": 150}})
    result = runner.invoke(main, ["jet", "--config", cfg, "--json"])
    assert result.exit_code == 1
    assert json.loads(result.stderr) == {
        "error": "OutOfRegime", "detail": "order-150 derivative term on sheet 119 is not finite"
    }


@pytest.mark.parametrize(
    "order, detail",
    [
        # The order-160 terms are finite, but their sum over the block of
        # sheets 65 to 192 overflows a float; the lane keeps its terms to
        # the block's end, as it never stops on a sum past the float range.
        (160, "the order-160 sum over sheets 65 to 192 overflows a float"),
        # The order-161 term on sheet 174 is not finite, and a term comes
        # before the sum of its block.
        (161, "order-161 derivative term on sheet 174 is not finite"),
    ],
    ids=["160", "161"],
)
def test_a_block_sum_past_the_float_range_is_a_typed_error(runner, tmp_path, order, detail):
    cfg = _write_config(tmp_path, {"model": MEANDER, "jet": {"z0": [0, 0], "order": order}})
    result = runner.invoke(main, ["jet", "--config", cfg, "--json"])
    assert result.exit_code == 1
    assert json.loads(result.stderr) == {"error": "OutOfRegime", "detail": detail}
    assert "Traceback" not in result.stderr


_HUGE_ALPHA = {"poles": "meander", "radius": {"c": 0.05, "alpha": 2000}, "lambda": 1.5}
_LINE = {"re_start": -0.02, "re_stop": 0.0, "re_count": 3, "im_start": 0.0, "im_stop": 0.0, "im_count": 1}


@pytest.mark.parametrize(
    "command, payload, detail",
    [
        # (n + shift)**alpha overflows a float from sheet 2 on.
        ("residual", {"perforation": _HUGE_ALPHA, "residual": {"grid": _LINE}},
         "the radius c/(n + shift)**alpha is below the float range on sheet 2 (alpha = 2000)"),
        # The tails of the first block's last sheet take its radius, past the float range;
        # the error names the first such sheet, as the residual command does.
        ("jet", {"model": dict(MEANDER, alpha=2000), "jet": {"z0": [0, 0], "order": 5}},
         "the radius c/(n + shift)**alpha is below the float range on sheet 2 (alpha = 2000)"),
        # The tail is still above the tolerance where the radii leave the float range.
        ("eval", {"model": dict(MEANDER, x=0.7, alpha=100), "eval": {"points": [[0.1, 0.0]]}},
         "the radius c/(n + shift)**alpha is below the float range on sheet 1210 (alpha = 100)"),
    ],
    ids=["residual", "model-certificate", "model-radius"],
)
def test_a_radius_exponent_past_the_float_range_is_a_typed_error(runner, tmp_path, command, payload, detail):
    cfg = _write_config(tmp_path, payload)
    result = runner.invoke(main, [command, "--config", cfg, "--json"])
    assert result.exit_code == 1
    assert json.loads(result.stderr) == {"error": "OutOfRegime", "detail": detail}


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


def test_eval_near_the_float_range_prints_only_the_typed_error(runner, tmp_path):
    # The removed-disc shortlist's slack overflows at this point; that may
    # only shortlist a sheet and must print no warning before the error.
    cfg = _write_config(tmp_path, {"model": MEANDER, "eval": {"points": [[1e308, 1e308]]}})
    result = runner.invoke(main, ["eval", "--config", cfg])
    assert result.exit_code == 1
    assert result.stderr == "error (OutOfRegime): order-0 derivative term on sheet 2 is not finite\n"


@pytest.mark.parametrize(
    "payload, code",
    [
        ({"model": MEANDER, "eval": {"points": [[0.1, 0.0]]}}, 0),
        ({"model": dict(MEANDER, x=0.95), "jet": {"z0": [0, 0], "order": 150}}, 1),  # an error on stderr
    ],
    ids=["rows", "error"],
)
def test_an_in_process_run_keeps_no_reference_to_its_streams(tmp_path, payload, code):
    # Run as a library, each command gets a fresh sys.stdout and sys.stderr;
    # keeping them would keep everything ever printed.
    import contextlib
    import gc
    import weakref

    command = "eval" if "eval" in payload else "jet"
    cfg = _write_config(tmp_path, payload)
    out, err = io.StringIO(), io.StringIO()
    alive = [weakref.ref(out), weakref.ref(err)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exit_:
            main.main(args=[command, "--config", cfg], standalone_mode=False)
    assert exit_.value.code == code
    assert (out if code == 0 else err).getvalue()
    del out, err
    gc.collect()
    assert [ref() for ref in alive] == [None, None]


def _floated(value):
    if isinstance(value, dict):
        return {key: _floated(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_floated(item) for item in value]
    return float(value) if isinstance(value, int) and not isinstance(value, bool) else value


@pytest.mark.parametrize(
    "command, payload",
    [
        ("jet", {"model": MEANDER, "jet": {"z0": [0, 0], "order": 3}}),
        ("gevrey", {"model": MEANDER, "gevrey": {"order": 20, "window": [5, 20], "z_values": [0.05]}}),
        ("curve", {"curve": {"n": 8, "x_start": 0, "x_stop": 0.9, "x_count": 3}}),
        ("residual", {"perforation": ROOTS, "residual": {"grid": dict(GRID, re_count=2, im_count=2)}}),
        ("covering", {"covering": {"alphas": [2], "radii": [0.01], "moduli": [0.5], "angles": 16}}),
        ("polar", {"model": QLOG, "polar": {"mode": "laurent", "sheet": 3, "center": [1, 0], "r": 0.05,
                                           "k_min": -2, "k_max": 2}}),
    ],
    ids=["jet", "gevrey", "curve", "residual", "covering", "polar"],
)
def test_an_integral_float_in_an_integer_field_reads_as_its_int(runner, tmp_path, command, payload):
    # JSON Schema's "integer" admits 3.0; the command must see 3.
    twin = dict(payload, **{command: _floated(payload[command])})
    assert json.dumps(twin) != json.dumps(payload)
    ints = runner.invoke(main, [command, "--config", _write_config(tmp_path, payload, "ints.json")])
    floats = runner.invoke(main, [command, "--config", _write_config(tmp_path, twin, "floats.json")])
    assert (ints.exit_code, floats.exit_code) == (0, 0)
    assert floats.stdout_bytes == ints.stdout_bytes


@pytest.mark.parametrize(
    "command, payload, literal",
    [
        ("eval", {"model": MEANDER, "eval": {"ray": {"t_step": math.inf}}}, "Infinity"),
        ("jet", {"model": MEANDER, "jet": {"z0": -math.inf, "order": 3}}, "-Infinity"),
        ("residual", {"perforation": dict(_HUGE_ALPHA, radius={"c": 0.05, "alpha": math.nan}),
                      "residual": {"grid": GRID}}, "NaN"),
        ("covering", {"covering": {"moduli": [math.nan]}}, "NaN"),
    ],
    ids=["eval", "jet", "residual", "covering"],
)
def test_a_number_literal_json_lacks_is_a_config_error(runner, tmp_path, command, payload, literal):
    # Python's json module writes and reads NaN, Infinity and -Infinity.
    cfg = _write_config(tmp_path, payload)
    result = runner.invoke(main, [command, "--config", cfg])
    assert result.exit_code == 2
    assert result.stderr == f"error (config): cannot read config {cfg}: {literal} is not a JSON number\n"


def test_a_config_that_is_not_utf8_is_a_config_error(runner, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"curve": {"n": 3}, "\xe9": 1}')
    result = runner.invoke(main, ["curve", "--config", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error (config): cannot read config {path}: 'utf-8' codec can't decode")


def test_jet_honours_a_tolerance_above_the_default(runner, tmp_path):
    cfg = _write_config(tmp_path, {"model": MEANDER, "jet": {"z0": [0, 0], "order": 6}})
    tails = []
    for tol in (["--tol", "1e-10"], ["--tol", "1e-6"]):
        result = runner.invoke(main, ["jet", "--config", cfg, *tol])
        assert result.exit_code == 0
        tails.append([float(row["tail_bound"]) for row in csv.DictReader(io.StringIO(result.output))])
    assert all(tight < loose for tight, loose in zip(*tails))


_IMPORTS = (
    "import sys\n"
    "from meandro.cli import main\n"
    "try:\n"
    "    main.main(args=sys.argv[1:], standalone_mode=False)\n"
    "except SystemExit as exit_:\n"
    "    print(exit_.code, 'jsonschema' in sys.modules)\n"
)


@pytest.mark.parametrize(
    "command, payload, stdout, stderr",
    [
        ("eval", {"model": MEANDER, "eval": {"points": [[0.1, 0.0], 0.2]}}, "0 False\n", ""),
        ("jet", {"model": MEANDER, "jet": {"order": 3}}, "0 False\n", ""),
        ("residual", {"perforation": ROOTS, "residual": {"grid": GRID}}, "0 False\n", ""),
        ("curve", {"curve": {"n": 40}}, "2 False\n",
         "error (config): config rejected by schema: 40 is greater than the maximum of 39\n"),
    ],
    ids=["eval", "jet", "residual", "rejected"],
)
def test_no_run_imports_jsonschema(tmp_path, command, payload, stdout, stderr):
    cfg = _write_config(tmp_path, payload)
    out = str(tmp_path / "rows.csv")
    env = dict(os.environ, PYTHONPATH=str(Path(meandro.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", _IMPORTS, command, "--config", cfg, "--out", out],
                            capture_output=True, text=True, env=env, timeout=120)
    assert (result.stdout, result.stderr) == (stdout, stderr)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "command, payload",
    [
        ("eval", {"model": MEANDER, "eval": {"points": [[0.1, 0.0]]}}),
        ("jet", {"model": MEANDER, "jet": {"z0": [0, 0], "order": 3}}),
        ("polar", {"model": MEANDER, "polar": {"mode": "fiber", "omega": [0.3, 0.1], "z": [0.1, 0.1]}}),
        ("gevrey", {"model": MEANDER, "gevrey": {"z0": [0, 0], "order": 10, "window": [2, 10], "z_values": [0.1]}}),
    ],
    ids=["eval", "jet", "polar", "gevrey"],
)
def test_a_tolerance_that_is_not_finite_is_a_usage_error(runner, tmp_path, command, payload, value):
    cfg = _write_config(tmp_path, payload)
    result = runner.invoke(main, [command, "--config", cfg, "--tol", value])
    assert result.exit_code == 2
    assert f"Invalid value for '--tol': {value} is not a finite number." in result.output


def test_a_jet_whose_remainder_tail_ratio_is_one_prints_no_warning(tmp_path):
    # rho = 0.75 and alpha*m = 1 make rho*(n + 2)/(n + 1) exactly 1 at n = 2;
    # run with the interpreter's default warning filters, not the tests' own.
    cfg = _write_config(tmp_path, {"model": {"name": "meander", "x": 0.5, "alpha": 1},
                                   "jet": {"z0": [0, 0], "order": 1}})
    env = dict(os.environ, PYTHONPATH=str(Path(meandro.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "meandro.cli", "jet", "--config", cfg],
                            capture_output=True, text=True, env=env, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    assert len(result.stdout.splitlines()) == 3
