"""Schema-valid configs with extreme numbers end in an exit code, never a traceback.

`residual` and `covering` take extreme grids and parameters; `eval` and
`jet` take extreme points of every model, and must end without a warning
and with at most one error line.
"""

import json
import math
import warnings

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meandro.cli import CONFIG_SCHEMA, main
from meandro.geometry import _accepts

#: Subnormal, tiny, huge and boundary values beside the ordinary ones.
_EXTREME = [1e-320, 1e-200, 1e-12, 0.5, 1.0, 1.5, 2.0, 1e12, 1e300, 1e308]
_numbers = st.sampled_from(_EXTREME + [-x for x in _EXTREME] + [0.0]) | st.floats(
    -1e308, 1e308, allow_nan=False, allow_infinity=False
)
_positive = st.sampled_from(_EXTREME) | st.floats(1e-320, 1e308, exclude_min=True)
_sheets = (
    st.sampled_from([-1, 0, 1, 2, 1.5, -0.5, 1e18, 1e300, 2**63])
    | st.integers(-3, 100)
    | st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False)
)
_table_keys = st.sampled_from(["x", "1.5", "-1", " 2", "1e3", "0", ""]) | st.integers(-3, 120).map(str)

_poles = st.sampled_from(["roots_of_unity", "meander"]) | st.fixed_dictionaries({
    "explicit": st.lists(st.tuples(_sheets, _numbers, _numbers).map(list), min_size=1, max_size=4),
})
_radius = st.fixed_dictionaries({"c": _positive, "alpha": st.sampled_from([1, 2, 1e308]) | st.floats(1, 1e308)}) | (
    st.fixed_dictionaries({"table": st.dictionaries(_table_keys, _positive, max_size=4)})
)
_perforation = st.fixed_dictionaries({
    "poles": _poles,
    "radius": _radius,
    "lambda": st.sampled_from([1.5, 1 + 1e-12, 1e308]) | st.floats(1, 1e308, exclude_min=True),
})
_residual = st.fixed_dictionaries(
    {
        "grid": st.fixed_dictionaries({
            "re_start": _numbers, "re_stop": _numbers, "re_count": st.just(2),
            "im_start": _numbers, "im_stop": _numbers, "im_count": st.just(1),
        }),
    },
    optional={"margin": st.sampled_from([0.0, 1e-320, 1.0, 1e308]) | st.floats(0, 1e308)},
)
_covering = st.fixed_dictionaries({}, optional={
    "alphas": st.lists(st.sampled_from([1, 2, 1023]) | st.integers(1, 1023), max_size=2),
    "radii": st.lists(st.sampled_from([1e-320, 1e-200, 0.5, 1.0]) | st.floats(1e-320, 1, exclude_min=True),
                      max_size=2),
    "moduli": st.lists(_positive, max_size=3),
    "angles": st.integers(8, 64),
    "phase": _numbers,
})


def _run(tmp_path_factory, command: str, config: dict, *options: str):
    assert _accepts(config, CONFIG_SCHEMA)
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, [command, "--config", str(path), *options])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert result.exit_code in (0, 1, 2, 3)
    assert not caught, [str(w.message) for w in caught]
    return result


@settings(max_examples=150, deadline=None)
@given(perforation=_perforation, residual=_residual, cutoff=st.integers(1, 100))
# A grid point and an explicit pole on opposite sides near 1e308: their difference overflows.
@example(
    perforation={
        "poles": {"explicit": [[1, 1e-320, 1e-320], [1, 1e-320, 1e-200], [1, 1e-320, -1e308]]},
        "radius": {"c": 1e-320, "alpha": 1},
        "lambda": 1.5,
    },
    residual={"grid": {"re_start": 1e-320, "re_stop": 1e-320, "re_count": 2,
                       "im_start": 1e308, "im_stop": 1e-320, "im_count": 1}},
    cutoff=1,
)
def test_residual_configs_exit_with_a_code(tmp_path_factory, perforation, residual, cutoff):
    _run(tmp_path_factory, "residual", {"perforation": perforation, "residual": residual}, "--cutoff", str(cutoff))


@settings(max_examples=100, deadline=None)
@given(covering=_covering)
def test_covering_configs_exit_with_a_code(tmp_path_factory, covering):
    _run(tmp_path_factory, "covering", {"covering": covering})


_MODELS = [
    {"name": "meander", "x": 0.5, "c": 0.1},
    {"name": "qlog", "x": 0.5},
    {"name": "zero_sum_pik"},
    {"name": "zero_sum_general", "poles": [0.5, [0.25, 0.1]]},
]
#: Parts of a point: subnormal, on the unit circle (0.6 + 0.8i among them) and up to the top of the float range.
_PARTS = [0.0, 5e-324, 1e-320, 1e-300, 0.6, 0.8, 1.0, 2.5, 1e300, 1e308, 1.7e308, 1.79e308]
_part = st.sampled_from(_PARTS + [-x for x in _PARTS[1:]])
_points = (
    st.tuples(_part, _part).map(list)
    | st.floats(0.0, 2.0 * math.pi).map(lambda t: [math.cos(t), math.sin(t)])
    | st.builds(lambda m, t: [m * math.cos(t), m * math.sin(t)], st.sampled_from(_PARTS), st.floats(0.0, 2.0 * math.pi))
)
_cutoffs = st.sampled_from([1, 2, 64, 10_000]) | st.integers(1, 500)


def _run_at_points(tmp_path_factory, command: str, config: dict, cutoff: int):
    """Run the command; it ends with 0, 1 or 3, one error line at most, and no warning."""
    result = _run(tmp_path_factory, command, config, "--cutoff", str(cutoff))
    assert result.exit_code in (0, 1, 3), result.stderr
    errors = result.stderr.splitlines()
    assert len(errors) == (result.exit_code == 1), result.stderr
    assert all(line.startswith("error (") for line in errors)


@settings(max_examples=150, deadline=None)
@given(model=st.sampled_from(_MODELS), points=st.lists(_points, min_size=1, max_size=3), cutoff=_cutoffs)
@example(model=_MODELS[2], points=[[-1e308, 0.0]], cutoff=10_000)  # RuntimeWarning in the pi_k tails
@example(model=_MODELS[1], points=[[1.7e308, 1.7e308], [2.5, 0.0]], cutoff=10_000)
def test_eval_configs_at_extreme_points_end_cleanly(tmp_path_factory, model, points, cutoff):
    _run_at_points(tmp_path_factory, "eval", {"model": model, "eval": {"points": points}}, cutoff)


@settings(max_examples=150, deadline=None)
@given(model=st.sampled_from(_MODELS), z0=_points, order=st.integers(0, 170), cutoff=_cutoffs)
@example(model=_MODELS[0], z0=[1.7e308, 1.7e308], order=3, cutoff=10_000)  # OverflowError in the tail distance
@example(model=_MODELS[2], z0=[-5e-324, 5e-324], order=2, cutoff=10_000)  # |Re z0|/2 underflows to 0
# The pi_k tails' product of the first two factors underflows to 0.
@example(model=_MODELS[2], z0=[-1e-300, 0.0], order=1, cutoff=10_000)
@example(model=_MODELS[2], z0=[-1e-320, 1e-300], order=1, cutoff=10_000)
@example(model=_MODELS[2], z0=[-4.16e-301, 9.09e-301], order=1, cutoff=10_000)
# pi_k derivative blocks where (1/z0)**i overflows, and where j*z0 does.
@example(model=_MODELS[2], z0=[-1e-300, 0.0], order=4, cutoff=10_000)
@example(model=_MODELS[2], z0=[-1e-5, 0.0], order=3, cutoff=10_000)
@example(model=_MODELS[2], z0=[-1e308, 1.0], order=2, cutoff=10_000)
def test_jet_configs_at_extreme_points_end_cleanly(tmp_path_factory, model, z0, order, cutoff):
    _run_at_points(tmp_path_factory, "jet", {"model": model, "jet": {"z0": z0, "order": order}}, cutoff)
