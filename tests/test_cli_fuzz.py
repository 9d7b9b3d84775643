"""Schema-valid `residual` and `covering` configs with extreme numbers end in an exit code, never a traceback."""

import json

from click.testing import CliRunner
from hypothesis import given, settings
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
    result = CliRunner().invoke(main, [command, "--config", str(path), *options])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert result.exit_code in (0, 1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(perforation=_perforation, residual=_residual, cutoff=st.integers(1, 100))
def test_residual_configs_exit_with_a_code(tmp_path_factory, perforation, residual, cutoff):
    _run(tmp_path_factory, "residual", {"perforation": perforation, "residual": residual}, "--cutoff", str(cutoff))


@settings(max_examples=100, deadline=None)
@given(covering=_covering)
def test_covering_configs_exit_with_a_code(tmp_path_factory, covering):
    _run(tmp_path_factory, "covering", {"covering": covering})
