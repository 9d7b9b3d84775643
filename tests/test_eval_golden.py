"""Golden outputs of the ``eval`` command: fixed configs, CSV compared byte for byte.

Each case is a config, its extra options and the exit code it must give;
its stdout is kept in ``tests/data/eval_golden/<case>.csv``.  The files are
written with every other golden file (see ``golden.py``):

    PYTHONPATH=src python tests/golden.py

Rewrite them only for a change that is meant to move printed values, and
say so in CHANGES.md.
"""

import math
from pathlib import Path

import pytest

import golden

DATA = Path(__file__).parent / "data" / "eval_golden"

_QLOG = {"name": "qlog", "c": 0.05, "alpha": 2, "lambda": 1.5}

CASES = {
    # Meander x = 0.95: a 7 x 4 grid off the real axis, 693 sheets a point.
    "meander-grid": (
        {
            "model": {"name": "meander", "x": 0.95, "c": 0.05, "alpha": 2, "lambda": 1.5},
            "eval": {
                "points": [
                    [-1.2 + 0.4 * i, im] for im in (-0.9, -0.3, 0.3, 0.9) for i in range(7)
                ]
            },
        },
        [],
        0,
    ),
    # q-log x = 0.9 along a ray that crosses the unit circle; the ray's
    # points are numpy complex128, and 1/z rounds for them as numpy does.
    "qlog-ray": (
        {
            "model": dict(_QLOG, x=0.9),
            "eval": {
                "ray": {"theta_turns": math.sqrt(2.0), "t_start": 0.0, "t_stop": 2.0, "t_step": 0.05}
            },
        },
        [],
        0,
    ),
    # q-log x = 0.9 at listed points (Python complex) outside the unit circle.
    "qlog-outside": (
        {
            "model": dict(_QLOG, x=0.9),
            "eval": {
                "points": [
                    [r * math.cos(a), r * math.sin(a)]
                    for r, a in ((1.1, 0.3), (1.25, 2.0), (1.4, -1.1), (1.6, 3.0), (1.9, 0.77), (1.15, -2.6))
                ]
            },
        },
        ["--tol", "1e-12"],
        0,
    ),
    # The explicit finite zero-sum family: summed to its last sheet, with no
    # tail; the printed bound is the rounding of the sum.
    "zero-sum": (
        {
            "model": {
                "name": "zero_sum_general",
                "constant": 1.0,
                "lambda": 1.5,
                "poles": [[0.8, 0.3], [-1.1, 0.5], [0.2, -1.4], [1.7, 0.0], [-0.6, -0.9], [1.2, 1.2]],
            },
            "eval": {"points": [[0.1, 0.05], [-0.2, 0.15], [0.25, -0.2], [0.0, 0.0], [-0.05, -0.27]]},
        },
        [],
        0,
    ),
    # The pi_k family in the left half-plane, summed on its remainder: 1 at
    # the origin, 1/(1 - z) with tail 2*|z| a hair off it.
    "zero-sum-pik": (
        {
            "model": {"name": "zero_sum_pik", "c": 0.05, "alpha": 2, "lambda": 1.5},
            "eval": {"points": [[-0.3, 0.0], [-0.1, 0.05], [0.0, 0.0], [0.0, 1e-200], [-0.02, 0.0], [-0.45, 0.0],
                                [-0.25, 0.1]]},
        },
        ["--cutoff", "50000"],  # -0.45 stops after 47 575 sheets
        0,
    ),
    # Points in removed discs (sheets 2 and 3 of the meander) among clean ones.
    "removed-disc": (
        {
            "model": {"name": "meander", "x": 0.5, "c": 0.1, "alpha": 2, "lambda": 1.5},
            "eval": {"points": [[0.2, 0.1], [-0.5, 0.0], [0.3, -0.4], [-0.334, 0.001], [1.0, 1.0]]},
        },
        [],
        3,
    ),
}


def pinned(tmp_dir: Path, name: str) -> str:
    return golden.run(tmp_dir, name, "eval", *CASES[name])


@pytest.mark.parametrize("name", sorted(CASES))
def test_eval_output_matches_golden(tmp_path, name):
    assert pinned(tmp_path, name) == (DATA / f"{name}.csv").read_text(encoding="utf-8")
