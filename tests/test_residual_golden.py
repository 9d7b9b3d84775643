"""Golden outputs of the ``residual`` command: fixed configs, CSV compared byte for byte.

Each case is a config and its extra options; its stdout is kept in
``tests/data/residual_golden/<case>.csv``.  The files are written with
every other golden file (see ``golden.py``):

    PYTHONPATH=src python tests/golden.py

Rewrite them only for a change that is meant to move printed verdicts, and
say so in CHANGES.md.
"""

import math
from pathlib import Path

import pytest

import golden

DATA = Path(__file__).parent / "data" / "residual_golden"

_DIOPHANTINE = {"c": 0.05, "alpha": 2}


def _perf(poles, radius=None):
    return {"poles": poles, "radius": radius or _DIOPHANTINE, "lambda": 1.5}


def _grid(re, im):
    (re_start, re_stop, re_count), (im_start, im_stop, im_count) = re, im
    return {
        "re_start": re_start, "re_stop": re_stop, "re_count": re_count,
        "im_start": im_start, "im_stop": im_stop, "im_count": im_count,
    }


def _off_circle(delta: float, re: float = math.cos(1.0)):
    """Two points above the real axis at real part re: |z| = 1 - delta and 1 + delta."""
    inner, outer = (math.sqrt((1.0 + s * delta) ** 2 - re * re) for s in (-1.0, 1.0))
    return _grid((re, re, 1), (inner, outer, 2))


# An explicit table of 30 sheets, two poles each, on a coarse lattice; radii
# are tabulated, so points that clear the scanned sheets are 'unknown'.
_EXPLICIT = [
    [n, 0.1 * ((7 * n + 3 * j) % 19) - 0.9, 0.1 * ((5 * n + 11 * j) % 19) - 0.9]
    for n in range(1, 31)
    for j in range(2)
]

CASES = {
    # Roots of unity: a 4 x 4 box 0.4 from the origin, every point 'in' after the scan.
    "roots-far": (
        {
            "perforation": _perf("roots_of_unity"),
            "residual": {"grid": _grid((-0.35, -0.05, 4), (0.2, 0.5, 4))},
        },
        ["--cutoff", "10000"],
    ),
    # A radial line through the root 1 of sheet 1: its middle point is 'out'.
    "roots-line": (
        {
            "perforation": _perf("roots_of_unity"),
            "residual": {"grid": _grid((0.5, 1.5, 9), (0.001, 0.001, 1))},
        },
        [],
    ),
    "roots-off-circle-1e-3": (
        {"perforation": _perf("roots_of_unity"), "residual": {"grid": _off_circle(1e-3)}},
        [],
    ),
    "roots-off-circle-1e-7": (
        {"perforation": _perf("roots_of_unity"), "residual": {"grid": _off_circle(1e-7)}},
        [],
    ),
    # At cutoff 500 the tail radius 2e-7 still exceeds the distance: 'unknown'.
    "roots-off-circle-1e-7-cutoff-500": (
        {"perforation": _perf("roots_of_unity"), "residual": {"grid": _off_circle(1e-7)}},
        ["--cutoff", "500"],
    ),
    # Meander poles -1/n: a vertical line through the pole -1/3 of sheet 3.
    "meander-line": (
        {
            "perforation": _perf("meander"),
            "residual": {"grid": _grid((-1.0 / 3.0, -1.0 / 3.0, 1), (-0.5, 0.5, 9))},
        },
        [],
    ),
    # A 5 x 5 box over the poles, discs inflated by the margin 0.5.
    "meander-margin": (
        {
            "perforation": _perf("meander"),
            "residual": {"grid": _grid((-1.05, -0.25, 5), (-0.04, 0.04, 5)), "margin": 0.5},
        },
        [],
    ),
    # The explicit table scanned to sheet 20 of 30.
    "explicit-table": (
        {
            "perforation": _perf(
                {"explicit": _EXPLICIT}, {"table": {str(n): 0.02 for n in range(1, 31)}}
            ),
            "residual": {"grid": _grid((-0.9, 0.9, 6), (-0.9, 0.9, 6))},
        },
        ["--cutoff", "20"],
    ),
}


def pinned(tmp_dir: Path, name: str) -> str:
    return golden.run(tmp_dir, name, "residual", *CASES[name])


@pytest.mark.parametrize("name", sorted(CASES))
def test_residual_output_matches_golden(tmp_path, name):
    assert pinned(tmp_path, name) == (DATA / f"{name}.csv").read_text(encoding="utf-8")
