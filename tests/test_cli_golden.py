"""Golden outputs of the ``curve``, ``covering``, ``polar`` and ``gevrey`` commands, byte for byte.

Each case is a command, a config and its extra options; its stdout is kept
in ``tests/data/cli_golden/<case>.csv``.  The files are written with every
other golden file (see ``golden.py``):

    PYTHONPATH=src python tests/golden.py

Rewrite them only for a change that is meant to move printed values, and
say so in CHANGES.md.
"""

from pathlib import Path

import pytest

import golden

DATA = Path(__file__).parent / "data" / "cli_golden"

_MEANDER = {"name": "meander", "x": 0.5, "c": 0.1, "alpha": 2, "lambda": 1.5}
_QLOG = {"name": "qlog", "x": 0.5, "c": 0.05, "alpha": 2, "lambda": 1.5}

CASES = {
    # Root branches of the degree-8 truncation over the default x grid.
    "curve-8": ("curve", {"curve": {"n": 8}}, []),
    # The highest degree the schema admits.
    "curve-39": ("curve", {"curve": {"n": 39}}, []),
    # Inclusion checks of the ramified covering, off the real axis.
    "covering-sweep": (
        "covering",
        {
            "covering": {
                "alphas": [2, 3], "radii": [0.01, 0.001], "moduli": [0.2, 0.5, 0.9, 1.0],
                "angles": 360, "phase": 0.3,
            }
        },
        [],
    ),
    # Sheet 3 of the q-log about its pole 1, in the default window -8..8.
    "polar-laurent": (
        "polar",
        {"model": _QLOG, "polar": {"mode": "laurent", "sheet": 3, "center": [1.0, 0.0], "r": 0.05}},
        [],
    ),
    # The q-log fiber over omega = 1 at z = 2, whose value is log 2.
    "polar-fiber": (
        "polar",
        {"model": _QLOG, "polar": {"mode": "fiber", "omega": [1.0, 0.0], "z": [2.0, 0.0]}},
        ["--tol", "1e-12"],
    ),
    # A Gevrey fit of the meander jet to order 40 and three smallest-term sums.
    "gevrey-meander-40": (
        "gevrey",
        {"model": _MEANDER, "gevrey": {"order": 40, "window": [5, 40], "z_values": [0.05, 0.1, 0.2]}},
        [],
    ),
}


def pinned(tmp_dir: Path, name: str) -> str:
    command, config, extra = CASES[name]
    return golden.run(tmp_dir, name, command, config, extra)


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_output_matches_golden(tmp_path, name):
    assert pinned(tmp_path, name) == (DATA / f"{name}.csv").read_text(encoding="utf-8")
