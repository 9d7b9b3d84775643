"""Golden coefficients of the ``jet`` command: fixed configs, coefficient columns compared bit for bit.

Each case is a config and its extra options; the columns k, a_re and a_im
of its stdout are kept in ``tests/data/jet_golden/<case>.csv``.  The
tail_bound column is not pinned: it is the certified tail at the stopping
sheet, which moves whenever the tail bounds get tighter.  It is checked
against the tolerance instead.  The files are written with every other
golden file (see ``golden.py``):

    PYTHONPATH=src python tests/golden.py

Rewrite them only for a change that is meant to move printed coefficients,
and say so in CHANGES.md.
"""

import csv
import io
from pathlib import Path

import pytest

import golden

DATA = Path(__file__).parent / "data" / "jet_golden"

CASES = {
    # The meander at x = 0.95 to order 30 at 0, where its poles accumulate.
    "meander-30": (
        {
            "model": {"name": "meander", "x": 0.95, "c": 0.05, "alpha": 2, "lambda": 1.5},
            "jet": {"z0": [0.0, 0.0], "order": 30},
        },
        ["--cutoff", "200000"],
    ),
    # The q-log at x = 0.9 to order 8 at 0, a unit off its poles.
    "qlog-8": (
        {
            "model": {"name": "qlog", "x": 0.9, "c": 0.05, "alpha": 2, "lambda": 1.5},
            "jet": {"z0": [0.0, 0.0], "order": 8},
        },
        [],
    ),
}


def _columns(text: str) -> str:
    rows = csv.reader(io.StringIO(text))
    return "".join(",".join(row[:3]) + "\n" for row in rows)


def pinned(tmp_dir: Path, name: str) -> str:
    return _columns(golden.run(tmp_dir, name, "jet", *CASES[name]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_jet_coefficients_match_golden(tmp_path, name):
    stdout = golden.run(tmp_path, name, "jet", *CASES[name])
    assert _columns(stdout) == (DATA / f"{name}.csv").read_text(encoding="utf-8")
    # The jet sums to rel_tol 1e-10: order k stops once its tail is within
    # 1e-10 * max(|a_k|, 1), and the printed tail adds the sum's rounding to it.
    for row in csv.DictReader(io.StringIO(stdout)):
        a_k = abs(complex(float(row["a_re"]), float(row["a_im"])))
        assert float(row["tail_bound"]) <= 1e-10 * max(a_k, 1.0) * (1.0 + 1e-6)
