"""Golden coefficients of the ``jet`` command: fixed configs, coefficient columns compared bit for bit.

Each case is a config and its extra options; the columns k, a_re and a_im
of its stdout are kept in ``tests/data/jet_golden/<case>.csv``.  The
tail_bound column is not pinned: it is the certified tail at the stopping
sheet, which moves whenever the tail bounds get tighter.  It is checked
against the tolerance instead.  The files are written by running this
module as a script from the repository root:

    PYTHONPATH=src python tests/test_jet_golden.py

Rewrite them only for a change that is meant to move printed coefficients,
and say so in CHANGES.md.
"""

import csv
import io
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from meandro.cli import main

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


def _run(tmp_dir: Path, name: str):
    config, extra = CASES[name]
    path = tmp_dir / f"{name}.json"
    path.write_text(json.dumps(config))
    return CliRunner().invoke(main, ["jet", "--config", str(path), *extra])


def _columns(text: str) -> str:
    rows = csv.reader(io.StringIO(text))
    return "".join(",".join(row[:3]) + "\n" for row in rows)


@pytest.mark.parametrize("name", sorted(CASES))
def test_jet_coefficients_match_golden(tmp_path, name):
    result = _run(tmp_path, name)
    assert result.exit_code == 0
    assert result.stderr == ""
    assert _columns(result.stdout) == (DATA / f"{name}.csv").read_text(encoding="utf-8")
    # The jet sums to rel_tol 1e-10: order k stops once its tail is within
    # 1e-10 * max(|a_k|, 1), and the printed tail adds the sum's rounding to it.
    for row in csv.DictReader(io.StringIO(result.stdout)):
        a_k = abs(complex(float(row["a_re"]), float(row["a_im"])))
        assert float(row["tail_bound"]) <= 1e-10 * max(a_k, 1.0) * (1.0 + 1e-6)


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            result = _run(Path(tmp), name)
            if result.exit_code != 0 or result.stderr:
                raise SystemExit(f"{name}: exit {result.exit_code}, stderr {result.stderr!r}")
            (DATA / f"{name}.csv").write_text(_columns(result.stdout), encoding="utf-8")
            print(f"{name}: {result.stdout.count(chr(10)) - 1} rows")
