"""Golden values of the meander and q-log against independent oracles.

The golden tests pin these values bit for bit; here each one is checked
against an independent value, within its printed tail plus 1e-12 times the
sum of the moduli of the terms:

* eval sums against brute-force ``math.fsum`` sums of the terms, taken far
  enough that the rest of the series is below 1e-20;
* the finite zero-sum family against its 40-digit mpmath sum, and the pi_k
  family against its partial sum 1 - P_{n+1}(z) and its limit 1, in 40-digit
  mpmath;
* the jets at 0 against exact rational jets: the meander's Eulerian power
  sums and the q-log's Lambert series;
* the q-log fiber over 1 at z = 2 against log 2;
* the gevrey rows against the exact meander jet and brute-force sums.
"""

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

from meandro import MeanderModel, evaluate_sums, taylor_jet, zero_sum_coefficients
from meandro.cli import main
from meandro.gevrey import divergence_diagnostic, gevrey_fit

import test_cli_golden
import test_eval_golden
import test_jet_golden

DATA = Path(__file__).parent / "data"
#: Sheets of the brute-force sums: x**n * n/(c*kappa) is below 1e-20 past them for x <= 0.95.
_BRUTE_SHEETS = 3000


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _term(model: dict, n: int, z: complex) -> complex:
    """The sheet-n term at z, in Python complex arithmetic."""
    x = model["x"]
    if model["name"] == "meander":
        return x**n / (1.0 + n * z)
    if abs(z) <= 1.0:
        return x**n / (z**n - 1.0)
    w = (1.0 / z) ** n  # x**n/(z**n - 1) = x**n * w/(1 - w), with no overflow of z**n
    return x**n * w / (1.0 - w)


def _brute_sum(model: dict, z: complex) -> tuple[complex, float]:
    """The sum at z over the first ``_BRUTE_SHEETS`` sheets, and the sum of the moduli of its terms."""
    terms = [_term(model, n, z) for n in range(1, _BRUTE_SHEETS + 1)]
    value = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return value, math.fsum(abs(t) for t in terms)


@pytest.mark.parametrize("name", ["meander-grid", "qlog-outside", "qlog-ray", "removed-disc"])
def test_eval_golden_sums_match_brute_force_sums(name):
    model = test_eval_golden.CASES[name][0]["model"]
    rows = _rows((DATA / "eval_golden" / f"{name}.csv").read_text(encoding="utf-8"))
    checked = 0
    for row in rows:
        if row["status"] != "ok":
            continue
        z = complex(float(row["z_re"]), float(row["z_im"]))
        want, scale = _brute_sum(model, z)
        got = complex(float(row["S_re"]), float(row["S_im"]))
        assert abs(got - want) <= float(row["tail_bound"]) + 1e-12 * scale, row
        checked += 1
    assert checked >= 3


def _ok_rows(name: str) -> list[tuple[complex, complex, float, int]]:
    """(z, S, printed tail_bound, terms_used) of the ok rows of an eval golden file."""
    rows = _rows((DATA / "eval_golden" / f"{name}.csv").read_text(encoding="utf-8"))
    return [
        (complex(float(r["z_re"]), float(r["z_im"])), complex(float(r["S_re"]), float(r["S_im"])),
         float(r["tail_bound"]), int(r["terms_used"]))
        for r in rows if r["status"] == "ok"
    ]


def test_zero_sum_golden_sums_match_40_digit_sums():
    # c + sum_k a_k z**k/(1 - z/e_k) over the six sheets, with the
    # coefficients of the float poles taken in 40 digits as well.
    model = test_eval_golden.CASES["zero-sum"][0]["model"]
    rows = _ok_rows("zero-sum")
    with mpmath.workdps(40):
        poles = [mpmath.mpc(*e) for e in model["poles"]]
        c = mpmath.mpf(model["constant"])
        coefficients = zero_sum_coefficients(c, poles, len(poles) - 1)
        for z, got, bound, sheets in rows:
            assert sheets == len(poles) - 1
            w = mpmath.mpc(z.real, z.imag)
            terms = [a * w**k / (1 - w / e) for k, (a, e) in enumerate(zip(coefficients, poles))]
            terms[0] += c
            want, scale = complex(mpmath.fsum(terms)), float(mpmath.fsum(abs(t) for t in terms))
            assert abs(got - want) <= bound + 1e-12 * scale, z
    assert len(rows) == 5


def test_zero_sum_pik_golden_sums_match_their_remainder():
    # The partial sum through sheet n is 1 - P_{n+1}(z), P_n = prod_{j<=n} -j*z/(1 - j*z);
    # the series sums to 1, within the printed tail.
    rows = _ok_rows("zero-sum-pik")
    with mpmath.workdps(40):
        for z, got, bound, sheets in rows:
            w, product, scale = mpmath.mpc(z.real, z.imag), mpmath.mpf(1), mpmath.mpf(0)
            for n in range(sheets + 1):
                scale += abs(product / (1 - (n + 1) * w))  # |t_n| = |P_n/(1 - (n+1)*z)|
                product *= -(n + 1) * w / (1 - (n + 1) * w)
            want = complex(1 - product)
            assert abs(got - want) <= bound + 1e-12 * float(scale), z
            assert abs(got - 1.0) <= bound + 1e-12 * float(scale), z
    assert len(rows) == 7


def _eulerian(k: int) -> list[int]:
    """Eulerian numbers A(k, m), m = 0..k-1, from the explicit alternating sum."""
    return [sum((-1) ** i * math.comb(k + 1, i) * (m + 1 - i) ** k for i in range(m + 2)) for m in range(k)]


def _meander_jet(x: Fraction, order: int) -> list[Fraction]:
    """a_k = (-1)**k sum_{n>=1} n**k x**n, the meander jet at 0: x*A_k(x)/(1 - x)**(k+1) (x/(1 - x) at k = 0)."""
    jet = [x / (1 - x)]
    for k in range(1, order + 1):
        poly = sum(a * x**m for m, a in enumerate(_eulerian(k)))
        jet.append((-1) ** k * x * poly / (1 - x) ** (k + 1))
    return jet


def _qlog_jet(x: Fraction, order: int) -> list[Fraction]:
    """a_0 = -x/(1 - x) and a_m = -sum_{d | m} x**d: sum_n x**n/(z**n - 1) = -sum_n sum_{j>=0} x**n z**(n*j)."""
    return [-x / (1 - x)] + [-sum(x**d for d in range(1, m + 1) if m % d == 0) for m in range(1, order + 1)]


def _jet_rows(tmp_path: Path, case: tuple) -> list[dict]:
    """The rows of the jet command for a golden case, with its tail_bound column."""
    config, extra = case
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = CliRunner().invoke(main, ["jet", "--config", str(path), *extra])
    assert result.exit_code == 0, result.output
    return _rows(result.stdout)


@pytest.mark.parametrize("name", ["meander-30", "qlog-8"])
def test_jet_golden_coefficients_match_exact_jets(tmp_path, name):
    case = test_jet_golden.CASES[name]
    model = case[0]["model"]
    x = Fraction(model["x"])
    exact = (_meander_jet if model["name"] == "meander" else _qlog_jet)(x, case[0]["jet"]["order"])
    golden = _rows((DATA / "jet_golden" / f"{name}.csv").read_text(encoding="utf-8"))
    printed = _jet_rows(tmp_path, case)
    assert len(golden) == len(printed) == len(exact)
    for row, out, want in zip(golden, printed, exact):
        assert (row["a_re"], row["a_im"]) == (out["a_re"], out["a_im"])
        got = complex(float(row["a_re"]), float(row["a_im"]))
        # Every term of these jets has the sign of the jet coefficient, so |a_k| is the sum of their moduli.
        assert abs(got - float(want)) <= float(out["tail_bound"]) + 1e-12 * abs(float(want)), row


def test_polar_fiber_golden_is_log_2():
    # The fiber of the q-log at x = 1/2 over 1, at z = 2: sum_n (x**n/n)/(2 - 1) = log 2.
    [row] = _rows((DATA / "cli_golden" / "polar-fiber.csv").read_text(encoding="utf-8"))
    got = complex(float(row["S_re"]), float(row["S_im"]))
    assert abs(got - math.log(2.0)) <= float(row["tail_bound"]) + 1e-12 * math.log(2.0)


def test_gevrey_golden_rows_match_the_exact_jet_and_brute_force_sums():
    command, config, extra = test_cli_golden.CASES["gevrey-meander-40"]
    assert (command, extra) == ("gevrey", [])  # the default tolerance 1e-10 and cutoff 10 000
    model, section = config["model"], config["gevrey"]
    seq = MeanderModel(model["x"], c=model["c"], alpha=model["alpha"], lam=model["lambda"])
    exact = _meander_jet(Fraction(model["x"]), section["order"])
    floats = np.array([float(a) for a in exact])
    # The tails of the coefficients and sums that the rows are made of.
    tails = taylor_jet(seq, 0j, section["order"], rel_tol=1e-10, max_terms=10_000).coefficient_tails
    sums = evaluate_sums(seq, section["z_values"], tol=1e-10, max_terms=10_000)
    fit = gevrey_fit(floats, window=tuple(section["window"]))
    report = divergence_diagnostic(floats)
    rows = _rows((DATA / "cli_golden" / "gevrey-meander-40.csv").read_text(encoding="utf-8"))
    assert len(rows) == len(section["z_values"])
    for row, z, res in zip(rows, section["z_values"], sums):
        m = int(row["m"])
        want_t = float(sum(a * Fraction(z) ** k for k, a in enumerate(exact[:m])))
        slack_t = sum(float(tails[k]) * z**k for k in range(m)) + 1e-12 * sum(abs(floats[k]) * z**k for k in range(m))
        assert abs(float(row["T_re"]) - want_t) <= slack_t and float(row["T_im"]) == 0.0
        want_s, scale = _brute_sum(model, complex(z))
        slack_s = res.tail_bound + 1e-12 * scale
        assert abs(complex(float(row["S_re"]), float(row["S_im"])) - want_s) <= slack_s
        assert abs(float(row["abs_error"]) - abs(want_s - want_t)) <= slack_t + slack_s + 1e-15
        # The fit and the root test, taken on the exact jet: the coefficients
        # move them by a relative 1e-10 at most, so 1e-8 is ample.
        assert m == math.floor((fit.C * z) ** (-1.0 / fit.alpha))
        for column, want in (("fit_C", fit.C), ("fit_alpha", fit.alpha), ("fit_r2", fit.r_squared),
                             ("radius_estimate", report.radius_estimate)):
            assert float(row[column]) == pytest.approx(want, rel=1e-8), column
        assert row["verdict"] == report.verdict.value
