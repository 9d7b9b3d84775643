"""Seeded workloads: the operations each one runs and how each result is checked.

``build(workload, seed, workdir)`` writes the JSON configs the CLI reads into
``workdir`` and returns the timed operations and the untimed probes.  The
program receives only those configs; everything random is drawn here from
the seed, and every seeded choice keeps the amount of work per pass the
same, so that different seeds give comparable times.

An operation is one in-process CLI invocation or one direct library call.
It fails when an untyped exception escapes it, or when it reports an error
where the oracle says a value exists.  Every returned value is compared
with its oracle (see oracles.py); a value outside its tail bound plus the
rounding allowance is a miss.  Probes are operations the seed is known to
get wrong; they run once per run, untimed, so that fixing them moves no
time metric.
"""

from __future__ import annotations

import cmath
import csv
import functools
import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import oracles as orc

#: Time metric of each CLI command: its invocations in one pass, summed.
COMMAND_METRICS = ("eval_s", "polar_s", "jet_s", "gevrey_s", "residual_s", "covering_s", "curve_s")

_C, _ALPHA, _LAM = 0.05, 2.0, 1.5


@dataclass
class Outcome:
    """What one operation produced: exit code and text for CLI runs, a value
    for library calls, and the exception if one escaped."""

    code: int = 0
    stdout: str = ""
    stderr: str = ""
    value: Any = None
    error: BaseException | None = None


@dataclass
class Verdict:
    failed: bool
    checked: int = 0
    misses: int = 0
    note: str = ""


@dataclass
class Op:
    name: str
    metric: str  # the command time metric (or lib_s) this operation adds to
    run: Callable[[], Outcome]
    check: Callable[[Outcome], Verdict]
    #: Work counts known from the inputs, reported with the traced layers.
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    probes: list[Op] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------


def invoke_cli(args: list[str]) -> Outcome:
    """Run one meandro command in this process and capture what it prints."""
    from meandro import cli

    out, err = io.StringIO(), io.StringIO()
    outcome = Outcome()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            cli.main.main(args=args, prog_name="meandro", standalone_mode=False)
    except SystemExit as exc:
        outcome.code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an untyped error escaping the CLI is a failure
        outcome.code, outcome.error = 1, exc
    outcome.stdout, outcome.stderr = out.getvalue(), err.getvalue()
    return outcome


def invoke_lib(fn: Callable[[], Any]) -> Outcome:
    try:
        return Outcome(value=fn())
    except Exception as exc:  # recorded and classified by the check
        return Outcome(code=1, error=exc)


def _error_verdict(outcome: Outcome) -> Verdict | None:
    """A failure verdict when the operation produced no value, else None."""
    from meandro.errors import MeandroError

    err = outcome.error
    if err is not None:
        kind = "typed" if isinstance(err, MeandroError) else "untyped"
        return Verdict(True, note=f"{kind} {type(err).__name__}: {err}")
    if outcome.code != 0:
        return Verdict(True, note=f"exit {outcome.code}: {outcome.stderr.strip()[:200]}")
    return None


def rows_check(compare: Callable[[list[dict]], list[bool]]) -> Callable[[Outcome], Verdict]:
    """Check a CLI result: it must exit 0 and every oracle comparison must hold."""

    def check(outcome: Outcome) -> Verdict:
        bad = _error_verdict(outcome)
        if bad is not None:
            return bad
        results = compare(list(csv.DictReader(io.StringIO(outcome.stdout))))
        return Verdict(False, len(results), results.count(False))

    return check


def value_check(compare: Callable[[Any], list[bool]]) -> Callable[[Outcome], Verdict]:
    def check(outcome: Outcome) -> Verdict:
        bad = _error_verdict(outcome)
        if bad is not None:
            return bad
        results = compare(outcome.value)
        return Verdict(False, len(results), results.count(False))

    return check


def _once(fn: Callable[[], Any]) -> Callable[[], Any]:
    """Compute an oracle on first use, so that building a workload stays cheap."""
    return functools.cache(fn)


def _complex(row: dict, re: str, im: str) -> complex:
    return complex(float(row[re]), float(row[im]))


def _counted(rows: list[dict], expected: int, results: list[bool]) -> list[bool]:
    """Missing or extra rows count as misses."""
    return results + [False] * abs(expected - len(rows))


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def cli(self, name: str, metric: str, command: str, config: dict, extra: list[str],
            compare: Callable[[list[dict]], list[bool]]) -> Op:
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        args = [command, "--config", path, *extra]
        return Op(name, metric, lambda: invoke_cli(args), rows_check(compare))


def _lib(name: str, fn: Callable[[], Any], compare: Callable[[Any], list[bool]]) -> Op:
    return Op(name, "lib_s", lambda: invoke_lib(fn), value_check(compare))


# ---------------------------------------------------------------------------
# Shared comparisons
# ---------------------------------------------------------------------------


def _model(name: str, x: float | None = None, c: float = _C) -> dict:
    cfg = {"name": name, "c": c, "alpha": _ALPHA, "lambda": _LAM}
    if x is not None:
        cfg["x"] = x
    return cfg


def _sum_rows(points: list[complex], reference: Callable[[complex], tuple[complex, float]]):
    """Rows of `eval` at exactly these points, each within tail + rounding."""
    reference = functools.cache(reference)

    def compare(rows: list[dict]) -> list[bool]:
        out = []
        for row, z in zip(rows, points):
            if _complex(row, "z_re", "z_im") != z or row["status"] != "ok":
                out.append(False)
                continue
            want, scale = reference(z)
            got = _complex(row, "S_re", "S_im")
            out.append(orc.close(got, want, float(row["tail_bound"]), scale, orc.SUM_REL))
        return _counted(rows, len(points), out)

    return compare


def _jet_rows(want: Callable[[], list[float]]):
    want = _once(want)

    def compare(rows: list[dict]) -> list[bool]:
        oracle = want()
        out = []
        for row in rows:
            k = int(row["k"])
            got = _complex(row, "a_re", "a_im")
            out.append(orc.close(got, oracle[k], float(row["tail_bound"]), abs(oracle[k]), orc.JET_REL))
        return _counted(rows, len(oracle), out)

    return compare


def _jet_values(want: Callable[[], list[float]]):
    want = _once(want)

    def compare(jet) -> list[bool]:
        oracle = want()
        out = [
            orc.close(complex(a), ref, float(tail), abs(ref), orc.JET_REL)
            for a, tail, ref in zip(jet.coefficients, jet.coefficient_tails, oracle)
        ]
        return out + [False] * abs(len(oracle) - len(jet.coefficients))

    return compare


def _laurent_rows(x: float, sheet: int, centre: complex, r: float, k_min: int, k_max: int):
    coefficients = _once(lambda: orc.qlog_laurent(x, sheet, centre, k_min, k_max))
    radius = math.sqrt(_LAM) * r
    ring = centre + radius * np.exp(2j * math.pi * np.arange(256) / 256)
    sup = float(np.max(np.abs(x**sheet / (ring**sheet - 1.0))))

    def compare(rows: list[dict]) -> list[bool]:
        want = coefficients()
        out = []
        for row in rows:
            k = int(row["k"])
            got = _complex(row, "c_re", "c_im")
            out.append(orc.close(got, want[k], 0.0, sup * radius ** (-k), orc.LAURENT_REL))
        return _counted(rows, k_max - k_min + 1, out)

    return compare


def _fiber_rows(x: float, omega: complex, z: complex):
    def compare(rows: list[dict]) -> list[bool]:
        want = orc.fiber_sum(x, omega, z)
        out = [
            abs(_complex(row, "S_re", "S_im") - want) <= float(row["tail_bound"]) + orc.MARGIN_ABS
            for row in rows
        ]
        return _counted(rows, 1, out)

    return compare


def _residual_rows(family: dict, points: list[complex], cutoff: int):
    verdicts = _once(lambda: [orc.membership(family, z, cutoff) for z in points])

    def compare(rows: list[dict]) -> list[bool]:
        out = []
        for row, z, (state, sheet, pole) in zip(rows, points, verdicts()):
            ok = _complex(row, "z_re", "z_im") == z and row["status"] == state
            if ok and state == "out":
                got_pole = _complex(row, "pole_re", "pole_im")
                ok = int(row["witness_sheet"]) == sheet and abs(got_pole - pole) <= 1e-12
            out.append(ok)
        return _counted(rows, len(points), out)

    return compare


def _grid(re: tuple[float, float, int], im: tuple[float, float, int]) -> tuple[dict, list[complex]]:
    spec = {"re_start": re[0], "re_stop": re[1], "re_count": re[2],
            "im_start": im[0], "im_stop": im[1], "im_count": im[2]}
    points = [complex(a, b) for b in np.linspace(*im) for a in np.linspace(*re)]
    return spec, points


def _box(centre: complex, half: float, count: int):
    return _grid((centre.real - half, centre.real + half, count),
                 (centre.imag - half, centre.imag + half, count))


def _curve_rows(n: int, xs: np.ndarray):
    want = _once(lambda: [(float(x), orc.curve_roots(float(x), n)) for x in xs])

    def compare(rows: list[dict]) -> list[bool]:
        got: dict[float, list[float]] = {}
        for row in rows:
            got.setdefault(float(row["x"]), []).append(float(row["z"]))
        out = []
        for x, roots in want():
            found = got.get(x, [])
            for i, root in enumerate(roots):
                out.append(i < len(found) and abs(found[i] - root) <= orc.ROOT_REL * max(abs(root), 1e-3))
            out.extend([False] * max(0, len(found) - len(roots)))
        return out

    return compare


# ---------------------------------------------------------------------------
# eval-grid
# ---------------------------------------------------------------------------


def _eval_grid(rng: random.Random, w: _Writer) -> Workload:
    ops = []

    # Meander x = 0.95: 1278 sheets at every point (analytic decay certificate).
    pts = [0.3 + 0.2j]
    while len(pts) < 60:
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        near_poles = -1.06 <= z.real <= 0.01 and abs(z.imag) < 0.06
        if abs(z) < 1.5 and not near_poles:
            pts.append(z)
    ops.append(w.cli("eval-meander", "eval_s", "eval",
                     {"model": _model("meander", 0.95), "eval": {"points": [[z.real, z.imag] for z in pts]}},
                     [], _sum_rows(pts, lambda z: orc.meander_sum(0.95, z))))

    # q-log x = 0.5 along the ray theta = 2 pi sqrt(2) (fitted decay certificate).
    theta = 2.0 * math.pi * math.sqrt(2.0)
    ray = [t * cmath.exp(1j * theta) for t in np.arange(0.0, 2.0, 0.05)]
    ops.append(w.cli("eval-qlog-ray", "eval_s", "eval",
                     {"model": _model("qlog", 0.5),
                      "eval": {"ray": {"theta_turns": math.sqrt(2.0), "t_start": 0.0, "t_stop": 2.0, "t_step": 0.05}}},
                     [], _sum_rows(ray, lambda z: orc.qlog_sum(0.5, z))))

    # q-log x = 0.9 at points kept off the band of removed discs around |z| = 1.
    qpts = []
    while len(qpts) < 20:
        mod = rng.choice((rng.uniform(0.1, 0.92), rng.uniform(1.08, 1.9)))
        qpts.append(mod * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    ops.append(w.cli("eval-qlog-points", "eval_s", "eval",
                     {"model": _model("qlog", 0.9), "eval": {"points": [[z.real, z.imag] for z in qpts]}},
                     [], _sum_rows(qpts, lambda z: orc.qlog_sum(0.9, z))))

    # A finite zero-sum family: sampled norm bounds and the ratio tail.
    poles = [rng.uniform(0.6, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for _ in range(8)]
    zpts = [complex(rng.uniform(-0.28, 0.28), rng.uniform(-0.28, 0.28)) for _ in range(12)]
    ops.append(w.cli("eval-zero-sum", "eval_s", "eval",
                     {"model": {"name": "zero_sum_general", "constant": 1.0, "lambda": _LAM,
                                "poles": [[e.real, e.imag] for e in poles]},
                      "eval": {"points": [[z.real, z.imag] for z in zpts]}},
                     [], _sum_rows(zpts, lambda z: orc.zero_sum_general_sum(1.0, poles, z))))

    # Fiber polar sums of the q-log at omega = 1 (value log 2) and omega = i.
    zi = 1j + rng.uniform(0.5, 1.5) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    for tag, omega, z in (("one", 1.0 + 0j, 2.0 + 0j), ("i", 1j, zi)):
        ops.append(w.cli(f"polar-fiber-{tag}", "polar_s", "polar",
                         {"model": _model("qlog", 0.5),
                          "polar": {"mode": "fiber", "omega": [omega.real, omega.imag], "z": [z.real, z.imag]}},
                         [], _fiber_rows(0.5, omega, z)))

    # Laurent window +-2 around a root of sheet 3 (c_{-1} = x**3 * w/3).
    root = cmath.exp(2j * math.pi * rng.randrange(3) / 3)
    ops.append(w.cli("polar-laurent", "polar_s", "polar",
                     {"model": _model("qlog", 0.5),
                      "polar": {"mode": "laurent", "sheet": 3, "center": [root.real, root.imag], "r": 0.05,
                                "k_min": -2, "k_max": 2}},
                     [], _laurent_rows(0.5, 3, root, 0.05, -2, 2)))

    return Workload("eval-grid", ops, _eval_grid_probes(w))


def _eval_grid_probes(w: _Writer) -> list[Op]:
    from meandro import models, polar, series

    probes = []
    # Finite zero-sum family: stops at sheet 3 with tail_bound 0 (a_3 = 0).
    poles = [Fraction(1, k + 1) for k in range(10)]
    z = 0.02 + 0.01j

    def finite_sum(res) -> list[bool]:
        want, scale = orc.zero_sum_general_sum(1, poles, z)
        return [orc.close(res.value, want, res.tail_bound, scale, orc.SUM_REL)]

    probes.append(_lib("probe-zero-sum-finite",
                       lambda: series.evaluate_sum(models.ZeroSumGeneral(1, poles), z, tol=1e-12),
                       finite_sum))

    # A pole inside the annulus: no Laurent expansion exists, NonConvergent is due.
    def interior_check(outcome: Outcome) -> Verdict:
        from meandro.errors import NonConvergent

        if isinstance(outcome.error, NonConvergent):
            return Verdict(False, 1, 0)
        if outcome.error is not None:
            return Verdict(True, note=f"{type(outcome.error).__name__}: {outcome.error}")
        return Verdict(False, 1, 1, "returned coefficients for an annulus holding a pole")

    probes.append(Op("probe-interior-singularity", "lib_s",
                     lambda: invoke_lib(lambda: polar.laurent_coefficients(
                         lambda zs: 1.0 / (zs - 0.7), polar.AnnulusSpec(0j, 0.5, 2.0), k_min=-4, k_max=4)),
                     interior_check))

    # Window +-32 on a mid circle: settles only if convergence is judged on |c_k| R**k.
    ann = polar.AnnulusSpec(0.2 + 0.1j, 0.3, 2.0)
    pole = ann.center + 0.1
    f = lambda zs: 1.0 / (zs - pole) + np.cos(zs)
    ring = ann.center + ann.mid_radius * np.exp(2j * math.pi * np.arange(64) / 64)

    def reconstruct(exp) -> list[bool]:
        recon = np.array([exp.evaluate(complex(z)) for z in ring])
        return [float(np.max(np.abs(recon - f(ring)))) <= 1e-8 * float(np.max(np.abs(f(ring))))]

    probes.append(_lib("probe-laurent-mid-circle",
                       lambda: polar.laurent_coefficients(f, ann, k_min=-32, k_max=32), reconstruct))

    probes.append(w.cli("probe-polar-laurent-8", "polar_s", "polar",
                        {"model": _model("qlog", 0.5),
                         "polar": {"mode": "laurent", "sheet": 3, "center": [1.0, 0.0], "r": 0.05,
                                   "k_min": -8, "k_max": 8}},
                        [], _laurent_rows(0.5, 3, 1.0 + 0j, 0.05, -8, 8)))
    return probes


# ---------------------------------------------------------------------------
# jet-deep
# ---------------------------------------------------------------------------


def _gevrey_rows(x: float, order: int, window: tuple[int, int], z_values: list[float], tol: float):
    @_once
    def reference():
        coeffs = orc.meander_jet(x, order)
        return coeffs, orc.gevrey_fit(coeffs, *window), orc.root_test(coeffs)

    def compare(rows: list[dict]) -> list[bool]:
        coeffs, (fit_c, fit_alpha), (radius, verdict) = reference()
        out = []
        for row, z in zip(rows, z_values):
            row_c, row_alpha = float(row["fit_C"]), float(row["fit_alpha"])
            out.append(abs(row_c - fit_c) <= orc.GEVREY_REL * fit_c)
            out.append(abs(row_alpha - fit_alpha) <= orc.GEVREY_REL * abs(fit_alpha))
            out.append(abs(float(row["radius_estimate"]) - radius) <= orc.GEVREY_REL * radius)
            out.append(row["verdict"] == verdict)
            m = int(math.floor((row_c * z) ** (-1.0 / max(row_alpha, 1e-6))))
            terms = [coeffs[k] * z**k for k in range(m)]
            trunc = math.fsum(terms)
            got_t = _complex(row, "T_re", "T_im")
            out.append(int(row["m"]) == m and abs(got_t - trunc) <= orc.GEVREY_REL * sum(map(abs, terms)))
            want_s, scale = orc.meander_sum(x, z)
            got_s = _complex(row, "S_re", "S_im")
            out.append(orc.close(got_s, want_s, tol, scale, orc.SUM_REL))
            out.append(abs(float(row["abs_error"]) - abs(want_s - trunc))
                       <= tol + orc.GEVREY_REL * (abs(want_s) + sum(map(abs, terms))))
        return _counted(rows, len(z_values), out)

    return compare


def _jet_deep(rng: random.Random, w: _Writer) -> Workload:
    from meandro import covering, models, series

    ops = [
        w.cli("jet-meander-30", "jet_s", "jet",
              {"model": _model("meander", 0.95), "jet": {"z0": [0.0, 0.0], "order": 30}},
              ["--cutoff", "200000"], _jet_rows(lambda: orc.meander_jet(0.95, 30))),
        w.cli("jet-qlog-8", "jet_s", "jet",
              {"model": _model("qlog", 0.9), "jet": {"z0": [0.0, 0.0], "order": 8}},
              [], _jet_rows(lambda: orc.lambert_jet(0.9, 8))),
    ]
    z_values = sorted(rng.uniform(0.03, 0.3) for _ in range(3))
    ops.append(w.cli("gevrey-meander-40", "gevrey_s", "gevrey",
                     {"model": _model("meander", 0.5, c=0.1),
                      "gevrey": {"z0": [0.0, 0.0], "order": 40, "window": [5, 40], "z_values": z_values}},
                     [], _gevrey_rows(0.5, 40, (5, 40), z_values, 1e-10)))

    ops.append(_lib("jet-pullback-20",
                    lambda: series.taylor_jet(covering.pullback_model(models.MeanderModel(0.5, c=0.1), 2), 0j, 20),
                    _jet_values(lambda: orc.pullback_jet(orc.meander_jet(0.5, 10), 2, 20))))
    # The pi_k zero-sum jet is exactly [1, 0, 0, ...]; order 12 is the highest
    # the seed gets right, order 20 runs as a probe.
    ops.append(_lib("jet-zero-sum-pik-12",
                    lambda: series.taylor_jet(models.ZeroSumPiK(), 0j, 12),
                    _jet_values(lambda: [1.0] + [0.0] * 12)))
    return Workload("jet-deep", ops, _jet_deep_probes(w))


def _jet_deep_probes(w: _Writer) -> list[Op]:
    from meandro import models, series

    cases = [(j, x) for j in (1, 3, 5, 8) for x in (0.3, 0.5, -0.4)]

    def power_sums():
        return [models.geometric_power_sum(j, x) for j, x in cases]

    def compare(values) -> list[bool]:
        return [abs(v - float(orc.power_sum(j, x))) <= 1e-12 * abs(float(orc.power_sum(j, x)))
                for v, (j, x) in zip(values, cases)]

    return [
        _lib("probe-power-sums", power_sums, compare),
        # Alternating sums of factorial-sized integers cancel in floating point
        # from order 14 on, while the reported tails stay 0.
        _lib("probe-zero-sum-pik-20", lambda: series.taylor_jet(models.ZeroSumPiK(), 0j, 20),
             _jet_values(lambda: [1.0] + [0.0] * 20)),
        w.cli("probe-jet-120", "jet_s", "jet",
              {"model": _model("meander", 0.5, c=0.1), "jet": {"z0": [0.0, 0.0], "order": 120}},
              ["--json"], _jet_rows(lambda: orc.meander_jet(0.5, 120))),
    ]


# ---------------------------------------------------------------------------
# residual-scan
# ---------------------------------------------------------------------------


def _residual_scan(rng: random.Random, w: _Writer) -> Workload:
    from meandro import geometry

    ops = []
    radius = {"c": _C, "alpha": _ALPHA}

    def residual(name: str, poles: Any, family: dict, spec_points, cutoff: int = 10_000, table=None):
        spec, points = spec_points
        perf = {"poles": poles, "radius": table or radius, "lambda": _LAM}
        extra = [] if cutoff == 10_000 else ["--cutoff", str(cutoff)]
        ops.append(w.cli(name, "residual_s", "residual", {"perforation": perf, "residual": {"grid": spec}},
                         extra, _residual_rows(family, points, cutoff)))

    r_n = lambda n: _C / n**_ALPHA
    delta = rng.uniform(-0.002, 0.002)
    half = rng.uniform(0.4, 0.6)

    # Roots of unity.  Far box: every point is 'in' after a full scan.
    roots = {"kind": "roots", "c": _C, "alpha": _ALPHA}
    far = rng.uniform(0.3, 0.55) if rng.random() < 0.5 else rng.uniform(1.3, 1.5)
    centre = far * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    residual("residual-roots-far", "roots_of_unity", roots, _box(centre, 0.15, 4))
    # Radial line through a root of order 1, 2 or 4: its middle point is 'out'
    # on that sheet, the other eight are 0.1 or more off the circle and 'in'.
    p = rng.choice((1.0, -1.0, 1j, -1j))
    if p.imag == 0:
        line = _grid((p.real - half, p.real + half, 9), (delta, delta, 1))
    else:
        line = _grid((delta, delta, 1), (p.imag - half, p.imag + half, 9))
    residual("residual-roots-line", "roots_of_unity", roots, line)
    # Small box inside the removed disc of a root on a low sheet: early 'out'.
    n = rng.randint(2, 12)
    root = cmath.exp(2j * math.pi * rng.randrange(n) / n)
    residual("residual-roots-near", "roots_of_unity", roots, _box(root, 0.4 * r_n(n), 3))

    # Meander poles -1/n on the real segment [-1, 0).
    meander = {"kind": "meander", "c": _C, "alpha": _ALPHA}
    side = rng.choice((-1.0, 1.0))
    centre = complex(rng.uniform(-1.0, 0.1), side * rng.uniform(0.25, 0.4))
    residual("residual-meander-far", "meander", meander, _box(centre, 0.15, 4))
    n = rng.randint(1, 8)
    foot = -1.0 / n + rng.uniform(-0.5, 0.5) * r_n(n)
    line = _grid((foot, foot, 1), (-half, half, 9))
    residual("residual-meander-line", "meander", meander, line)
    n = rng.randint(1, 10)
    residual("residual-meander-near", "meander", meander, _box(complex(-1.0 / n), 0.4 * r_n(n), 3))

    # Explicit table scanned to sheet 20 of 30: survivors are 'unknown'.
    spec, points = _box(0j, 0.9, 6)
    table = {n: [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)] for n in range(1, 31)}
    for n, z in zip(rng.sample(range(1, 21), 3), rng.sample(points, 3)):
        table[n][0] = z + 0.001
    radii = {n: 0.02 for n in table}
    explicit = {"explicit": [[n, p.real, p.imag] for n, ps in table.items() for p in ps]}
    residual("residual-explicit", explicit, {"kind": "explicit", "poles": table, "radii": radii},
             (spec, points), cutoff=20, table={"table": {str(n): r for n, r in radii.items()}})

    # Cauchy-radius checks, direct library calls (no CLI command exists).
    meander_perf = geometry.Perforation(geometry.MeanderPoles(), geometry.DiophantineRadius(_C, _ALPHA, _LAM))
    entries = [(complex(-1.0 / n), r_n(n)) for n in range(1, 601)]
    ops.append(_cauchy_op("cauchy-meander", meander_perf, 600, entries))
    lattice = {}
    for i in range(100):
        spot = complex(i % 10, i // 10) * 0.2 + complex(rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02))
        lattice.setdefault(1 + i // 2, []).append(spot)
    explicit_perf = geometry.Perforation(
        geometry.ExplicitPoles(lattice), geometry.TableRadius({n: 0.04 for n in lattice}, lam=_LAM))
    entries = [(p, 0.04) for ps in lattice.values() for p in ps]
    ops.append(_cauchy_op("cauchy-explicit", explicit_perf, max(lattice), entries))

    # Covering inclusion sweep: 2 exponents x 2 radii x 4 moduli.
    moduli = sorted(rng.uniform(0.15, 1.0) for _ in range(4))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    cfg = {"alphas": [2, 3], "radii": [1e-2, 1e-3], "moduli": moduli, "angles": 360, "phase": phase}
    ops.append(w.cli("covering", "covering_s", "covering", {"covering": cfg}, [], _covering_rows(cfg)))

    # Truncated meander curve at n = 8, where the companion-matrix roots are accurate.
    xs = np.linspace(rng.uniform(0.0, 0.05), rng.uniform(0.85, 0.9), 19)
    ops.append(w.cli("curve-8", "curve_s", "curve",
                     {"curve": {"n": 8, "x_start": float(xs[0]), "x_stop": float(xs[-1]), "x_count": 19}},
                     [], _curve_rows(8, xs)))

    probes = [w.cli("probe-curve-39", "curve_s", "curve", {"curve": {"n": 39}}, [],
                    _curve_rows(39, np.linspace(0.0, 0.9, 19)))]
    return Workload("residual-scan", ops, probes)


def _cauchy_op(name: str, perf, cutoff: int, entries: list[tuple[complex, float]]) -> Op:
    from meandro import geometry

    verified = _once(lambda: orc.cauchy_verified(entries, _LAM))
    op = _lib(name, lambda: geometry.cauchy_radius_check(perf, cutoff),
              lambda flag: [(flag.state.value == "verified") == verified()])
    # A verified check compares every pair of poles once.
    op.counts["geometry.cauchy_pairs"] = len(entries) * (len(entries) - 1) // 2
    return op


def _covering_rows(cfg: dict):
    cases = [(a, r, m) for a in cfg["alphas"] for r in cfg["radii"] for m in cfg["moduli"]]

    def compare(rows: list[dict]) -> list[bool]:
        out = []
        for row, (a, r, m) in zip(rows, cases):
            s, rho, margins = orc.inclusion_margins(m * cmath.exp(1j * cfg["phase"]), r, a, cfg["angles"])
            ok = (int(row["alpha"]), float(row["r"]), float(row["omega_abs"])) == (a, r, m)
            ok = ok and abs(float(row["s"]) - s) <= 1e-14 * s and abs(float(row["rho"]) - rho) <= 1e-14 * rho
            if margins is None:
                ok = ok and row["status"].startswith("hypothesis_violated")
            else:
                pre, img = float(row["margin_preimage"]), float(row["margin_image"])
                ok = ok and abs(pre - margins[0]) <= orc.MARGIN_ABS and abs(img - margins[1]) <= orc.MARGIN_ABS
                ok = ok and row["status"] == ("pass" if min(margins) >= -1e-12 else "fail")
            out.append(ok)
        return _counted(rows, len(cases), out)

    return compare


_GENERATORS = {"eval-grid": _eval_grid, "jet-deep": _jet_deep, "residual-scan": _residual_scan}
NAMES = tuple(_GENERATORS)


def build(workload: str, seed: int, workdir: str) -> Workload:
    """Generate the inputs of one workload from the seed and write its configs.

    Why each workload exists is recorded in BENCHMARK.json.
    """
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"), _Writer(workdir))
