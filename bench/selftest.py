"""Self-tests of the benchmark: oracles, counters, miss and failure accounting.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the package's own test run.
"""

from __future__ import annotations

import cmath
import math
import os
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles as orc  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

from meandro import (  # noqa: E402
    MeanderModel,
    QLogModel,
    ZeroSumGeneral,
    cauchy_radius_check,
    divergence_diagnostic,
    fiber_polar_sum,
    gevrey_fit,
    inclusion_check,
    laurent_coefficients,
    meander_curve,
    perforation_from_config,
    pullback_model,
    residual_membership,
    taylor_jet,
)
from meandro.geometry import DiophantineRadius, ExplicitPoles, MeanderPoles, Perforation, TableRadius  # noqa: E402
from meandro.polar import AnnulusSpec  # noqa: E402
from meandro.series import evaluate_sum  # noqa: E402


# ---------------------------------------------------------------------------
# Each oracle agrees with the library on small inputs
# ---------------------------------------------------------------------------


def _within(got, want, tail, rel=1e-11):
    return abs(got - want) <= tail + rel * max(abs(want), 1e-300)


def test_jet_oracles_match_library():
    jet = taylor_jet(MeanderModel(0.5, c=0.1), 0j, 6)
    for a, t, w in zip(jet.coefficients, jet.coefficient_tails, orc.meander_jet(0.5, 6)):
        assert _within(a, w, t)
    jet = taylor_jet(QLogModel(0.5), 0j, 6)
    for a, t, w in zip(jet.coefficients, jet.coefficient_tails, orc.lambert_jet(0.5, 6)):
        assert _within(a, w, t)
    jet = taylor_jet(pullback_model(MeanderModel(0.5, c=0.1), 2), 0j, 8)
    pullback = orc.pullback_jet(orc.meander_jet(0.5, 4), 2, 8)
    for a, t, w in zip(jet.coefficients, jet.coefficient_tails, pullback):
        assert _within(a, w, t)


def test_sum_oracles_match_library():
    for z in (0.3 + 0.2j, -0.5 + 0.4j, 1.2 - 0.3j):
        res = evaluate_sum(MeanderModel(0.9), z)
        assert _within(res.value, orc.meander_sum(0.9, z)[0], res.tail_bound)
        res = evaluate_sum(QLogModel(0.6), z)
        assert _within(res.value, orc.qlog_sum(0.6, z)[0], res.tail_bound)
    rng = random.Random(3)
    poles = [rng.uniform(0.6, 2.0) * cmath.exp(1j * rng.uniform(0, 6.3)) for _ in range(6)]
    model = ZeroSumGeneral(1.0, poles)
    z = 0.1 - 0.05j
    direct = sum(model.term(k, z) for k in range(6))
    want, scale = orc.zero_sum_general_sum(1.0, poles, z)
    assert abs(want - direct) <= 1e-12 * scale


def test_polar_oracles_match_library():
    model = QLogModel(0.5)
    for omega, z in ((1.0 + 0j, 2.0 + 0j), (1j, 0.3 + 1.7j)):
        res = fiber_polar_sum(model, omega, z)
        assert abs(res.value - orc.fiber_sum(0.5, omega, z)) <= res.tail_bound + 1e-12
    root = cmath.exp(2j * math.pi / 3)
    ann = AnnulusSpec(root, 0.05, 1.5)
    exp = laurent_coefficients(lambda zs: model.term_array(3, zs), ann, k_min=-2, k_max=2)
    want = orc.qlog_laurent(0.5, 3, root, -2, 2)
    for k in range(-2, 3):
        assert abs(exp.coefficient(k) - want[k]) <= 1e-12 * (0.06 ** -k)


def test_membership_oracle_matches_library():
    rng = random.Random(7)
    families = [
        ({"poles": "roots_of_unity", "radius": {"c": 0.05, "alpha": 2}, "lambda": 1.5},
         {"kind": "roots", "c": 0.05, "alpha": 2.0}),
        ({"poles": "meander", "radius": {"c": 0.05, "alpha": 2}, "lambda": 1.5},
         {"kind": "meander", "c": 0.05, "alpha": 2.0}),
    ]
    for config, family in families:
        perf = perforation_from_config(config)
        for _ in range(40):
            z = complex(rng.uniform(-1.3, 1.3), rng.uniform(-0.2, 0.2))
            got = residual_membership(perf, z, cutoff=500)
            state, sheet, pole = orc.membership(family, z, 500)
            assert got.state.value == state and got.sheet == sheet
            if pole is not None:
                assert abs(got.pole - pole) <= 1e-12


def test_geometry_oracles_match_library():
    meander = Perforation(MeanderPoles(), DiophantineRadius(0.05, 2.0, 1.5))
    entries = [(complex(-1.0 / n), 0.05 / n**2) for n in range(1, 61)]
    assert (cauchy_radius_check(meander, 60).state.value == "verified") == orc.cauchy_verified(entries, 1.5)
    crowded = Perforation(ExplicitPoles({1: [0j], 2: [0.05 + 0j]}), TableRadius({1: 0.03, 2: 0.03}, lam=1.5))
    assert cauchy_radius_check(crowded, 2).state.value == "refuted"
    assert not orc.cauchy_verified([(0j, 0.03), (0.05 + 0j, 0.03)], 1.5)

    for omega, r, a in ((0.5 * cmath.exp(0.3j), 0.01, 2), (0.9, 0.001, 3), (0.2, 0.01, 3)):
        s, rho, margins = orc.inclusion_margins(omega, r, a, 360)
        if margins is None:
            continue
        rep = inclusion_check(omega, r, a, 360)
        assert abs(rep.margin_preimage - margins[0]) <= 1e-12
        assert abs(rep.margin_image - margins[1]) <= 1e-12

    for x, roots in meander_curve(4, [0.0, 0.3, 0.8]):
        assert np.allclose(roots, orc.curve_roots(x, 4), rtol=1e-10, atol=1e-12)


def test_gevrey_oracles_match_library():
    coeffs = orc.meander_jet(0.5, 30)
    fit = gevrey_fit(coeffs, window=(5, 30))
    c, alpha = orc.gevrey_fit(coeffs, 5, 30)
    assert fit.C == pytest.approx(c, rel=1e-12) and fit.alpha == pytest.approx(alpha, rel=1e-12)
    report = divergence_diagnostic(coeffs)
    radius, verdict = orc.root_test(coeffs)
    assert report.radius_estimate == pytest.approx(radius, rel=1e-12) and report.verdict.value == verdict


# ---------------------------------------------------------------------------
# Counters repeat exactly; accounting of misses and failures
# ---------------------------------------------------------------------------


def _traced_layers(workload: str, seed: int, workdir: Path, only: str | None = None):
    wl = workloads.build(workload, seed, str(workdir))
    ops = [op for op in wl.ops if only is None or op.name == only]
    os.environ["MEANDRO_THREADS"] = "1"
    tracer = Tracer()
    tracer.install()
    try:
        result = run.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
        del os.environ["MEANDRO_THREADS"]
    assert not any(v.failed or v.misses for v in result.verdicts)
    return tracer.spans, layer_metrics(tracer.spans, {})


COUNTERS = ("series.sheets_visited", "models.derivative_calls", "series.boundary_samples",
            "polar.fft_nodes", "geometry.sheets_scanned", "geometry.nearest_pole_calls",
            "series.norm_bound_calls", "polar.fiber_sheets", "models.term_calls")


@pytest.mark.parametrize("workload", ["eval-grid", "residual-scan"])
def test_counters_repeat_with_the_same_seed(workload, tmp_path):
    first = _traced_layers(workload, 11, tmp_path / "a")[1]
    second = _traced_layers(workload, 11, tmp_path / "b")[1]
    for name in COUNTERS:
        assert first[name] == second[name], name
    assert any(first[name] for name in COUNTERS)


def test_known_sheet_counts(tmp_path):
    spans, _ = _traced_layers("eval-grid", 2, tmp_path / "e", only="eval-meander")
    first_engine = next(s for s in spans if s.name == "series.engine")
    assert first_engine.agg[("series.engine", "series.clearance")][0] == 1278  # z = 0.3 + 0.2j
    _, layers = _traced_layers("jet-deep", 2, tmp_path / "j", only="jet-qlog-8")
    assert layers["series.sheets_visited"] == 19018


def test_perturbed_result_is_a_miss(tmp_path):
    wl = workloads.build("eval-grid", 5, str(tmp_path))
    op = next(op for op in wl.ops if op.name == "eval-meander")
    outcome = op.run()
    assert op.check(outcome) == workloads.Verdict(False, 60, 0)
    lines = outcome.stdout.splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))
    outcome.stdout = "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"
    assert op.check(outcome).misses == 1

    jets = workloads.build("jet-deep", 5, str(tmp_path)).ops
    lib = next(op for op in jets if op.name == "jet-zero-sum-pik-12")
    outcome = lib.run()
    assert lib.check(outcome).misses == 0
    outcome.value.coefficients[3] += 1e-6
    assert lib.check(outcome).misses == 1


def test_pass_time_is_rescaled_by_the_reference_loop(monkeypatch):
    # A host on which the reference loop takes twice its nominal time runs
    # everything twice as slowly, so the rescaled pass time is half the wall time.
    monkeypatch.setattr(run, "reference_loop", lambda: 2 * run.CAL_REF_S)
    op = workloads.Op("sleep", "lib_s", lambda: workloads.invoke_lib(lambda: time.sleep(0.05)),
                      workloads.value_check(lambda value: []))
    result = run.run_pass([op] * 12)
    assert len(result.loops) >= 2
    assert result.ref_seconds == pytest.approx(result.seconds / 2)


def test_untyped_exception_is_a_failure(tmp_path, monkeypatch):
    from meandro import cli

    def broken(*args, **kwargs):
        raise OverflowError("int too large to convert to float")

    wl = workloads.build("jet-deep", 5, str(tmp_path))
    monkeypatch.setattr(cli, "taylor_jet", broken)
    jet = next(op for op in wl.ops if op.name == "jet-qlog-8")
    verdict = jet.check(jet.run())
    assert verdict.failed and "untyped OverflowError" in verdict.note

    def raising():
        raise ValueError("bare")

    op = workloads.Op("raises", "lib_s", lambda: workloads.invoke_lib(raising),
                      workloads.value_check(lambda value: []))
    pik = next(op for op in wl.ops if op.name == "jet-zero-sum-pik-12")
    result = run.run_pass([op, pik])
    assert result.verdicts[0].failed and not result.verdicts[1].failed


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_follows_benchmark_json(trace):
    import json
    import subprocess

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "eval-grid", "--seed", "1",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in wanted)
