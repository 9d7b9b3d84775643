import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandro import (
    AnnulusSpec,
    HypothesisViolated,
    OutOfRegime,
    MeanderModel,
    QLogModel,
    ZeroSumGeneral,
    coefficient_sum,
    evaluate_sum,
    fiber_polar_sum,
    gevrey_fit,
    inclusion_check,
    induced_radii,
    laurent_coefficients,
    pullback_model,
    taylor_jet,
)
from meandro import series
from meandro.covering import _PullbackPoles
from meandro.geometry import DiophantineRadius, ExplicitPoles, MeanderPoles, Perforation


def test_identity_covering_radii():
    s, rho = induced_radii(0.37, 1)
    assert s == 0.37 and rho == 0.37


def test_degree_two_radii():
    s, rho = induced_radii(0.01, 2)
    assert s == pytest.approx(2.0 * 0.01**1.5 / 3.0)
    assert rho == pytest.approx(0.01 / 3.0)


@settings(max_examples=50, deadline=None)
@given(r=st.floats(1e-4, 1.0), alpha=st.integers(1, 6))
def test_scaling_identity(r, alpha):
    s, rho = induced_radii(r, alpha)
    assert s == pytest.approx(alpha * r ** (1.0 - 1.0 / alpha) * rho, rel=1e-12)


def test_exponent_past_the_float_range_is_out_of_regime(meander_tight):
    # 2**1023 - 1 is a float; 2**1024 is not.
    assert induced_radii(0.5, 1023)[1] == 0.5 / (2.0**1023 - 1.0)
    for exponent, build in (
        (1024, lambda: induced_radii(0.5, 1024)),
        (1100, lambda: pullback_model(meander_tight, 1100)),
    ):
        with pytest.raises(OutOfRegime, match=f"covering exponent {exponent} ") as info:
            build()
        assert info.value.witness == {"alpha": exponent}


def test_identity_covering_has_zero_margins():
    rep = inclusion_check(0.5 + 0j, 0.01, 1, 360)
    assert abs(rep.margin_preimage) <= 1e-12
    assert abs(rep.margin_image) <= 1e-12


def test_inclusion_degree_two():
    rep = inclusion_check(0.5 + 0j, 0.01, 2, 360)
    assert rep.passed
    assert rep.margin_preimage > 0 and rep.margin_image > 0


def test_inclusion_hypothesis_gate():
    # r at least |omega**alpha| violates the standing hypothesis.
    with pytest.raises(HypothesisViolated):
        inclusion_check(0.5 + 0j, 0.3, 2, 90)


def test_inclusion_grid():
    # One grid point (alpha=3, r=0.01, |omega|=0.2) violates r < |omega**alpha|
    # and must be reported, not silently skipped.
    for alpha in (2, 3):
        for r in (1e-2, 1e-3):
            for mod in (0.2, 0.5, 0.9, 1.0):
                omega = mod * np.exp(0.3j)
                if r >= mod**alpha:
                    with pytest.raises(HypothesisViolated):
                        inclusion_check(omega, r, alpha, 360)
                else:
                    assert inclusion_check(omega, r, alpha, 360).passed


# ---------------------------------------------------------------------------
# Pullback sequences
# ---------------------------------------------------------------------------


def test_pullback_identity(meander_tight):
    pb = pullback_model(meander_tight, 1)
    z = 0.2 + 0.1j
    assert pb.term(3, z) == meander_tight.term(3, z)


def test_pullback_evaluation_commutes(meander_tight):
    pb = pullback_model(meander_tight, 2)
    w = 0.3 + 0j
    lhs = evaluate_sum(pb, w, tol=1e-12)
    rhs = evaluate_sum(meander_tight, w**2, tol=1e-12)
    assert abs(lhs.value - rhs.value) <= lhs.tail_bound + rhs.tail_bound + 1e-14


def test_pullback_pole_preimages(meander_tight):
    pb = pullback_model(meander_tight, 2)
    poles = sorted(pb.perforation.poles_on_sheet(4), key=lambda p: p.imag)
    assert poles[0] == pytest.approx(-0.5j)
    assert poles[1] == pytest.approx(0.5j)
    # radius shrinks by 2**beta - 1
    assert pb.perforation.radius_at(4) == pytest.approx(
        meander_tight.perforation.radius_at(4) / 3.0
    )


def test_pullback_of_a_finite_family_stops_at_its_last_sheet():
    # The pullback keeps the base family's last sheet: the sum ends there
    # with tail 0 instead of asking the base for sheet 10.
    base = ZeroSumGeneral(1, [1 / (k + 1) for k in range(10)])
    pb = pullback_model(base, 2)
    w = 0.3
    z = 0j + w**2
    direct = evaluate_sum(base, z)
    res = evaluate_sum(pb, w)
    assert res.tail_bound == 0.0 and res.terms_used == direct.terms_used == 9
    assert res.value == pytest.approx(direct.value, rel=1e-12)
    jet = taylor_jet(pb, w, 1)
    assert np.all(jet.coefficient_tails == 0.0)
    assert jet.coefficients[0] == pytest.approx(direct.value, rel=1e-12)
    slope = coefficient_sum(base, z, 1).value * 2 * w
    assert jet.coefficients[1] == pytest.approx(slope, rel=1e-12)


def test_pullback_chain_rule_exact(meander_tight):
    pb = pullback_model(meander_tight, 2)
    w, n = 0.4 + 0.1j, 3
    z = w * w
    # In Taylor coefficients a_k = f^(k)/k!: F(w) = f(w**2) has F'' = f''*(2w)**2 + f'*2, so A_2 = a_2*(2w)**2 + a_1.
    a = lambda seq, n, k, z: seq.taylor_coefficients(np.array([n]), k, z)[k, 0]
    assert a(pb, n, 1, w) == pytest.approx(a(meander_tight, n, 1, z) * 2 * w)
    assert a(pb, n, 2, w) == pytest.approx(a(meander_tight, n, 2, z) * (2 * w) ** 2 + a(meander_tight, n, 1, z))
    pb3 = pullback_model(meander_tight, 3)
    expect = a(meander_tight, n, 2, w**3) * (3 * w**2) ** 2 + a(meander_tight, n, 1, w**3) * 3 * w
    assert a(pb3, n, 2, w) == pytest.approx(expect)


def test_pullback_residues_and_fiber_sums():
    # A preimage a of a base pole is a simple pole: the base residue over beta * a**(beta-1).
    pb = pullback_model(MeanderModel(0.5, c=0.1), 2)
    a, w = -1j / 5**0.5, 0.3 + 0.2j
    laurent = laurent_coefficients(lambda ws: pb.term_array(5, ws), AnnulusSpec(a, 0.01, 1.5), k_min=-2, k_max=2)
    assert pb.residue(5, a) == pytest.approx(laurent.coefficient(-1), rel=1e-10)
    res = fiber_polar_sum(pb, a, w)  # sheet 5 alone holds a
    assert res.terms_used == 5 and res.tail_bound == 0.0
    assert res.value == pytest.approx(pb.residue(5, a) / (w - a), rel=1e-14)
    # Every sheet of the q-log holds the root 1, the preimage of 1 under w -> w**2.
    pq = pullback_model(QLogModel(0.5), 2)
    res = fiber_polar_sum(pq, 1.0 + 0j, 2.0 + 0j, tol=1e-12)
    brute = sum(pq.residue(n, 1.0 + 0j) / (2.0 - 1.0) for n in range(1, 3001))
    assert abs(res.value - brute) <= res.tail_bound + 1e-15
    assert brute == pytest.approx(math.log(2.0) / 2.0, rel=1e-14)


def test_pullback_jet_spreads_coefficients(meander_tight):
    base = taylor_jet(meander_tight, 0j, 5, rel_tol=1e-12)
    pullback = pullback_model(meander_tight, 2)
    spread = taylor_jet(pullback, 0j, 10, rel_tol=1e-12)
    # The pullback has the uniform tails alone, and the base at 0 the power
    # law's as well, so the pullback's lanes stop on later sheets.  Summed to
    # those sheets, the base's series give the pullback's coefficients within
    # their rounding; the two jets agree within their tails and rounding.
    lanes = series._sum_derivative_series(pullback, [0j], range(11), 1e-300, 1e-12, 1.0, 200_000)[0]
    for j in range(6):
        terms = meander_tight.taylor_coefficients(np.arange(1, lanes[2 * j].terms_used + 1), j, 0j)[j]
        exact = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
        a = spread.coefficients[2 * j]
        assert abs(a - exact) <= spread.coefficient_rounding[2 * j] + 2.0**-52 * abs(exact)  # fsum rounds too
        gap = abs(a - base.coefficients[j])
        assert gap <= spread.coefficient_bounds[2 * j] + base.coefficient_bounds[j]
    assert np.all(spread.coefficients[1::2] == 0.0)


_RING = np.exp(2j * np.pi * np.arange(64) / 64)


@pytest.mark.parametrize("beta", [2, 3])
@pytest.mark.parametrize("center", [0j, 0.05 + 0j, 0.3 + 0.1j])
@pytest.mark.parametrize("family, top", [("meander", 200), ("qlog", 30)])
def test_pullback_norm_bound_holds_on_the_rims_of_its_removed_discs(family, top, center, beta):
    # Off its sheet's removed discs a term is largest on their rims (maximum
    # principle; the terms vanish at infinity).  The rims' images come within
    # r_n of the base poles, where the base bound alone does not hold.
    base = MeanderModel(0.9, c=0.1) if family == "meander" else QLogModel(0.9, c=0.05)
    pullback = pullback_model(base, beta, center)
    over_base = 0.0
    for n in range(1, top + 1):
        rho, poles = pullback.perforation.radius_at(n), pullback.poles(n)
        rims = (poles[:, None] + rho * _RING[None, :]).ravel()
        rims = rims[np.abs(rims[:, None] - poles[None, :]).min(axis=1) >= rho * (1.0 - 1e-12)]
        sup = float(np.abs(pullback.term_array(n, rims)).max())
        assert sup <= pullback.norm_bound(n), n
        over_base = max(over_base, sup / base.norm_bound(n))
    assert over_base > 1.0


def test_pullback_sum_beside_a_disc_after_its_stop_is_within_its_tail():
    # At w = i/sqrt(n) + 1.6*rho_n, just off the removed disc about a preimage
    # of the base pole -1/n, the sheet-n term is about 0.94*sqrt(n) times the
    # base norm bound.  With n the sheet after the stop, that term is the
    # first one left out, and the printed tail must still cover the error.
    pullback = pullback_model(MeanderModel(0.9, c=0.1), 2)
    stop = evaluate_sum(pullback, 0.3 + 0.3j).terms_used  # the same at every point
    n = stop + 1
    w = 1j / math.sqrt(n) + 1.6 * pullback.perforation.radius_at(n)
    got = evaluate_sum(pullback, w)
    assert got.terms_used == stop
    terms = [pullback.term(j, w) for j in range(1, 4001)]  # 0.9**4000 is below 1e-180
    exact = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    assert abs(got.value - exact) <= got.tail_bound + 1e-12 * sum(abs(t) for t in terms)
    assert abs(terms[n - 1]) > pullback.base.norm_bound(n)


def test_qlog_pullback_even_function(qlog_half):
    jet = taylor_jet(pullback_model(qlog_half, 2), 0j, 9, rel_tol=1e-11)
    assert np.all(jet.coefficients[1::2] == 0.0)


def test_gevrey_class_transport(meander_tight):
    """Coefficient class divides by the covering degree: alpha/beta.

    The meander jet is class 1; its beta = 1 pullback must fit near 1 and
    its beta = 2 pullback near 1/2, both within the 0.2 transport tolerance.
    """
    fit1 = gevrey_fit(taylor_jet(meander_tight, 0j, 26, rel_tol=1e-10).coefficients, window=(5, 26))
    assert abs(fit1.alpha - 1.0) <= 0.2
    pb = pullback_model(meander_tight, 2)
    fit2 = gevrey_fit(taylor_jet(pb, 0j, 26, rel_tol=1e-10).coefficients, window=(5, 26))
    assert abs(fit2.alpha - 0.5) <= 0.2


def _first_blocked_reference(perf, ns, z):
    """The sheet-by-sheet rule: each sheet's scalar nearest pole, in order."""
    for n in ns.tolist():
        pole, dist = perf.nearest_pole(n, z)
        if dist < perf.radius_at(n):
            return n, pole
    return None


def _explicit_poles(seed: int) -> ExplicitPoles:
    """Listed sheets 1..120 with gaps and zero to three poles each."""
    rng = np.random.default_rng(seed)
    table = {}
    for n in range(1, 121):
        if rng.uniform() < 0.2:
            continue  # an unlisted sheet
        count = int(rng.integers(0, 4))
        table[n] = (rng.uniform(0.2, 1.0, count) * np.exp(1j * rng.uniform(0, math.tau, count))).tolist()
    table.setdefault(1, [0.5 + 0j])
    return ExplicitPoles(table)


@settings(max_examples=60, deadline=None)
@given(
    base=st.sampled_from(["meander", "explicit", "explicit-itself"]),
    beta=st.integers(1, 4),
    center=st.sampled_from([0j, 0.05 + 0j, -0.1 + 0.2j]),
    seed=st.integers(0, 2**16),
    sheet=st.integers(1, 120),
    which=st.integers(0, 12),
    depth=st.sampled_from([0.5, 1.0, 1.5]) | st.floats(0.0, 2.0),
    theta=st.floats(0.0, math.tau),
)
def test_table_first_blocked_matches_sheet_by_sheet(base, beta, center, seed, sheet, which, depth, theta):
    # The padded poles table shortlists; the scalar nearest pole decides, so
    # the verdict and the witness are those of the sheet-by-sheet rule.
    family = MeanderPoles() if base == "meander" else _explicit_poles(seed)
    if base != "explicit-itself":
        family = _PullbackPoles(family, beta, center)
    perf = Perforation(family, DiophantineRadius(0.05, 2.0))
    ns = np.arange(1, 121)
    poles, dists = family.nearest_pole_all(ns, 0.3 + 0.1j)
    for n, pole, dist in zip(ns.tolist(), poles, dists):
        want_pole, want_dist = family.nearest_pole(n, 0.3 + 0.1j)
        assert pole == want_pole and dist == pytest.approx(want_dist, rel=1e-15)
    on_sheet = perf.poles_on_sheet(sheet)
    z = 0.3 + 0.1j  # no pole on the drawn sheet: a point in the open
    if len(on_sheet):
        # On, inside or outside the rim of one of the sheet's discs.
        z = complex(on_sheet[which % len(on_sheet)]) + depth * perf.radius_at(sheet) * cmath.exp(1j * theta)
    assert perf.first_blocked_all(ns, [z])[0] == _first_blocked_reference(perf, ns, z)
