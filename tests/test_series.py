import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from meandro import (
    CompensatedSum,
    DiophantineRequired,
    MeanderModel,
    OutOfRegime,
    PoleProximity,
    QLogModel,
    SequenceSum,
    TolUnreachable,
    ZeroSumGeneral,
    ZeroSumPiK,
    derivative_sum,
    evaluate_sum,
    remainder_bound,
    taylor_jet,
)
from meandro import geometry, models, series, tails
from meandro.covering import pullback_model
from meandro.geometry import DiophantineRadius, MeanderPoles, Perforation
from meandro.series import DecayCert, sampled_norm_bound


def test_compensated_sum_beats_naive():
    acc = CompensatedSum()
    naive = 0.0
    values = [1e16, 1.0, -1e16, 1.0]
    for v in values:
        acc.add(complex(v))
        naive += v
    assert acc.value.real == 2.0
    assert naive != 2.0  # the naive sum loses the small addends


def test_meander_geometric_sum(meander_half):
    res = evaluate_sum(meander_half, 0j, tol=1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.tail_bound <= 1e-12


def test_zero_norm_bound_does_not_end_the_ratio_test():
    # The meander at x = 1/2 with sheet 9 removed and no decay certificate.
    # By sheet 9 the norm-bound ratios are below 1, but the zero bound of
    # sheet 9 says nothing about the sheets beyond it.
    class Gapped(MeanderModel):
        decay_cert = None

        def derivative(self, n, k, z):
            return 0j if n == 9 else super().derivative(n, k, z)

        def norm_bound(self, n):
            return 0.0 if n == 9 else super().norm_bound(n)

    res = evaluate_sum(Gapped(0.5), 0j, tol=1e-12)
    assert res.terms_used > 9
    assert abs(res.value - (1.0 - 0.5**9)) <= res.tail_bound + 1e-15


def test_qlog_sum_at_origin(qlog_half):
    # Terms x**n/(0 - 1): the sum is -x/(1-x) = -1 at x = 1/2.
    res = evaluate_sum(qlog_half, 0j, tol=1e-12)
    assert res.value == pytest.approx(-1.0, abs=1e-12)


def test_qlog_on_circle_matches_plain_partial_sums(qlog_half):
    z = cmath.exp(2j * math.pi * math.sqrt(2))
    res = evaluate_sum(qlog_half, z, tol=1e-12)
    plain = sum(0.5**n / (z**n - 1.0) for n in range(1, 20001))
    assert abs(res.value - plain) <= 1e-11


def test_pole_proximity_raised(meander_half):
    with pytest.raises(PoleProximity) as err:
        evaluate_sum(meander_half, -1.0 + 0.01j, tol=1e-10)
    assert err.value.sheet == 1


def test_zero_sum_not_summable():
    with pytest.raises(TolUnreachable):
        evaluate_sum(ZeroSumPiK(), 0.05 + 0.05j, tol=1e-8)


def test_tail_certificate_sound(meander_half):
    res = evaluate_sum(meander_half, 0.2 + 0.1j, tol=1e-6)
    finer = evaluate_sum(meander_half, 0.2 + 0.1j, tol=1e-14)
    assert abs(res.value - finer.value) <= res.tail_bound


def test_linearity_within_tail_bounds():
    f = MeanderModel(0.3, c=0.05, alpha=2.0, lam=1.5)
    g = MeanderModel(0.4, c=0.05, alpha=2.0, lam=1.5)
    both = SequenceSum(f, g)
    z = 0.2 + 0.1j
    rf, rg, rb = (evaluate_sum(s, z, tol=1e-12) for s in (f, g, both))
    assert abs(rb.value - rf.value - rg.value) <= rb.tail_bound + rf.tail_bound + rg.tail_bound


def test_summation_is_reproducible(meander_half):
    z = 0.11 + 0.07j
    a = evaluate_sum(meander_half, z, tol=1e-11)
    b = evaluate_sum(meander_half, z, tol=1e-11)
    assert a.value == b.value and a.terms_used == b.terms_used


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------


def test_meander_first_order_jet(meander_half):
    jet = taylor_jet(meander_half, 0j, 1, rel_tol=1e-12)
    assert jet.coefficients[0] == pytest.approx(1.0, rel=1e-11)
    assert jet.coefficients[1] == pytest.approx(-2.0, rel=1e-11)


def test_derivative_sum_matches_jet(meander_half):
    res = derivative_sum(meander_half, 0j, 1, tol=1e-10)
    assert res.value == pytest.approx(-2.0, rel=1e-9)
    # order zero is evaluate_sum
    r0 = derivative_sum(meander_half, 0.1 + 0j, 0, tol=1e-10)
    r0b = evaluate_sum(meander_half, 0.1 + 0j, tol=1e-10)
    assert r0.value == r0b.value


def test_qlog_second_derivative_finite_difference(qlog_half):
    z0 = 1.05 * cmath.exp(2j * math.pi * math.sqrt(2))
    d2 = derivative_sum(qlog_half, z0, 2, tol=1e-12)
    h = 1e-5
    fd = (
        evaluate_sum(qlog_half, z0 + h, tol=1e-15).value
        - 2 * evaluate_sum(qlog_half, z0, tol=1e-15).value
        + evaluate_sum(qlog_half, z0 - h, tol=1e-15).value
    ) / h**2
    assert abs(d2.value - fd) / abs(fd) <= 1e-5


def test_jet_vs_central_difference(meander_half, qlog_half):
    rng = np.random.default_rng(7)
    h = 1e-6
    for model, sampler in (
        (meander_half, lambda: complex(rng.uniform(0.1, 0.6), rng.uniform(-0.3, 0.3))),
        (qlog_half, lambda: rng.uniform(0.3, 0.7) * cmath.exp(2j * math.pi * rng.uniform(0, 1))),
    ):
        for _ in range(5):
            z0 = sampler()
            jet = taylor_jet(model, z0, 1, rel_tol=1e-11)
            fd = (
                evaluate_sum(model, z0 + h, tol=1e-14).value
                - evaluate_sum(model, z0 - h, tol=1e-14).value
            ) / (2 * h)
            assert abs(jet.coefficients[1] - fd) / abs(fd) <= 1e-4


def test_remainder_bound_dominates(meander_half):
    jet = taylor_jet(meander_half, 0j, 3, rel_tol=1e-12)
    rng = np.random.default_rng(11)
    for _ in range(100):
        z = complex(rng.uniform(0.005, 0.05), rng.uniform(-0.02, 0.02))
        actual = abs(
            evaluate_sum(meander_half, z, tol=1e-14).value - jet.polynomial(z, terms=3)
        )
        assert actual <= remainder_bound(jet, z)


def test_remainder_bound_zero_at_center(meander_half):
    jet = taylor_jet(meander_half, 0j, 3, rel_tol=1e-12)
    assert remainder_bound(jet, 0j) == 0.0


def test_order_zero_bound_is_norm_sum(meander_half):
    jet = taylor_jet(meander_half, 0j, 0, rel_tol=1e-12)
    # C_0 bounds the sum of the norm bounds, so it dominates |S(f)| anywhere.
    bound = remainder_bound(jet, 0.3 + 0.2j)
    direct = sum(meander_half.norm_bound(n) for n in range(1, 400))
    assert bound >= direct * 0.99
    assert abs(evaluate_sum(meander_half, 0.3 + 0.2j, tol=1e-10).value) <= bound


def test_zero_sum_jet_is_unit(meander_half):
    jet = taylor_jet(ZeroSumPiK(), 0j, 6)
    assert jet.coefficients[0] == 1.0
    assert np.all(jet.coefficients[1:] == 0.0)
    assert not jet.certified
    with pytest.raises(DiophantineRequired):
        remainder_bound(jet, 0.01 + 0j)


def test_uncertified_jet_stops_on_a_stabilised_window():
    # Without a decay certificate each inner sum stops once a window of
    # consecutive terms is negligible; the tails are heuristic, not zero.
    class Uncertified(MeanderModel):
        decay_cert = None

    jet = taylor_jet(Uncertified(0.5), 0.1, 3)
    assert not jet.certified
    assert np.all(jet.coefficient_tails > 0.0)
    reference = taylor_jet(MeanderModel(0.5), 0.1, 3)
    assert reference.certified
    for got, want in zip(jet.coefficients, reference.coefficients):
        assert got == pytest.approx(want, rel=1e-9)


def test_uncertified_jet_that_never_settles_needs_a_certificate():
    class Flat(MeanderModel):
        decay_cert = None

        def derivative(self, n, k, z):
            return 1 + 0j

    with pytest.raises(DiophantineRequired):
        taylor_jet(Flat(0.5), 0.1, 3)


def test_sum_of_finite_families_stops_at_the_last_sheet():
    g = ZeroSumGeneral(1, [1 / (k + 1) for k in range(10)])
    direct = evaluate_sum(g, 0.05)
    res = evaluate_sum(SequenceSum(g, g), 0.05)
    assert res.tail_bound == 0.0 and res.terms_used == direct.terms_used == 9
    assert res.value == pytest.approx(2 * direct.value, rel=1e-12)


def test_norm_bound_certificate_holds(qlog_half, meander_half, meander_tight):
    # The meander fixtures peak at sheets 2 and 3, where an unrounded A ties
    # with the float norm bound.
    for model in (qlog_half, meander_half, meander_tight):
        cert = model.decay_cert
        for n in range(1, 81):
            assert model.norm_bound(n) <= cert.A * cert.rho**n


def test_meander_norm_bound_closed_form(meander_half):
    # sup off the removed disc: |x|**n * n**(alpha-1) / c, sampled check
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 17):
        bound = meander_half.norm_bound(n)
        r_n = meander_half.perforation.radius_at(n)
        for _ in range(200):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z + 1.0 / n) >= r_n:
                assert abs(meander_half.term(n, z)) <= bound * (1 + 1e-12)


# c >= 0.01: the bound's slack is about c/2 relative, while the sampled rims
# of radius c/n**alpha lose about n**alpha * 1e-16 / c of z**n - 1 in floats.
@settings(max_examples=40, deadline=None)
@given(
    modulus=st.floats(0.0, 0.99, exclude_max=True),
    angle=st.floats(0.0, 2.0 * math.pi),
    c=st.floats(0.01, 1.0),
    alpha=st.floats(1.0, 3.0),
    n=st.integers(1, 500),
)
# The smallest subnormal x: the term evaluated on the rim rounds up to
# 3e-323, above the unwidened bound 2.5e-323.
@example(modulus=5e-324, angle=0.0, c=0.25, alpha=1.0, n=1)
def test_qlog_norm_bound_dominates_sampled_sup(modulus, angle, c, alpha, n):
    model = QLogModel(modulus * cmath.exp(1j * angle), c=c, alpha=alpha)
    assert sampled_norm_bound(model, n, inflate=1.0) <= model.norm_bound(n)
    cert = model.decay_cert
    assert model.norm_bound(n) <= cert.A * cert.rho**n


@pytest.mark.parametrize("model_type", [MeanderModel, QLogModel])
@pytest.mark.parametrize(
    "x, n",
    [(5e-324, 1), (3.5e-323, 1), (1.6e-162, 2), (2.2e-162j, 2), (1e-108, 3), (0.3, 620)],
)
def test_norm_bound_dominates_the_rounding_of_a_subnormal_term(model_type, x, n):
    # Once x**n is subnormal, rounding adds whole units of 5e-324 to the
    # evaluated term; the bound and the certificate above it absorb them.
    model = model_type(x, c=0.25, alpha=1.0)
    assert sampled_norm_bound(model, n, inflate=1.0) <= model.norm_bound(n)
    cert = model.decay_cert
    assert model.norm_bound(n) <= cert.A * cert.rho**n


def test_qlog_jet_matches_lambert_series_within_tails():
    # sum_n x**n/(z**n - 1) = -sum_n sum_{j>=0} x**n z**(n*j) near 0, so
    # a_0 = -x/(1-x) and a_m = -sum_{d | m} x**d.
    x = 0.9
    jet = taylor_jet(QLogModel(x), 0j, 12)
    assert jet.certified
    lambert = [-x / (1.0 - x)] + [
        -sum(x**d for d in range(1, m + 1) if m % d == 0) for m in range(1, 13)
    ]
    for got, tail, want in zip(jet.coefficients, jet.coefficient_tails, lambert):
        assert abs(got - want) <= tail + 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# Block derivatives and the one-pass engine
# ---------------------------------------------------------------------------


def _block_families():
    from meandro import pullback_model

    return {
        "meander": MeanderModel(0.9),
        "qlog": QLogModel(0.9),
        "pullback": pullback_model(MeanderModel(0.5, c=0.1), 2, 0.05),
        "pullback-qlog": pullback_model(QLogModel(0.5), 3),
        "sum": SequenceSum(MeanderModel(0.3), MeanderModel(0.4)),
        "finite-sum": SequenceSum(
            ZeroSumGeneral(1, [1 / (k + 1) for k in range(10)]),
            ZeroSumGeneral(1, [1 / (k + 1) for k in range(10)]),
        ),
    }


@pytest.mark.parametrize("family", list(_block_families()))
@settings(max_examples=12, deadline=None)
@given(
    z=st.sampled_from([0j, 0.3 + 0.2j, -0.5 + 0.6j, 1.5 - 0.3j, 2.0 + 0j])
    | st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    count=st.integers(1, 300),
    m=st.integers(0, 10),
)
def test_block_derivatives_match_scalar(family, z, count, m):
    seq = _block_families()[family]
    if family.startswith("pullback"):
        z *= 0.3  # keep the image of the covering inside the base region
    last = seq.n_min + count - 1 if seq.n_max is None else seq.n_max
    ns = np.arange(seq.n_min, last + 1)
    poles = [seq.perforation.nearest_pole(int(n), z) for n in ns]
    assume(all(d > 1e-3 for _, d in poles))
    block = seq.derivatives(ns, m, z)
    assert block.shape == (m + 1, len(ns))
    for k in range(m + 1):
        scalar = np.array([seq.derivative(int(n), k, z) for n in ns])
        largest = float(np.max(np.abs(scalar)))
        assert np.max(np.abs(block[k] - scalar)) <= 1e-12 * largest


def test_one_pass_jet_matches_per_order_sums(meander_half, qlog_half):
    from meandro.series import _sum_derivative_series

    for seq, z in ((meander_half, 0.1 + 0.05j), (qlog_half, 0.3 - 0.2j)):
        [one_pass] = _sum_derivative_series(seq, [z], range(6), 1e-10, 0.0, 0.0, 200_000)
        for k, res in enumerate(one_pass):
            alone = derivative_sum(seq, z, k, tol=1e-10)
            assert (res.terms_used, res.tail_bound) == (alone.terms_used, alone.tail_bound)
            assert abs(res.value - alone.value) <= res.tail_bound


def test_jet_honours_an_overridden_scalar_derivative():
    # A certified subclass that redefines the scalar derivative must not be
    # bypassed by the inherited numpy block formula.
    class Doubled(MeanderModel):
        def derivative(self, n, k, z):
            return 2.0 * super().derivative(n, k, z)

    jet = taylor_jet(Doubled(0.5), 0.1, 4)
    reference = taylor_jet(MeanderModel(0.5), 0.1, 4)
    assert jet.certified
    for got, want in zip(jet.coefficients, reference.coefficients):
        assert got == pytest.approx(2.0 * want, rel=1e-9)


def test_overflowing_jet_raises_out_of_regime():
    # The order-120 terms overflow a float from sheet 9 on.
    with pytest.raises(OutOfRegime, match="order-120 .* sheet 9"):
        taylor_jet(MeanderModel(0.5, c=0.1), 0j, 120)
    with pytest.raises(OutOfRegime):
        taylor_jet(MeanderModel(0.5, c=0.1), 0j, 171)


def test_sequence_sum_needs_one_pole_family():
    # Equal radius tables, different poles: the sum would clear only the
    # first family's discs.
    f = ZeroSumGeneral(1, [1, 2])
    g = ZeroSumGeneral(1, [-1, -2])
    with pytest.raises(PoleProximity):
        evaluate_sum(g, -0.999)
    with pytest.raises(ValueError):
        SequenceSum(f, g)


def _sheet_by_sheet_certified_scan(self, group):
    """The certified rule on every sheet of every lane in turn, with the scalar tail alone."""
    limits = group.tol(np.abs(group.sums()))
    ends = []
    for lane, k, clean, limit in zip(group.lanes.tolist(), group.k.tolist(), group.clean.tolist(), limits):
        bounds = tails._CertifiedTails(self.seq, self.zs[lane // self.width])
        end = None
        for j, n in enumerate(group.ns[:clean].tolist()):
            tail = bounds.tail(k, n)
            if tail <= limit[j]:
                end = j, tail
                break
        ends.append(end)
    return ends


@pytest.mark.parametrize(
    "model, m", [(MeanderModel(0.95), 30), (QLogModel(0.9), 8)], ids=["meander-30", "qlog-8"]
)
def test_certified_skip_stops_where_the_sheet_by_sheet_rule_stops(monkeypatch, model, m):
    # A block is skipped when its last sheet's tail is above every limit;
    # the tail does not increase with n, so no sheet of the block could stop.
    orders = range(m + 1)
    floors = np.array([math.factorial(k) for k in orders], dtype=float)

    def run():
        return series._sum_derivative_series(
            model, [0j], orders, 1e-300 * floors, 1e-11, floors, 200_000, stabilise=True
        )[0]

    fast = run()
    monkeypatch.setattr(series._CertifiedStop, "scan", _sheet_by_sheet_certified_scan)
    reference = run()
    for got, want in zip(fast, reference):
        assert (got.terms_used, got.tail_bound, got.value) == (
            want.terms_used, want.tail_bound, want.value
        )


@pytest.mark.parametrize(
    "cert, radius, m",
    [
        (MeanderModel(0.95).decay_cert, DiophantineRadius(0.05, 2.0, 1.5), 30),
        (MeanderModel(0.5, c=0.1).decay_cert, DiophantineRadius(0.1, 2.0, 1.5), 3),
        (QLogModel(0.9).decay_cert, DiophantineRadius(0.05, 2.0, 1.5), 8),
        (QLogModel(0.9).decay_cert, DiophantineRadius(0.05, 2.0, 1.5), 0),
        (DecayCert(2.5, 0.6), DiophantineRadius(0.3, 1.5, 1.5, shift=1), 7),
    ],
    ids=["meander-30", "meander-3", "qlog-8", "qlog-0", "shifted-7"],
)
def test_remainder_constant_matches_a_50_digit_sum(cert, radius, m):
    # C_m = A*(1 + shift)**q / c**m * sum_n n**q * rho**n with q = alpha*m.
    with mpmath.workdps(50):
        q, rho = mpmath.mpf(radius.alpha * m), mpmath.mpf(cert.rho)
        peak = q / -mpmath.log(rho)
        total, n = mpmath.mpf(0), 1
        while True:
            term = mpmath.mpf(n) ** q * rho**n
            total += term
            if n > peak and term < total * mpmath.mpf(10) ** -40:
                break
            n += 1
        want = mpmath.mpf(cert.A) * (1 + radius.shift) ** q / mpmath.mpf(radius.c) ** m * total
        got = series._remainder_constant(cert, radius, m)
        assert abs(got - want) <= 1e-12 * want


def test_scalar_derivative_jet_stops_computing_near_its_stops(monkeypatch):
    # ZeroSumPiK has only the scalar derivative.  Its order-12 jet at 0 stops
    # every order by sheet 20, so the first block holds 13 + 8 sheets, not 64.
    calls = []
    scalar = ZeroSumPiK.derivative

    def counted(self, n, k, z):
        calls.append((n, k))
        return scalar(self, n, k, z)

    monkeypatch.setattr(ZeroSumPiK, "derivative", counted)
    jet = taylor_jet(ZeroSumPiK(), 0j, 12)
    assert jet.coefficients.tolist() == [1.0] + [0.0] * 12
    assert max(n for n, _ in calls) == 20 and len(calls) == 21 * 13


def test_clearance_slack_near_the_float_range_raises_no_warning():
    # The shortlist's slack _ABS_SLACK*(1 + |z| + |z - p|) overflows here; an
    # infinite slack only shortlists the sheet and the scalar test decides.
    # Only sheet 1's term is nonzero: 1 + n*z is inf from sheet 2 on.
    res = evaluate_sum(MeanderModel(0.5), 1e308)
    assert (res.value, res.terms_used) == (complex(0.5 / 1e308), 94)
    # |z| itself overflows: a typed error, not an OverflowError from abs(z).
    with pytest.raises(OutOfRegime, match="sheet 2"):
        evaluate_sum(MeanderModel(0.5), complex(1.7e308, 1.7e308))


# ---------------------------------------------------------------------------
# Tails from local Cauchy circles
# ---------------------------------------------------------------------------


def _jet_stops(seq, z0, m, rel_tol=1e-10):
    """The SumResult of every order of the jet at z0, as ``taylor_jet`` sums them."""
    orders = range(m + 1)
    floors = np.array([math.factorial(k) for k in orders], dtype=float)
    return series._sum_derivative_series(
        seq, [z0], orders, 1e-300 * floors, rel_tol, floors, 200_000, stabilise=True
    )[0]


def _meander_oracle(x: float, z0: complex, m: int):
    """a_k and sum_n |x**n (-n)**k / (1 + n z0)**(k+1)| for k = 0..m, in 50-digit mpmath."""
    with mpmath.workdps(50):
        if z0 == 0:
            coeffs = [(-1) ** k * models.geometric_power_sum(k, mpmath.mpf(x)) for k in range(m + 1)]
            return coeffs, [abs(a) for a in coeffs]
        coeffs, sizes = [mpmath.mpc(0)] * (m + 1), [mpmath.mpf(0)] * (m + 1)
        xn, n = mpmath.mpf(1), 0
        while True:
            n += 1
            xn *= x
            w = 1 / (1 + n * mpmath.mpc(z0))
            term, small = xn * w, True
            for k in range(m + 1):
                coeffs[k] += term
                sizes[k] += abs(term)
                small = small and abs(term) < sizes[k] * mpmath.mpf(10) ** -40
                term *= -n * w
            # The terms fall geometrically from their peak, and x**n n**m is past it.
            if small and n > m / (1 - x):
                return coeffs, sizes


@pytest.mark.parametrize("x", [0.5, 0.95])
@pytest.mark.parametrize("z0", [0j, 0.3 + 0.2j], ids=["accumulation-point", "off-the-poles"])
def test_meander_jet_error_is_within_its_tail(x, z0):
    # |a_k - a_k(oracle)| <= tail_k + rounding: each order-k term rounds by
    # at most about (4k + 6) ulps of its size, the exact block sums and the
    # compensated sum add one more.
    jet = taylor_jet(MeanderModel(x), z0, 30, rel_tol=1e-10)
    coeffs, sizes = _meander_oracle(x, z0, 30)
    eps = np.finfo(float).eps
    for k, (got, tail) in enumerate(zip(jet.coefficients, jet.coefficient_tails)):
        allowance = (4 * k + 8) * eps * float(sizes[k])
        assert abs(got - complex(coeffs[k])) <= tail + allowance


def test_pullback_jet_at_its_branch_point_is_within_its_tail():
    # F(w) = f(w**2) at 0: a_{2j}(F) = a_j(f), the odd coefficients are 0.
    jet = taylor_jet(pullback_model(MeanderModel(0.5, c=0.1), 2), 0j, 20, rel_tol=1e-10)
    coeffs, sizes = _meander_oracle(0.5, 0j, 10)
    eps = np.finfo(float).eps
    for k, (got, tail) in enumerate(zip(jet.coefficients, jet.coefficient_tails)):
        want, size = (complex(coeffs[k // 2]), float(sizes[k // 2])) if k % 2 == 0 else (0j, 0.0)
        assert abs(got - want) <= tail + (4 * k + 8) * eps * size


def test_jet_whose_uniform_prefactor_underflows_is_summed_within_its_tails():
    # (eps*c)**k underflows from k = 80 on at c = 1e-4 (a ZeroDivisionError
    # once); the uniform bound is then inf and the power law at 0 stops it.
    jet = taylor_jet(MeanderModel(0.5, c=1e-4), 0j, 90, rel_tol=1e-10)
    coeffs, sizes = _meander_oracle(0.5, 0j, 90)
    eps = np.finfo(float).eps
    for k in (0, 45, 80, 90):
        got, tail = jet.coefficients[k], jet.coefficient_tails[k]
        assert abs(got - complex(coeffs[k])) <= tail + (4 * k + 8) * eps * float(sizes[k])
        assert tail <= 1e-10 * abs(got) * (1.0 + 1e-6)


def test_qlog_jet_at_zero_is_within_its_tail_of_the_lambert_series():
    q = Fraction(0.9)
    jet = taylor_jet(QLogModel(0.9), 0j, 8, rel_tol=1e-10)
    lambert = [-q / (1 - q)] + [-sum(q**d for d in range(1, m + 1) if m % d == 0) for m in range(1, 9)]
    eps = np.finfo(float).eps
    for k, (got, tail, want) in enumerate(zip(jet.coefficients, jet.coefficient_tails, lambert)):
        assert abs(got - float(want)) <= tail + (4 * k + 8) * eps * abs(float(want))


def test_local_circles_end_the_jets_early():
    # The uniform circles eps*r_j stopped the meander's order 30 at sheet
    # 22 854 and the q-log's order 8 at sheet 3 725; the circles that fit
    # around 0 stop them before sheets 4 900 and 650, with the same sums.
    meander = _jet_stops(MeanderModel(0.95), 0j, 30)
    assert meander[30].terms_used <= 4900
    assert meander[1].terms_used <= 1400
    qlog = _jet_stops(QLogModel(0.9), 0j, 8)
    assert qlog[8].terms_used <= 650


_TAIL_CASES = [
    (MeanderModel(0.95), 0j),
    (MeanderModel(0.5, c=0.1), 0.5 + 0j),
    (MeanderModel(0.9, alpha=1.0), 0j),
    (MeanderModel(0.95), 0.3 + 0.2j),
    (MeanderModel(0.95), -0.3 + 0.01j),
    (QLogModel(0.9), 0j),
    (QLogModel(0.5, c=0.2), 0.4j),
    (QLogModel(0.5), 1.6 + 0j),  # the region caps the circle: 2.1 - 1.6 < 1.6 - 1
    (pullback_model(MeanderModel(0.5, c=0.1), 2), 0j),
]


@pytest.mark.parametrize("seq, z0", _TAIL_CASES)
@pytest.mark.parametrize("k", [1, 2, 7, 30])
def test_certified_tails_do_not_increase_and_the_numpy_tails_only_shortlist(seq, z0, k):
    bounds = tails._CertifiedTails(seq, z0)
    scalar = np.array([bounds.tail(k, n) for n in range(1, 3001)])
    finite = scalar[np.isfinite(scalar)]
    assert finite.size  # the tails come down within these sheets
    assert np.all(np.diff(scalar[np.isfinite(scalar)]) <= 1e-12 * finite[1:])
    assert np.all(np.isinf(scalar[: len(scalar) - finite.size]))


@pytest.mark.parametrize("seq, z0", _TAIL_CASES)
def test_norm_bound_holds_on_the_cauchy_circles_of_the_tails(seq, z0):
    # Cauchy's estimate needs |term_j| <= norm_bound(j) on every circle about
    # z0 that a branch takes for a sheet j > n: eps*r_j, R(n) off the
    # accumulation set, and b(n)*j**-beta from a power law.  Sampled at 64
    # points, among them the four axis directions, on sheets up to 500 (where
    # the q-log's z**j stays in the float range at |z| <= 2.1).
    bounds = tails._CertifiedTails(seq, z0)
    radius, poles = seq.perforation.radius, seq.perforation.poles
    ring = np.exp(2j * np.pi * np.arange(64) / 64)
    for n in (1, 2, 5, 20, 50):
        d = poles.tail_distance_bound(z0, n)
        for j in (n + 1, n + 2, 2 * n + 1, 10 * n):
            circles = [(radius.lam - 1.0) * radius.value(j)]
            if d is not None and d != math.inf:
                circles.append(min(bounds._shrunk(d) - radius.tail_sup(n), bounds.reach * (1.0 - 1e-9)))
            if bounds.law is not None:
                circles.append(bounds._factor(n) * j ** -bounds.law[1])
            for R in [R for R in circles if R > 0.0]:
                assert np.abs(seq.term_array(j, z0 + R * ring)).max() <= seq.norm_bound(j) * (1.0 + 1e-9)


def test_local_tail_is_no_larger_than_the_uniform_tail():
    for seq, z0 in _TAIL_CASES:
        for k in (1, 5, 30):
            for n in (1, 10, 100, 1000, 5000):
                uniform = tails._tail_prefactor(seq, k) * tails.power_geometric_tail(
                    seq.perforation.radius.alpha * k, seq.decay_cert.rho, n
                )
                assert tails._CertifiedTails(seq, z0).tail(k, n) <= uniform


def test_local_tails_at_a_huge_exponent_raise_no_overflow_error():
    # (n + shift)**alpha and (1 + 1/n)**(alpha*k) leave the float range; the
    # tails are inf or finite, and a radius below the float range is typed.
    seq = MeanderModel(0.01)
    seq.perforation = Perforation(MeanderPoles(), DiophantineRadius(0.05, 2000.0))
    bounds = tails._CertifiedTails(seq, 0j)
    assert 0.0 < bounds.tail(1, 1) < math.inf  # from the power law alone
    assert bounds.tail(30, 1) == math.inf
    for k in (1, 30):
        with pytest.raises(OutOfRegime, match="sheet 2"):
            bounds.tail(k, 2)


# ---------------------------------------------------------------------------
# The certified stop's bisection
# ---------------------------------------------------------------------------


def _outcome(out):
    """A point's outcome in comparable form: its stops and sums, or its error."""
    if isinstance(out, Exception):
        return type(out).__name__, str(out)
    return [(res.terms_used, res.tail_bound, res.value) for res in out]


def _jet_lanes(seq, z0, m, rel_tol=1e-10):
    def run():
        return [_jet_stops(seq, z0, m, rel_tol)]

    return run


def _order_zero_lanes(seq, zs, tol):
    def run():
        return series._sum_derivative_series(seq, zs, range(1), tol, 0.0, 0.0, 200_000)

    return run


@pytest.mark.parametrize(
    "run",
    [
        _jet_lanes(MeanderModel(0.9 * cmath.exp(2j)), 0j, 12),  # |S| oscillates
        # The partial sums still move in the stopping block, so the first
        # sheet under the running maximum of the limits is above its own
        # limit, and the search restarts after it.
        _jet_lanes(MeanderModel(0.5 * cmath.exp(2j)), 0.3 + 0.2j, 12, rel_tol=1e-3),
        _jet_lanes(MeanderModel(0.95), 0.3 + 0.2j, 30),
        _jet_lanes(QLogModel(0.5), 1.6 + 0j, 8),  # the region caps the circles
        _order_zero_lanes(MeanderModel(0.95), [0j, 0.3 + 0.2j, -0.45 + 0.01j, 1.2j, 0.7], 1e-12),
        # The order-120 terms overflow from sheet 9 on, after the low orders stop.
        _jet_lanes(MeanderModel(0.5, c=0.1), 0j, 120),
    ],
    ids=["oscillating", "restarts", "off-the-poles", "region-cap", "five-points", "non-finite-term"],
)
def test_bisection_stops_where_the_sheet_by_sheet_rule_stops(monkeypatch, run):
    fast = [_outcome(out) for out in run()]
    monkeypatch.setattr(series._CertifiedStop, "scan", _sheet_by_sheet_certified_scan)
    assert fast == [_outcome(out) for out in run()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40), st.data())
def test_first_stop_is_the_first_sheet_within_its_limit(drops, data):
    # Non-increasing tails against limits that rise and fall at will.
    tail = np.cumsum(drops)[::-1]
    limit = np.array(data.draw(st.lists(st.floats(0.0, 60.0), min_size=len(tail), max_size=len(tail))))
    stop = series._CertifiedStop.__new__(series._CertifiedStop)
    stop._tail = lambda lane, k, n: float(tail[n])
    want = next(((j, float(tail[j])) for j in range(len(tail)) if tail[j] <= limit[j]), None)
    assert stop._first_stop(0, 1, list(range(len(tail))), limit) == want


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["meander", "qlog"]),
    x=st.floats(0.05, 0.99),
    c=st.floats(0.01, 0.3),
    alpha=st.floats(1.0, 3.0),
    z0=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    k=st.integers(0, 40),
    n=st.integers(1, 5000),
    gap=st.integers(1, 3000),
)
def test_scalar_tail_does_not_increase(family, x, c, alpha, z0, k, n, gap):
    # The bisection of the certified stop rests on this.
    seq = (MeanderModel if family == "meander" else QLogModel)(x, c=c, alpha=alpha)
    bounds = tails._CertifiedTails(seq, z0)
    first = bounds.tail(k, n)
    for later in (n + 1, n + gap):
        assert bounds.tail(k, later) <= first * (1.0 + 1e-12)


def test_certified_stop_bisects_rather_than_walks_the_sheets(monkeypatch):
    # A lane pays one tail per block that it passes over and one bisection
    # in the block where it stops; walking the sheets would cost thousands.
    calls = []
    tail = tails._CertifiedTails.tail

    def counted(self, k, n):
        calls.append((k, n))
        return tail(self, k, n)

    monkeypatch.setattr(tails._CertifiedTails, "tail", counted)
    stops = _jet_stops(MeanderModel(0.95), 0j, 30)
    last = max(res.terms_used for res in stops)
    blocks = [hi - lo for lo, hi in geometry.doubling_blocks(1, 200_001, 31) if lo <= last]
    assert len(calls) <= len(stops) * (len(blocks) + math.ceil(math.log2(max(blocks))) + 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_remainder_constant_where_the_tail_ratio_is_exactly_one():
    # rho*(n + 2)/(n + 1) is exactly 1 at rho = 0.75, q = 1 and n = 2; the
    # sum is then sum_n n*rho**n = rho/(1 - rho)**2 = 12.
    cert = MeanderModel(0.5, alpha=1).decay_cert
    assert cert.rho == 0.75
    got = series._remainder_constant(cert, DiophantineRadius(0.05, 1.0, 1.5), 1)
    assert got == pytest.approx(cert.A / 0.05 * 12.0, rel=1e-12)
