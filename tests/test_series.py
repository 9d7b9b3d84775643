import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
        meander_cert = None

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
    res = evaluate_sum(meander_half, 0.2 + 0.1j, tol=1e-6, keep_partials=True)
    finer = evaluate_sum(meander_half, 0.2 + 0.1j, tol=1e-14)
    assert abs(res.value - finer.value) <= res.tail_bound
    for partial in res.partials[res.terms_used // 2 :]:
        assert abs(partial - finer.value) <= 2 * res.tail_bound


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
        meander_cert = None

    jet = taylor_jet(Uncertified(0.5), 0.1, 3)
    assert not jet.certified
    assert np.all(jet.coefficient_tails > 0.0)
    reference = taylor_jet(MeanderModel(0.5), 0.1, 3)
    assert reference.certified
    for got, want in zip(jet.coefficients, reference.coefficients):
        assert got == pytest.approx(want, rel=1e-9)


def test_uncertified_jet_that_never_settles_needs_a_certificate():
    class Flat(MeanderModel):
        meander_cert = None

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


def test_norm_bound_certificate_holds(qlog_half):
    cert = qlog_half.meander_cert
    for n in range(1, 81):
        assert qlog_half.norm_bound(n) <= cert.A * cert.rho**n


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
        one_pass = _sum_derivative_series(seq, z, range(6), 1e-10, 0.0, 0.0, 200_000)
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
