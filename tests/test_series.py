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
    NonConvergent,
    OutOfRegime,
    PoleProximity,
    QLogModel,
    TermSequence,
    ZeroSumGeneral,
    ZeroSumPiK,
    coefficient_sum,
    evaluate_sum,
    evaluate_sums,
    taylor_jet,
)
from meandro import geometry, models, series, tails
from meandro.covering import pullback_model
from meandro.geometry import DiophantineRadius, Disc, MeanderPoles, Perforation


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
    # |P_N| grows like N**Re(1/z) = N**10 here.
    with pytest.raises(NonConvergent) as err:
        evaluate_sum(ZeroSumPiK(), 0.05 + 0.05j, tol=1e-8)
    assert err.value.witness == {"re_inverse": pytest.approx(10.0)}


def test_tail_certificate_sound(meander_half):
    res = evaluate_sum(meander_half, 0.2 + 0.1j, tol=1e-6)
    finer = evaluate_sum(meander_half, 0.2 + 0.1j, tol=1e-14)
    assert abs(res.value - finer.value) <= res.tail_bound


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


def test_coefficient_sum_matches_jet(meander_half):
    res = coefficient_sum(meander_half, 0j, 1, tol=1e-10)
    assert res.value == pytest.approx(-2.0, rel=1e-9)
    # order zero is evaluate_sum
    r0 = coefficient_sum(meander_half, 0.1 + 0j, 0, tol=1e-10)
    r0b = evaluate_sum(meander_half, 0.1 + 0j, tol=1e-10)
    assert r0.value == r0b.value


def test_qlog_second_derivative_finite_difference(qlog_half):
    z0 = 1.05 * cmath.exp(2j * math.pi * math.sqrt(2))
    a2 = coefficient_sum(qlog_half, z0, 2, tol=1e-12)
    h = 1e-5
    fd = (
        evaluate_sum(qlog_half, z0 + h, tol=1e-15).value
        - 2 * evaluate_sum(qlog_half, z0, tol=1e-15).value
        + evaluate_sum(qlog_half, z0 - h, tol=1e-15).value
    ) / h**2
    assert abs(2.0 * a2.value - fd) / abs(fd) <= 1e-5  # the second derivative is 2! * a_2


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


def test_zero_sum_jet_is_unit(meander_half):
    jet = taylor_jet(ZeroSumPiK(), 0j, 6)
    assert jet.coefficients[0] == 1.0
    assert np.all(jet.coefficients[1:] == 0.0)
    assert not jet.certified


def test_uncertified_jet_that_never_settles_needs_a_certificate(monkeypatch):
    # Without a decay certificate an infinite family has no tails known
    # before its terms: the jet and the sum are refused before any term.
    class Uncertified(MeanderModel):
        decay_cert = None

    calls = []
    monkeypatch.setattr(Uncertified, "taylor_coefficients", lambda self, *args: calls.append(args))
    monkeypatch.setattr(Uncertified, "term_grid", lambda self, *args: calls.append(args))
    with pytest.raises(DiophantineRequired):
        taylor_jet(Uncertified(0.5), 0.1, 3)
    with pytest.raises(DiophantineRequired):
        evaluate_sum(Uncertified(0.5), 0.1)
    assert calls == []


def _suffix_sums(values: list[float], ns: list[int]) -> dict[int, float]:
    """sum(values[n:]) for each n of the ascending ns, as the math.fsum of the fsums of its pieces between the ns."""
    pieces = [math.fsum(values[a:b]) for a, b in zip(ns, [*ns[1:], len(values)])]
    return {n: math.fsum(pieces[i:]) for i, n in enumerate(ns)}


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("x", [0.5, 0.95, 0.999, 0.3, 1e-300, 5e-324])
@pytest.mark.parametrize("family", ["meander", "qlog", "pullback"])
def test_decay_certificate_tails_dominate_the_norm_bounds(family, x, alpha):
    # Every certified tail after sheet n must dominate the norm bounds it
    # sums, evaluated in floats: on the sheets where |x|**j is normal, and on
    # those where it is subnormal and the norm bound adds its underflow
    # allowance, up to N0, after which |x|**j and the norm bound are 0.  The
    # pullback's bound is the meander's times its excess 3*sqrt(j).
    seq = (QLogModel if family == "qlog" else MeanderModel)(x, c=0.05, alpha=alpha)
    if family == "pullback":
        seq = pullback_model(seq, 2)
    cert = seq.decay_cert
    n_sub, n0 = cert.underflow_sheets
    top = n0 + 10
    bounds = [seq.norm_bound(j) for j in range(1, top + 1)]  # bounds[j - 1] is sheet j's
    assert all(b == 0.0 for b in bounds[n0:])
    assert n_sub == 0 or abs(x) ** n_sub >= 2.0**-1022  # normal through N_sub
    ns = sorted({n for n in (1, 2, 10, 100, n_sub // 2, *range(n_sub - 3, n_sub + 4), (n_sub + n0) // 2,
                             *range(n0 - 3, n0 + 3)) if 1 <= n <= n0 + 2})
    after = _suffix_sums(bounds, ns)  # after[n]: the sum of the norm bounds of the sheets j > n
    for n in ns:
        assert cert.tail(n) >= after[n], n
    # Each k >= 1 branch against sum norm_bound(j)/R_j**k on its own circles (Cauchy's estimate for a_k).
    z0 = 0.3 + 0.2j if family == "meander" else 0.5 + 0j
    tails_at = tails._CertifiedTails(seq, z0)
    radius = seq.perforation.radius
    js = np.arange(1, top + 1, dtype=float)
    values = np.array(bounds)
    for k in (1, 2):
        uniform = values / ((radius.lam - 1.0) * radius.values(np.arange(1, top + 1))) ** k
        uniform = _suffix_sums(uniform.tolist(), ns)
        law = _suffix_sums((values * js ** (tails_at.law[1] * k)).tolist(), ns) if family == "meander" else None
        for n in ns:
            got = tails_at.branches(k, n)
            assert got[0] >= uniform[n], (k, n)
            if family == "pullback":  # no distance contract: the uniform circles alone
                assert got[1:] == (math.inf, math.inf)
                continue
            R = tails_at._shrunk(seq.perforation.poles.tail_distance_bound(z0, n)) - radius.tail_sup(n)
            assert R > 0.0
            assert got[1] >= after[n] / R**k, (k, n)
            if law is not None:
                b = tails_at._factor(n)
                assert b > 0.0
                assert got[2] >= law[n] / b**k, (k, n)
            else:
                assert got[2] == math.inf


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


def _sampled_sup(seq, n: int, disc: Disc) -> float:
    """Sup of |term| over the sheet-n perforation of the disc, sampled at 1024 points a circle.

    By the maximum principle the sup lies on the disc's boundary or on a
    removed disc's rim: the rims inside the disc are sampled, and the
    boundary outside the removed discs.
    """
    r_n, poles = seq.perforation.radius_at(n), seq.poles(n)
    outer = disc.boundary_points(1024)
    outside = np.abs(outer[:, None] - poles[None, :]).min(axis=1) >= r_n * (1.0 - 1e-12)
    rims = (poles[:, None] + r_n * np.exp(1j * 2.0 * np.pi * np.arange(1024) / 1024)[None, :]).ravel()
    pts = np.concatenate([outer[outside], rims[disc.distance_to_complement(rims) >= 0.0]])
    return float(np.max(np.abs(seq.term_array(n, pts))))


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
    assert _sampled_sup(model, n, Disc(0j, 2.1)) <= model.norm_bound(n)


@pytest.mark.parametrize("model_type", [MeanderModel, QLogModel])
@pytest.mark.parametrize(
    "x, n",
    [(5e-324, 1), (3.5e-323, 1), (1.6e-162, 2), (2.2e-162j, 2), (1e-108, 3), (0.3, 620)],
)
def test_norm_bound_dominates_the_rounding_of_a_subnormal_term(model_type, x, n):
    # Once x**n is subnormal, rounding adds whole units of 5e-324 to the
    # evaluated term; the bound absorbs them (and the certified tails the
    # bound, ``test_decay_certificate_tails_dominate_the_norm_bounds``).
    model = model_type(x, c=0.25, alpha=1.0)
    # The bounds are global; the disc of radius 2 holds every pole.
    assert _sampled_sup(model, n, Disc(0j, 2.0)) <= model.norm_bound(n)


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


def _qlog_far_oracle(x: float, z: complex, m: int) -> list[complex]:
    """a_0..a_m of sum_n x**n/(w**n - 1) about w = z, |z| >= 2.5, in 40-digit mpmath.

    For |w| > 1, 1/(w**n - 1) = sum_{j>=1} w**(-n*j), so the sum is
    sum_p c_p w**-p with c_p = sum_{n | p} x**n <= p, and a_k takes
    c_p*binom(-p, k)*z**(-p-k) from each p.  Each is at most
    p*binom(p + m, m)*|z|**-p, which past p = 40 falls by a factor below
    1/2 a step, so the sum stops once that bound is below 1e-45.
    """
    with mpmath.workdps(40):
        x, z = mpmath.mpf(x), mpmath.mpc(z)
        coeffs = [mpmath.mpc(0)] * (m + 1)
        for p in range(1, 10_000):
            c = sum(x**n for n in range(1, p + 1) if p % n == 0)
            terms = [c * mpmath.binomial(-p, k) * z ** (-p - k) for k in range(m + 1)]
            coeffs = [a + t for a, t in zip(coeffs, terms)]
            if p > 40 and p * mpmath.binomial(p + m, m) * abs(z) ** -p < mpmath.mpf(10) ** -45:
                break
        return [complex(a) for a in coeffs]


@pytest.mark.parametrize("x", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("z", [2.5 + 0j, -3 + 1j, 10j, 1e3 * (1 + 1j)])
def test_qlog_sums_far_outside_the_unit_circle_match_mpmath(x, z):
    # The q-log's norm bound holds on the whole perforated plane, so these
    # points are summed with the certified tails of any other point.
    res = evaluate_sum(QLogModel(x), z)
    assert res.tail_bound <= 1e-10
    assert abs(res.value - _qlog_far_oracle(x, z, 0)[0]) <= res.tail_bound


@pytest.mark.parametrize("x", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("z0", [2.5 + 0j, -4j])
def test_qlog_jets_far_outside_the_unit_circle_match_mpmath(x, z0):
    # 1.5 and 3 off the unit circle, the Cauchy circles of the tails reach
    # as far as the poles allow.
    jet = taylor_jet(QLogModel(x), z0, 5)
    for got, tail, want in zip(jet.coefficients, jet.coefficient_tails, _qlog_far_oracle(x, z0, 5)):
        assert abs(got - want) <= tail


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
    }


def _meander_derivative(seq, n, k, z):
    return seq.x**n * (-n) ** k * math.factorial(k) / (1.0 + n * z) ** (k + 1)


def _qlog_derivative(seq, n, k, z):
    if k == 0:
        return seq.x**n / (z**n - 1.0)
    roots = seq.perforation.poles_on_sheet(n)
    parts = roots / (z - roots) ** (k + 1)
    return seq.x**n / n * (-1.0) ** k * math.factorial(k) * complex(parts.sum())


def _bell_row(k: int, xs: list[complex]) -> list[complex]:
    """Partial Bell polynomials B_{k,j}(x_1, ...) for j = 0..k, by recurrence."""
    table = {(0, 0): 1 + 0j}
    for kk in range(1, k + 1):
        for jj in range(1, kk + 1):
            table[(kk, jj)] = sum(
                (math.comb(kk - 1, i - 1) * xs[i - 1] * table.get((kk - i, jj - 1), 0j)
                 for i in range(1, min(kk - jj + 1, len(xs)) + 1)),
                0j,
            )
    return [table.get((k, j), 0j) for j in range(k + 1)]


def _scalar_derivative(seq, n, k, z):
    """Reference scalar derivatives: the closed forms, the fiber sum and the chain rule (Faa di Bruno) over them."""
    if isinstance(seq, MeanderModel):
        return _meander_derivative(seq, n, k, z)
    if isinstance(seq, QLogModel):
        return _qlog_derivative(seq, n, k, z)
    if k == 0:
        return _scalar_derivative(seq.base, n, 0, seq.center + z**seq.beta)
    if z == 0 and seq.beta > 1:  # F^(k)(0) = f^(j)(center) * k!/j! when k = j*beta, else 0
        j = k // seq.beta
        return 0j if k % seq.beta else _scalar_derivative(seq.base, n, j, seq.center) * math.factorial(k) / math.factorial(j)
    xs = [math.perm(seq.beta, i) * z ** (seq.beta - i) if i <= seq.beta else 0j for i in range(1, k + 1)]
    bells = _bell_row(k, xs)
    image = seq.center + z**seq.beta
    return sum(_scalar_derivative(seq.base, n, j, image) * bells[j] for j in range(1, k + 1))


@pytest.mark.parametrize("family", list(_block_families()))
@settings(max_examples=12, deadline=None)
@given(
    z=st.sampled_from([0j, 0.3 + 0.2j, -0.5 + 0.6j, 1.5 - 0.3j, 2.0 + 0j])
    | st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    count=st.integers(1, 300),
    m=st.integers(0, 10),
)
def test_block_derivatives_match_scalar(family, z, count, m):
    # Row k of the block is the k-th derivative over k!.
    seq = _block_families()[family]
    if family.startswith("pullback"):
        z *= 0.3  # keep the image of the covering inside the base region
    last = seq.n_min + count - 1
    ns = np.arange(seq.n_min, last + 1)
    poles = [seq.perforation.nearest_pole(int(n), z) for n in ns]
    assume(all(d > 1e-3 for _, d in poles))
    block = seq.taylor_coefficients(ns, m, z)
    assert block.shape == (m + 1, len(ns))
    for k in range(m + 1):
        scalar = np.array([_scalar_derivative(seq, int(n), k, z) for n in ns]) / math.factorial(k)
        largest = float(np.max(np.abs(scalar)))
        assert np.max(np.abs(block[k] - scalar)) <= 1e-12 * largest


def test_one_pass_jet_matches_per_order_sums(meander_half, qlog_half):
    from meandro.series import _sum_derivative_series

    for seq, z in ((meander_half, 0.1 + 0.05j), (qlog_half, 0.3 - 0.2j)):
        [one_pass] = _sum_derivative_series(seq, [z], range(6), 1e-10, 0.0, 0.0, 200_000)
        for k, res in enumerate(one_pass):
            alone = coefficient_sum(seq, z, k, tol=1e-10)
            assert (res.terms_used, res.tail_bound) == (alone.terms_used, alone.tail_bound)
            assert abs(res.value - alone.value) <= res.tail_bound


def test_the_block_methods_are_the_whole_term_interface():
    # A certified subclass that redefines the block methods is honoured by
    # jets and by batched sums.
    class Doubled(MeanderModel):
        def taylor_coefficients(self, ns, m, z):
            return 2.0 * super().taylor_coefficients(ns, m, z)

        def term_grid(self, ns, zs):
            return 2.0 * super().term_grid(ns, zs)

    jet = taylor_jet(Doubled(0.5), 0.1, 4)
    reference = taylor_jet(MeanderModel(0.5), 0.1, 4)
    assert jet.certified
    for got, want in zip(jet.coefficients, reference.coefficients):
        assert got == pytest.approx(2.0 * want, rel=1e-9)
    zs = [0.1, 0.3 + 0.2j]
    for got, want in zip(evaluate_sums(Doubled(0.5), zs), evaluate_sums(MeanderModel(0.5), zs)):
        assert got.value == pytest.approx(2.0 * want.value, rel=1e-9)

    # Without both block methods a family cannot be made.
    class PerSheet(TermSequence):
        def term_grid(self, ns, zs):
            return np.ones((len(zs), len(ns)), dtype=complex)

    class PerPoint(TermSequence):
        def taylor_coefficients(self, ns, m, z):
            return np.ones((m + 1, len(ns)), dtype=complex)

    with pytest.raises(TypeError, match="taylor_coefficients"):
        PerSheet()
    with pytest.raises(TypeError, match="term_grid"):
        PerPoint()


def test_overflowing_jet_raises_out_of_regime():
    # At x = 0.95 the coefficient terms x**n * n**k of orders near 150 pass
    # the float range; the first non-finite one, in (sheet, order) order, is
    # of order 150 on sheet 119.  No lane stops on a running sum past the
    # float range, so the point ends on that term.
    with pytest.raises(OutOfRegime, match="order-150 .* sheet 119 "):
        taylor_jet(MeanderModel(0.95), 0j, 150)
    with pytest.raises(OutOfRegime, match="exceeds 170"):
        taylor_jet(MeanderModel(0.5, c=0.1), 0j, 171)


def test_a_jet_whose_running_sum_passes_the_float_range_is_out_of_regime():
    # At x = 0.5016 every block sum of the order-159 lane is finite, but the
    # lane's sum through sheet 448 passes the float range: a typed error, not
    # a NaN coefficient.  At x = 0.50155 the coefficient is about 1.77e308.
    assert np.isfinite(taylor_jet(MeanderModel(0.50155, c=0.1), 0j, 159).coefficients).all()
    with pytest.raises(OutOfRegime, match="^the order-159 sum over sheets 193 to 448 overflows a float$"):
        taylor_jet(MeanderModel(0.5016, c=0.1), 0j, 159)


def test_zero_sum_general_point_in_a_removed_disc():
    with pytest.raises(PoleProximity):
        evaluate_sum(ZeroSumGeneral(1, [-1, -2]), -0.999)


def _hex(values) -> list:
    return [(v.real.hex(), v.imag.hex()) for v in values]


def _exact_gap(value: complex, terms: np.ndarray) -> Fraction:
    """|Re| + |Im| of value - S, S the exact sum of the float terms."""
    parts = ((value.real, terms.real), (value.imag, terms.imag))
    return sum(abs(Fraction(v) - sum(map(Fraction, ts.tolist()))) for v, ts in parts)


def test_finite_family_outputs_are_pinned_bit_for_bit():
    # Finite families stop at their last sheet with tail exactly 0, in jets
    # (relative limits) and in evaluations (one limit).  Recorded values,
    # each within its rounding of the exact sum of its terms.
    seq = ZeroSumGeneral(1, [0.5, -0.75j, 2.0])
    jet = taylor_jet(seq, 0.1 + 0.1j, 4)
    assert _hex(jet.coefficients.tolist()) == [
        ("0x1.d5ddf516d8858p-6", "-0x1.9ea4a4b10c940p-7"),
        ("0x1.3bb53d097108cp-2", "-0x1.4106b46c4dee7p-1"),
        ("-0x1.ab58b9a973ab8p-1", "-0x1.5b5a8a9b636f4p+2"),
        ("-0x1.18ff051ec80ecp+3", "-0x1.06582895ca24ep+4"),
        ("-0x1.6d2846e7a127ap+3", "-0x1.5014d7df2c086p+5"),
    ]
    assert jet.coefficient_tails.tolist() == [0.0] * 5 and not jet.certified
    rows = seq.taylor_coefficients(np.arange(3), 4, 0.1 + 0.1j)
    for k, (a, rounding) in enumerate(zip(jet.coefficients.tolist(), jet.coefficient_rounding.tolist())):
        assert 0.0 < rounding < 1e-13 and _exact_gap(a, rows[k]) <= Fraction(rounding), k
    pullback = pullback_model(ZeroSumGeneral(1, [1 / (k + 1) for k in range(10)]), 2)
    jet = taylor_jet(pullback, 0.3, 3)
    assert _hex(jet.coefficients.tolist()) == [
        ("0x1.fce874a8994c0p-24", "0x0.0p+0"),
        ("0x1.5bf4cda7834d4p-13", "0x0.0p+0"),
        ("0x1.8ab4b17b0ca60p-6", "0x0.0p+0"),
        ("0x1.0f3d5273a008ep+1", "0x0.0p+0"),
    ]
    assert jet.coefficient_tails.tolist() == [0.0] * 4 and not jet.certified
    rows = pullback.taylor_coefficients(np.arange(10), 3, 0.3)
    for k, (a, rounding) in enumerate(zip(jet.coefficients.tolist(), jet.coefficient_rounding.tolist())):
        assert 0.0 < rounding < 1e-13 and _exact_gap(a, rows[k]) <= Fraction(rounding), k
    first, inside, last = series.evaluate_sums(seq, [0.1 + 0.1j, 0.49, 0.2j])
    assert (_hex([first.value]), first.terms_used, first.tail_bound) == (
        [("0x1.d5ddf516d8858p-6", "-0x1.9ea4a4b10c940p-7")], 2, 0.0
    )
    assert isinstance(inside, PoleProximity) and str(inside) == "point inside removed disc around (0.5+0j) on sheet 0"
    assert (_hex([last.value]), last.terms_used, last.tail_bound) == (
        [("-0x1.fca7c9c99cdc8p-6", "0x1.f181da8b2686cp-5")], 2, 0.0
    )
    for res, z in ((first, 0.1 + 0.1j), (last, 0.2j)):
        assert 0.0 < res.rounding < 1e-15 and _exact_gap(res.value, seq.term_grid(np.arange(3), [z])[0]) <= Fraction(
            res.rounding
        )


def _sheet_by_sheet_certified_scan(self, group):
    """The certified rule on every sheet of every lane in turn, with the scalar tail alone."""
    limits = group.tol(np.abs(group.sums()))
    ends, found = np.full(len(group.lanes), len(group.ns)), np.zeros(len(group.lanes))
    for r, (lane, k, clean) in enumerate(zip(group.lanes.tolist(), group.k.tolist(), group.clean.tolist())):
        bounds = tails._CertifiedTails(self.seq, self.zs[lane // self.width])
        for j, n in enumerate(group.ns[:clean].tolist()):
            tail = bounds.tail(k, n)
            if tail <= limits[r, j]:
                ends[r], found[r] = j, tail
                break
    return ends, found


@pytest.mark.parametrize(
    "model, m", [(MeanderModel(0.95), 30), (QLogModel(0.9), 8)], ids=["meander-30", "qlog-8"]
)
def test_certified_skip_stops_where_the_sheet_by_sheet_rule_stops(monkeypatch, model, m):
    # A block is skipped when its last sheet's tail is above every limit;
    # the tail does not increase with n, so no sheet of the block could stop.
    def run():
        return series._sum_derivative_series(model, [0j], range(m + 1), 1e-300, 1e-11, 1.0, 200_000)[0]

    fast = run()
    monkeypatch.setattr(series._CertifiedStop, "scan", _sheet_by_sheet_certified_scan)
    reference = run()
    for got, want in zip(fast, reference):
        assert (got.terms_used, got.tail_bound, got.value) == (
            want.terms_used, want.tail_bound, want.value
        )


def test_clearance_slack_near_the_float_range_raises_no_warning():
    # The shortlist's slack _ABS_SLACK*(1 + |z| + |z - p|) overflows here; an
    # infinite slack only shortlists the sheet and the scalar test decides.
    # Only sheet 1's term is nonzero: 1 + n*z is inf from sheet 2 on.
    res = evaluate_sum(MeanderModel(0.5), 1e308)
    assert (res.value, res.terms_used) == (complex(0.5 / 1e308), 44)
    # |z| itself overflows: a typed error, not an OverflowError from abs(z).
    with pytest.raises(OutOfRegime, match="sheet 2"):
        evaluate_sum(MeanderModel(0.5), complex(1.7e308, 1.7e308))


# ---------------------------------------------------------------------------
# Tails from local Cauchy circles
# ---------------------------------------------------------------------------


def _jet_stops(seq, z0, m, rel_tol=1e-10):
    """The SumResult of every order of the jet at z0, as ``taylor_jet`` sums them."""
    return series._sum_derivative_series(seq, [z0], range(m + 1), 1e-300, rel_tol, 1.0, 200_000)[0]


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
    (QLogModel(0.5), 1.6 + 0j),
    (pullback_model(MeanderModel(0.5, c=0.1), 2), 0j),
    (QLogModel(0.5), 2.5 + 0j),
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
    # points, among them the four axis directions, on sheets up to 500 where
    # the q-log's z**j stays in the float range.
    bounds = tails._CertifiedTails(seq, z0)
    radius, poles = seq.perforation.radius, seq.perforation.poles
    ring = np.exp(2j * np.pi * np.arange(64) / 64)
    for n in (1, 2, 5, 20, 50):
        d = poles.tail_distance_bound(z0, n)
        for j in (n + 1, n + 2, 2 * n + 1, 10 * n):
            circles = [(radius.lam - 1.0) * radius.value(j)]
            if d is not None and d != math.inf:
                circles.append(bounds._shrunk(d) - radius.tail_sup(n))
            if bounds.law is not None:
                circles.append(bounds._factor(n) * j ** -bounds.law[1])
            for R in [R for R in circles if R > 0.0]:
                if j * math.log(abs(z0) + R) < 700.0:
                    assert np.abs(seq.term_array(j, z0 + R * ring)).max() <= seq.norm_bound(j) * (1.0 + 1e-9)


def _sheet_sum_reference(cert, n: int, log_factor: float, power: float) -> float:
    """F * (sum_{j>n} j**power * sigma**j + 2**-1021 * sum of j**power over the subnormal sheets j > n).

    F = exp(log_factor).  The first sum is bounded by its geometric
    majorant, the second by the count of the subnormal sheets times the
    largest j**power on them.
    """
    try:
        ratio = cert.sigma * ((n + 2) / (n + 1)) ** power
    except OverflowError:
        ratio = math.inf
    log_sigma = math.log(cert.sigma) if cert.sigma else -math.inf
    log_normal = math.inf if ratio >= 1.0 else power * math.log(n + 1) + (n + 1) * log_sigma - math.log1p(-ratio)
    total = tails._exp(log_factor + log_normal)
    n_sub, n0 = cert.underflow_sheets
    first = max(n, n_sub) + 1
    if first <= n0:
        log_top = math.log(n0 if power >= 0.0 else first)
        total += tails._exp(log_factor + (-1021.0 * math.log(2.0) + math.log(n0 - first + 1) + power * log_top))
    return total


def _branch_reference(bounds, k: int, n: int) -> tuple[float, float, float]:
    """``_CertifiedTails.branches`` computed afresh from n and k."""
    cert, radius = bounds.cert, bounds.radius
    log_k = math.log(cert.C)
    log_uniform = log_k + radius.alpha * k * math.log1p(radius.shift) - k * math.log((radius.lam - 1.0) * radius.c)
    uniform = _sheet_sum_reference(cert, n, log_uniform, radius.alpha * k + cert.q)
    local = law = math.inf
    d = bounds.poles.tail_distance_bound(bounds.z0, n)
    if d is not None and d != math.inf:
        R = bounds._shrunk(d) - radius.tail_sup(n)
        if R > 0.0:
            local = _sheet_sum_reference(cert, n, log_k - k * math.log(R), cert.q)
    if bounds.law is not None:
        b = bounds._factor(n)
        if b > 0.0:
            law = _sheet_sum_reference(cert, n, log_k - k * math.log(b), bounds.law[1] * k + cert.q)
    return uniform, local, law


def _tail_reference(bounds, k: int, n: int) -> float:
    """``_CertifiedTails.tail`` with every branch computed afresh from n and k."""
    if k == 0:
        return _sheet_sum_reference(bounds.cert, n, math.log(bounds.cert.C), bounds.cert.q)
    return min(_branch_reference(bounds, k, n))


@pytest.mark.parametrize("seq, z0", _TAIL_CASES)
def test_certified_tails_share_per_sheet_parts_bit_for_bit(seq, z0):
    # One _CertifiedTails caches what every order shares at a sheet; its
    # tails are those computed afresh, in any order of calls.
    bounds = tails._CertifiedTails(seq, z0)
    rng = np.random.default_rng(5)
    for k, n in zip(rng.integers(0, 41, 400).tolist(), rng.integers(1, 6000, 400).tolist()):
        for sheet in (n, n + 1, 2 * n):
            assert bounds.tail(k, sheet).hex() == _tail_reference(bounds, k, sheet).hex(), (k, sheet)
            if k:
                assert bounds.branches(k, sheet) == _branch_reference(bounds, k, sheet), (k, sheet)


def test_local_tail_is_no_larger_than_the_uniform_tail():
    for seq, z0 in _TAIL_CASES:
        for k in (1, 5, 30):
            for n in (1, 10, 100, 1000, 5000):
                bounds = tails._CertifiedTails(seq, z0)
                assert bounds.tail(k, n) <= _branch_reference(bounds, k, n)[0]


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
# The certified stop's search
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
        _jet_lanes(QLogModel(0.5), 1.6 + 0j, 8),
        _order_zero_lanes(MeanderModel(0.95), [0j, 0.3 + 0.2j, -0.45 + 0.01j, 1.2j, 0.7], 1e-12),
        # The terms of orders near 150 overflow from sheet 119 on, after the low orders stop.
        _jet_lanes(MeanderModel(0.95), 0j, 150),
        _jet_lanes(MeanderModel(0.5, c=0.1), 0j, 40),  # the jet of the bench's gevrey op
        # Away from the branch point the tail is the uniform circles' alone.
        _jet_lanes(pullback_model(MeanderModel(0.5, c=0.1), 2), 0.3 + 0.3j, 8),
    ],
    ids=["oscillating", "restarts", "off-the-poles", "qlog-off-the-poles", "five-points", "non-finite-term",
         "accumulation-point", "pullback"],
)
def test_bisection_stops_where_the_sheet_by_sheet_rule_stops(monkeypatch, run):
    fast = [_outcome(out) for out in run()]
    monkeypatch.setattr(series._CertifiedStop, "scan", _sheet_by_sheet_certified_scan)
    assert fast == [_outcome(out) for out in run()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40), st.data())
def test_first_stop_is_the_first_sheet_within_its_limit(drops, data):
    # Non-increasing tails against limits that rise and fall at will, from
    # the first sheet or from a later one.
    tail = np.cumsum(drops)[::-1]
    limit = np.array(data.draw(st.lists(st.floats(0.0, 60.0), min_size=len(tail), max_size=len(tail))))
    start = data.draw(st.one_of(st.just(0), st.integers(0, len(tail))))
    stop = series._CertifiedStop.__new__(series._CertifiedStop)
    stop._tail = lambda lane, k, n: float(tail[n])
    want = next(((j, float(tail[j])) for j in range(start, len(tail)) if tail[j] <= limit[j]), None)
    assert stop._first_stop(0, 1, list(range(len(tail))), limit, start) == want


def _counted_search(tail, bound, lo, hi):
    """``series._search`` over lists, with the sheets whose tail it takes."""
    taken = []

    def take(j):
        taken.append(j)
        return tail[j]

    return series._search(take, bound.__getitem__, lo, hi), taken


#: Runs of inf, plateaus, exact zeros and cliffs across hundreds of decades.
_LEVELS = st.lists(
    st.tuples(st.one_of(st.just(math.inf), st.just(0.0), st.floats(1e-300, 1e300)), st.integers(1, 300)),
    min_size=1, max_size=8,
)


@settings(max_examples=400, deadline=None)
@given(levels=_LEVELS, data=st.data())
@example(levels=[(1e300, 600), (0.99, 600)], data=None)  # a cliff: the line lands by the far end
@example(levels=[(2.0, 1), (1e-300, 40)], data=None)  # the line meets 0 within a sheet of lo
def test_search_is_a_linear_scan(levels, data):
    tail = [v for v, run in sorted(levels, key=lambda level: -level[0]) for _ in range(run)]
    if data is None:  # the examples: a constant bound of 1 over every sheet
        lo, hi, bound = 0, len(tail) - 1, [1.0] * len(tail)
    else:
        lo = data.draw(st.integers(0, len(tail) - 1))
        hi = data.draw(st.sampled_from([lo, min(lo + 1, len(tail) - 1), len(tail) - 1]))
        values = tail[lo : hi + 1] + [0.0, math.inf, 1.0]
        drawn = data.draw(st.lists(st.one_of(st.sampled_from(values), st.floats(0.0, 1e300)), min_size=1, max_size=4))
        # A constant bound, or a non-decreasing one.
        steps = sorted(data.draw(st.lists(st.integers(lo, hi), min_size=len(drawn) - 1, max_size=len(drawn) - 1)))
        bound = [0.0] * lo + [sorted(drawn)[sum(j >= step for step in steps)] for j in range(lo, hi + 1)]
    got, taken = _counted_search(tail, bound, lo, hi)
    assert got == next((j for j in range(lo, hi + 1) if tail[j] <= bound[j]), hi + 1)
    assert len(taken) == len(set(taken))  # no tail is taken twice
    # hi, lo, two secant steps that fail to halve the span, and at most two
    # tails for each halving.
    assert len(taken) <= 6 + 2 * max(hi - lo - 1, 0).bit_length()


@settings(max_examples=200, deadline=None)
@given(
    slope=st.floats(1e-3, 5.0), offset=st.floats(-300.0, 300.0), span=st.integers(1, 5000),
    data=st.data(),
)
def test_search_on_a_geometric_tail_takes_four_tails(slope, offset, span, data):
    # log tail is linear in j, and the bound sits halfway between two
    # sheets: the line meets it half a sheet before the answer, which the
    # first step tries and the probe of its neighbour confirms.
    assume(offset - slope * (span + 1) > -700.0)  # no tail underflows
    answer = data.draw(st.integers(0, span + 1))
    tail = [math.exp(offset - slope * j) for j in range(span + 1)]
    bound = [math.exp(offset - slope * (answer - 0.5))] * (span + 1)
    got, taken = _counted_search(tail, bound, 0, span)
    assert got == answer
    assert len(taken) <= 4


def test_a_plain_derivative_sum_takes_no_tail_past_the_block_of_its_stop():
    # At alpha = 60 the radius leaves the float range on sheet 137 271, far
    # past the stop: a tail taken there would raise OutOfRegime.
    res = coefficient_sum(MeanderModel(0.5, c=0.1, alpha=60.0), 0.3, 1)
    assert res.terms_used == 581


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
