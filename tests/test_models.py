import cmath
import decimal
from unittest import mock
import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandro import (
    MeanderModel,
    OutOfRegime,
    QLogModel,
    ZeroSumGeneral,
    ZeroSumPiK,
    ZeroPole,
    eulerian_polynomial,
    evaluate_sum,
    evaluate_sums,
    geometric_power_sum,
    meander_curve,
    pi_k,
    pullback_model,
    ray_trace,
    taylor_jet,
    zero_sum_coefficients,
)
from meandro.geometry import doubling_blocks


# ---------------------------------------------------------------------------
# Eulerian polynomials and power sums
# ---------------------------------------------------------------------------


def test_eulerian_polynomials_exact():
    assert eulerian_polynomial(1) == [1]
    assert eulerian_polynomial(2) == [1, 1]
    assert eulerian_polynomial(3) == [1, 4, 1]
    assert eulerian_polynomial(4) == [1, 11, 11, 1]


def test_eulerian_row_sums_are_factorials():
    for j in range(1, 9):
        assert sum(eulerian_polynomial(j)) == math.factorial(j)


def test_power_sum_exponent_resolved_by_brute_force():
    # The closed form x*E_j(x)/(1-x)**(j+1): the brute-force series pins the
    # denominator exponent at j+1 (j alone is off by a factor (1-x)).
    # The series is summed in 40-digit arithmetic at the binary value of x:
    # at j = 8, x = -0.4 the terms reach 1.1e4 against a sum near 1, so
    # rounding each term to a float already costs more than the 1e-12 asked.
    # The tail beyond n = 3999 is below 2 * 4000**8 * 0.5**4000 < 1e-1000.
    for j in (1, 3, 5, 8):
        for x in (0.3, 0.5, -0.4):
            with mpmath.workdps(40):
                xm = mpmath.mpf(x)
                brute = float(mpmath.fsum(mpmath.mpf(n) ** j * xm**n for n in range(1, 4000)))
            assert geometric_power_sum(j, x) == pytest.approx(brute, rel=1e-12)
            wrong_exponent = geometric_power_sum(j, x) * (1 - x)
            assert abs(wrong_exponent - brute) > 1e-6 * abs(brute)


# ---------------------------------------------------------------------------
# Meander model
# ---------------------------------------------------------------------------


def test_meander_jet_matches_eulerian_closed_form(meander_half):
    jet = taylor_jet(meander_half, 0j, 8, rel_tol=1e-12)
    for j in range(9):
        closed = (-1.0) ** j * geometric_power_sum(j, 0.5)
        assert abs(jet.coefficients[j] - closed) <= 1e-9 * abs(closed)


def test_meander_factorial_growth_bounds(meander_half):
    # x**j * j**j below, C**j * j! above (C = 2 suffices at x = 1/2).
    jet = taylor_jet(meander_half, 0j, 8, rel_tol=1e-12)
    for j in range(1, 9):
        a = abs(jet.coefficients[j])
        assert a >= 0.5**j * j**j
        assert a <= 2.0**j * math.factorial(j) * (1 + 1e-12)


def test_meander_derivative_closed_form():
    m = MeanderModel(0.4, c=0.1, alpha=2.0, lam=1.5)
    z, n, k = 0.2 + 0.1j, 3, 4
    expect = 0.4**n * (-n) ** k / (1 + n * z) ** (k + 1)  # the k-th derivative over k!
    # Row k of the block is row k-1 times -n/(1 + n*z): a few roundings from the closed form.
    assert m.taylor_coefficients(np.array([n]), k, z)[k, 0] == pytest.approx(expect, rel=1e-14, abs=0.0)


def test_meander_rejects_large_x():
    with pytest.raises(ValueError):
        MeanderModel(1.0)


# ---------------------------------------------------------------------------
# q-logarithm model
# ---------------------------------------------------------------------------


def test_fiber_identity_random_points(qlog_half):
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 33, 64):
        roots = qlog_half.perforation.poles_on_sheet(n)
        for _ in range(4):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if np.min(np.abs(z - roots)) < 1e-2:
                continue
            direct = 1.0 / (z**n - 1.0)
            fiber = np.sum(roots / (z - roots)) / n
            assert abs(direct - fiber) <= 1e-10 * max(1.0, abs(direct))


def test_qlog_derivative_matches_difference(qlog_half):
    z, n = 0.4 + 0.1j, 5
    h = 1e-6
    fd = (qlog_half.term(n, z + h) - qlog_half.term(n, z - h)) / (2 * h)
    assert qlog_half.taylor_coefficients(np.array([n]), 1, z)[1, 0] == pytest.approx(fd, rel=1e-8)


def test_qlog_residues(qlog_half):
    omega = cmath.exp(2j * math.pi / 5.0)
    assert qlog_half.residue(5, omega) == pytest.approx(0.5**5 * omega / 5.0)
    with pytest.raises(ValueError):
        qlog_half.residue(5, 0.3 + 0j)


# ---------------------------------------------------------------------------
# Zero-expansion constructions
# ---------------------------------------------------------------------------


def test_pi_k_values():
    assert pi_k(0, 0.5) == 0.5
    assert pi_k(2, 0.0) == 1.0
    assert pi_k(3, 0.1) == pytest.approx(0.9 * 0.8 * 0.7 * 0.6)
    assert pi_k(2, Fraction(1, 3)) == Fraction(2, 3) * Fraction(1, 3) * 0


def test_pik_partial_sum_identity_exact():
    """Telescoping remainder of the zero expansion of 1, in exact rationals.

    With pi_k = prod_{j=1}^{k+1}(1 - j z), the remainder after the order-n
    partial sum is (-1)**(n+1) (n+1)! z**(n+1) / pi_n(z); the denominator
    index n (not n+1) is pinned by this oracle.
    """
    for z in (Fraction(3, 17), Fraction(-2, 9), Fraction(1, 101)):
        for n in range(13):
            lhs = 1 - sum(
                (-1) ** k * math.factorial(k) * z**k / pi_k(k, z) for k in range(n + 1)
            )
            rhs = (-1) ** (n + 1) * math.factorial(n + 1) * z ** (n + 1) / pi_k(n, z)
            assert lhs == rhs
            off_by_one = (-1) ** (n + 1) * math.factorial(n + 1) * z ** (n + 1) / pi_k(n + 1, z)
            assert lhs != off_by_one


def test_pik_jet_is_one(meander_half):
    jet = taylor_jet(ZeroSumPiK(), 0j, 8)
    assert jet.coefficients[0] == 1.0
    assert np.all(jet.coefficients[1:] == 0.0)


def test_pik_jet_off_the_origin_is_one():
    # The sum is 1 about every point of the open left half-plane; sheet 170 once ended this jet.
    jet = taylor_jet(ZeroSumPiK(), -0.1 + 0.05j, 6)
    for k, (a, tail, rounding) in enumerate(zip(jet.coefficients, jet.coefficient_tails, jet.coefficient_rounding)):
        assert abs(a - (k == 0)) <= tail + rounding, k


@pytest.mark.parametrize("z", [-0.3 + 0j, -0.1 + 0.05j, -0.001 + 0.001j, -1e-5 + 0j, 0.3 + 0.4j])
def test_pik_blocks_carry_their_prefix_bit_for_bit(z):
    # One sequence goes on from its last product block by block; a fresh
    # sequence per block rebuilds it from sheet 1.  A repeated point and the
    # point whose imaginary part differs in sign (for a real z, in the sign
    # of its zero) have states of their own.
    carried, pts = ZeroSumPiK(), [z, 0.5 * z, z, complex(z.real, -z.imag)]
    for lo, hi in doubling_blocks(0, 3000, 1):
        ns = np.arange(lo, hi)
        with np.errstate(all="ignore"):
            got, want = carried.term_grid(ns, pts), ZeroSumPiK().term_grid(ns, pts)
        assert got.tobytes() == want.tobytes(), lo
    assert len(carried._products) == 3
    # A pass from sheet 0 drops the states of earlier passes.
    with np.errstate(all="ignore"):
        carried.taylor_coefficients(np.arange(64), 2, 0.5 * z)
    assert list(carried._products) == [((0.5 * z).real.hex(), (0.5 * z).imag.hex())]


_INHERITED = {
    "pik": lambda: ZeroSumPiK(),
    "general": lambda: ZeroSumGeneral(1, [0.5, -0.75j, 2.0, 1.5 + 1j]),
    "pullback-meander": lambda: pullback_model(MeanderModel(0.9, c=0.1), 2),
    "pullback-qlog": lambda: pullback_model(QLogModel(0.9), 3, 0.1 + 0j),
    "pullback-general": lambda: pullback_model(ZeroSumGeneral(1, [0.5, -0.75j, 2.0]), 2),
}


@pytest.mark.parametrize("family", sorted(_INHERITED))
def test_term_array_is_one_term_grid_call(family):
    seq = _INHERITED[family]()
    zs = np.array([-0.3 + 0.1j, -0.05j, 0.2 - 0.4j, -1.7 + 0.2j])
    n = seq.n_max or 7
    with mock.patch.object(seq, "term_grid", wraps=seq.term_grid) as grid, np.errstate(all="ignore"):
        got = seq.term_array(n, zs)
    assert grid.call_count == 1
    with np.errstate(all="ignore"):
        assert got.tobytes() == np.array([seq.term(n, z) for z in zs]).tobytes()


def test_zero_sum_general_sums_do_not_depend_on_the_type_of_the_point():
    # 64 points on a circle about -0.2, as numpy complex128 (a ray) and as Python complex (listed points).
    seq = ZeroSumGeneral(1, [0.5, -0.75j, 2.0, 1.5 + 1j])
    ring = -0.2 + 0.3 * np.exp(2j * np.pi * np.arange(64) / 64)
    numpy_points = evaluate_sums(seq, list(ring))
    python_points = evaluate_sums(seq, ring.tolist())
    assert [(r.value.real.hex(), r.value.imag.hex(), r.rounding) for r in numpy_points] == [
        (r.value.real.hex(), r.value.imag.hex(), r.rounding) for r in python_points
    ]
    jets = [taylor_jet(seq, z, 3).coefficients.tobytes() for z in (ring[5], complex(ring[5]))]
    assert jets[0] == jets[1]


def _pik_jets(z: complex, sheets: int, order: int) -> list[list[complex]]:
    """The Taylor coefficients of t_n(z + t), k <= order, n = 0..sheets, in 50-digit power series."""
    jets = []
    with mpmath.workdps(50):
        z = mpmath.mpc(z)
        c = [1 / (1 - z) ** (k + 1) for k in range(order + 1)]  # t_0 = 1/(1 - z - t)
        for n in range(sheets + 1):
            if n:  # t_n = t_{n-1} * -n*(z + t) / (1 - (n+1)*z - (n+1)*t)
                c = [-n * (z * c[k] + (c[k - 1] if k else 0)) for k in range(order + 1)]
                for k in range(order + 1):
                    c[k] = (c[k] + (n + 1) * (c[k - 1] if k else 0)) / (1 - (n + 1) * z)
            jets.append([complex(c[k]) for k in range(order + 1)])
    return jets


@pytest.mark.parametrize(
    "z",
    [0.013 + 0j, 0.03j, -0.2 + 0.05j, 0.3 + 0.4j, -0.3 + 0j, -0.45 + 0j, -0.1 + 0.05j, -0.013 + 0j, -0.001 + 0.001j,
     -1e-5 + 0j],
)
def test_pik_derivatives_off_the_origin_match_mpmath(z):
    # Past sheet 170 n! overflows a float; the block forms none.
    got = ZeroSumPiK().taylor_coefficients(np.arange(301), 10, z)
    want = _pik_jets(z, 300, 10)
    for n in (0, 1, 30, 171, 300):  # the power series against mpmath's numerical derivatives
        with mpmath.workdps(50):
            def term(t):
                return (-1) ** n * mpmath.factorial(n) * t**n / mpmath.fprod(1 - j * t for j in range(1, n + 2))

            diffs = [complex(d / mpmath.factorial(k)) for k, d in enumerate(mpmath.diffs(term, mpmath.mpc(z), 10))]
        assert all(abs(d - w) <= 1e-14 * abs(w) for d, w in zip(diffs, want[n])), n
    for n in range(301):
        # Where t_n(z) is below the normal range, so are the terms of its block sums.
        floor = 0.0 if abs(want[n][0]) >= 2.0**-1022 else 1e-306
        for k in range(11):
            assert abs(got[k, n] - want[n][k]) <= 1e-10 * abs(want[n][k]) + floor, (n, k)


def _mp_term(seq, n: int):
    """The sheet-n term of a family as a function of one mpmath number."""
    if isinstance(seq, ZeroSumPiK):
        return lambda z: (-1) ** n * mpmath.factorial(n) * z**n / mpmath.fprod(1 - j * z for j in range(1, n + 2))
    if isinstance(seq, ZeroSumGeneral):  # with the family's own float coefficient a_n
        a, e = mpmath.mpc(seq.coefficients[n]), mpmath.mpc(seq.pole_list[n])
        return lambda z: a * z**n / (1 - z / e) + (mpmath.mpc(seq.constant) if n == 0 else 0)
    if hasattr(seq, "base"):  # a pullback
        base, center = _mp_term(seq.base, n), mpmath.mpc(seq.center)
        return lambda w: base(center + w**seq.beta)
    x = mpmath.mpc(seq.x)
    if isinstance(seq, MeanderModel):
        return lambda z: x**n / (1 + n * z)
    return lambda z: x**n / (z**n - 1)


_COEFFICIENT_CASES = {
    "meander": (lambda: MeanderModel(0.9), [0j, 0.3 + 0.2j], [1, 2, 7, 30]),
    "qlog-inside-and-outside": (lambda: QLogModel(0.9), [0.5 + 0.3j, 1.6 - 0.4j], [1, 2, 7, 30]),
    "pullback-meander": (lambda: pullback_model(MeanderModel(0.5, c=0.1), 2), [0j, 0.3 + 0.2j], [1, 2, 7, 30]),
    "pullback-qlog": (lambda: pullback_model(QLogModel(0.5), 3, 0.1), [0j, 0.2 - 0.1j], [1, 2, 7, 30]),
    "zero-sum-general": (lambda: ZeroSumGeneral(1, [0.5, -0.75j, 2.0, 1.5 + 1j]), [0.1 + 0.1j, -0.2j], [0, 1, 2, 3]),
    # The origin's integers, the Leibniz form (n*|z| < 1) and the log form (n*|z| >= 1).
    "pik": (lambda: ZeroSumPiK(), [0j, -0.3 + 0j, -0.1 + 0.05j, 0.013 + 0j], [0, 1, 2, 7, 30]),
}


@pytest.mark.parametrize("family", sorted(_COEFFICIENT_CASES))
def test_taylor_coefficient_rows_match_40_digit_mpmath_taylor(family):
    # Row k of every family is the k-th Taylor coefficient of its terms, at
    # the branch point of a pullback (w = 0) and off it.  mpmath's numerical
    # differences leave about 1e-40 where a coefficient is 0.
    make, points, sheets = _COEFFICIENT_CASES[family]
    seq = make()
    for z in points:
        rows = seq.taylor_coefficients(np.array(sheets), 8, z)
        for col, n in enumerate(sheets):
            with mpmath.workdps(40):
                want = [complex(a) for a in mpmath.taylor(_mp_term(seq, n), mpmath.mpc(z), 8)]
            for k, (got, ref) in enumerate(zip(rows[:, col].tolist(), want)):
                assert abs(got - ref) <= 1e-11 * abs(ref) + 1e-30, (z, n, k)


def test_zero_sum_coefficient_seeds():
    assert zero_sum_coefficients(1, [Fraction(2)], 0) == [-1]
    a = zero_sum_coefficients(1, [Fraction(1), Fraction(1)], 1)
    assert a == [-1, 1]  # a_1 = -a_0/e_0


def test_zero_sum_rejects_zero_pole():
    with pytest.raises(ZeroPole):
        zero_sum_coefficients(1, [Fraction(0), Fraction(1)], 1)


def test_zero_sum_partial_jets_vanish_exactly():
    poles = [Fraction(1, k + 1) for k in range(9)]
    a = zero_sum_coefficients(1, poles, 8)
    for order in range(9):
        jet_coeff = sum(
            a[j] * poles[j] ** -(order - j) for j in range(min(order, 8) + 1)
        ) + (1 if order == 0 else 0)
        assert jet_coeff == 0


def test_zero_sum_general_jets_vanish_in_float():
    model = ZeroSumGeneral(1, [Fraction(1, k + 1) for k in range(10)])
    jet = taylor_jet(model, 0j, 8)
    assert float(np.max(np.abs(jet.coefficients))) <= 1e-9
    # flatness witness: the assembled partial sum is tiny near the origin
    for z in (0.01 + 0j, 0.01j):
        val = sum(model.term(k, z) for k in range(10))
        assert abs(val) <= 1e-12


def test_zero_sum_general_finite_eval():
    model = ZeroSumGeneral(1, [Fraction(1, k + 1) for k in range(10)])
    res = evaluate_sum(model, 0.02 + 0.01j, tol=1e-12)
    direct = sum(model.term(k, 0.02 + 0.01j) for k in range(10))
    assert res.value == pytest.approx(direct)
    assert res.tail_bound == 0.0


# ---------------------------------------------------------------------------
# Truncation curves
# ---------------------------------------------------------------------------


def test_curve_degree_one():
    data = meander_curve(1, [0.0, 0.75])
    assert data[0][1] == pytest.approx([-1.0, 0.0])
    # branch through the origin: z = (-1 + sqrt(1 + 4 x))/2 = 0.5 at x = 0.75
    assert 0.5 in [pytest.approx(r) for r in data[1][1]]


def test_curve_roots_satisfy_equation():
    for x, roots in meander_curve(3, np.linspace(0.05, 0.9, 12)):
        for z in roots:
            residual = abs(z - sum(x**k / (1 + k * z) for k in range(1, 4)))
            assert residual <= 1e-8


def test_curve_winds_with_order():
    # more truncation terms bring more poles, hence more real branches
    low = meander_curve(2, [0.5])[0][1]
    high = meander_curve(8, [0.5])[0][1]
    assert len(high) > len(low)


def test_curve_rejects_high_degree():
    with pytest.raises(ValueError):
        meander_curve(40, [0.5])


def _curve_brackets(n, x, one=1.0):
    """The brackets of the branches: [-1 - S, -1), (-1/k, -1/(k+1)), (-1/n, S]."""
    total = sum(x**k for k in range(1, n + 1))
    ends = [-1 - total] + [-one / k for k in range(1, n + 1)] + [total]
    return list(zip(ends, ends[1:]))


def _bisected_roots(n, x):
    """Each bracket's root of g(z) = z - sum_k x**k/(1 + k z), by 30-digit bisection.

    Decimal arithmetic, not mpmath: an mpmath evaluation of g at n = 39
    takes about 300 us against 40 us, which would add seconds to the suite.
    The last bracket is bisected from 0, where g = -S < 0.
    """
    with decimal.localcontext(decimal.Context(prec=30)):
        w = [Decimal(x) ** k for k in range(1, n + 1)]
        brackets = _curve_brackets(n, Decimal(x), Decimal(1))
        brackets[-1] = (Decimal(0), brackets[-1][1])
        roots = []
        for lo, hi in brackets:
            while hi - lo > Decimal("1e-16") * min(abs(lo), abs(hi)):
                mid = (lo + hi) / 2
                if mid < sum(wk / (1 + k * mid) for k, wk in enumerate(w, 1)):
                    lo = mid
                else:
                    hi = mid
            roots.append(float((lo + hi) / 2))
        return roots


# A subnormal x has a subnormal last root, which holds fewer than 12 digits.
@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 39), x=st.floats(0.0, 2.0, exclude_min=True, allow_subnormal=False))
def test_curve_roots_interlace_the_poles(n, x):
    # One root per bracket, ascending, each at the bisected 30-digit root.
    [(_, roots)] = meander_curve(n, [x])
    assert len(roots) == n + 1
    assert roots == sorted(roots)
    for root, (lo, hi), want in zip(roots, _curve_brackets(n, x), _bisected_roots(n, x)):
        assert lo <= root <= hi
        assert abs(root - want) <= 1e-12 * abs(want)


def test_curve_has_every_branch_at_the_top_degree():
    for x, roots in meander_curve(39, np.linspace(0.0, 0.9, 19)):
        assert len(roots) == 40


@pytest.mark.parametrize("x", [-0.3, -1e-300, math.nan])
def test_curve_rejects_x_without_interlacing(x):
    # For x < 0 a gap between poles holds an even number of roots.
    with pytest.raises(OutOfRegime, match=str(x)):
        meander_curve(20, [0.5, x])


@pytest.mark.parametrize("n", [1, 3, 39])
@pytest.mark.parametrize("x", [5e-324, 1.5e-323, 1e-320])
def test_curve_keeps_a_subnormal_root(n, x):
    # The last root is x + O(x**2), so x itself; at x = 5e-324 the final
    # bracket is [0, 5e-324], whose midpoint rounds to 0, where g = -x.
    (_, roots), = meander_curve(n, [x])
    assert len(roots) == n + 1 and roots[-1] == x


@pytest.mark.parametrize("n, x", [(39, 1e9), (3, 1e300), (1, 1.7e308), (2, math.inf)])
def test_curve_rejects_overflowing_x_without_a_warning(n, x):
    # pytest turns a RuntimeWarning into an error (pyproject.toml).
    with pytest.raises(OutOfRegime, match="overflow"):
        meander_curve(n, [x])


# ---------------------------------------------------------------------------
# Ray tracing
# ---------------------------------------------------------------------------


def test_ray_origin_value(qlog_half):
    pts = ray_trace(qlog_half, t_grid=[0.0], tol=1e-12)
    assert pts[0].value == pytest.approx(-1.0)


def test_ray_bridges_the_circle(qlog_half):
    pts = ray_trace(qlog_half, t_grid=np.arange(0.9, 1.1001, 0.05), tol=1e-10)
    assert all(p.flagged is None for p in pts)
    values = [p.value for p in pts]
    # no blow-up across t = 1
    assert max(abs(v) for v in values) < 10.0


def test_ray_flags_exact_pole_direction(qlog_half):
    pts = ray_trace(qlog_half, theta=0.0, t_grid=[1.0], tol=1e-10)
    assert pts[0].flagged == (1, 1 + 0j)
    assert pts[0].value is None
