"""The pi_k series summed on its telescoping remainder: tails, oracles and refusals.

Its terms are t_n = P_n - P_{n+1} with P_n = prod_{j<=n} -j*z/(1 - j*z), so
the sum through sheet n is 1 - P_{n+1}, and the sum is 1 in the closed left
half-plane where P_n tends to 0.
"""

import math

import mpmath
import numpy as np
import pytest

from meandro import (
    DiophantineRequired,
    TolUnreachable,
    ZeroSumPiK,
    evaluate_sum,
    pullback_model,
    taylor_jet,
)
from meandro.tails import _REMAINDER_SHEETS, _RemainderTails

_POINTS = [-0.3 + 0j, -0.1 + 0.05j, 0.2j, 0j, -0.02 + 0j]


def _p(n: int, z):
    """P_n at z in mpmath."""
    return mpmath.fprod(-j * z / (1 - j * z) for j in range(1, n + 1))


def _rounding(seq, z0, k: int, last: int) -> float:
    """(4k + 8) ulps of the sum of |t_n^(k)(z0)/k!| over sheets 0..last, which no tail accounts for."""
    ns = np.arange(last + 1)
    terms = seq.term_grid(ns, [z0])[0] if k == 0 else seq.taylor_coefficients(ns, k, z0)[k]
    return (4 * k + 8) * np.finfo(float).eps * float(np.abs(terms).sum())


@pytest.mark.parametrize("z0", _POINTS)
@pytest.mark.parametrize("k", [0, 1, 2, 7])
def test_remainder_tails_do_not_increase(z0, k):
    # ``series._search`` relies on tails that do not increase with the sheet.
    tails = ZeroSumPiK().tail_policy(z0, k)
    if k and z0.real == 0.0 and z0 != 0:
        assert isinstance(tails, TolUnreachable)
        return
    scalar = np.array([tails.tail(k, n) for n in range(3001)])
    finite = scalar[np.isfinite(scalar)]
    assert finite.size  # the tails come down within these sheets
    assert np.all(np.diff(finite) <= 0.0)
    assert np.all(np.isinf(scalar[: len(scalar) - finite.size]))


_ORACLE_CASES = [
    (z0, n, k) for z0 in (-0.2 + 0.05j, -0.3 + 0j, -0.05 + 0.2j, -0.45 + 0j) for n in (5, 50, 400) for k in (0, 1, 3)
] + [
    (-0.3 + 0j, 4, 0),  # a float product of these 5 factors comes out 3 ulps below |P_5|
    (0.2j, 3, 0), (0.2j, 60, 0),
    (0j, 3, 2), (0j, 3, 7),
    (-0.02 + 0j, 0, 1), (-0.02 + 0j, 10, 2), (-0.02 + 0j, 40, 7),
    (-0.1 + 0.05j, 20, 7),
]


@pytest.mark.parametrize("z0, n, k", _ORACLE_CASES)
def test_each_tail_bounds_the_derivative_of_the_remainder(z0, n, k):
    # The order-k sum after sheet n is -P_{n+1}^(k)(z0)/k! (order 0: P_{n+1} - lim P).
    tail = ZeroSumPiK().tail_policy(z0, k).tail(k, n)
    with mpmath.workdps(40):
        exact = abs(mpmath.diff(lambda z: _p(n + 1, z), mpmath.mpc(z0), k)) / mpmath.factorial(k)
    assert exact <= tail + 1e-30  # mpmath's differences are off by about 1e-38 where P^(k) is 0


@pytest.mark.parametrize(
    "z0, last", [(-0.3 + 0j, 1947), (-0.1 + 0.05j, 56), (-0.45 + 0j, 47574)]
)
def test_evaluations_lie_within_their_tail_of_one(z0, last):
    # At tol 1e-10 the sums stop after 1 948, 57 and 47 575 sheets (from sheet 0).
    seq = ZeroSumPiK()
    res = evaluate_sum(seq, z0)
    assert res.terms_used == last
    assert res.tail_bound <= 1e-10
    assert abs(res.value - 1.0) <= res.tail_bound + _rounding(seq, z0, 0, last)


def test_the_sum_at_the_origin_is_its_first_term():
    res = evaluate_sum(ZeroSumPiK(), 0j)
    assert (res.value, res.terms_used, res.tail_bound) == (1.0, 0, 0.0)


def test_a_jet_off_the_origin_is_that_of_one_within_its_tails():
    seq = ZeroSumPiK()
    jet = taylor_jet(seq, -0.02, 4)
    assert not jet.certified  # no decay certificate
    for k, (got, tail, want) in enumerate(zip(jet.coefficients, jet.coefficient_tails, [1.0, 0.0, 0.0, 0.0, 0.0])):
        assert 0.0 < tail <= 1e-10
        assert abs(got - want) <= tail + _rounding(seq, -0.02, k, 100)


def test_derivatives_on_the_imaginary_axis_have_no_tails():
    with pytest.raises(TolUnreachable, match="closed left half-plane"):
        taylor_jet(ZeroSumPiK(), 0.2j, 1)
    # Order 0 has them, but they stop falling at 2*|P_oo(0.2i)|, about 0.0044.
    with pytest.raises(TolUnreachable, match="within 500 sheets"):
        evaluate_sum(ZeroSumPiK(), 0.2j, max_terms=500)
    assert evaluate_sum(ZeroSumPiK(), 0.2j, tol=0.01).tail_bound <= 0.01


def test_a_pullback_has_no_tail_policy():
    with pytest.raises(DiophantineRequired):
        taylor_jet(pullback_model(ZeroSumPiK(), 2), -0.1 + 0j, 2)


@pytest.mark.parametrize("z", [-0.3 + 0j, -0.1 + 0.05j, 0.3 + 0.4j])
def test_terms_in_product_form_match_mpmath_past_sheet_170(z):
    # n! * z**n overflowed a float from sheet 171 on; the product does not.
    seq = ZeroSumPiK()
    for n in (0, 1, 7, 170, 171, 400):
        with mpmath.workdps(40):
            want = complex(_p(n, mpmath.mpc(z)) / (1 - (n + 1) * mpmath.mpc(z)))
        assert seq.term(n, z) == pytest.approx(want, rel=1e-12, abs=0.0), n
    assert abs(seq.term(171, -0.3)) == pytest.approx(6.1e-9, rel=0.01)


@pytest.mark.parametrize("sheets", [1, 2, 3, 64, 300])
def test_term_grid_rows_are_order_zero_derivatives_bit_for_bit(sheets):
    # Row 0 of the Taylor coefficients is the point's own term_grid row; 0j takes the exact-integer form.
    seq = ZeroSumPiK()
    rng = np.random.default_rng(sheets)
    for start in rng.integers(0, 300, size=3).tolist():
        zs = [complex(rng.uniform(-0.4, 0.1), rng.uniform(-0.4, 0.4)) for _ in range(4)]
        zs = [np.complex128(z) if i % 2 else z for i, z in enumerate(zs)] + [-0.25, 0j]
        ns = np.arange(start, start + sheets)
        with np.errstate(all="ignore"):
            grid = seq.term_grid(ns, zs)
            rows = [seq.taylor_coefficients(ns, 0, z)[0] for z in zs]
        assert grid.shape == (len(zs), sheets)
        for got, want in zip(grid, rows):
            assert got.tobytes() == want.tobytes()


def test_remainder_tails_keep_their_value_past_the_multiplied_sheets():
    tails = _RemainderTails(-0.45 + 0j)
    last = tails.tail(0, _REMAINDER_SHEETS - 1)
    assert 0.0 < last < tails.tail(0, 1000)
    assert tails.tail(0, 10 * _REMAINDER_SHEETS) == last
    assert math.isinf(_RemainderTails(0j).tail(3, 2)) and _RemainderTails(0j).tail(3, 3) == 0.0
