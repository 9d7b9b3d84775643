import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from meandro import (
    AnnulusSpec,
    NonConvergent,
    QLogModel,
    annulus_inner_product,
    annulus_sup,
    basis_norm,
    c_constant,
    extension_bound,
    fiber_polar_sum,
    laurent_coefficient_l2,
    laurent_coefficients,
    polar_part,
    s_lambda,
)


def test_basis_norm_closed_forms():
    assert basis_norm(-1, 0.3, 2.0) == pytest.approx(math.sqrt(2 * math.log(2)))
    assert basis_norm(0, 1.0, 2.0) == pytest.approx(math.sqrt(3.0))
    assert basis_norm(-3, 1.0, 2.0) == pytest.approx(math.sqrt(15.0 / 32.0))


def test_basis_norm_continuous_at_minus_one():
    # The k = -1 value is the limit of the generic formula.
    eps = 1e-7
    generic = math.sqrt((1.5 ** (2 * (-1 + eps) + 2) - 1) / eps) * 0.7 ** eps
    assert basis_norm(-1, 0.7, 1.5) == pytest.approx(generic, rel=1e-5)


def test_basis_norm_against_quadrature():
    for lam in (1.5, 2.0):
        for r in (0.1, 1.0):
            ann = AnnulusSpec(0.2 - 0.1j, r, lam)
            for k in (-3, -1, 0, 2):
                ip = annulus_inner_product(
                    lambda z, k=k: (z - ann.center) ** float(k),
                    lambda z, k=k: (z - ann.center) ** float(k),
                    ann,
                )
                assert math.sqrt(ip.real) == pytest.approx(basis_norm(k, r, lam), rel=1e-10)


def test_orthogonality():
    ann = AnnulusSpec(0j, 0.5, 1.5)
    pairs = [(-2, 1), (-1, 0), (3, -4)]
    for j, k in pairs:
        ip = annulus_inner_product(
            lambda z: z ** float(j), lambda z: z ** float(k), ann
        )
        assert abs(ip) <= 1e-10 * basis_norm(j, 0.5, 1.5) * basis_norm(k, 0.5, 1.5)


def test_c_constant_asymptotics():
    lam = 2.0
    assert c_constant(lam, -100) / (math.pi * 3.0 * 10.0) == pytest.approx(1.0, abs=0.01)


def test_s_lambda_against_mpmath_oracle():
    for lam in (1.5, 2.0):
        with mpmath.workdps(40):
            L = mpmath.mpf(lam)
            total = mpmath.mpf(0)
            for k in range(-1, -2000, -1):
                if k == -1:
                    ratio = 1 / (2 * mpmath.log(L))
                else:
                    ratio = mpmath.mpf(k + 1) / (L ** (2 * k + 2) - 1)
                total += mpmath.pi * (L**2 - 1) * mpmath.sqrt(ratio) * L**k
            oracle = float(total)
        assert s_lambda(lam) == pytest.approx(oracle, rel=1e-12)


def test_s_lambda_small_margin_is_large_but_finite():
    val = s_lambda(1.01)
    assert 10.0 < val < 1e4
    assert s_lambda(1.5) < val  # diverging trend as lam -> 1


# ---------------------------------------------------------------------------
# Laurent coefficients
# ---------------------------------------------------------------------------


def test_simple_pole_coefficients():
    ann = AnnulusSpec(0j, 0.5, 2.0)
    exp = laurent_coefficients(lambda z: 1.0 / z, ann, k_min=-5, k_max=5)
    assert exp.coefficient(-1) == pytest.approx(1.0, abs=1e-12)
    for k in range(-5, 6):
        if k != -1:
            assert abs(exp.coefficient(k)) <= 1e-12


def test_qlog_fiber_residue():
    ann = AnnulusSpec(1.0 + 0j, 0.05, 1.5)
    exp = laurent_coefficients(lambda z: 1.0 / (z**3 - 1.0), ann, k_min=-3, k_max=3)
    assert exp.coefficient(-1) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_polynomial_has_no_polar_part():
    ann = AnnulusSpec(0.3 + 0.3j, 0.2, 2.0)
    exp = laurent_coefficients(lambda z: z**2 + 2.0, ann, k_min=-6, k_max=4)
    for k in range(-6, 0):
        assert abs(exp.coefficient(k)) <= 1e-12


def test_two_radius_consistency():
    ann = AnnulusSpec(0.1 + 0.2j, 0.5, 2.0)
    f = lambda z: 1.0 / (z - ann.center) + (z - ann.center) ** 3
    a = laurent_coefficients(f, ann, k_min=-4, k_max=4)
    b = laurent_coefficients(f, ann, k_min=-4, k_max=4, radius=1.1 * ann.r)
    assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-10


def test_l2_route_cross_checks_fft_route():
    ann = AnnulusSpec(0.3 + 0.2j, 0.1, 1.5)
    f = lambda z: 1.0 / (z - ann.center) + (z - ann.center) ** 2
    exp = laurent_coefficients(f, ann, k_min=-3, k_max=3)
    for k in (-2, -1, 0, 2):
        assert laurent_coefficient_l2(f, ann, k) == pytest.approx(
            exp.coefficient(k), abs=1e-10
        )


def test_interior_singularity_detected():
    ann = AnnulusSpec(0j, 0.5, 2.0)
    with pytest.raises(NonConvergent):
        laurent_coefficients(lambda z: 1.0 / (z - 0.7), ann, k_min=-4, k_max=4)


# ---------------------------------------------------------------------------
# Polar parts
# ---------------------------------------------------------------------------


def test_polar_part_of_mixed_function():
    ann = AnnulusSpec(0j, 0.5, 2.0)
    part = polar_part(lambda z: 1.0 / z + z, ann)
    assert part.evaluate(2.0 + 0j) == pytest.approx(0.5, abs=1e-11)


def test_deep_polar_tail_coefficients():
    ann = AnnulusSpec(0j, 0.5, 2.0)
    f = lambda z: 1.0 / z + 1.0 / (2.0 * z**2) + 1.0 / (6.0 * z**3)
    part = polar_part(f, ann)
    got = {int(k): c for k, c in zip(part.ks, part.coefficients)}
    assert got[-1] == pytest.approx(1.0, abs=1e-11)
    assert got[-2] == pytest.approx(0.5, abs=1e-11)
    assert got[-3] == pytest.approx(1.0 / 6.0, abs=1e-11)


def test_reconstruction_on_mid_circle():
    ann = AnnulusSpec(0.2 + 0.1j, 0.3, 2.0)
    pole = ann.center + 0.1  # inside the inner disc
    f = lambda z: 1.0 / (z - pole) + np.cos(z)
    exp = laurent_coefficients(f, ann, k_min=-32, k_max=32)
    zs = ann.center + ann.mid_radius * np.exp(2j * math.pi * np.arange(64) / 64)
    scale = float(np.max(np.abs(f(zs))))
    recon = np.array([exp.evaluate(complex(z)) for z in zs])
    assert float(np.max(np.abs(recon - f(zs)))) <= 1e-8 * scale


def test_extension_bound_on_qlog_sheet(qlog_half):
    # x**3/(z**3 - 1) around the root exp(2 pi i/3): simple pole with
    # residue x**3 * omega / 3.
    omega = cmath.exp(2j * math.pi / 3.0)
    ann = AnnulusSpec(omega, 0.1, 1.5)
    fn = lambda zs: qlog_half.term_array(3, np.asarray(zs, dtype=complex))
    part = polar_part(fn, ann)
    got = {int(k): c for k, c in zip(part.ks, part.coefficients)}
    assert got[-1] == pytest.approx(0.5**3 * omega / 3.0, abs=1e-10)
    bound = extension_bound(ann, annulus_sup(fn, ann))
    for mult in (1.0, 2.0, 10.0):
        assert part.sup_on_circle(ann.outer * mult) <= bound + 1e-9


# ---------------------------------------------------------------------------
# Fiber polar sums
# ---------------------------------------------------------------------------


def test_fiber_sum_at_one_matches_log(qlog_half):
    res = fiber_polar_sum(qlog_half, 1.0 + 0j, 2.0 + 0j, tol=1e-12)
    assert res.value == pytest.approx(math.log(2.0), abs=1e-10)


def test_fiber_sum_primitive_cube_root(qlog_half):
    omega = cmath.exp(2j * math.pi / 3.0)
    z = 0.4 + 0.2j
    res = fiber_polar_sum(qlog_half, omega, z, tol=1e-12)
    brute = sum(0.5**n * omega / (n * (z - omega)) for n in range(3, 3001, 3))
    assert abs(res.value - brute) <= 1e-12


def test_fiber_sum_single_sheet_is_term(meander_half):
    z = 0.3 + 0j
    res = fiber_polar_sum(meander_half, -1.0 / 5.0 + 0j, z, tol=1e-12)
    assert res.value == pytest.approx(meander_half.term(5, z), abs=1e-14)
    assert res.tail_bound == res.rounding == 0.0


@pytest.mark.parametrize("omega, z", [(1.0 + 0j, 2.0 + 0j), (cmath.exp(2j * math.pi / 3.0), 0.4 + 0.2j), (1j, 1j + 0.8)])
def test_fiber_sum_is_within_its_rounding_of_the_exact_sum_of_its_terms(qlog_half, omega, z):
    res = fiber_polar_sum(qlog_half, omega, z, tol=1e-12)
    perf = qlog_half.perforation
    sheets = list(perf.poles.sheets_containing(omega, res.terms_used))
    poles = [perf.nearest_pole(n, omega)[0] for n in sheets]
    terms = [qlog_half.residue(n, pole) / (z - pole) for n, pole in zip(sheets, poles)]
    error = abs(Fraction(res.value.real) - sum(Fraction(t.real) for t in terms))
    error += abs(Fraction(res.value.imag) - sum(Fraction(t.imag) for t in terms))
    assert 0.0 < res.rounding and error <= Fraction(res.rounding)


def test_fiber_sum_rejects_non_pole(qlog_half):
    with pytest.raises(ValueError):
        fiber_polar_sum(qlog_half, 0.5 + 0.5j, 2.0 + 0j, sheet_limit=100)


@pytest.mark.parametrize(
    "omega, z, want",
    [(1.0 + 0j, 2.0 + 0j, ("0x1.62e42fef94899p-1", "0x0.0p+0")),
     (1j, 1j + 0.8, ("0x1.6c7e4b432d748p-60", "0x1.4a6fee3036db7p-6"))],
    ids=["one", "i"],
)
def test_fiber_sum_draws_no_sheet_past_its_stop(monkeypatch, omega, z, want):
    # The fibers of 1 and i hold 10 000 and 2 500 sheets up to the cutoff;
    # the sum stops on sheet 32 of each.  The sums are pinned bit for bit.
    seq = QLogModel(0.5, c=0.05, alpha=2.0, lam=1.5)
    fiber, drawn = seq.perforation.poles.sheets_containing, []

    def spy(self, pole, limit):
        for n in fiber(pole, limit):
            drawn.append(n)
            yield n

    monkeypatch.setattr(type(seq.perforation.poles), "sheets_containing", spy)
    res = fiber_polar_sum(seq, omega, z, sheet_limit=10_000)
    assert drawn[-1] == res.terms_used == 32
    assert (res.value.real.hex(), res.value.imag.hex(), res.tail_bound.hex()) == (*want, "0x1.7b3110e3549d4p-34")
