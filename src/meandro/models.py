"""Concrete term-sequence families and their combinatorial companions.

Three families are provided:

* the meander series with terms x**n/(1 + n*z), one pole -1/n per sheet;
* the q-logarithm with terms x**n/(z**n - 1) and poles at the roots of
  unity, handled through the fiber decomposition
  1/(z**n - 1) = (1/n) * sum_k w_k/(z - w_k) over the n-th roots w_k;
* zero-expansion constructions whose partial sums have vanishing jets at the
  origin even though their poles accumulate there.

The module also holds the Eulerian polynomials (closed forms for the power
sums sum_n n**j x**n that the meander jets hit), the truncation-curve root
finder and the ray tracer used for figure-level data.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import PoleProximity, ZeroPole
from .geometry import (
    DiophantineRadius,
    Disc,
    ExplicitPoles,
    MeanderPoles,
    Perforation,
    ReciprocalPoles,
    Region,
    RootsOfUnity,
    TableRadius,
)
from .series import DecayCert, TermSequence, evaluate_sum

DEFAULT_RAY_ANGLE = math.tau * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Meander series
# ---------------------------------------------------------------------------


class MeanderModel(TermSequence):
    """Terms x**n/(1 + n*z) for n >= 1 with the single pole -1/n per sheet.

    Outside the removed disc of radius r_n = c/n**alpha one has
    |1 + n*z| = n*|z + 1/n| >= n*r_n, so the term is bounded by
    |x|**n * n**(alpha-1)/c everywhere off the disc.  That bound is
    dominated by A*rho**n for any rho in (|x|, 1); the certificate uses the
    exact maximum of n**(alpha-1)*(|x|/rho)**n.
    """

    bounds_global = True

    def __init__(
        self,
        x: complex,
        c: float = 0.05,
        alpha: float = 2.0,
        lam: float = 1.5,
        region: Region | None = None,
        rho: float | None = None,
    ):
        x = complex(x)
        if abs(x) >= 1.0:
            raise ValueError("meander series needs |x| < 1")
        self.x = x
        self.n_min = 1
        self.perforation = Perforation(MeanderPoles(), DiophantineRadius(c, alpha, lam))
        self.region = region if region is not None else Disc(0j, 2.0)
        rho = rho if rho is not None else (1.0 + abs(x)) / 2.0
        if not (abs(x) < rho < 1.0):
            raise ValueError("need |x| < rho < 1")
        self._cert = DecayCert(self._peak_ratio(abs(x), rho, c, alpha), rho)

    @staticmethod
    def _peak_ratio(ax: float, rho: float, c: float, alpha: float) -> float:
        """max_n n**(alpha-1) * (ax/rho)**n / c (unimodal in n)."""
        if ax == 0.0:
            return 1e-300
        tau = ax / rho
        candidates = {1}
        if alpha > 1.0:
            n_star = (alpha - 1.0) / math.log(1.0 / tau)
            candidates.update({max(1, math.floor(n_star)), math.ceil(n_star)})
        return max(n ** (alpha - 1.0) * tau**n for n in candidates) / c

    @property
    def meander_cert(self) -> DecayCert:
        return self._cert

    def term(self, n: int, z: complex) -> complex:
        return self.x**n / (1.0 + n * z)

    def term_array(self, n: int, zs: np.ndarray) -> np.ndarray:
        return self.x**n / (1.0 + n * zs)

    def derivative(self, n: int, k: int, z: complex) -> complex:
        return self.x**n * (-n) ** k * math.factorial(k) / (1.0 + n * z) ** (k + 1)

    def derivatives(self, ns: np.ndarray, m: int, z: complex) -> np.ndarray:
        # Row k is row k-1 times -k*n/(1 + n*z).
        denom = 1.0 + ns * z
        step = -ns / denom
        out = np.empty((m + 1, len(ns)), dtype=complex)
        out[0] = self.x**ns / denom
        for k in range(1, m + 1):
            out[k] = out[k - 1] * (k * step)
        return out

    def norm_bound(self, n: int) -> float:
        radius = self.perforation.radius
        return abs(self.x) ** n * n ** (radius.alpha - 1.0) / radius.c

    def residue(self, n: int, pole: complex) -> complex:
        if abs(pole - (-1.0 / n)) > 1e-9:
            raise ValueError(f"{pole} is not the sheet-{n} pole")
        return self.x**n / n


# ---------------------------------------------------------------------------
# q-logarithm
# ---------------------------------------------------------------------------


class QLogModel(TermSequence):
    """Terms x**n/(z**n - 1) for n >= 1 with poles at the n-th roots of unity.

    Derivatives come from the fiber decomposition differentiated termwise.
    Norm bounds are certified by boundary sampling of each perforated sheet;
    the decay certificate A*rho**n is fitted lazily over the first sheets
    with a safety factor (the ratio norm_bound(n)/rho**n is unimodal because
    the bounds grow like a polynomial times |x|**n).
    """

    def __init__(
        self,
        x: complex,
        c: float = 0.05,
        alpha: float = 2.0,
        lam: float = 1.5,
        region: Region | None = None,
        rho: float | None = None,
        cert_sheets: int = 48,
        cert_safety: float = 1.5,
    ):
        x = complex(x)
        if abs(x) >= 1.0:
            raise ValueError("q-logarithm needs |x| < 1")
        self.x = x
        self.n_min = 1
        self.perforation = Perforation(RootsOfUnity(), DiophantineRadius(c, alpha, lam))
        self.region = region if region is not None else Disc(0j, 2.1)
        self._rho = rho if rho is not None else (1.0 + abs(x)) / 2.0
        if not (abs(x) < self._rho < 1.0):
            raise ValueError("need |x| < rho < 1")
        self._cert_sheets = cert_sheets
        self._cert_safety = cert_safety
        self._cert: DecayCert | None = None

    @property
    def meander_cert(self) -> DecayCert:
        if self._cert is None:
            if self.x == 0:
                self._cert = DecayCert(1e-300, self._rho)
            else:
                peak = max(
                    self.norm_bound(n) / self._rho**n
                    for n in range(1, self._cert_sheets + 1)
                )
                self._cert = DecayCert(self._cert_safety * peak, self._rho)
        return self._cert

    def term(self, n: int, z: complex) -> complex:
        return self.x**n / (z**n - 1.0)

    def term_array(self, n: int, zs: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.x**n / (zs**n - 1.0)

    def derivative(self, n: int, k: int, z: complex) -> complex:
        if k == 0:
            return self.term(n, z)
        roots = self.perforation.poles_on_sheet(n)
        parts = roots / (z - roots) ** (k + 1)
        return self.x**n / n * (-1.0) ** k * math.factorial(k) * complex(parts.sum())

    def derivatives(self, ns: np.ndarray, m: int, z: complex) -> np.ndarray:
        # Taylor coefficients h_k = g^(k)/k! of g = 1/(z**n - 1) by series
        # division, h * den = num in powers of t (no roots of unity are built).
        # Inside the unit circle den = (z+t)**n - 1 = sum_i C(n,i) z**(n-i) t**i
        # and num = 1 (Leibniz on (z**n - 1) * g = 1).  Outside it, g = A/(1 - A)
        # with A = (z+t)**-n, so den = 1 - A and num = A; z**n then never
        # overflows.  Each form keeps the division stable on its side.
        if abs(z) <= 1.0:
            den = [z**ns - 1.0]
            binom = np.ones(len(ns))
            for i in range(1, m + 1):
                binom = binom * (ns - i + 1) / i  # C(n, i), zero once i > n
                den.append(binom * z ** np.maximum(ns - i, 0))
            num = [1.0] + [0.0] * m
        else:
            num = [(1.0 / z) ** ns]
            for i in range(1, m + 1):
                num.append(num[-1] * (-(ns + i - 1) / (i * z)))  # C(-n, i) z**(-n-i)
            den = [1.0 - num[0]] + [-a for a in num[1:]]
        h = np.empty((m + 1, len(ns)), dtype=complex)
        for k in range(m + 1):
            acc = num[k] - sum(den[i] * h[k - i] for i in range(1, k + 1))
            h[k] = acc / den[0]
        scale = self.x**ns
        for k in range(m + 1):
            h[k] *= scale * math.factorial(k)
        return h

    def residue(self, n: int, pole: complex) -> complex:
        if abs(pole**n - 1.0) > 1e-6:
            raise ValueError(f"{pole} is not an n-th root of unity for n = {n}")
        return self.x**n * pole / n


# ---------------------------------------------------------------------------
# Zero-expansion constructions
# ---------------------------------------------------------------------------


def pi_k(k: int, z):
    """prod_{j=1}^{k+1} (1 - j*z); exact when z is a Fraction."""
    if k < 0:
        raise ValueError("k must be >= 0")
    acc = 1 - z if not isinstance(z, (int, Fraction)) else Fraction(1) - z
    for j in range(2, k + 2):
        acc = acc * (1 - j * z)
    return acc


def _pik_partial_fractions(k: int) -> np.ndarray:
    """Coefficients B_l of 1/pi_k = sum_l B_l/(1 - l*z), l = 1..k+1."""
    ls = np.arange(1, k + 2, dtype=float)
    coeffs = np.empty(k + 1, dtype=float)
    for i, l in enumerate(ls):
        others = np.delete(ls, i)
        coeffs[i] = float(np.prod(l / (l - others)))
    return coeffs


class ZeroSumPiK(TermSequence):
    """Terms (-1)**k * k! * z**k / pi_k(z) on sheets k >= 0.

    The partial sums converge pointwise to 1 while their poles 1/j pile up
    at the origin, and the norm bounds grow factorially: the sequence is a
    deliberate non-example for certified summation (evaluate_sum refuses it)
    whose jets at the origin are nevertheless exactly computable.
    """

    def __init__(
        self,
        c: float = 0.05,
        alpha: float = 2.0,
        lam: float = 1.5,
        region: Region | None = None,
    ):
        self.n_min = 0
        self.perforation = Perforation(
            ReciprocalPoles(), DiophantineRadius(c, alpha, lam, shift=1)
        )
        self.region = region if region is not None else Disc(0j, 0.5)
        self._pf_cache: dict[int, np.ndarray] = {}
        self._h_cache: dict[int, list[int]] = {}

    def _pf(self, k: int) -> np.ndarray:
        if k not in self._pf_cache:
            self._pf_cache[k] = _pik_partial_fractions(k)
        return self._pf_cache[k]

    def _h_coefficients(self, n: int, order: int) -> list[int]:
        """Integer Taylor coefficients of 1/pi_n up to the given order.

        Iterated convolution with the geometric series of each factor; all
        contributions are non-negative integers, so the result is exact.
        """
        coeffs = self._h_cache.get(n)
        if coeffs is None or len(coeffs) <= order:
            coeffs = [1] + [0] * order
            for l in range(1, n + 2):
                # convolution with 1/(1 - l z) as a prefix recurrence
                for j in range(1, order + 1):
                    coeffs[j] = coeffs[j] + l * coeffs[j - 1]
            self._h_cache[n] = coeffs
        return coeffs

    def term(self, n: int, z: complex) -> complex:
        return (-1.0) ** n * math.factorial(n) * z**n / pi_k(n, z)

    def derivative(self, n: int, q: int, z: complex) -> complex:
        # Leibniz on z**n * h(z) with h = 1/pi_n.  The z**n factor kills the
        # jet coefficients of order < n exactly.
        if q == 0:
            return self.term(n, z)
        if z == 0:
            # q-th derivative at 0 is q! * [z**q](term) with exact integer
            # coefficients; the partial-fraction route would lose ~1e-10 of
            # cancellation accuracy here.
            if q < n:
                return 0j
            h = self._h_coefficients(n, q - n)[q - n]
            return complex((-1) ** n * math.factorial(n) * math.factorial(q) * h)
        B = self._pf(n)
        ls = np.arange(1, n + 2, dtype=float)
        total = 0j
        for i in range(min(q, n) + 1):  # d^i z**n vanishes for i > n
            mono = math.perm(n, i) * z ** (n - i)
            if mono == 0:
                continue
            j = q - i
            h_j = math.factorial(j) * complex(np.sum(B * ls**j / (1.0 - ls * z) ** (j + 1)))
            total += math.comb(q, i) * mono * h_j
        return (-1.0) ** n * math.factorial(n) * total

    def residue(self, n: int, pole: complex) -> complex:
        l = int(round(1.0 / pole.real))
        if not (1 <= l <= n + 1) or abs(pole - 1.0 / l) > 1e-9:
            raise ValueError(f"{pole} is not a sheet-{n} pole")
        B = self._pf(n)[l - 1]
        return (-1.0) ** n * math.factorial(n) * (1.0 / l) ** n * B * (-1.0 / l)


def zero_sum_coefficients(c, poles: Sequence, n: int) -> list:
    """Coefficients a_0..a_n cancelling the jet of c + sum a_k z**k/(1 - z/e_k).

    a_0 = -c kills the constant; each a_{k+1} is minus the order-(k+1) jet
    coefficient of the running partial sum.  Exact when the inputs are
    Fractions (the term k contributes e_k**(j-k) at order j >= k).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(poles) < n + 1:
        raise ValueError("need a pole for every coefficient")
    for e in poles:
        if e == 0:
            raise ZeroPole("every pole must be nonzero")
    a = [-c]
    for k in range(n):
        b_next = sum(a[j] * poles[j] ** -(k + 1 - j) for j in range(k + 1))
        a.append(-b_next)
    return a


class ZeroSumGeneral(TermSequence):
    """Terms a_k z**k/(1 - z/e_k) plus the constant c on sheet 0.

    Coefficients come from zero_sum_coefficients, so the partial sum through
    sheet n has a vanishing jet through order n at the origin.
    """

    def __init__(self, c, poles: Sequence, lam: float = 1.5, region: Region | None = None):
        self.constant = complex(c)
        self.pole_list = [complex(e) for e in poles]
        # Exact when c and the poles are ints or Fractions, float otherwise.
        self.coefficients = [
            complex(a) for a in zero_sum_coefficients(c, poles, len(poles) - 1)
        ]
        self.n_min = 0
        self.n_max = len(self.pole_list) - 1
        table = {}
        for k, e in enumerate(self.pole_list):
            gaps = [abs(e - o) for j, o in enumerate(self.pole_list) if j != k and o != e]
            gap = min(gaps) if gaps else abs(e)
            table[k] = min(0.3 * gap, 0.3 * abs(e), 1.0)
        self.perforation = Perforation(
            ExplicitPoles({k: [e] for k, e in enumerate(self.pole_list)}),
            TableRadius(table, lam=lam),
        )
        extent = 2.0 * max(abs(e) for e in self.pole_list)
        self.region = region if region is not None else Disc(0j, max(extent, 0.5))

    def term(self, n: int, z: complex) -> complex:
        base = self.coefficients[n] * z**n / (1.0 - z / self.pole_list[n])
        return base + (self.constant if n == 0 else 0.0)

    def derivative(self, n: int, q: int, z: complex) -> complex:
        if q == 0:
            return self.term(n, z)
        e = self.pole_list[n]
        total = 0j
        for i in range(q + 1):  # Leibniz on z**n * (1 - z/e)**(-1)
            if i > n:
                break
            mono = math.perm(n, i) * z ** (n - i)
            j = q - i
            h_j = math.factorial(j) * e ** -j / (1.0 - z / e) ** (j + 1)
            total += math.comb(q, i) * mono * h_j
        return self.coefficients[n] * total

    def residue(self, n: int, pole: complex) -> complex:
        if abs(pole - self.pole_list[n]) > 1e-9:
            raise ValueError(f"{pole} is not the sheet-{n} pole")
        e = self.pole_list[n]
        return -self.coefficients[n] * e ** (n + 1)


# ---------------------------------------------------------------------------
# Eulerian polynomials and power sums
# ---------------------------------------------------------------------------


def eulerian_polynomial(j: int) -> list[int]:
    """Coefficients of the j-th Eulerian polynomial, ascending.

    E_1 = [1], E_2 = [1, 1], E_3 = [1, 4, 1], E_4 = [1, 11, 11, 1], with the
    triangle recurrence A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1).
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    row = [1]
    for n in range(2, j + 1):
        prev = row
        row = []
        for k in range(n):
            left = (k + 1) * prev[k] if k < len(prev) else 0
            right = (n - k) * prev[k - 1] if 0 <= k - 1 < len(prev) else 0
            row.append(left + right)
    return row


def geometric_power_sum(j: int, x: complex) -> complex:
    """Closed form of sum_{n>=1} n**j x**n, |x| < 1.

    Equals x*E_j(x)/(1-x)**(j+1) for j >= 1 (the exponent j+1 is pinned by
    the brute-force oracle in the tests) and x/(1-x) for j = 0.
    """
    if abs(x) >= 1:
        raise ValueError("needs |x| < 1")
    if j == 0:
        return x / (1.0 - x)
    e = eulerian_polynomial(j)
    acc = 0j
    for coeff in reversed(e):
        acc = acc * x + coeff
    return x * acc / (1.0 - x) ** (j + 1)


# ---------------------------------------------------------------------------
# Truncation curves and ray tracing
# ---------------------------------------------------------------------------


def _poly_mul_linear(coeffs: list[int], k: int) -> list[int]:
    """Multiply an ascending integer polynomial by (1 + k z)."""
    out = coeffs + [0]
    for i in range(len(coeffs), 0, -1):
        out[i] += k * coeffs[i - 1]
    return out


def _poly_div_linear(coeffs: list[int], k: int) -> list[int]:
    """Exact division of an ascending integer polynomial by (1 + k z)."""
    q = [0] * (len(coeffs) - 1)
    q[0] = coeffs[0]
    for i in range(1, len(q)):
        q[i] = coeffs[i] - k * q[i - 1]
    return q


def meander_curve(
    n: int, x_values: Sequence[float], imag_tol: float = 1e-9
) -> list[tuple[float, list[float]]]:
    """Real solutions z of z = sum_{k=1}^n x**k/(1 + k z) for each x.

    Clearing denominators gives the degree-(n+1) polynomial
    z*prod_k(1 + k z) - sum_k x**k * prod_{j != k}(1 + j z) = 0, whose roots
    are found as eigenvalues of the balanced companion matrix.  Roots with
    |imag| < imag_tol are reported, sorted.
    """
    if n < 1:
        raise ValueError("truncation order must be >= 1")
    if n > 39:
        raise ValueError("degree cap is 40 (n <= 39)")
    base = [1]
    for k in range(1, n + 1):
        base = _poly_mul_linear(base, k)
    cofactors = [_poly_div_linear(base, k) for k in range(1, n + 1)]
    shifted = np.array([0] + base, dtype=float)  # z * prod(1 + k z)

    out: list[tuple[float, list[float]]] = []
    for x in x_values:
        coeffs = shifted.copy()
        xk = 1.0
        for k in range(1, n + 1):
            xk *= x
            cof = cofactors[k - 1]
            coeffs[: len(cof)] -= xk * np.asarray(cof, dtype=float)
        roots = np.roots(coeffs[::-1])
        real_roots = sorted(float(r.real) for r in roots if abs(r.imag) < imag_tol)
        out.append((float(x), real_roots))
    return out


@dataclass(frozen=True)
class RayPoint:
    t: float
    z: complex
    value: complex | None
    tail_bound: float | None
    terms_used: int | None
    flagged: tuple[int, complex] | None = None


def ray_trace(
    model: TermSequence,
    theta: float = DEFAULT_RAY_ANGLE,
    t_grid: Sequence[float] = (),
    tol: float = 1e-10,
    max_terms: int = 10_000,
) -> list[RayPoint]:
    """Evaluate the sum along z = t*exp(i*theta) for every t in the grid.

    Points falling inside a removed disc are flagged with the witness sheet
    and pole, never silently skipped.
    """
    direction = cmath.exp(1j * theta)
    out: list[RayPoint] = []
    for t in t_grid:
        z = t * direction
        try:
            res = evaluate_sum(model, z, tol=tol, max_terms=max_terms)
            out.append(RayPoint(float(t), z, res.value, res.tail_bound, res.terms_used))
        except PoleProximity as exc:
            out.append(RayPoint(float(t), z, None, None, None, (exc.sheet, exc.pole)))
    return out
