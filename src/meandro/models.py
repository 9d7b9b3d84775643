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
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import MeandroError, NonConvergent, OutOfRegime, PoleProximity, TolUnreachable, ZeroPole
from .geometry import (
    DiophantineRadius,
    ExplicitPoles,
    MeanderPoles,
    Perforation,
    ReciprocalPoles,
    RootsOfUnity,
    TableRadius,
    _modulus,
)
from .series import TermSequence, evaluate_sums
from .tails import _UNDERFLOW, DecayCert, _RemainderTails

DEFAULT_RAY_ANGLE = math.tau * math.sqrt(2.0)

def _norm_bound(ax: float, n: int, c: float, alpha: float) -> float:
    """ax**n * n**(alpha-1)/c, a bound on |x**n / w| where 1/|w| <= n**(alpha-1)/c.

    The bound also dominates the term as evaluated in floats: where ax**n is
    subnormal, ``tails._UNDERFLOW`` is added to it, which leaves a normal
    ax**n unchanged.  A power that underflows to 0 stays 0.
    """
    power = ax**n
    if power == 0.0:
        return 0.0
    return (power + _UNDERFLOW) * n ** (alpha - 1.0) / c


def _decay_cert(ax: float, c: float, alpha: float) -> DecayCert:
    """The certificate of ``_norm_bound(ax, n, c, alpha)``: its own form, (C, q, sigma) = (1/c, alpha - 1, ax).

    C is 1/c raised by a relative 1e-9, which covers the rounding of the
    bound and of the tails' float sums.  Where ax**n is subnormal the
    bound is at most C * n**q * 2**-1021, which ``DecayCert.scaled_sum``
    allows for.
    """
    return DecayCert(1.0 / c * (1.0 + 1e-9), alpha - 1.0, ax)


# ---------------------------------------------------------------------------
# Meander series
# ---------------------------------------------------------------------------


class MeanderModel(TermSequence):
    """Terms x**n/(1 + n*z) for n >= 1 with the single pole -1/n per sheet.

    Outside the removed disc of radius r_n = c/n**alpha one has
    |1 + n*z| = n*|z + 1/n| >= n*r_n, so the term is bounded by
    |x|**n * n**(alpha-1)/c everywhere off the disc, on the whole
    perforated plane; within it, at distance d from the pole, the term is
    at most that bound times r_n/d.  The tails sum that bound itself, in the form
    (C, q, sigma) = (1/c, alpha - 1, |x|); see ``_decay_cert``.
    """

    def __init__(self, x: complex, c: float = 0.05, alpha: float = 2.0, lam: float = 1.5):
        x = complex(x)
        if abs(x) >= 1.0:
            raise ValueError("meander series needs |x| < 1")
        self.x = x
        self.n_min = 1
        self.perforation = Perforation(MeanderPoles(), DiophantineRadius(c, alpha, lam))
        self._cert = _decay_cert(abs(x), c, alpha)

    @property
    def decay_cert(self) -> DecayCert:
        return self._cert

    def term_array(self, n: int, zs: np.ndarray) -> np.ndarray:
        return self.x**n / (1.0 + n * zs)

    def term_grid(self, ns: np.ndarray, zs: list) -> np.ndarray:
        denom = 1.0 + ns * np.array(zs, dtype=complex).reshape(-1, 1)
        return self.x**ns / denom

    def taylor_coefficients(self, ns: np.ndarray, m: int, z: complex) -> np.ndarray:
        # Row k is row k-1 times -n/(1 + n*z), written in place.
        denom = 1.0 + ns * z
        step = -ns / denom
        out = np.empty((m + 1, len(ns)), dtype=complex)
        out[0] = self.x**ns / denom
        for k in range(1, m + 1):
            np.multiply(out[k - 1], step, out=out[k])
        return out

    def norm_bound(self, n: int) -> float:
        radius = self.perforation.radius
        return _norm_bound(abs(self.x), n, radius.c, radius.alpha)

    def residue(self, n: int, pole: complex) -> complex:
        if abs(pole - (-1.0 / n)) > 1e-9:
            raise ValueError(f"{pole} is not the sheet-{n} pole")
        return self.x**n / n


# ---------------------------------------------------------------------------
# q-logarithm
# ---------------------------------------------------------------------------


class QLogModel(TermSequence):
    """Terms x**n/(z**n - 1) for n >= 1 with poles at the n-th roots of unity.

    Taylor coefficients come from a series division (``taylor_coefficients``).
    1/(z**n - 1) is holomorphic off the removed discs and vanishes at
    infinity, so its sup is reached on a rim z = w*(1 + u), w**n = 1,
    |u| = r_n.  There, with s = n*r_n <= c (alpha >= 1), one has
    |(1+u)**n - 1| >= 2*s + 1 - (1+r_n)**n >= 2*s + 1 - e**s >= kappa*s with
    kappa = (2*c - expm1(c))/c, as (2*s + 1 - e**s)/s decreases in s; kappa > 0
    for 0 < c <= 1.  So the term is bounded by |x|**n * n**(alpha-1)/(c*kappa),
    the meander bound over kappa, on the whole perforated plane.  The same
    estimate with |u| = d < r_n in place of r_n bounds the term within a
    disc by that bound times r_n/d, as a pullback needs
    (``covering.PullbackSequence``).  Its
    certificate is the meander's with c*kappa in place of c, and the
    certified tails (``tails._CertifiedTails``) serve every point off the
    removed discs.
    """

    def __init__(
        self,
        x: complex,
        c: float = 0.05,
        alpha: float = 2.0,
        lam: float = 1.5,
    ):
        x = complex(x)
        if abs(x) >= 1.0:
            raise ValueError("q-logarithm needs |x| < 1")
        self.x = x
        self.n_min = 1
        self.perforation = Perforation(RootsOfUnity(), DiophantineRadius(c, alpha, lam))
        # kappa rounded down, so that c*kappa is a lower bound in floats too.
        self._c_kappa = (2.0 * c - math.expm1(c)) * (1.0 - 1e-12)
        self._cert = _decay_cert(abs(x), self._c_kappa, alpha)

    @property
    def decay_cert(self) -> DecayCert:
        return self._cert

    def norm_bound(self, n: int) -> float:
        return _norm_bound(abs(self.x), n, self._c_kappa, self.perforation.radius.alpha)

    def term_array(self, n: int, zs: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.x**n / (zs**n - 1.0)

    def taylor_coefficients(self, ns: np.ndarray, m: int, z: complex) -> np.ndarray:
        # Taylor coefficients h_k of g = 1/(z**n - 1) about z by series
        # division, h * den = num in powers of t (no roots of unity are built).
        # Inside the unit circle den = (z+t)**n - 1 = sum_i C(n,i) z**(n-i) t**i
        # and num = 1 (Leibniz on (z**n - 1) * g = 1).  Outside it, g = A/(1 - A)
        # with A = (z+t)**-n, so den = 1 - A and num = A; z**n then never
        # overflows.  Each form keeps the division stable on its side.
        if _modulus(z) <= 1.0:
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
        for row in h:  # one product per row, as in ``term_grid``
            row *= scale
        return h

    def term_grid(self, ns: np.ndarray, zs: list) -> np.ndarray:
        # Row 0 of ``taylor_coefficients`` with its operations, on a row of
        # points per side of the unit circle.  1/z is taken point by point, as
        # there: numpy and Python round a complex quotient differently.  A real
        # z takes real powers there, so real points go point by point.
        if not all(isinstance(z, complex) for z in zs):
            rows = [self.taylor_coefficients(ns, 0, z)[0] for z in zs]
            return np.array(rows, dtype=complex).reshape(len(zs), len(ns))
        out = np.empty((len(zs), len(ns)), dtype=complex)
        inside = np.array([_modulus(z) <= 1.0 for z in zs], dtype=bool)
        if inside.any():
            z_in = np.array([z for z, i in zip(zs, inside) if i], dtype=complex).reshape(-1, 1)
            out[inside] = 1.0 / (z_in**ns - 1.0)
        if not inside.all():
            inv = np.array([1.0 / z for z, i in zip(zs, inside) if not i], dtype=complex)
            a = inv.reshape(-1, 1) ** ns
            out[~inside] = a / (1.0 - a)
        scale = self.x**ns
        for row in out:  # one product per row: numpy may round a broadcast product apart
            row *= scale
        return out

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


class ZeroSumPiK(TermSequence):
    """Terms (-1)**n * n! * z**n / pi_n(z) on sheets n >= 0.

    The terms telescope: t_n = P_n/(1 - (n+1)*z) = P_n - P_{n+1} with
    P_n = prod_{j<=n} -j*z/(1 - j*z), so the partial sum through sheet n is
    1 - P_{n+1}.  They are computed in that product form.  The partial sums
    converge to 1 in the closed left half-plane while their poles 1/j pile
    up at the origin; no decay certificate exists, and the jet at the origin
    is that of the constant 1.  The remainder gives the tails
    (``tails._RemainderTails``).  For Re z > 0, |P_N| grows like
    N**Re(1/z) and the series diverges.

    No n! is formed for the Taylor coefficients: with r_j = j/(1 - j*z0), s
    = -1/z0 and t_n(z0 + t)/t_n(z0) = (1 - s*t)**n / prod_{j<=n+1} (1 -
    r_j*t) = sum_k c_k t**k, row k is t_n(z0) * c_k, in one of three forms:

    * at z0 = 0, the exact integer (-1)**n * n! * S(k+1, n+1), S the
      Stirling numbers of the second kind (0 for k < n);
    * where n*|z0| < 1, Leibniz: c_k = sum_i C(n, i) * (-s)**i * H_{k-i},
      H_k = h_k(r_1, ..., r_{n+1}) = cumsum(r*H_{k-1}) over the sheets.
      t_n(z0) * C(n, i) * (-s)**i is a running product over n from
      (-1)**i * i!/pi_i(z0) at n = i, so it stays in range where t_n(z0)
      underflows and (1/z0)**i overflows;
    * where n*|z0| >= 1, the log: k*c_k = sum_i p_i * c_{k-i}, p_i =
      sum_{j<=n} (r_j**i - s**i) + r_{n+1}**i, each bracket (r_j - s) *
      sum_a r_j**a * s**(i-1-a) with r_j - s = 1/(z0*(1 - j*z0)), summed
      by one cumsum over the sheets.

    The log form builds the polynomial (1 - s*t)**n from a series of radius
    |z0|, whose terms, some (n*|s|)**k/k!, it matches only where n*|z0| >= 1
    (at z0 = -1e-5, sheet 1, it is off by a relative 2e25); the Leibniz
    terms alternate and cancel the more, the larger n*|z0|.  Switched at
    n*|z0| = 1, every value of sheets 0-300 and orders up to 10 at -0.3,
    -0.45, -0.1+0.05i, -0.2+0.05i, -0.013, -0.001+0.001i, -1e-5, 0.013,
    0.03i, 0.3+0.4i and -2+3i is within a relative 1e-10 of 50-digit mpmath
    where t_n(z0) is a normal float, and within 1e-306 where it is not.
    """

    def __init__(self, c: float = 0.05, alpha: float = 2.0, lam: float = 1.5):
        self.n_min = 0
        self.perforation = Perforation(
            ReciprocalPoles(), DiophantineRadius(c, alpha, lam, shift=1)
        )
        # The last product (n, P_n) of ``term_grid`` at each point of the current pass, keyed by its bits,
        # which a later block extends rather than rebuilds from sheet 1; a block from sheet 0 starts a pass.
        self._products: dict[tuple[str, str], tuple[int, complex]] = {}

    def tail_policy(self, z0: complex, m: int):
        """``tails._RemainderTails`` at z0, or the error that refuses z0.

        Re z0 > 0 is refused with NonConvergent.  On Re z0 = 0 off the
        origin no circle about z0 stays in the closed left half-plane, and
        where |Re z0|/2 underflows to 0 the tails' circle has no radius, so
        orders m >= 1 are refused with TolUnreachable there.
        """
        z0 = complex(z0)
        if z0.real > 0.0:
            growth = (1.0 / z0).real
            message = f"the pi_k series diverges at {z0}: |P_N| grows like N**{growth:.6g}"
            return NonConvergent(message, re_inverse=growth)
        if m > 0 and z0.real / 2.0 == 0.0 and z0 != 0:
            return TolUnreachable(f"no circle about {z0} stays in the closed left half-plane: no coefficient tails")
        return _RemainderTails(z0)

    def term_grid(self, ns: np.ndarray, zs: list) -> np.ndarray:
        # t_n = P_n/(1 - (n+1)*z).  Each factor -j*z/(1 - j*z) is a numpy
        # quotient, whose bits do not depend on the array's length; the
        # running product P_n is taken in Python, as numpy's complex cumprod
        # may round a prefix apart from the same product over a shorter array.
        # It goes on from the point's last product where that is not past
        # the block's first sheet, with the same multiplications; products
        # are stored after the block, so a repeated point reads the same.
        first, top = int(ns.min()), int(ns.max())
        out = np.empty((len(zs), len(ns)), dtype=complex)
        if first == 0:  # a new pass
            self._products = {}
        stored = {}
        for row, z in zip(out, zs):
            z = complex(z)
            key = z.real.hex(), z.imag.hex()
            start, last = self._products.get(key, (0, None))
            if start > first:
                start, last = 0, None
            w = _multiples(z, start + 1, top + 1)  # w[j - start - 1] = j*z
            factors = (-w[: top - start] / (1.0 - w[: top - start])).tolist()
            products = list(itertools.accumulate(factors, operator.mul, initial=last))  # P_start on
            if last is None:
                products.insert(0, 1.0 + 0j)
            stored[key] = (top, products[-1])
            row[:] = np.array(products)[ns - start] / (1.0 - w[ns - start])
        self._products.update(stored)
        return out

    def taylor_coefficients(self, ns: np.ndarray, m: int, z: complex) -> np.ndarray:
        out = np.zeros((m + 1, len(ns)), dtype=complex)
        out[0] = self.term_grid(ns, [z])[0]
        z = complex(z)
        if m == 0:
            return out
        if z == 0:
            stirling = [[1]]  # S(a, b) for b = 0..a
            for a in range(1, m + 2):
                prev = stirling[-1] + [0]
                stirling.append([0] + [b * prev[b] + prev[b - 1] for b in range(1, a + 1)])
            for col in np.flatnonzero(ns <= m).tolist():
                n = int(ns[col])
                for k in range(max(n, 1), m + 1):
                    try:
                        out[k, col] = float((-1) ** n * math.factorial(n) * stirling[k + 1][n + 1])
                    except OverflowError:
                        out[k, col] = math.inf
            return out
        top = int(ns.max())
        q = 1.0 / (1.0 - _multiples(z, 1, top + 1))  # q[j - 1] = 1/(1 - j*z)
        r = np.arange(1.0, top + 2.0) * q
        late = ns >= max(1.0 / _modulus(z), 1.0)  # n*|z| >= 1
        if not late.all():
            near = ns[~late]
            last = int(near.max())
            h = np.ones(last + 1, dtype=complex)  # H_k(n + 1) at index n
            hs = [h[near]]
            for _ in range(m):
                h = np.cumsum(r[: last + 1] * h)
                hs.append(h[near])
            # a_i(n) = t_n * C(n, i) * (-s)**i, whose ratio to a_i(n - 1) is g(n)/(n - i).
            ls = np.arange(last + 1.0)
            g = -(ls * ls) * z * q[: last + 1]
            firsts = np.cumprod(q[: min(m, last) + 1])
            a = []
            for i in range(min(m, last) + 1):
                first = (-1) ** i * float(math.factorial(i)) * firsts[i]  # t_i's own i!
                steps = np.concatenate(([first], g[i + 1 :] / (ls[i + 1 :] - i)))
                a.append(np.concatenate((np.zeros(i), np.cumprod(steps)))[near])
            for k in range(1, m + 1):
                out[k, ~late] = sum(a[i] * hs[k - i] for i in range(min(k, len(a) - 1) + 1))
        if late.any():
            far = ns[late]
            last = int(far.max())
            s, d, spread, p = -1.0 / z, q[:last] / z, np.ones(last, dtype=complex), [None]  # d[j - 1] = r_j - s
            for i in range(1, m + 1):  # spread = sum_a r_j**a * s**(i-1-a)
                p.append(np.cumsum(d * spread)[far - 1] + r[far] ** i)
                spread = s * spread + r[:last] ** i
            c = [1.0]
            for k in range(1, m + 1):
                c.append(sum(p[i] * c[k - i] for i in range(1, k + 1)) / k)
                out[k, late] = out[0, late] * c[k]
        return out


def _multiples(z: complex, first: int, last: int) -> np.ndarray:
    """j*z for j = first..last, each part a float product."""
    js, w = np.arange(float(first), last + 1.0), np.empty(last - first + 1, dtype=complex)
    w.real, w.imag = js * z.real, js * z.imag
    return w


def zero_sum_coefficients(c, poles: Sequence, n: int) -> list:
    """Coefficients a_0..a_n cancelling the jet of c + sum a_k z**k/(1 - z/e_k).

    a_0 = -c kills the constant; each a_{k+1} is minus the order-(k+1) jet
    coefficient of the running partial sum.  Exact when the inputs are
    Fractions (the term k contributes e_k**(j-k) at order j >= k).  A float
    coefficient past the float range raises OutOfRegime.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(poles) < n + 1:
        raise ValueError("need a pole for every coefficient")
    for e in poles:
        if e == 0:
            raise ZeroPole("every pole must be nonzero")
    a = [-c]
    try:
        for k in range(n):
            b_next = sum(a[j] * poles[j] ** -(k + 1 - j) for j in range(k + 1))
            a.append(-b_next)
    except (OverflowError, ZeroDivisionError):
        raise OutOfRegime(f"the coefficient a_{len(a)} overflows a float: a pole is too small") from None
    return a


class ZeroSumGeneral(TermSequence):
    """Terms a_k z**k/(1 - z/e_k) plus the constant c on sheet 0.

    Coefficients come from zero_sum_coefficients, so the partial sum through
    sheet n has a vanishing jet through order n at the origin.
    """

    def __init__(self, c, poles: Sequence, lam: float = 1.5):
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

    def _coefficient(self, n: int, q: int, z: complex) -> complex:
        """The q-th Taylor coefficient at z of the sheet-n term, or inf where it raises.

        It is Python complex arithmetic, whose quotients the ``zero-sum`` golden values pin: numpy's round apart,
        so the block methods take each point as a Python complex.
        """
        try:
            if q == 0:
                return self.coefficients[n] * z**n / (1.0 - z / self.pole_list[n]) + (self.constant if n == 0 else 0.0)
            e = self.pole_list[n]
            total = 0j
            for i in range(min(q, n) + 1):  # Leibniz on z**n * (1 - z/e)**(-1), in coefficients
                total += math.comb(n, i) * z ** (n - i) * (e ** -(q - i) / (1.0 - z / e) ** (q - i + 1))
            return self.coefficients[n] * total
        except (OverflowError, ZeroDivisionError):
            return math.inf

    def term_grid(self, ns: np.ndarray, zs: list) -> np.ndarray:
        rows = [[self._coefficient(n, 0, complex(z)) for n in ns.tolist()] for z in zs]
        return np.array(rows, dtype=complex).reshape(len(zs), len(ns))

    def taylor_coefficients(self, ns: np.ndarray, m: int, z: complex) -> np.ndarray:
        z = complex(z)
        rows = [[self._coefficient(n, k, z) for n in ns.tolist()] for k in range(m + 1)]
        return np.array(rows, dtype=complex).reshape(m + 1, len(ns))


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


def meander_curve(n: int, x_values: Sequence[float]) -> list[tuple[float, list[float]]]:
    """Real solutions z of z = sum_{k=1}^n x**k/(1 + k z) for each x, ascending.

    For x > 0, g(z) = z - sum_k x**k/(1 + k z) increases strictly off the
    poles -1/k (g' = 1 + sum_k k x**k/(1 + k z)**2 > 0), from -inf just right
    of each pole to +inf just left of the next.  So the poles interlace the
    roots, as for a secular equation: with S = sum_k x**k, each of these
    n + 1 brackets holds exactly one root, and the root of bracket i is
    branch i.

    * [-1 - S, -1): there |1 + k z| >= S, so g(-1 - S) <= -S < 0;
    * (-1/k, -1/(k+1)) for k = 1..n-1, between consecutive poles;
    * (-1/n, S]: g(S) > S - S = 0.

    All the brackets of all the x are halved at once until no midpoint lies
    strictly inside its bracket; that midpoint is the root, unless it is
    below the normal range and the other end has the smaller |g|.  At x = 0 the
    roots are 0 and the poles.  For x < 0 a gap holds an even number of
    roots, so a negative x raises OutOfRegime, as does an x whose terms may
    overflow.
    """
    if n < 1:
        raise ValueError("truncation order must be >= 1")
    if n > 39:
        raise ValueError("degree cap is 40 (n <= 39)")
    xs = np.array(x_values, dtype=float)
    ks = np.arange(1, n + 1, dtype=float)
    poles = -1.0 / ks
    with np.errstate(over="ignore", invalid="ignore"):
        powers = xs.reshape(-1, 1) ** ks
        total = powers.sum(axis=1)
    # g is taken as z - sum_k (x**k/k)/(z - p_k) with the float poles p_k that
    # end the brackets, so the sign of z - p_k is exact.  Strictly inside a
    # bracket, z is 2**-58 or more from every pole (all have size 1/40 or
    # more): each term is at most 2**58 * S, and g is finite if 2**59 * S is.
    for x, s in zip(xs.tolist(), total.tolist()):
        if not x >= 0.0:
            raise OutOfRegime(f"truncation curves need x >= 0 (poles interlacing the roots); got x = {x}")
        if not math.isfinite(s * 2.0**59):
            raise OutOfRegime(f"the terms of the truncated curve overflow at x = {x}")
    positive = xs > 0.0
    total = total[positive]
    weights = (powers[positive] / ks).T.reshape(n, -1, 1)
    edges = np.broadcast_to(poles, (len(total), n))
    lo, hi = np.column_stack([-1.0 - total, edges]), np.column_stack([edges, total])
    def g(z):
        return z - (weights / (z - poles.reshape(-1, 1, 1))).sum(axis=0)

    # A midpoint not strictly inside equals an end of its bracket (where g may
    # be infinite or NaN): moving either end onto it changes nothing.
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            mid = 0.5 * (lo + hi)
            if not ((lo < mid) & (mid < hi)).any():
                break
            below = g(mid) < 0.0
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        # Below the normal range the float spacing may be the whole root: at
        # x = 5e-324 the midpoint of [0, 5e-324] rounds to 0, where g = -x.
        # There the end with the smaller |g| is the root.
        other = np.where(mid == lo, hi, lo)
        lost = (abs(mid) < np.finfo(float).tiny) & (abs(g(other)) < abs(g(mid)))
        mid = np.where(lost, other, mid)
    roots = iter(mid.tolist())
    return [(x, next(roots) if x > 0.0 else poles.tolist() + [0.0]) for x in xs.tolist()]


@dataclass(frozen=True)
class RayPoint:
    t: float
    z: complex
    value: complex | None
    tail_bound: float | None
    terms_used: int | None
    rounding: float | None
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
    and pole, never silently skipped; any other error is raised.  All the
    points are summed in one ``evaluate_sums`` pass, and each keeps its
    sum's tail and rounding (``SumResult``).
    """
    direction = cmath.exp(1j * theta)
    points = [t * direction for t in t_grid]
    out: list[RayPoint] = []
    for t, z, res in zip(t_grid, points, evaluate_sums(model, points, tol=tol, max_terms=max_terms)):
        if isinstance(res, PoleProximity):
            out.append(RayPoint(float(t), z, None, None, None, None, (res.sheet, res.pole)))
        elif isinstance(res, MeandroError):
            raise res
        else:
            out.append(RayPoint(float(t), z, res.value, res.tail_bound, res.terms_used, res.rounding))
    return out
