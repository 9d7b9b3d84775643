"""Tail bounds of the Taylor coefficient series of a term sequence, known before its terms.

tail(k, n) bounds the series of the order-k Taylor coefficients summed
over the sheets after n, and does not increase with n; the summation engine
in ``series`` stops a lane once its tail is within the tolerance, and each
family picks its tails with ``TermSequence.tail_policy``.  A decay certificate
(``DecayCert``) is the norm bound's own form: the sheet-j term is at most
norm_bound(j) <= C * j**q * sigma**j on the perforated sheet, and
Cauchy's estimate turns that into a bound on its Taylor coefficients at a
point: the k-th coefficient at z0 is at most norm_bound(j) / R**k for any
circle about z0 of radius R on which the bound holds.  ``_CertifiedTails``
sums these bounds over the sheets after n for three choices of R and keeps
the least.  Each sum is a factor times sum_{j>n} j**Q * sigma**j for an
exponent Q, plus an allowance for the sheets where sigma**j is subnormal
(``DecayCert.scaled_sum``).  A finite family's tails (``_FiniteTails``)
need no bound: they are exact.  The pi_k series telescopes, and its
remainder gives its tails (``_RemainderTails``).  ``order0_shared`` says
whether the order-0 tail is the same at every point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import _ABS_SLACK

if TYPE_CHECKING:
    from .series import TermSequence

#: Sheets over which ``_RemainderTails`` multiplies its factors.
_REMAINDER_SHEETS = 2**19
#: Allowance for gradual underflow in a term x**n / w evaluated in floats.
#: Once x**n is subnormal, the power, the division and the modulus each
#: round by up to half a unit of the smallest subnormal, 5e-324, and the
#: power's rounding is scaled by 1/|w| >= 1; adding this much to x**n in a
#: bound covers all of it (``models._norm_bound``).
_UNDERFLOW = 8 * math.ulp(0.0)
#: log 2**-1021.  A subnormal sigma**j plus ``_UNDERFLOW`` is below
#: 2**-1022 + 2**-1071 < 2**-1021.
_LOG_SUBNORMAL = -1021.0 * math.log(2.0)


@dataclass(frozen=True)
class DecayCert:
    """The norm bound's own decay: norm_bound(n) <= C * n**q * sigma**n wherever sigma**n is normal.

    For the meander and the q-log this is the bound itself, |x|**n *
    n**(alpha-1)/c, with C = 1/c rounded up (``models._decay_cert``); a
    pullback scales C and q by its excess (``covering.PullbackSequence``).
    Where sigma**n may be subnormal, on the sheets N_sub < n <= N0 of
    ``underflow_sheets``, the norm bound adds ``_UNDERFLOW`` to sigma**n,
    and is at most C * n**q * 2**-1021; past N0, sigma**n rounds to 0 and
    so does the norm bound.  ``scaled_sum`` sums both forms.
    """

    C: float
    q: float
    sigma: float

    def __post_init__(self):
        if not (self.C > 0 and 0 <= self.sigma < 1):
            raise ValueError("need C > 0 and 0 <= sigma < 1")

    @functools.cached_property
    def log_sigma(self) -> float:
        return math.log(self.sigma) if self.sigma else -math.inf

    @functools.cached_property
    def underflow_sheets(self) -> tuple[int, int]:
        """(N_sub, N0): sigma**n is normal through sheet N_sub and rounds to 0 after sheet N0.

        sigma**n falls below 2**-1022 after 1022*log(2)/log(1/sigma) sheets,
        and below half the least subnormal, 2**-1075, after
        1075*log(2)/log(1/sigma); a relative 1e-9 and a sheet each way cover
        the rounding of the power.
        """
        if not self.sigma:
            return 0, 0
        halving = math.log(2.0) / -self.log_sigma  # sheets per halving of sigma**n
        return max(0, math.floor(1022 * halving * (1.0 - 1e-9)) - 1), math.ceil(1075 * halving * (1.0 + 1e-9)) + 1

    def scaled_sum(self, n: int, power: float, log_factor: float) -> float:
        """F * (sum_{j>n} j**power * sigma**j + 2**-1021 * sum j**power over the subnormal sheets j > n).

        F = exp(log_factor); with F = C it bounds sum_{j>n} j**(power - q) *
        norm_bound(j) (``tail``).  The first sum is bounded by its geometric majorant:
        the term ratio sigma*(1+1/j)**power decreases in j, so beyond n the
        series is dominated by the geometric series with the ratio taken at
        j = n+1 (inf where that ratio is not below 1).  The second, over
        max(n, N_sub) < j <= N0, is at most the count of those sheets times
        the largest j**power on them.  Both are taken in log form, so a huge
        F times a sum below the float range gives no 0, and neither
        increases with n.
        """
        step, log_n1, log_first, under = self._parts(n)
        try:
            ratio = self.sigma * step**power
        except OverflowError:
            ratio = math.inf
        log_normal = math.inf if ratio >= 1.0 else power * log_n1 + log_first - math.log1p(-ratio)
        total = _exp(log_factor + log_normal)
        if under is not None:
            log_count, log_last, log_first_sub = under
            log_top = log_last if power >= 0.0 else log_first_sub
            total += _exp(log_factor + (_LOG_SUBNORMAL + log_count + power * log_top))
        return total

    @functools.cached_property
    def _sheets(self) -> dict[int, tuple]:
        return {}

    def _parts(self, n: int) -> tuple:
        """What ``scaled_sum`` shares at sheet n for every power, kept by sheet.

        (n+2)/(n+1), log(n+1), (n+1)*log(sigma), and for the subnormal
        sheets max(n, N_sub) < j <= N0 the logs of their count, of the last
        and of the first, or None where there is none.
        """
        parts = self._sheets.get(n)
        if parts is None:
            n_sub, n0 = self.underflow_sheets
            first = max(n, n_sub) + 1
            under = (math.log(n0 - first + 1), math.log(n0), math.log(first)) if first <= n0 else None
            parts = self._sheets[n] = (n + 2) / (n + 1), math.log(n + 1), (n + 1) * self.log_sigma, under
        return parts

    def tail(self, n: int, power: float | None = None) -> float:
        """Bound for sum_{j>n} j**(power - q) * norm_bound(j).

        The default power q gives the sum of the norm bounds beyond n.
        """
        return self.scaled_sum(n, self.q if power is None else power, math.log(self.C))


class _CertifiedTails:
    """Certified tails of the coefficient series at z0 (needs ``series._certifiable``).

    Order 0 has the tail of the decay certificate, ``DecayCert.tail``: C
    times sum_{j>n} j**q * sigma**j plus the subnormal sheets' allowance.
    For k >= 1 the k-th Taylor coefficient of the sheet-j term is at most
    norm_bound(j) / R_j**k for any circle about z0 of radius R_j on which
    norm_bound(j) bounds the term (Cauchy's estimate), and the tail beyond
    sheet n is the least of three bounds, each a ``DecayCert.scaled_sum``
    with a log factor and an exponent:

    * the uniform circles R_j = eps*r_j of the shrunk perforation: as
      r_j >= c/((1+shift)*j)**alpha, the factor is C *
      (1+shift)**(alpha*k) / (eps*c)**k and the exponent alpha*k + q;
    * off the poles' accumulation set, the circles that fit around z0: the
      poles of sheet j > n are at least D(n) = ``tail_distance_bound(z0, n)``
      away and r_j <= tail_sup(n), so R_j >= R(n) = D(n) - tail_sup(n), and
      the factor is C / R(n)**k and the exponent q;
    * where the family declares |z0 - p| >= a*j**-beta on sheet j
      (``distance_power_law``) with beta <= alpha, as at an accumulation
      point: r_j <= c*j**-alpha gives R_j >= b(n)*j**-beta for j > n with
      b(n) = a - c*(n+1)**(beta-alpha), and the factor is C / b(n)**k and
      the exponent beta*k + q.

    The last two take norm_bound(j) to hold at distance r_j from sheet j's
    poles, as the meander's and the q-log's do.  ``_PullbackPoles`` declares
    neither distance contract, so a pullback has the uniform circles alone.

    The norm bounds hold on the whole perforated plane, so only the poles
    limit a circle.  The distance bounds hold for the exact poles, so D(n)
    is shrunk by a relative 1e-9 and by 8*eps*(1 + |z0| + D(n)), as in the
    membership discharge, and b(n) by a relative 1e-9.  A branch with no
    positive radius gives inf.

    Every bound is non-increasing in n, which the certified stop's search
    (``series._search``) relies on: ``scaled_sum`` does not increase with
    n; D(n) does not decrease and tail_sup(n) does not increase (their
    declared contracts), so R(n) does not decrease; and b(n) does not
    decrease as beta <= alpha.  So their minimum is non-increasing as well.
    """

    order0_shared = True

    def __init__(self, seq: TermSequence, z0: complex):
        self.seq, self.z0 = seq, z0
        self.cert, self.radius = seq.decay_cert, seq.perforation.radius
        self.poles = seq.perforation.poles
        self._orders: dict[int, float] = {}
        self._log_c = math.log(self.cert.C)
        self._sheets: dict[int, tuple[float | None, float | None]] = {}

    @functools.cached_property
    def law(self) -> tuple[float, float] | None:
        """The poles' distance power law at z0, where beta <= alpha."""
        law = self.poles.distance_power_law(self.z0)
        return law if law is not None and law[1] <= self.radius.alpha else None

    def _order(self, k: int) -> float:
        """The uniform branch's log factor, log(C * (1+shift)**(alpha*k) / (eps*c)**k)."""
        if k not in self._orders:
            radius = self.radius
            # 1/r_j**k = ((j+shift)**alpha/c)**k <= ((1+shift)*j)**(alpha*k)/c**k.
            eps_c = (radius.lam - 1.0) * radius.c
            log_eps_c = math.log(eps_c) if eps_c > 0.0 else -math.inf
            self._orders[k] = self._log_c + radius.alpha * k * math.log1p(radius.shift) - k * log_eps_c
        return self._orders[k]

    def _shrunk(self, d: float) -> float:
        """D(n) = d shrunk for the float poles."""
        return d * (1.0 - 1e-9) - _ABS_SLACK * (1.0 + abs(self.z0) + d)

    def _factor(self, n: int) -> float:
        """b(n), shrunk."""
        a, beta = self.law
        return (a - self.radius.c * (n + 1.0) ** (beta - self.radius.alpha)) * (1.0 - 1e-9)

    def _sheet(self, n: int) -> tuple[float | None, float | None]:
        """What the tails of every order share at sheet n: log R(n) and log b(n).

        log R(n) is None without a positive R(n), and log b(n) without a law
        or a positive b(n).
        """
        if n not in self._sheets:
            log_r = None
            d = self.poles.tail_distance_bound(self.z0, n)
            if d is not None and d != math.inf:
                R = self._shrunk(d) - self.radius.tail_sup(n)
                if R > 0.0:
                    log_r = math.log(R)
            log_b = None
            if self.law is not None:
                b = self._factor(n)
                if b > 0.0:
                    log_b = math.log(b)
            self._sheets[n] = log_r, log_b
        return self._sheets[n]

    def branches(self, k: int, n: int) -> tuple[float, float, float]:
        """The uniform, local and power-law tails of order k >= 1 after sheet n (inf for a branch with no circle)."""
        log_r, log_b = self._sheet(n)
        cert = self.cert
        uniform = cert.scaled_sum(n, self.radius.alpha * k + cert.q, self._order(k))
        local = math.inf if log_r is None else cert.scaled_sum(n, cert.q, self._log_c - k * log_r)
        law = math.inf
        if log_b is not None:
            law = cert.scaled_sum(n, self.law[1] * k + cert.q, self._log_c - k * log_b)
        return uniform, local, law

    def tail(self, k: int, n: int) -> float:
        return self.cert.tail(n) if k == 0 else min(self.branches(k, n))


class _FiniteTails:
    """Tails of a finite family at any point and order: inf before its last sheet, exactly 0 from it on."""

    order0_shared = True

    def __init__(self, n_max: int):
        self.n_max = n_max

    def tail(self, k: int, n: int) -> float:
        return 0.0 if n >= self.n_max else math.inf


class _RemainderTails:
    """Tails of the pi_k series (``models.ZeroSumPiK``) at z0 with Re z0 <= 0, from its remainder.

    The sum through sheet n is 1 - P_{n+1}, with P_n = prod_{j<=n}
    -j*z/(1 - j*z).  For Re z <= 0 no factor has modulus above 1, so |P_n|
    does not increase, and it tends to 0 where Re z < 0.  The tail after
    sheet n, with a relative 1e-9 added, is at order 0 |P_{n+1}(z0)|,
    doubled on Re z0 = 0 (where the limit need not be 0).  At z0 = 0, where
    P_{n+1} has a zero of order n+1, the order-k tail is exactly 0 from
    sheet k on and inf before.  Otherwise the order-k tail is the modulus
    of the k-th Taylor coefficient of P_{n+1} at z0 (the sum is 1 about
    z0), at most sup|P_{n+1}| / R**k on the circle of radius R = |Re z0|/2
    about z0 (Cauchy's estimate).  1/zeta maps that circle onto the circle
    of centre conj(z0)/D and radius R/D, D = |z0|**2 - R**2, in the left
    half-plane, so |j*zeta/(1 - j*zeta)| = j/|1/zeta - j| is at most m_j =
    j*(|j*D - conj(z0)| + R)/(D*j**2 + 2*|Re z0|*j + 1) < 1 there; R = 0
    gives the order-0 factors.  The product is carried as a sum of logs, so
    that it never underflows to 0.  Each m_j takes a few roundings of
    non-negative terms, well inside the relative 1e-9 (added to the log as
    log1p(1e-9)) over ``_REMAINDER_SHEETS`` sheets; the n-th partial sum of
    the logs is raised by 4u*n times the running sum of |log m_j|, which
    covers the rounding of the logs and of their sum (u = 2**-53), and the
    running minimum of these bounds is kept, as no factor exceeds 1.  The
    order-0 tail is the next float above the exponential.
    Past ``_REMAINDER_SHEETS`` the tail keeps its last value, still a bound
    as no factor exceeds 1; a factor that rounds above 1 (or is NaN) is
    taken as 1, so no tail increases.
    """

    order0_shared = False

    def __init__(self, z0: complex):
        self.z0 = z0
        self._logs: dict[bool, np.ndarray] = {}

    def _log_product(self, circle: bool, n: int) -> float:
        """log prod_{j<=n+1} m_j, inflated, on the circle about z0 or (not ``circle``) at z0."""
        n = min(n, _REMAINDER_SHEETS - 1)
        logs = self._logs.get(circle)
        if logs is None or len(logs) <= n:
            x, y = -self.z0.real, self.z0.imag
            R, d = (x / 2.0, 0.75 * x * x + y * y) if circle else (0.0, x * x + y * y)
            js = np.arange(1.0, min(max(2 * (n + 1), 64), _REMAINDER_SHEETS) + 1.0)
            with np.errstate(over="ignore", invalid="ignore"):  # inf/inf at a point near the float range
                jd = js * d
                factors = np.fmin(js * (np.hypot(jd + x, y) + R) / ((jd + 2.0 * x) * js + 1.0), 1.0)
            logs = np.log(np.fmax(factors, math.ulp(0.0)))
            slack = js * 2.0**-51 * np.cumsum(np.abs(logs))
            logs = self._logs[circle] = np.minimum.accumulate(np.cumsum(logs) + slack + math.log1p(1e-9))
        return float(logs[n])

    def tail(self, k: int, n: int) -> float:
        if self.z0 == 0:
            return 0.0 if n >= k else math.inf
        if k == 0:
            product = math.nextafter(math.exp(self._log_product(False, n)), math.inf)
            return (2.0 if self.z0.real == 0.0 else 1.0) * product
        return _exp(self._log_product(True, n) - k * math.log(-self.z0.real / 2.0))


def _exp(log_tail: float) -> float:
    """exp of a log tail, inf above 700 (NaN gives inf)."""
    return math.exp(log_tail) if log_tail <= 700.0 else math.inf
