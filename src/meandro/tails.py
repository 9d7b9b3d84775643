"""Tail bounds of the derivative series of a term sequence, known before its terms.

tail(k, n) bounds the order-k derivative series summed over the sheets
after n, and does not increase with n; the summation engine in ``series``
stops a lane once its tail is within the tolerance, and each family picks
its tails with ``TermSequence.tail_policy``.  The sheet-j term of a sequence
with a decay certificate is at most A*rho**j on the perforated sheet
(``norm_bound``), and Cauchy's estimate turns that into a bound on its
derivatives at a point: the k-th derivative at z0 is at most
k! * A*rho**j / R**k for any circle about z0 of radius R on which the bound
holds.  ``_CertifiedTails`` sums these bounds over the sheets after n for
three choices of R and keeps the least.  A finite family's tails
(``_FiniteTails``) need no bound: they are exact.  The pi_k series
telescopes, and its remainder gives its tails (``_RemainderTails``).
``order0_shared`` says whether the order-0 tail is the same at every point.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from .geometry import _ABS_SLACK

if TYPE_CHECKING:
    from .series import TermSequence

#: Sheets over which ``_RemainderTails`` multiplies its factors.
_REMAINDER_SHEETS = 2**19


def power_geometric_tail(q: float, rho: float, n: int) -> float:
    """Rigorous upper bound for sum_{j>n} j**q * rho**j.

    The term ratio rho*(1+1/j)**q decreases in j, so beyond n the series is
    dominated by the geometric series with ratio taken at j = n+1.
    """
    return _power_geometric(q, rho, (n + 2) / (n + 1), math.log(n + 1), (n + 1) * math.log(rho))


def _power_geometric(q: float, rho: float, step: float, log_n1: float, log_first_rho: float) -> float:
    """``power_geometric_tail`` from the parts that every q shares at one n.

    step = (n+2)/(n+1), log_n1 = log(n+1) and log_first_rho = (n+1)*log(rho).
    """
    try:
        ratio = rho * step**q
    except OverflowError:
        return math.inf
    if ratio >= 1.0:
        return math.inf
    log_first = q * log_n1 + log_first_rho
    if log_first > 700.0:
        return math.inf
    return math.exp(log_first) / (1.0 - ratio)


def _tail_prefactor(seq: TermSequence, k: int) -> float:
    """k! * A * (1+shift)**(alpha*k) / (eps*c)**k, the sheet-free factor of the k >= 1 tail."""
    cert, radius = seq.decay_cert, seq.perforation.radius
    # 1/r_j**k = ((j+shift)**alpha/c)**k <= ((1+shift)*j)**(alpha*k)/c**k.
    try:
        shift_factor = (1.0 + radius.shift) ** (radius.alpha * k)
        return math.factorial(k) * cert.A * shift_factor / ((radius.lam - 1.0) * radius.c) ** k
    except (OverflowError, ZeroDivisionError):
        return math.inf


class _CertifiedTails:
    """Certified tails of the derivative series at z0 (needs ``series._certifiable``).

    Order 0 has the tail of the decay certificate, A*rho**(n+1)/(1 - rho).
    For k >= 1 the k-th derivative of the sheet-j term is at most
    k!*A*rho**j/R_j**k for any circle about z0 of radius R_j on which
    norm_bound(j) bounds the term (Cauchy's estimate), and the tail beyond
    sheet n is the least of three bounds:

    * the uniform circles R_j = eps*r_j of the shrunk perforation: the tail
      is ``_tail_prefactor`` * ``power_geometric_tail(alpha*k, rho, n)``;
    * off the poles' accumulation set, the circles that fit around z0: the
      poles of sheet j > n are at least D(n) = ``tail_distance_bound(z0, n)``
      away and r_j <= tail_sup(n), so R_j >= R(n) = D(n) - tail_sup(n), and
      the tail is k!*A*rho**(n+1)/((1 - rho)*R(n)**k);
    * where the family declares |z0 - p| >= a*j**-beta on sheet j
      (``distance_power_law``) with beta <= alpha, as at an accumulation
      point: r_j <= c*j**-alpha gives R_j >= b(n)*j**-beta for j > n with
      b(n) = a - c*(n+1)**(beta-alpha), and the tail is
      k!*A/b(n)**k * ``power_geometric_tail(beta*k, rho, n)``.

    The last two take norm_bound(j) to hold at distance r_j from sheet j's
    poles, as the meander's and the q-log's do.  A pullback's does not (its
    bound is the base bound, which holds only off the preimages of the base
    discs, and these reach further), so ``_PullbackPoles`` declares neither
    distance contract.

    The norm bounds hold on the whole perforated plane, so only the poles
    limit a circle.  The distance bounds hold for the exact poles, so D(n)
    is shrunk by a relative 1e-9 and by 8*eps*(1 + |z0| + D(n)), as in the
    membership discharge, and b(n) by a relative 1e-9.  A branch with no
    positive radius gives inf.

    Every bound is non-increasing in n, which the certified stop's search
    (``series._search``) relies on: ``power_geometric_tail`` is inf on an
    initial run of sheets and falls after it; D(n) does not decrease and
    tail_sup(n) does not increase (their declared contracts), so R(n) does
    not decrease while rho**(n+1) falls; and b(n) does not decrease as
    beta <= alpha.  So their minimum is non-increasing as well.
    """

    order0_shared = True

    def __init__(self, seq: TermSequence, z0: complex):
        self.seq, self.z0 = seq, z0
        self.cert, self.radius = seq.decay_cert, seq.perforation.radius
        self.poles = seq.perforation.poles
        self._orders: dict[int, tuple[float, float]] = {}
        self._sheets: dict[int, tuple] = {}

    @functools.cached_property
    def law(self) -> tuple[float, float] | None:
        """The poles' distance power law at z0, where beta <= alpha."""
        law = self.poles.distance_power_law(self.z0)
        return law if law is not None and law[1] <= self.radius.alpha else None

    def _order(self, k: int) -> tuple[float, float]:
        """``_tail_prefactor`` and log(k! * A) of order k."""
        if k not in self._orders:
            self._orders[k] = _tail_prefactor(self.seq, k), math.lgamma(k + 1) + math.log(self.cert.A)
        return self._orders[k]

    def _shrunk(self, d: float) -> float:
        """D(n) = d shrunk for the float poles."""
        return d * (1.0 - 1e-9) - _ABS_SLACK * (1.0 + abs(self.z0) + d)

    def _factor(self, n: int) -> float:
        """b(n), shrunk."""
        a, beta = self.law
        return (a - self.radius.c * (n + 1.0) ** (beta - self.radius.alpha)) * (1.0 - 1e-9)

    def _sheet(self, n: int) -> tuple:
        """What the tails of every order share at sheet n.

        The parts of ``power_geometric_tail`` at n, the local branch's
        (n+1)*log(rho) - log(1 - rho) and log R(n) (None without a positive
        R(n)), and log b(n) (None without a law or a positive b(n)).
        """
        if n not in self._sheets:
            cert = self.cert
            log_first_rho = (n + 1) * math.log(cert.rho)
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
            self._sheets[n] = (
                (n + 2) / (n + 1), math.log(n + 1), log_first_rho,
                log_first_rho - math.log1p(-cert.rho), log_r, log_b,
            )
        return self._sheets[n]

    def tail(self, k: int, n: int) -> float:
        cert = self.cert
        if k == 0:
            return cert.tail(n)
        prefactor, log_k = self._order(k)
        step, log_n1, log_first_rho, base, log_r, log_b = self._sheet(n)
        best = math.inf  # an infinite prefactor times a tail that underflowed to 0 bounds nothing
        if prefactor < math.inf:
            best = prefactor * _power_geometric(self.radius.alpha * k, cert.rho, step, log_n1, log_first_rho)
        if log_r is not None:
            best = min(best, _exp(base + log_k - k * log_r))
        if log_b is not None:
            tail = _power_geometric(self.law[1] * k, cert.rho, step, log_n1, log_first_rho)
            if tail < math.inf:
                best = min(best, _exp(log_k - k * log_b + math.log(tail)) if tail else 0.0)
        return best


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
    sheet k on and inf before.  Otherwise the order-k tail is
    |P_{n+1}^(k)(z0)| (the sum is 1 about z0), at most k! * sup|P_{n+1}| /
    R**k on the circle of radius R = |Re z0|/2 about z0.  1/zeta maps that
    circle onto the circle of centre conj(z0)/D and radius R/D, D = |z0|**2
    - R**2, in the left half-plane, so |j*zeta/(1 - j*zeta)| = j/|1/zeta - j|
    is at most m_j = j*(|j*D - conj(z0)| + R)/(D*j**2 + 2*|Re z0|*j + 1) < 1
    there; R = 0 gives the order-0 factors.  Each m_j takes a few roundings
    of non-negative terms and the running product one a sheet, well inside
    the 1e-9 over ``_REMAINDER_SHEETS`` sheets.  Past them, and once the
    product is below 1e-300, the tail keeps its last value, still a bound as
    no factor exceeds 1; a factor that rounds above 1 (or is NaN) is taken
    as 1, so no tail increases.
    """

    order0_shared = False

    def __init__(self, z0: complex):
        self.z0 = z0
        self._products: dict[bool, np.ndarray] = {}

    def _product(self, circle: bool, n: int) -> float:
        """prod_{j<=n+1} m_j, inflated, on the circle about z0 or (not ``circle``) at z0."""
        n = min(n, _REMAINDER_SHEETS - 1)
        products = self._products.get(circle)
        if products is None or len(products) <= n:
            x, y = -self.z0.real, self.z0.imag
            R, d = (x / 2.0, 0.75 * x * x + y * y) if circle else (0.0, x * x + y * y)
            js = np.arange(1.0, min(max(2 * (n + 1), 64), _REMAINDER_SHEETS) + 1.0)
            with np.errstate(over="ignore", invalid="ignore"):  # inf/inf at a point near the float range
                jd = js * d
                products = np.cumprod(np.fmin(js * (np.hypot(jd + x, y) + R) / ((jd + 2.0 * x) * js + 1.0), 1.0))
            tiny = np.flatnonzero(products < 1e-300)
            if len(tiny):
                products[tiny[0] :] = products[tiny[0]]
            products = self._products[circle] = products * (1.0 + 1e-9)
        return float(products[n])

    def tail(self, k: int, n: int) -> float:
        if self.z0 == 0:
            return 0.0 if n >= k else math.inf
        if k == 0:
            return (2.0 if self.z0.real == 0.0 else 1.0) * self._product(False, n)
        return _exp(math.lgamma(k + 1) - k * math.log(-self.z0.real / 2.0) + math.log(self._product(True, n)))


def _exp(log_tail: float) -> float:
    """exp of a log tail, inf above 700 (NaN gives inf)."""
    return math.exp(log_tail) if log_tail <= 700.0 else math.inf
