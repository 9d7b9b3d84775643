"""Certified tail bounds of the derivative series of a term sequence.

The sheet-j term of a sequence with a decay certificate is at most
A*rho**j on the perforated sheet (``norm_bound``), and Cauchy's estimate
turns that into a bound on its derivatives at a point: the k-th derivative
at z0 is at most k! * A*rho**j / R**k for any circle about z0 of radius R
on which the bound holds.  ``_CertifiedTails`` sums these bounds over the
sheets after n for three choices of R and keeps the least; the summation
engine in ``series`` stops a lane once its tail is within the tolerance.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .geometry import _ABS_SLACK

if TYPE_CHECKING:
    from .series import TermSequence


def power_geometric_tail(q: float, rho: float, n: int) -> float:
    """Rigorous upper bound for sum_{j>n} j**q * rho**j.

    The term ratio rho*(1+1/j)**q decreases in j, so beyond n the series is
    dominated by the geometric series with ratio taken at j = n+1.
    """
    try:
        ratio = rho * ((n + 2) / (n + 1)) ** q
    except OverflowError:
        return math.inf
    if ratio >= 1.0:
        return math.inf
    log_first = q * math.log(n + 1) + (n + 1) * math.log(rho)
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

    Unless the norm bounds are global, the circle must also stay in the
    region: R(n) is capped by the distance ``reach`` from z0 to the
    region's complement, and b(n) is scaled by min(1, reach/a), which caps
    b(n)*j**-beta <= a.  The distance bounds hold for the exact poles, so
    D(n) is shrunk by a relative 1e-9 and by 8*eps*(1 + |z0| + D(n)), as in
    the membership discharge, and b(n) by a relative 1e-9.  A branch with no
    positive radius gives inf.

    Every bound is non-increasing in n, which the block skip and the
    bisection of ``series._CertifiedStop`` rely on: ``power_geometric_tail``
    is inf on an initial run of sheets and falls after it; D(n) does not
    decrease and tail_sup(n) does not increase (their declared contracts),
    so R(n) does not decrease while rho**(n+1) falls; and b(n) does not
    decrease as beta <= alpha.  So their minimum is non-increasing as well.
    """

    def __init__(self, seq: TermSequence, z0: complex):
        self.seq, self.z0 = seq, z0
        self.cert, self.radius = seq.decay_cert, seq.perforation.radius
        self.poles = seq.perforation.poles
        self.reach = math.inf if seq.bounds_global else float(seq.region.distance_to_complement(z0))
        law = self.poles.distance_power_law(z0)
        self.law = law if law is not None and law[1] <= self.radius.alpha else None
        self._orders: dict[int, tuple[float, float]] = {}

    def _order(self, k: int) -> tuple[float, float]:
        """``_tail_prefactor`` and log(k! * A) of order k."""
        if k not in self._orders:
            self._orders[k] = _tail_prefactor(self.seq, k), math.lgamma(k + 1) + math.log(self.cert.A)
        return self._orders[k]

    def _shrunk(self, d: float) -> float:
        """D(n) = d shrunk for the float poles."""
        return d * (1.0 - 1e-9) - _ABS_SLACK * (1.0 + abs(self.z0) + d)

    def _factor(self, n: int) -> float:
        """b(n), scaled to the region and shrunk."""
        a, beta = self.law
        cap = min(1.0, self.reach / a) * (1.0 - 1e-9)
        return (a - self.radius.c * (n + 1.0) ** (beta - self.radius.alpha)) * cap

    def tail(self, k: int, n: int) -> float:
        cert = self.cert
        if k == 0:
            return cert.tail(n)
        prefactor, log_k = self._order(k)
        best = math.inf  # an infinite prefactor times a tail that underflowed to 0 bounds nothing
        if prefactor < math.inf:
            best = prefactor * power_geometric_tail(self.radius.alpha * k, cert.rho, n)
        d = self.poles.tail_distance_bound(self.z0, n)
        if d is not None and d != math.inf:
            R = min(self._shrunk(d) - self.radius.tail_sup(n), self.reach * (1.0 - 1e-9))
            if R > 0.0:
                log_tail = (n + 1) * math.log(cert.rho) - math.log1p(-cert.rho) + log_k - k * math.log(R)
                best = min(best, _exp(log_tail))
        if self.law is not None:
            b = self._factor(n)
            tail = power_geometric_tail(self.law[1] * k, cert.rho, n)
            if b > 0.0 and tail < math.inf:
                best = min(best, _exp(log_k - k * math.log(b) + math.log(tail)) if tail else 0.0)
        return best


def _exp(log_tail: float) -> float:
    """exp of a log tail, inf above 700 (NaN gives inf)."""
    return math.exp(log_tail) if log_tail <= 700.0 else math.inf
