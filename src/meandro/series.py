"""Summation of per-sheet rational terms and Taylor jets of the sum.

A term sequence assigns to each sheet a rational function, its closed-form
derivatives, its poles and a bound on its supremum over the perforated
sheet.  Sums are evaluated in ascending sheet order with compensated
accumulation by one engine, which picks one of four stopping rules from its
inputs:

* a finite family is summed through its last sheet; its tail is exactly 0;
* a decay certificate A*rho**n over a Diophantine radius gives a rigorous
  tail bound;
* a jet without such a certificate stops once a window of consecutive terms
  is negligible (the stabilised rule); its tail is a heuristic estimate;
* any other sum stops on the ratio test of the norm bounds; its tail is a
  heuristic estimate as well.

Derivative sums are controlled through the Cauchy estimate: on the shrunk
perforation the k-th derivative of the sheet-n term is bounded by
k! * norm_bound(n) / (eps * r_n)**k with eps = lambda - 1.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DiophantineRequired, PoleProximity, TolUnreachable
from .geometry import DiophantineRadius, Perforation, Region

_STABLE_WINDOW = 8


class CompensatedSum:
    """Neumaier compensated accumulator for complex values."""

    __slots__ = ("_sr", "_si", "_cr", "_ci")

    def __init__(self):
        self._sr = self._si = 0.0
        self._cr = self._ci = 0.0

    @staticmethod
    def _step(s: float, c: float, x: float) -> tuple[float, float]:
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        return t, c

    def add(self, value: complex) -> None:
        self._sr, self._cr = self._step(self._sr, self._cr, value.real)
        self._si, self._ci = self._step(self._si, self._ci, value.imag)

    @property
    def value(self) -> complex:
        return complex(self._sr + self._cr, self._si + self._ci)


@dataclass(frozen=True)
class DecayCert:
    """Certificate norm_bound(n) <= A * rho**n for every sheet n."""

    A: float
    rho: float

    def __post_init__(self):
        if self.A <= 0 or not (0 < self.rho < 1):
            raise ValueError("need A > 0 and 0 < rho < 1")

    def tail(self, n: int) -> float:
        """Bound for the sum of norm bounds over all sheets beyond n."""
        return self.A * self.rho ** (n + 1) / (1.0 - self.rho)


def power_geometric_tail(q: float, rho: float, n: int) -> float:
    """Rigorous upper bound for sum_{j>n} j**q * rho**j.

    The term ratio rho*(1+1/j)**q decreases in j, so beyond n the series is
    dominated by the geometric series with ratio taken at j = n+1.
    """
    ratio = rho * ((n + 2) / (n + 1)) ** q
    if ratio >= 1.0:
        return math.inf
    log_first = q * math.log(n + 1) + (n + 1) * math.log(rho)
    if log_first > 700.0:
        return math.inf
    return math.exp(log_first) / (1.0 - ratio)


class TermSequence(abc.ABC):
    """Per-sheet terms with closed-form derivatives and norm certificates."""

    n_min: int = 1
    #: Last sheet carrying a term, or None for an infinite family.
    n_max: int | None = None
    perforation: Perforation
    region: Region
    #: True when norm_bound dominates the term on the whole perforated plane,
    #: not merely inside ``region``.
    bounds_global: bool = False

    @abc.abstractmethod
    def term(self, n: int, z: complex) -> complex: ...

    @abc.abstractmethod
    def derivative(self, n: int, k: int, z: complex) -> complex:
        """Closed-form k-th derivative of the sheet-n term; k = 0 is the term."""

    def poles(self, n: int) -> np.ndarray:
        return self.perforation.poles_on_sheet(n)

    @property
    def meander_cert(self) -> DecayCert | None:
        return None

    def norm_bound(self, n: int) -> float:
        """Certified sup of the sheet-n term over the perforated region.

        Default: maximum-principle boundary sampling.  The sup over the
        perforated sheet is attained on the region boundary or on a removed
        disc circle; both are sampled at 1024 points and inflated by 1%.
        """
        cache = getattr(self, "_nb_cache", None)
        if cache is None:
            cache = {}
            self._nb_cache = cache
        if n not in cache:
            cache[n] = sampled_norm_bound(self, n)
        return cache[n]

    def residue(self, n: int, pole: complex) -> complex:
        raise NotImplementedError("this sequence does not expose closed-form residues")

    def term_array(self, n: int, zs: np.ndarray) -> np.ndarray:
        """Vectorised term evaluation; subclasses override with numpy code."""
        return np.array([self.term(n, complex(z)) for z in zs])

    def check_pole_clearance(self, n: int, z: complex) -> None:
        pole, dist = self.perforation.nearest_pole(n, z)
        if math.isinf(dist):
            return
        if dist < self.perforation.radius_at(n):
            raise PoleProximity(n, pole)


def sampled_norm_bound(
    seq: TermSequence, n: int, points_per_circle: int = 1024, inflate: float = 1.01
) -> float:
    """Boundary-sampled sup of |term| over the perforated sheet of the region.

    By the maximum principle the sup over the perforated sheet is attained on
    the region boundary or on a removed-disc circle.  Removed discs are
    mutually disjoint (radius-function invariant), so circle samples need no
    cross-filtering; region-boundary samples falling inside a removed disc
    are dropped.
    """
    region = seq.region
    r_n = seq.perforation.radius_at(n)
    poles = seq.poles(n)
    outer = region.boundary_points(points_per_circle)
    samples = []
    if len(poles):
        dist = np.abs(outer[:, None] - poles[None, :]).min(axis=1)
        samples.append(outer[dist >= r_n * (1.0 - 1e-12)])
        ring = np.exp(1j * 2.0 * np.pi * np.arange(points_per_circle) / points_per_circle)
        circles = (poles[:, None] + r_n * ring[None, :]).ravel()
        keep = np.asarray(region.distance_to_complement(circles), dtype=float) >= 0.0
        if keep.any():
            samples.append(circles[keep])
    else:
        samples.append(outer)
    pts = np.concatenate(samples)
    vals = seq.term_array(n, pts)
    return inflate * float(np.max(np.abs(vals)))


@dataclass(frozen=True)
class SumResult:
    value: complex
    terms_used: int
    tail_bound: float
    partials: list[complex] | None = None


@dataclass(frozen=True)
class TaylorJet:
    """Taylor coefficients of the sum with remainder data.

    coefficients[k] = S(f^{(k)})(z0)/k! for k = 0..order.  When the sequence
    carries a Diophantine radius and a decay certificate, c_m records
    sum_n norm_bound(n)/r_n**order and the remainder of the degree order-1
    polynomial is bounded by (c_m/eps**order)*|z-z0|**order.
    """

    center: complex
    coefficients: np.ndarray
    coefficient_tails: np.ndarray
    order: int
    c_m: float | None = None
    epsilon: float | None = None
    certified: bool = True

    def polynomial(self, z: complex, terms: int | None = None) -> complex:
        """Evaluate sum_{k<terms} a_k (z - center)**k (default: all stored)."""
        if terms is None:
            terms = len(self.coefficients)
        w = z - self.center
        acc = 0j
        for k in range(min(terms, len(self.coefficients)) - 1, -1, -1):
            acc = acc * w + self.coefficients[k]
        return acc


def _certified_tail(seq: TermSequence, k: int, n: int) -> float | None:
    """Tail of the k-th derivative series beyond sheet n, when certifiable."""
    cert = seq.meander_cert
    radius = seq.perforation.radius
    if cert is None or not isinstance(radius, DiophantineRadius):
        return None
    eps = radius.lam - 1.0
    if k == 0:
        return cert.tail(n)
    # 1/r_j**k = ((j+shift)**alpha/c)**k <= ((1+shift)*j)**(alpha*k)/c**k.
    shift_factor = (1.0 + radius.shift) ** (radius.alpha * k)
    prefactor = math.factorial(k) * cert.A * shift_factor / (eps * radius.c) ** k
    return prefactor * power_geometric_tail(radius.alpha * k, cert.rho, n)


def _sum_derivative_series(
    seq: TermSequence,
    z: complex,
    k: int,
    tol_fn: Callable[[complex], float],
    max_terms: int,
    keep_partials: bool = False,
    *,
    stabilise: bool = False,
) -> SumResult:
    """Shared engine: ascending-sheet compensated summation with tail control.

    The inputs pick the stopping rule, first match wins.  A finite family
    (``n_max`` set) is summed through its last sheet with tail 0, which is
    exact.  A decay certificate over a Diophantine radius stops on the
    certified tail (rigorous).  ``stabilise`` (a jet without a certificate)
    stops once ``_STABLE_WINDOW`` consecutive terms are at most ``tol_fn`` of
    the largest magnitude seen, with the window's sum as tail (heuristic); it
    skips the region check and raises DiophantineRequired when out of sheets.
    Otherwise the norm-bound ratio test stops (heuristic); it never stops at
    a zero norm bound, since a vanishing term says nothing about the rest.
    """
    finite = seq.n_max is not None
    certified = _certified_tail(seq, k, seq.n_min) is not None
    stabilise = stabilise and not certified
    if not stabilise and not seq.bounds_global and not seq.region.contains(z):
        raise TolUnreachable(
            f"evaluation point {z} lies outside the working region of the norm bounds"
        )
    acc = CompensatedSum()
    partials: list[complex] | None = [] if keep_partials else None

    recent: list[float] = []
    nb_prev: float | None = None
    streak = 0
    scale = 0.0
    n = seq.n_min
    while n < seq.n_min + max_terms:
        if finite and n > seq.n_max:
            return SumResult(acc.value, n - 1, 0.0, partials)  # finite family exhausted
        seq.check_pole_clearance(n, z)
        t = seq.derivative(n, k, z)
        acc.add(t)
        if partials is not None:
            partials.append(acc.value)

        if finite:
            pass  # summed through n_max below, with tail exactly 0
        elif certified:
            tail = _certified_tail(seq, k, n)
            if tail <= tol_fn(acc.value):
                return SumResult(acc.value, n, tail, partials)
        elif stabilise:
            scale = max(scale, abs(acc.value), abs(t))
            recent.append(abs(t))
            recent[:] = recent[-_STABLE_WINDOW:]
            streak = streak + 1 if abs(t) <= tol_fn(scale) else 0  # negligible terms
            if streak >= _STABLE_WINDOW:
                return SumResult(acc.value, n, float(sum(recent)), partials)
        else:
            nb = seq.norm_bound(n)
            if nb_prev is not None:
                ratio = nb / nb_prev if nb_prev > 0 else math.inf
                recent.append(ratio)
                recent[:] = recent[-6:]
                streak = streak + 1 if ratio >= 1.0 else 0  # growing bounds
                if streak >= 16:
                    raise TolUnreachable(
                        "norm bounds do not summably decay and no decay certificate is present"
                    )
                q = max(recent)
                if q < 1.0 and nb > 0.0:
                    tail = nb * q / (1.0 - q)
                    if tail <= tol_fn(acc.value):
                        return SumResult(acc.value, n, tail, partials)
            nb_prev = nb
        n += 1
    if stabilise:
        raise DiophantineRequired(
            "no decay certificate and the derivative series did not stabilise"
        )
    raise TolUnreachable(f"tolerance not certified within {max_terms} sheets")


def evaluate_sum(
    seq: TermSequence,
    z: complex,
    tol: float = 1e-10,
    max_terms: int = 200_000,
    keep_partials: bool = False,
) -> SumResult:
    """Sum the sequence at z until the tail bound drops below tol.

    Raises PoleProximity when z sits inside a removed disc of a sheet that is
    visited, and TolUnreachable when no certificate can push the tail bound
    below tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _sum_derivative_series(seq, z, 0, lambda _v: tol, max_terms, keep_partials)


def derivative_sum(
    seq: TermSequence,
    z0: complex,
    k: int,
    tol: float = 1e-10,
    max_terms: int = 200_000,
) -> SumResult:
    """Sum the k-th derivative series at z0 with a Cauchy-estimate tail bound."""
    if k < 0:
        raise ValueError("derivative order must be non-negative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _sum_derivative_series(seq, z0, k, lambda _v: tol, max_terms)


def taylor_jet(
    seq: TermSequence,
    z0: complex,
    m: int,
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-300,
    max_terms: int = 200_000,
) -> TaylorJet:
    """Jet a_0..a_m of the sum at z0, a_k = S(f^{(k)})(z0)/k!.

    Each inner derivative sum carries its own tail certificate from the
    Cauchy estimate when the radius is Diophantine and a decay certificate is
    present; the remainder constant C_m = sum_n norm_bound(n)/r_n**m and
    eps = lambda - 1 are then recorded for remainder_bound.  Without a
    certificate each inner sum stops on the stabilised rule: the tails are
    heuristic, the jet is marked uncertified and carries no remainder data,
    and DiophantineRequired is raised when an inner series does not settle
    within max(m + 64, 4096) sheets.
    """
    if m < 0:
        raise ValueError("jet order must be non-negative")
    radius = seq.perforation.radius
    cert = seq.meander_cert
    certifiable = cert is not None and isinstance(radius, DiophantineRadius)
    if not certifiable:
        max_terms = max(m + 64, 4096)

    coeffs = np.zeros(m + 1, dtype=complex)
    tails = np.zeros(m + 1, dtype=float)
    for k in range(m + 1):
        kfac = math.factorial(k)
        if certifiable:
            tol_fn = lambda v, kf=kfac: max(abs_tol * kf, rel_tol * max(abs(v), kf))
        else:
            tol_fn = lambda v: rel_tol * max(abs(v), 1e-300)
        inner = _sum_derivative_series(seq, z0, k, tol_fn, max_terms, stabilise=True)
        coeffs[k] = inner.value / kfac
        tails[k] = inner.tail_bound / kfac
    if not certifiable:
        return TaylorJet(z0, coeffs, tails, m, certified=False)
    c_m = _remainder_constant(cert, radius, m)
    return TaylorJet(z0, coeffs, tails, m, c_m=c_m, epsilon=radius.lam - 1.0)


def _remainder_constant(cert: DecayCert, radius: DiophantineRadius, m: int) -> float:
    """C_m = sum_n norm_bound(n)/r_n**m bounded through the decay certificate."""
    q = radius.alpha * m
    shift_factor = (1.0 + radius.shift) ** q
    total = 0.0
    n = 1
    while True:
        log_term = q * math.log(n) + n * math.log(cert.rho)
        if log_term > 700.0:
            return math.inf
        total += math.exp(log_term)
        if not math.isfinite(total):
            return math.inf
        tail = power_geometric_tail(q, cert.rho, n)
        if tail <= 1e-16 * total:
            total += tail
            break
        if n > 1_000_000:
            return math.inf
        n += 1
    return cert.A * shift_factor / radius.c**m * total


def remainder_bound(jet: TaylorJet, z: complex) -> float:
    """Bound |S(f)(z) - sum_{k<order} a_k (z-z0)**k| <= (C_m/eps**m) |z-z0|**m."""
    if jet.c_m is None or jet.epsilon is None:
        raise DiophantineRequired("jet carries no remainder constants")
    return jet.c_m / jet.epsilon**jet.order * abs(z - jet.center) ** jet.order


class SequenceSum(TermSequence):
    """Pointwise sum of two sequences over the same perforation."""

    def __init__(self, f: TermSequence, g: TermSequence):
        if f.perforation.radius != g.perforation.radius or type(f.perforation.poles) is not type(
            g.perforation.poles
        ):
            raise ValueError("sequences must share one perforation")
        self._f = f
        self._g = g
        self.perforation = f.perforation
        self.region = f.region
        self.n_min = min(f.n_min, g.n_min)
        self.n_max = None if f.n_max is None or g.n_max is None else max(f.n_max, g.n_max)
        self.bounds_global = f.bounds_global and g.bounds_global

    def _parts(self, n: int) -> list[TermSequence]:
        return [s for s in (self._f, self._g) if s.n_min <= n and (s.n_max is None or n <= s.n_max)]

    def term(self, n: int, z: complex) -> complex:
        return sum((s.term(n, z) for s in self._parts(n)), 0j)

    def derivative(self, n: int, k: int, z: complex) -> complex:
        return sum((s.derivative(n, k, z) for s in self._parts(n)), 0j)

    def norm_bound(self, n: int) -> float:
        return sum(s.norm_bound(n) for s in self._parts(n))

    def residue(self, n: int, pole: complex) -> complex:
        total = 0j
        for s in self._parts(n):
            if np.any(np.abs(s.poles(n) - pole) < 1e-12):
                total += s.residue(n, pole)
        return total

    @property
    def meander_cert(self) -> DecayCert | None:
        cf, cg = self._f.meander_cert, self._g.meander_cert
        if cf is None or cg is None:
            return None
        return DecayCert(cf.A + cg.A, max(cf.rho, cg.rho))
