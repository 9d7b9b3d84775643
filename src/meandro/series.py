"""Summation of per-sheet rational terms and Taylor jets of the sum.

A term sequence assigns to each sheet a rational function, its closed-form
derivatives, its poles and a bound on its supremum over the perforated
sheet.  One engine sums the derivative series of a range of orders at a
point, in a single ascending pass over the sheets, so a Taylor jet of order
m costs one pass rather than m+1.  The pass walks blocks of consecutive
sheets: the first holds 64 sheets, each next one twice as many, up to
65 536 derivative values per block.  A block's derivatives come from
``TermSequence.derivatives`` as one numpy array, each block's pole clearance
from the pole family's ``nearest_pole_all``.  The terms an order keeps from a
block are added exactly with ``math.fsum`` (Shewchuk) on their real and
imaginary parts, and the block sums are accumulated with compensation.

For each order the engine picks one of four stopping rules from its inputs:

* a finite family is summed through its last sheet; its tail is exactly 0;
* a decay certificate A*rho**n over a Diophantine radius gives a rigorous
  tail bound;
* a jet without such a certificate stops once a window of consecutive terms
  is negligible (the stabilised rule); its tail is a heuristic estimate;
* any other sum stops on the ratio test of the norm bounds; its tail is a
  heuristic estimate as well.

A term that is not finite (overflow of the block arithmetic) at or before an
order's stopping sheet raises OutOfRegime; terms computed past the stop are
never used.

``TermSequence.derivatives`` defaults to calling the scalar ``derivative``
sheet by sheet; the concrete families override it with numpy code.  A
subclass that overrides ``derivative`` but not ``derivatives`` gets the
default back, so the block path always honours its scalar formula.

Derivative sums are controlled through the Cauchy estimate: on the shrunk
perforation the k-th derivative of the sheet-n term is bounded by
k! * norm_bound(n) / (eps * r_n)**k with eps = lambda - 1.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DiophantineRequired, MeandroError, OutOfRegime, PoleProximity, TolUnreachable
from .geometry import DiophantineRadius, Perforation, Region

_STABLE_WINDOW = 8
#: Sheets in the engine's first block; each next block is twice as long.
_FIRST_BLOCK = 64
#: Most derivative values (orders times sheets) one block may hold.
_BLOCK_VALUES = 65_536
#: Highest jet order: k! overflows a float from k = 171 on.
_MAX_JET_ORDER = 170


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

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # An inherited numpy formula would bypass a redefined scalar derivative.
        if "derivative" in vars(cls) and "derivatives" not in vars(cls):
            cls.derivatives = TermSequence.derivatives

    @abc.abstractmethod
    def derivative(self, n: int, k: int, z: complex) -> complex:
        """Closed-form k-th derivative of the sheet-n term; k = 0 is the term."""

    def derivatives(self, ns: np.ndarray, m: int, z: complex) -> np.ndarray:
        """Derivatives of orders 0..m on the sheets ns: row k holds the k-th.

        Default: the scalar ``derivative`` on every sheet and order.  An
        OverflowError there becomes an infinite entry, which the engine
        reports as OutOfRegime if the term is needed.
        """
        out = np.empty((m + 1, len(ns)), dtype=complex)
        for j, n in enumerate(ns.tolist()):
            for k in range(m + 1):
                try:
                    out[k, j] = self.derivative(n, k, z)
                except OverflowError:
                    out[k, j] = math.inf
        return out

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
        cache = self._norm_bounds
        if n not in cache:
            cache[n] = sampled_norm_bound(self, n)
        return cache[n]

    @functools.cached_property
    def _norm_bounds(self) -> dict[int, float]:
        return {}

    def residue(self, n: int, pole: complex) -> complex:
        raise NotImplementedError("this sequence does not expose closed-form residues")

    def term_array(self, n: int, zs: np.ndarray) -> np.ndarray:
        """Vectorised term evaluation; subclasses override with numpy code."""
        return np.array([self.term(n, complex(z)) for z in zs])


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


def _certifiable(seq: TermSequence) -> bool:
    return seq.meander_cert is not None and isinstance(seq.perforation.radius, DiophantineRadius)


def _tail_prefactor(seq: TermSequence, k: int) -> float:
    """k! * A * (1+shift)**(alpha*k) / (eps*c)**k, the sheet-free factor of the k >= 1 tail."""
    cert, radius = seq.meander_cert, seq.perforation.radius
    # 1/r_j**k = ((j+shift)**alpha/c)**k <= ((1+shift)*j)**(alpha*k)/c**k.
    shift_factor = (1.0 + radius.shift) ** (radius.alpha * k)
    return math.factorial(k) * cert.A * shift_factor / ((radius.lam - 1.0) * radius.c) ** k


def _certified_tail(seq: TermSequence, k: int, n: int) -> float:
    """Tail of the k-th derivative series beyond sheet n (needs _certifiable)."""
    cert = seq.meander_cert
    if k == 0:
        return cert.tail(n)
    return _tail_prefactor(seq, k) * power_geometric_tail(
        seq.perforation.radius.alpha * k, cert.rho, n
    )


def _certified_tails(seq: TermSequence, k: int, ns: np.ndarray) -> np.ndarray:
    """``_certified_tail`` on every sheet of ns, in numpy arithmetic."""
    cert = seq.meander_cert
    n1 = ns + 1.0
    if k == 0:
        return cert.A * cert.rho**n1 / (1.0 - cert.rho)
    q = seq.perforation.radius.alpha * k
    ratio = cert.rho * ((n1 + 1.0) / n1) ** q
    log_first = q * np.log(n1) + n1 * math.log(cert.rho)
    tails = np.exp(log_first) / (1.0 - ratio)
    tails[(ratio >= 1.0) | (log_first > 700.0)] = math.inf
    return _tail_prefactor(seq, k) * tails


#: What a stopping rule reports for one block: None (no stop in it), or the
#: block index of the stopping sheet with the tail, or with the error due there.
_Stop = tuple[int, float | MeandroError] | None


class _FiniteStop:
    """Sum through the last sheet of a finite family; the tail is exactly 0."""

    def __init__(self, n_max: int):
        self.n_max = n_max

    def scan(self, ns, terms, sums, tol) -> _Stop:
        j = self.n_max - int(ns[0])
        return (j, 0.0) if j < len(ns) else None


class _CertifiedStop:
    """Stop at the first sheet whose certified tail is within the tolerance."""

    def __init__(self, seq: TermSequence, k: int):
        self.seq, self.k = seq, k

    def scan(self, ns, terms, sums, tol) -> _Stop:
        limit = tol(np.abs(sums))
        tails = _certified_tails(self.seq, self.k, ns)
        # The numpy tails shortlist the sheets; the scalar tail decides, so
        # the stopping sheet and its tail are those of the sheet-by-sheet rule.
        for j in np.flatnonzero(tails <= limit * (1.0 + 1e-9)).tolist():
            tail = _certified_tail(self.seq, self.k, int(ns[j]))
            if tail <= limit[j]:
                return j, tail
        return None


class _StabilisedStop:
    """Stop once _STABLE_WINDOW consecutive terms are negligible (heuristic).

    A term is negligible when it is within the tolerance of the largest
    magnitude seen so far, partial sums included; the tail is the window's sum.
    """

    def __init__(self):
        self.scale = 0.0
        self.streak = 0
        self.recent: list[float] = []

    def scan(self, ns, terms, sums, tol) -> _Stop:
        mags = np.abs(terms)
        scale = np.maximum(np.maximum.accumulate(np.maximum(np.abs(sums), mags)), self.scale)
        idx = np.arange(len(ns))
        last_big = np.maximum.accumulate(np.where(mags <= tol(scale), -1, idx))
        streak = np.where(last_big >= 0, idx - last_big, self.streak + idx + 1)
        hits = np.flatnonzero(streak >= _STABLE_WINDOW)
        if hits.size:
            j = int(hits[0])
            return j, float(sum((self.recent + mags[: j + 1].tolist())[-_STABLE_WINDOW:]))
        self.scale, self.streak = float(scale[-1]), int(streak[-1])
        self.recent = (self.recent + mags.tolist())[-_STABLE_WINDOW:]
        return None


class _RatioStop:
    """Ratio test of the norm bounds (heuristic), consulted sheet by sheet.

    It never stops at a zero norm bound, since a vanishing term says nothing
    about the rest, and it gives up after 16 sheets of growing bounds.
    """

    def __init__(self, seq: TermSequence):
        self.seq = seq
        self.nb_prev: float | None = None
        self.streak = 0
        self.recent: list[float] = []

    def scan(self, ns, terms, sums, tol) -> _Stop:
        for j, n in enumerate(ns.tolist()):
            nb = self.seq.norm_bound(n)
            if self.nb_prev is not None:
                ratio = nb / self.nb_prev if self.nb_prev > 0 else math.inf
                self.recent = (self.recent + [ratio])[-6:]
                self.streak = self.streak + 1 if ratio >= 1.0 else 0  # growing bounds
                if self.streak >= 16:
                    return j, TolUnreachable(
                        "norm bounds do not summably decay and no decay certificate is present"
                    )
                q = max(self.recent)
                if q < 1.0 and nb > 0.0:
                    tail = nb * q / (1.0 - q)
                    if tail <= tol(abs(sums[j])):
                        return j, tail
            self.nb_prev = nb
        return None


def _sum_derivative_series(
    seq: TermSequence,
    z: complex,
    orders: range,
    abs_tol,
    rel_tol: float,
    floor,
    max_terms: int,
    keep_partials: bool = False,
    *,
    stabilise: bool = False,
) -> list[SumResult]:
    """Shared engine: one ascending pass summing the derivative series of each order.

    Returns one SumResult per order in ``orders``.  Order k's tolerance at a
    magnitude v is max(abs_tol, rel_tol * max(v, floor)); ``abs_tol`` and
    ``floor`` are numbers or one number per order.  The sheets are walked in
    blocks (see the module docstring); every order's stopping rule is applied
    to each block, and the order keeps the block's terms through its
    stopping sheet.

    The inputs pick the stopping rule, first match wins.  A finite family
    (``n_max`` set) is summed through its last sheet with tail 0, which is
    exact.  A decay certificate over a Diophantine radius stops on the
    certified tail (rigorous).  ``stabilise`` (a jet without a certificate)
    stops once ``_STABLE_WINDOW`` consecutive terms are negligible, with the
    window's sum as tail (heuristic); it skips the region check and raises
    DiophantineRequired when out of sheets.  Otherwise the norm-bound ratio
    test stops (heuristic).

    Pole clearance is checked once per sheet, on every sheet up to the
    furthest one an order needs.  Errors are raised in sheet order: a removed
    disc holding z (PoleProximity), a term that is not finite (OutOfRegime),
    growing norm bounds (TolUnreachable).
    """
    finite = seq.n_max is not None
    certified = _certifiable(seq)
    stabilise = stabilise and not certified
    if not stabilise and not seq.bounds_global and not seq.region.contains(z):
        raise TolUnreachable(
            f"evaluation point {z} lies outside the working region of the norm bounds"
        )
    abs_tols = np.broadcast_to(np.asarray(abs_tol, dtype=float), (len(orders),))
    floors = np.broadcast_to(np.asarray(floor, dtype=float), (len(orders),))

    def rule(k: int):
        if finite:
            return _FiniteStop(seq.n_max)
        if certified:
            return _CertifiedStop(seq, k)
        return _StabilisedStop() if stabilise else _RatioStop(seq)

    def tolerance(i: int) -> Callable:
        return lambda v: np.maximum(abs_tols[i], rel_tol * np.maximum(v, floors[i]))

    rules = {k: rule(k) for k in orders}
    tols = {k: tolerance(i) for i, k in enumerate(orders)}
    accs = {k: CompensatedSum() for k in orders}
    partials = {k: [] if keep_partials else None for k in orders}
    results: dict[int, SumResult] = {}

    last = seq.n_min + max_terms - 1
    if finite:
        last = min(last, seq.n_max)
    cap = max(_BLOCK_VALUES // (orders[-1] + 1), 1)
    size = min(_FIRST_BLOCK, cap)
    n = seq.n_min
    active = list(orders)
    while active and n <= last:
        ns = np.arange(n, min(n + size, last + 1))
        with np.errstate(all="ignore"):
            block = seq.derivatives(ns, active[-1], z)
            ends: dict[int, tuple[int, float | MeandroError]] = {}
            for k in active:
                terms = block[k]
                bad = np.flatnonzero(~np.isfinite(terms))
                clean = int(bad[0]) if bad.size else len(ns)
                end = None
                if clean:
                    sums = accs[k].value + np.cumsum(terms[:clean])
                    end = rules[k].scan(ns[:clean], terms[:clean], sums, tols[k])
                if end is None and bad.size:
                    end = clean, OutOfRegime(
                        f"order-{k} derivative term on sheet {int(ns[clean])} is not finite"
                    )
                if end is not None:
                    ends[k] = end
        reach = len(ns) - 1 if len(ends) < len(active) else max(j for j, _ in ends.values())
        errors = [(j, k, out) for k, (j, out) in ends.items() if isinstance(out, MeandroError)]
        blocked = seq.perforation.first_blocked(ns[: reach + 1], z)
        if blocked is not None:
            errors.append((blocked[0] - n, -1, PoleProximity(*blocked)))
        if errors:
            raise min(errors, key=lambda e: e[:2])[2]

        for k in active:
            j, tail = ends.get(k, (len(ns) - 1, None))
            kept = block[k][: j + 1]
            if partials[k] is not None:
                partials[k].extend((accs[k].value + np.cumsum(kept)).tolist())
            accs[k].add(complex(math.fsum(kept.real.tolist()), math.fsum(kept.imag.tolist())))
            if tail is not None:
                results[k] = SumResult(accs[k].value, int(ns[j]), tail, partials[k])
        active = [k for k in active if k not in results]
        del block, terms, kept  # free this block (views too) before the next is built
        n += len(ns)
        size = min(2 * size, cap)
    if active:
        if stabilise:
            raise DiophantineRequired(
                "no decay certificate and the derivative series did not stabilise"
            )
        raise TolUnreachable(f"tolerance not certified within {max_terms} sheets")
    return [results[k] for k in orders]


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
    return _sum_derivative_series(seq, z, range(1), tol, 0.0, 0.0, max_terms, keep_partials)[0]


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
    return _sum_derivative_series(seq, z0, range(k, k + 1), tol, 0.0, 0.0, max_terms)[0]


def taylor_jet(
    seq: TermSequence,
    z0: complex,
    m: int,
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-300,
    max_terms: int = 200_000,
) -> TaylorJet:
    """Jet a_0..a_m of the sum at z0, a_k = S(f^{(k)})(z0)/k!.

    All m+1 derivative series are summed in one pass over the sheets.  Each
    carries its own tail certificate from the Cauchy estimate when the radius
    is Diophantine and a decay certificate is present; the remainder
    constant C_m = sum_n norm_bound(n)/r_n**m and eps = lambda - 1 are then
    recorded for remainder_bound.  Without a certificate each series stops on
    the stabilised rule: the tails are heuristic, the jet is marked
    uncertified and carries no remainder data, and DiophantineRequired is
    raised when a series does not settle within max(m + 64, 4096) sheets.
    Orders above 170, where k! overflows a float, raise OutOfRegime.
    """
    if m < 0:
        raise ValueError("jet order must be non-negative")
    if m > _MAX_JET_ORDER:
        raise OutOfRegime(f"jet order {m} exceeds {_MAX_JET_ORDER}: k! overflows a float")
    orders = range(m + 1)
    kfacs = [math.factorial(k) for k in orders]
    certifiable = _certifiable(seq)
    if certifiable:
        floors = np.array(kfacs, dtype=float)
        inner = _sum_derivative_series(
            seq, z0, orders, abs_tol * floors, rel_tol, floors, max_terms, stabilise=True
        )
    else:
        inner = _sum_derivative_series(
            seq, z0, orders, 0.0, rel_tol, 1e-300, max(m + 64, 4096), stabilise=True
        )
    coeffs = np.array([res.value / kf for res, kf in zip(inner, kfacs)], dtype=complex)
    tails = np.array([res.tail_bound / kf for res, kf in zip(inner, kfacs)], dtype=float)
    if not certifiable:
        return TaylorJet(z0, coeffs, tails, m, certified=False)
    radius = seq.perforation.radius
    c_m = _remainder_constant(seq.meander_cert, radius, m)
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
        if f.perforation != g.perforation:
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

    def derivatives(self, ns: np.ndarray, m: int, z: complex) -> np.ndarray:
        out = np.zeros((m + 1, len(ns)), dtype=complex)
        for s in (self._f, self._g):
            mine = ns >= s.n_min
            if s.n_max is not None:
                mine &= ns <= s.n_max
            if mine.any():
                out[:, mine] += s.derivatives(ns[mine], m, z)
        return out

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
