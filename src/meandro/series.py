"""Summation of per-sheet rational terms and Taylor jets of the sum.

A term sequence assigns to each sheet a rational function, its closed-form
derivatives, its poles and a bound on its supremum over the perforated
sheet.  One engine sums derivative series in a single ascending pass over
the sheets.  Each series it sums is a lane: one point and one order.  A
Taylor jet of order m is m+1 lanes at one point, so it costs one pass
rather than m+1; an evaluation at P points (``evaluate_sums``) is P lanes
of order 0, and costs one pass rather than P.

The pass walks blocks of consecutive sheets from
``geometry.doubling_blocks``: the first holds 64 sheets, each next one
twice as many, up to 65 536 derivative values of one point per block.  The
partition depends on the orders and the number of sheets alone, never on
the number of points, so each point is summed over the blocks of its lone
call, and its sum, stopping sheet, tail and error are those of that call,
bit for bit.  A block's terms come, for a few points at a time, from
``TermSequence.term_grid`` (order 0, one row per point) or
``TermSequence.derivatives`` (one row per order) as one numpy array.  The
points come in groups of at most about 4 096 values (at least one point, so
a jet's group is its block), and a group's bookkeeping is numpy:
finiteness, running sums, tolerances and the pole-clearance shortlist of
``first_blocked_all`` (a numpy sweep of the family's ``poles_table`` where
it has one).  What stays per lane is the exact addition of the terms a lane
keeps from a block, with ``math.fsum`` (Shewchuk) on their real and
imaginary parts, the compensated accumulation of the block sums, the scalar
certified tails and the scalar confirmations of the shortlists.

For each lane the engine picks one of four stopping rules from its inputs:

* a finite family is summed through its last sheet; its tail is exactly 0;
* a decay certificate A*rho**n over a Diophantine radius gives a rigorous
  tail bound (``tails._CertifiedTails``), which does not increase with the
  sheet.  So a lane whose tail at the block's last sheet is above every
  limit of the block cannot stop in it.  Every limit is at most the
  tolerance at |sum so far| + sum of |terms|, which is the tolerance itself
  for a plain sum (no relative part), and such a block is passed over
  without running sums.  In the other blocks the stopping sheet is found by
  bisection, with a few scalar tails a lane;
* a jet without such a certificate stops once a window of consecutive terms
  is negligible (the stabilised rule); its tail is a heuristic estimate;
* any other sum stops on the ratio test of the norm bounds; its tail is a
  heuristic estimate as well.

A term that is not finite (overflow of the block arithmetic) at or before a
lane's stopping sheet ends its point with OutOfRegime; terms computed past
the stop are never used.

``TermSequence.derivatives`` defaults to calling the scalar ``derivative``
sheet by sheet, and ``term_grid`` to row 0 of ``derivatives`` point by
point; the concrete families override them with numpy code.  A subclass
that overrides ``derivative`` but not ``derivatives`` gets both defaults
back, and one that overrides ``derivatives`` but not ``term_grid`` gets the
default ``term_grid``, so the block path always honours the scalar formula.
An infinite family on the default ``derivatives`` starts with a block of as
many sheets as orders plus the stabilised window, since each of its values
costs a call.

Derivative sums are controlled through Cauchy's estimate: the k-th
derivative at z0 of the sheet-j term is at most k! * norm_bound(j) / R**k
for any circle about z0 of radius R that keeps off sheet j's removed discs
(and in the region, unless the norm bounds are global).  A lane of order
k >= 1 takes the least of the tails that three radii give:

* eps * r_j with eps = lambda - 1, the margin of the shrunk perforation;
  the order-k tail then carries a factor j**(alpha*k);
* off the accumulation set of the poles, the distance
  ``tail_distance_bound(z0, n)`` to every pole after sheet n, less
  tail_sup(n): one radius for all those sheets, so no power of j;
* at an accumulation point, the family's ``distance_power_law``
  a * j**-beta, less r_j: a factor j**(beta*k), where beta <= alpha.

So how far a jet runs depends on how close z0 is to the poles, not on how
small the removed discs are.  Order 0 needs no circle, and its tail is the
certificate's A*rho**(n+1)/(1 - rho) at every point.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DiophantineRequired,
    MeandroError,
    OutOfRegime,
    PoleProximity,
    TolUnreachable,
)
from .geometry import _GROUP_VALUES, DiophantineRadius, Perforation, Region, doubling_blocks
from .tails import _CertifiedTails, power_geometric_tail

_STABLE_WINDOW = 8
#: Highest jet order: k! overflows a float from k = 171 on.
_MAX_JET_ORDER = 170
#: Absolute tolerance of each jet coefficient a_k, below its relative one.
_JET_ABS_TOL = 1e-300
#: Samples on each circle of ``sampled_norm_bound``: the region boundary
#: and each removed-disc rim.
_NORM_SAMPLES = 1024


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
        own = vars(cls)
        if "derivative" in own and "derivatives" not in own:
            cls.derivatives = TermSequence.derivatives
        if ("derivative" in own or "derivatives" in own) and "term_grid" not in own:
            cls.term_grid = TermSequence.term_grid

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

    def term_grid(self, ns: np.ndarray, zs: list) -> np.ndarray:
        """Terms on the sheets ns at the points zs: row i holds the terms at zs[i].

        Row i is ``derivatives(ns, 0, zs[i])[0]``, bit for bit, which is
        also the default.
        """
        rows = [self.derivatives(ns, 0, z)[0] for z in zs]
        return np.array(rows, dtype=complex).reshape(len(zs), len(ns))

    def poles(self, n: int) -> np.ndarray:
        return self.perforation.poles_on_sheet(n)

    @property
    def decay_cert(self) -> DecayCert | None:
        return None

    def norm_bound(self, n: int) -> float:
        """Bound on the sup of the sheet-n term over the perforated region.

        Default: ``sampled_norm_bound``, a sampled estimate and not a
        certified sup.  Families with a closed-form bound override it.
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


def sampled_norm_bound(seq: TermSequence, n: int, inflate: float = 1.01) -> float:
    """Boundary-sampled sup of |term| over the perforated sheet of the region.

    By the maximum principle the sup over the perforated sheet is attained on
    the region boundary or on a removed-disc circle.  Removed discs are
    mutually disjoint (radius-function invariant), so circle samples need no
    cross-filtering; region-boundary samples falling inside a removed disc
    are dropped.  Each circle carries ``_NORM_SAMPLES`` points.  Two uses
    remain: the default ``TermSequence.norm_bound``, for the ratio test of
    the zero-sum families, and the tests' cross-check of the closed-form
    bounds.
    """
    region = seq.region
    r_n = seq.perforation.radius_at(n)
    poles = seq.poles(n)
    outer = region.boundary_points(_NORM_SAMPLES)
    samples = []
    if len(poles):
        dist = np.abs(outer[:, None] - poles[None, :]).min(axis=1)
        samples.append(outer[dist >= r_n * (1.0 - 1e-12)])
        ring = np.exp(1j * 2.0 * np.pi * np.arange(_NORM_SAMPLES) / _NORM_SAMPLES)
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
    return seq.decay_cert is not None and isinstance(seq.perforation.radius, DiophantineRadius)


#: What a stopping rule reports for one lane of a block: None (no stop in it),
#: or the block index of the stopping sheet with the tail, or with the error
#: due there.
_Stop = tuple[int, float | MeandroError] | None


class _Group:
    """One lane group of a block: row r of ``terms`` is lane ``lanes[r]``.

    ``clean[r]`` counts the row's finite terms before its first non-finite
    one, and ``bad[r]`` says whether it has one.  Lane r's tolerance at a
    magnitude v is max(abs_tol[r], rel_tol * max(v, floor[r])).
    """

    def __init__(self, ns, terms, lanes, k, acc, abs_tol, floor, rel_tol):
        self.ns, self.terms, self.lanes, self.k, self.acc = ns, terms, lanes, k, acc
        self.abs_tol, self.floor, self.rel_tol = abs_tol, floor, rel_tol
        bad = ~np.isfinite(terms)
        self.bad = bad.any(axis=1)
        self.clean = np.where(self.bad, bad.argmax(axis=1), len(ns))

    def tol(self, v: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Tolerances of the lanes ``rows`` at v, one value (1-D v) or one row (2-D v) a lane."""
        abs_tol, floor = self.abs_tol[rows], self.floor[rows]
        if v.ndim == 2:
            abs_tol, floor = abs_tol[:, None], floor[:, None]
        return np.maximum(abs_tol, self.rel_tol * np.maximum(v, floor))

    def sums(self, rows=slice(None)) -> np.ndarray:
        """Running sums of the lanes ``rows`` through each sheet of the block."""
        return self.acc[rows, None] + np.cumsum(self.terms[rows], axis=1)


class _FiniteStop:
    """Sum through the last sheet of a finite family; the tail is exactly 0."""

    def __init__(self, n_max: int):
        self.n_max = n_max

    def scan(self, g: _Group) -> list[_Stop]:
        j = self.n_max - int(g.ns[0])
        return [(j, 0.0) if j < clean else None for clean in g.clean.tolist()]


class _CertifiedStop:
    """Stop at the first sheet whose certified tail is within the tolerance.

    Lane l sums at the point ``zs[l // width]``; its tails are those of
    ``_CertifiedTails`` there.  The tail does not increase with the sheet,
    so a block in which a lane can stop is searched by bisection: a few
    scalar tails a lane, not one a sheet.
    """

    def __init__(self, seq: TermSequence, zs: list, width: int):
        self.seq, self.zs, self.width = seq, zs, width
        self._points: dict[int, _CertifiedTails] = {}
        self._tail_cache: dict[tuple[int, int, int], float] = {}

    def _tail(self, lane: int, k: int, n: int) -> float:
        # The order-0 tail is the same at every point.
        key = (k, n, lane // self.width if k else 0)
        if key not in self._tail_cache:
            p = key[2]
            if p not in self._points:
                self._points[p] = _CertifiedTails(self.seq, self.zs[p])
            self._tail_cache[key] = self._points[p].tail(k, n)
        return self._tail_cache[key]

    def _first_stop(self, lane: int, k: int, ns: list[int], limit: np.ndarray) -> _Stop:
        """The first j with tail(ns[j]) <= limit[j], with its tail, or None.

        With M(j) the running maximum of the limits from ``start`` on, the
        test tail(j) <= M(j)*(1 + 1e-9) fails and then holds, since the tail
        does not increase and M does not decrease; no sheet before the first
        j where it holds has tail <= limit.  Bisect for that j: it stops the
        lane if its tail is within limit[j], and else the search goes on
        from j + 1 with M restarted there.
        """
        start = 0
        while start < len(ns):
            ceiling = np.maximum.accumulate(limit[start:]) * (1.0 + 1e-9)
            lo, hi = start, len(ns)
            while lo < hi:
                mid = (lo + hi) // 2
                if self._tail(lane, k, ns[mid]) <= ceiling[mid - start]:
                    hi = mid
                else:
                    lo = mid + 1
            if lo == len(ns):
                return None
            tail = self._tail(lane, k, ns[lo])
            if tail <= limit[lo]:
                return lo, tail
            start = lo + 1
        return None

    def scan(self, g: _Group) -> list[_Stop]:
        ends: list[_Stop] = [None] * len(g.lanes)
        # The tail is non-increasing in n, so a lane whose tail at its last
        # clean sheet is above every limit of the block cannot stop in it.
        # Every limit is at most the one at |acc| + sum |terms|; with
        # rel_tol = 0 every limit is abs_tol.
        if g.rel_tol == 0.0:
            bound = g.abs_tol
        else:
            mags = np.abs(g.terms).sum(axis=1)
            for r in np.flatnonzero(g.bad).tolist():
                mags[r] = np.abs(g.terms[r, : g.clean[r]]).sum()
            bound = g.tol(np.abs(g.acc) + mags)
        lanes, ks, cleans, ns = g.lanes.tolist(), g.k.tolist(), g.clean.tolist(), g.ns.tolist()
        rows = [
            r
            for r, (lane, k, clean, limit) in enumerate(zip(lanes, ks, cleans, bound.tolist()))
            if clean and not self._tail(lane, k, ns[clean - 1]) > limit * (1.0 + 1e-9)
        ]
        # The running sums behind the limits, for at most _GROUP_VALUES
        # values at a time: a jet's group is its whole block.
        step = max(1, _GROUP_VALUES // len(ns))
        for start in range(0, len(rows), step):
            some = rows[start : start + step]
            if g.rel_tol == 0.0:
                limits = np.broadcast_to(g.abs_tol[some, None], (len(some), len(ns)))
            else:
                limits = g.tol(np.abs(g.sums(some)), some)
            for r, limit in zip(some, limits):
                ends[r] = self._first_stop(lanes[r], ks[r], ns[: cleans[r]], limit)
        return ends


class _StabilisedStop:
    """Stop once _STABLE_WINDOW consecutive terms are negligible (heuristic).

    A term is negligible when it is within the tolerance of the largest
    magnitude seen so far, partial sums included; the tail is the window's
    sum.  The state of each lane carries over from block to block.
    """

    def __init__(self, lanes: int):
        self.scale = np.zeros(lanes)
        self.streak = np.zeros(lanes, dtype=np.int64)
        self.recent: list[list[float]] = [[] for _ in range(lanes)]

    def scan(self, g: _Group) -> list[_Stop]:
        mags = np.abs(g.terms)
        scale = np.maximum(
            np.maximum.accumulate(np.maximum(np.abs(g.sums()), mags), axis=1),
            self.scale[g.lanes, None],
        )
        idx = np.arange(len(g.ns))
        last_big = np.maximum.accumulate(np.where(mags <= g.tol(scale), -1, idx), axis=1)
        streak = np.where(last_big >= 0, idx - last_big, self.streak[g.lanes, None] + idx + 1)
        hits = (streak >= _STABLE_WINDOW) & (idx < g.clean[:, None])
        ends: list[_Stop] = []
        for r, lane in enumerate(g.lanes.tolist()):
            if hits[r].any():
                j = int(hits[r].argmax())
                window = self.recent[lane] + mags[r, max(j + 1 - _STABLE_WINDOW, 0) : j + 1].tolist()
                ends.append((j, float(sum(window[-_STABLE_WINDOW:]))))
                continue
            ends.append(None)
            self.scale[lane], self.streak[lane] = scale[r, -1], streak[r, -1]
            self.recent[lane] = (self.recent[lane] + mags[r, -_STABLE_WINDOW:].tolist())[-_STABLE_WINDOW:]
        return ends


class _RatioStop:
    """Ratio test of the norm bounds (heuristic), consulted sheet by sheet.

    It never stops at a zero norm bound, since a vanishing term says nothing
    about the rest, and it gives up after 16 sheets of growing bounds.  The
    norm bounds do not depend on the point, so the test runs once per sheet
    for all lanes; only the tolerance is per lane.
    """

    _GIVE_UP = "norm bounds do not summably decay and no decay certificate is present"

    def __init__(self, seq: TermSequence):
        self.seq = seq
        self.nb_prev: float | None = None
        self.streak = 0
        self.recent: list[float] = []
        self._block = None
        self._sheets: list[float | None | bool] = []

    def _sheet(self, ns: np.ndarray, j: int) -> float | None | bool:
        """Sheet j's ratio tail (None if it has none), or False where the test gives up."""
        if self._block != int(ns[0]):
            self._block, self._sheets = int(ns[0]), []
        while len(self._sheets) <= j:
            n = int(ns[len(self._sheets)])
            nb = self.seq.norm_bound(n)
            out = None
            if self.nb_prev is not None:
                ratio = nb / self.nb_prev if self.nb_prev > 0 else math.inf
                self.recent = (self.recent + [ratio])[-6:]
                self.streak = self.streak + 1 if ratio >= 1.0 else 0  # growing bounds
                q = max(self.recent)
                if self.streak >= 16:
                    out = False
                elif q < 1.0 and nb > 0.0:
                    out = nb * q / (1.0 - q)
            self._sheets.append(out)
            if out is False:
                break
            self.nb_prev = nb
        return self._sheets[j]

    def scan(self, g: _Group) -> list[_Stop]:
        limits = g.tol(np.abs(g.sums()))
        ends: list[_Stop] = [None] * len(g.lanes)
        open_ = np.ones(len(g.lanes), dtype=bool)
        for j in range(len(g.ns)):
            open_ &= g.clean > j
            if not open_.any():
                break
            tail = self._sheet(g.ns, j)
            if tail is False:
                for r in np.flatnonzero(open_).tolist():
                    ends[r] = j, TolUnreachable(self._GIVE_UP)
                break
            if tail is not None:
                hit = open_ & (tail <= limits[:, j])
                for r in np.flatnonzero(hit).tolist():
                    ends[r] = j, tail
                open_ &= ~hit
        return ends


def _take_rows(block: np.ndarray, rows: list[int]) -> np.ndarray:
    """block[rows]: a view when the rows are consecutive, else a copy."""
    if rows == list(range(rows[0], rows[-1] + 1)):
        return block[rows[0] : rows[-1] + 1]
    return block[rows]


def _sum_derivative_series(
    seq: TermSequence,
    zs: list,
    orders: range,
    abs_tol,
    rel_tol: float,
    floor,
    max_terms: int,
    *,
    stabilise: bool = False,
) -> list[list[SumResult] | MeandroError]:
    """Shared engine: one ascending pass summing the derivative series of every lane.

    A lane is one point of ``zs`` and one order of ``orders``.  Returns, for
    each point, one SumResult per order, or the MeandroError that ends the
    point's pass: the one that a call with that point alone returns.  Order
    k's tolerance at a magnitude v is max(abs_tol, rel_tol * max(v, floor));
    ``abs_tol`` and ``floor`` are numbers or one number per order.  The
    sheets are walked in the blocks of a single point (see the module
    docstring), so every point gets the block partition, and the sums, of
    its lone call; within a block the points are handled in groups of at
    most about _GROUP_VALUES values (at least one point).  The stopping rule
    is applied to the open lanes of each group, and each lane keeps the
    block's terms through its stopping sheet.

    The inputs pick the stopping rule, first match wins.  A finite family
    (``n_max`` set) is summed through its last sheet with tail 0, which is
    exact.  A decay certificate over a Diophantine radius stops on the
    certified tail (rigorous).  ``stabilise`` (a jet without a certificate)
    stops once ``_STABLE_WINDOW`` consecutive terms are negligible, with the
    window's sum as tail (heuristic); it skips the region check and gives
    DiophantineRequired when out of sheets.  Otherwise the norm-bound ratio
    test stops (heuristic).

    Pole clearance is checked once per sheet, on every sheet up to the
    furthest one a point's orders need.  A point's error is the first in
    sheet order: a removed disc holding it (PoleProximity), a term that is
    not finite (OutOfRegime), growing norm bounds (TolUnreachable).
    """
    finite = seq.n_max is not None
    certified = _certifiable(seq)
    stabilise = stabilise and not certified
    width = len(orders)
    outcomes: list = [None] * len(zs)
    if not stabilise and not seq.bounds_global:
        for p, z in enumerate(zs):
            if not seq.region.contains(z):
                outcomes[p] = TolUnreachable(
                    f"evaluation point {z} lies outside the working region of the norm bounds"
                )
    lanes = len(zs) * width
    lane_order = list(orders) * len(zs)
    lane_k = np.array(lane_order, dtype=np.int64)
    lane_abs = np.tile(np.broadcast_to(np.asarray(abs_tol, dtype=float), (width,)), len(zs))
    lane_floor = np.tile(np.broadcast_to(np.asarray(floor, dtype=float), (width,)), len(zs))
    accs = [CompensatedSum() for _ in range(lanes)]
    results: list[SumResult | None] = [None] * lanes
    if finite:
        rule = _FiniteStop(seq.n_max)
    elif certified:
        rule = _CertifiedStop(seq, zs, width)
    else:
        rule = _StabilisedStop(lanes) if stabilise else _RatioStop(seq)

    def sum_block(ns: np.ndarray, points: list[int]) -> None:
        """Sum the block of sheets ns for these points, as one lane group."""
        group = [(p, l) for p in points for l in range(p * width, (p + 1) * width) if results[l] is None]
        ids = [l for _, l in group]
        m = max(lane_order[l] for l in ids)
        with np.errstate(all="ignore"):
            if m == 0:
                block = seq.term_grid(ns, [zs[p] for p in points])
            elif len(points) == 1:
                block = seq.derivatives(ns, m, zs[points[0]])
            else:
                block = np.concatenate([seq.derivatives(ns, m, zs[p]) for p in points])
            at = {p: i * (m + 1) for i, p in enumerate(points)}
            rows = [at[p] + lane_order[l] for p, l in group]
            lanes = np.array(ids, dtype=np.int64)
            acc = np.array([accs[l].value for l in ids], dtype=complex)
            g = _Group(ns, _take_rows(block, rows), lanes, lane_k[lanes], acc, lane_abs[lanes],
                       lane_floor[lanes], rel_tol)
            ends = rule.scan(g)
        lo, last_j = int(ns[0]), len(ns) - 1
        reach = dict.fromkeys(points, -1)
        errors: dict[int, list] = {}
        for (p, l), end, bad, clean in zip(group, ends, g.bad.tolist(), g.clean.tolist()):
            if end is None and bad:
                end = clean, OutOfRegime(
                    f"order-{lane_order[l]} derivative term on sheet {lo + clean} is not finite"
                )
            reach[p] = max(reach[p], last_j if end is None else end[0])
            if end is not None and isinstance(end[1], MeandroError):
                errors.setdefault(p, []).append((end[0], lane_order[l], end[1]))
        blocked = seq.perforation.first_blocked_all(
            ns, [zs[p] for p in points], ends=[reach[p] + 1 for p in points]
        )
        for p, hit in zip(points, blocked):
            if isinstance(hit, ConfigError):  # a lone call raises it at once
                outcomes[p] = hit
            elif hit is not None:
                errors.setdefault(p, []).append((hit[0] - lo, -1, PoleProximity(*hit)))
        for p, errs in errors.items():
            if outcomes[p] is None:
                outcomes[p] = min(errs, key=lambda e: e[:2])[2]
        # A row with no imaginary part (real terms at a real point) adds 0.0
        # in place of an exact sum, which would be +0.0 or -0.0.  A Neumaier
        # step with either leaves the state bit for bit as it is: the running
        # sum and its compensation start at +0.0 and never become -0.0.
        complex_rows = block.imag.any(axis=1).tolist()
        for (p, l), row, end in zip(group, rows, ends):
            if outcomes[p] is not None:
                continue
            j, tail = end if end is not None else (last_j, None)
            kept = block[row, : j + 1]
            imag = math.fsum(kept.imag.tolist()) if complex_rows[row] else 0.0
            accs[l].add(complex(math.fsum(kept.real.tolist()), imag))
            if tail is not None:
                results[l] = SumResult(accs[l].value, lo + j, tail)
        for p in points:
            if outcomes[p] is None and all(results[l] is not None for l in range(p * width, (p + 1) * width)):
                outcomes[p] = results[p * width : (p + 1) * width]

    last = seq.n_min + max_terms - 1
    if finite:
        last = min(last, seq.n_max)
    first = None
    if not finite and type(seq).derivatives is TermSequence.derivatives:
        # One scalar call per sheet and order: start with the sheets that the
        # stabilised rule needs when every order settles at once.
        first = width + _STABLE_WINDOW
    live = [p for p, out in enumerate(outcomes) if out is None]
    for lo, hi in doubling_blocks(seq.n_min, last + 1, orders[-1] + 1, first):
        if not live:
            break
        ns = np.arange(lo, hi)
        size = max(1, _GROUP_VALUES // (len(ns) * (orders[-1] + 1)))
        for start in range(0, len(live), size):
            sum_block(ns, live[start : start + size])
        live = [p for p in live if outcomes[p] is None]
    for p in live:
        if stabilise:
            outcomes[p] = DiophantineRequired(
                "no decay certificate and the derivative series did not stabilise"
            )
        else:
            outcomes[p] = TolUnreachable(f"tolerance not certified within {max_terms} sheets")
    return outcomes


def _one_point(outcome: list[SumResult] | MeandroError) -> list[SumResult]:
    """A lone point's results, or its error raised."""
    if isinstance(outcome, MeandroError):
        raise outcome
    return outcome


def evaluate_sums(
    seq: TermSequence,
    zs,
    tol: float = 1e-10,
    max_terms: int = 200_000,
) -> list[SumResult | MeandroError]:
    """``evaluate_sum`` at every point of zs, in one pass over the sheets.

    Entry i is the SumResult that ``evaluate_sum(seq, zs[i], tol,
    max_terms)`` returns, bit for bit, or the MeandroError that it raises.
    Each point is one lane of the engine: the points share the engine's
    per-block work, and each keeps the blocks, the stopping sheet and the
    sum of its lone call.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    outcomes = _sum_derivative_series(seq, list(zs), range(1), tol, 0.0, 0.0, max_terms)
    return [out if isinstance(out, MeandroError) else out[0] for out in outcomes]


def evaluate_sum(
    seq: TermSequence,
    z: complex,
    tol: float = 1e-10,
    max_terms: int = 200_000,
) -> SumResult:
    """Sum the sequence at z until the tail bound drops below tol.

    This is ``evaluate_sums`` at the one point z.  Raises PoleProximity when
    z sits inside a removed disc of a sheet that is visited, and
    TolUnreachable when no certificate can push the tail bound below tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    outcome = _sum_derivative_series(seq, [z], range(1), tol, 0.0, 0.0, max_terms)[0]
    return _one_point(outcome)[0]


def derivative_sum(
    seq: TermSequence,
    z0: complex,
    k: int,
    tol: float = 1e-10,
    max_terms: int = 200_000,
) -> SumResult:
    """Sum the k-th derivative series at z0 with a Cauchy-estimate tail bound (see ``taylor_jet``)."""
    if k < 0:
        raise ValueError("derivative order must be non-negative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    outcome = _sum_derivative_series(seq, [z0], range(k, k + 1), tol, 0.0, 0.0, max_terms)[0]
    return _one_point(outcome)[0]


def taylor_jet(
    seq: TermSequence,
    z0: complex,
    m: int,
    rel_tol: float = 1e-11,
    max_terms: int = 200_000,
) -> TaylorJet:
    """Jet a_0..a_m of the sum at z0, a_k = S(f^{(k)})(z0)/k!.

    All m+1 derivative series are summed in one pass over the sheets.  Each
    carries its own tail certificate from Cauchy's estimate when the radius
    is Diophantine and a decay certificate is present: the least tail that
    the circles of radius eps*r_j, the circles that fit between z0 and the
    poles of the later sheets, and the family's power law at z0 give (see
    the module docstring), so a series stops where the poles near z0 allow.
    The remainder constant C_m = sum_n norm_bound(n)/r_n**m and
    eps = lambda - 1 are then recorded for remainder_bound.  Without a certificate each series stops on
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
        outcome = _sum_derivative_series(
            seq, [z0], orders, _JET_ABS_TOL * floors, rel_tol, floors, max_terms, stabilise=True
        )[0]
    else:
        outcome = _sum_derivative_series(
            seq, [z0], orders, 0.0, rel_tol, 1e-300, max(m + 64, 4096), stabilise=True
        )[0]
    inner = _one_point(outcome)
    coeffs = np.array([res.value / kf for res, kf in zip(inner, kfacs)], dtype=complex)
    tails = np.array([res.tail_bound / kf for res, kf in zip(inner, kfacs)], dtype=float)
    if not certifiable:
        return TaylorJet(z0, coeffs, tails, m, certified=False)
    radius = seq.perforation.radius
    c_m = _remainder_constant(seq.decay_cert, radius, m)
    return TaylorJet(z0, coeffs, tails, m, c_m=c_m, epsilon=radius.lam - 1.0)


def _remainder_constant(cert: DecayCert, radius: DiophantineRadius, m: int) -> float:
    """C_m = sum_n norm_bound(n)/r_n**m bounded through the decay certificate.

    The terms n**q * rho**n (q = alpha*m) are added in sheet order until the
    geometric tail bound beyond sheet n is within 1e-16 of the running total.
    Blocks of sheets are computed in numpy, and the running totals are one
    sequential cumulative sum.  The scalar ``power_geometric_tail`` falls
    and the totals rise, so the stopping sheet lies in the first block whose
    last sheet passes the test, and a bisection finds it there.  An
    overflowing term or total up to the stop, or no stop by sheet 1 000 001,
    gives inf.
    """
    q = radius.alpha * m
    log_rho = math.log(cert.rho)
    total = 0.0

    def stops(n: int, running: float) -> bool:
        return power_geometric_tail(q, cert.rho, n) <= 1e-16 * running

    for lo, hi in doubling_blocks(1, 1_000_002):
        ns = np.arange(lo, hi, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            log_terms = q * np.log(ns) + ns * log_rho
            totals = np.cumsum(np.concatenate(([total], np.exp(log_terms))))[1:]
        if stops(hi - 1, totals[-1]):
            a, b = 0, len(ns) - 1
            while a < b:
                mid = (a + b) // 2
                a, b = (a, mid) if stops(lo + mid, totals[mid]) else (mid + 1, b)
            if np.any(log_terms[: a + 1] > 700.0) or not math.isfinite(totals[a]):
                return math.inf
            tail = power_geometric_tail(q, cert.rho, lo + a)
            return cert.A * (1.0 + radius.shift) ** q / radius.c**m * (float(totals[a]) + tail)
        if np.any(log_terms > 700.0) or not math.isfinite(totals[-1]):
            return math.inf
        total = float(totals[-1])
    return math.inf


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
    def decay_cert(self) -> DecayCert | None:
        cf, cg = self._f.decay_cert, self._g.decay_cert
        if cf is None or cg is None:
            return None
        return DecayCert(cf.A + cg.A, max(cf.rho, cg.rho))
