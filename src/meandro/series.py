"""Summation of per-sheet rational terms and Taylor jets of the sum.

A term sequence assigns to each sheet a rational function, its closed-form
Taylor coefficients, its poles and a bound on its supremum over the
perforated sheet.  One engine sums coefficient series in a single ascending
pass over the sheets.  Each series it sums is a lane: one point and one
order.  A Taylor jet of order m is m+1 lanes at one point, so it costs one
pass rather than m+1; an evaluation at P points (``evaluate_sums``) is P
lanes of order 0, and costs one pass rather than P.  The families give
Taylor coefficients, the tails bound them and a jet is their sums, so no
module converts to or from derivatives.

The pass walks blocks of consecutive sheets from
``geometry.doubling_blocks``: the first holds 64 sheets, each next one
twice as many, up to 65 536 coefficient values of one point per block.  The
partition depends on the orders and the number of sheets alone, never on
the number of points, so each point is summed over the blocks of its lone
call, and its sum, stopping sheet, tail and error are those of that call,
bit for bit.  A block's terms come, for a few points at a time, from
``TermSequence.term_grid`` (order 0, one row per point) or
``TermSequence.taylor_coefficients`` (one row per order) as one numpy
array.  The points come in groups of at most about 4 096 values (at least
one point, so a jet's group is its block).  The state of the lanes is arrays indexed by
lane (running sum, whether it has stopped, its stopping sheet and tail) and
by point (ended, cleared), so a group's bookkeeping is mask and index
arithmetic: finiteness, running sums, tolerances, stops, the pole-clearance
shortlist of ``first_blocked_all`` (a numpy sweep of the family's
``poles_table`` where it has one), numpy's pairwise sums of the terms
each lane keeps, with a bound on their rounding, and their compensated
accumulation; errors, which are rare, are the only Python objects.  The
order of a pairwise sum depends on the length of the row alone, so a row
is padded with zeros only up to the longest kept row of its own point
(``_block_sums``).  In a pass whose last sheet has a float radius, a point
stops being checked for clearance once the tail bounds of its poles and
radii clear it of every later disc, or, at an accumulation point of the
poles, their distance power law clears it of every disc up to the last
sheet; at most points of an evaluation and at a jet's accumulation point
this happens after the first block.  In any other pass every point is
checked on every sheet it needs.  A sheet whose radius is NaN in
``radius.values`` (untabulated, or below the float range) gives each point
that reaches it the error of ``radius_at`` there, as ``first_blocked_all``
returns it for that point.  What stays per lane is a jet's scalar tails,
and per point the scalar confirmations of the shortlists.

Every lane stops on one rule (``_CertifiedStop``): at the first sheet
whose tail, known before the terms, is within the lane's tolerance.  The
family's tail policy, ``TermSequence.tail_policy``, gives the tails at a
point up to a highest order, or the error that refuses the point before
any term:

* a finite family's tails are inf before its last sheet and exactly 0 from
  it on (``tails._FiniteTails``);
* a decay certificate over a Diophantine radius, the norm bound's own
  form C*n**q*sigma**n (``tails.DecayCert``), gives rigorous ones
  (``tails._CertifiedTails``) at every point, as the norm bounds hold on
  the whole perforated plane.  Order 0 has the certificate's tail, the sum
  of the norm bounds after the sheet, at every point; order k >= 1 the
  least that Cauchy's estimate, |a_k| <= M/R**k, gives on
  three kinds of circles about the point, so how far a jet runs depends
  on how close the point is to the poles, not on how
  small the removed discs are;
* the pi_k family's terms telescope, and its exact remainder gives them
  (``tails._RemainderTails``; see ``models.ZeroSumPiK``);
* any other sequence is refused with DiophantineRequired.

No tail increases with the sheet, so a search on the scalar tail finds
each stop, a few tails a lane.  A plain sum (no relative part, as in
``evaluate_sums`` and ``coefficient_sum``) has one limit, the tolerance, so
its stopping sheet is searched before any term, once per order and point
(once in all for order 0 where its tail is the same at every point) into
an array of stops that each block reads, and each block ends after the
furthest stop of its live points: no term, finiteness or clearance check
is done past it.  A jet's limits grow with its running sums, but none in a
block exceeds U, the tolerance at |sum so far| + sum of |terms|: the
search against U finds the first sheet that can stop the lane, and the
exact limit is checked there.

A term that is not finite (overflow of the block arithmetic) at or before a
lane's stopping sheet ends its point with OutOfRegime; terms computed past
the stop are never used.  A jet's limit at a running sum past the float
range is -inf, so no lane stops there, and the point ends on its first
non-finite term in (sheet, order) order or, after the block, on the
overflow of the lane's sum.

A family gives its terms through two methods alone, both on a block of
sheets: ``taylor_coefficients`` and ``term_grid``.  Row i of
``term_grid(ns, zs)`` is row 0 of ``taylor_coefficients(ns, 0, zs[i])``,
bit for bit, so a point's sums do not depend on which of the two the
engine calls; ``term`` and ``term_array`` read ``term_grid``.
"""

from __future__ import annotations

import abc
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DiophantineRequired, MeandroError, OutOfRegime, PoleProximity, TolUnreachable
from .geometry import _GROUP_VALUES, DiophantineRadius, Perforation, _tail_clears, doubling_blocks
from .tails import DecayCert, _CertifiedTails, _FiniteTails

#: Highest jet order that ``taylor_jet`` accepts.
_MAX_JET_ORDER = 170
#: Absolute tolerance of each jet coefficient a_k, below its relative one.
_JET_ABS_TOL = 1e-300


class CompensatedSum:
    """Neumaier compensated accumulator for complex values.

    The engine keeps its accumulators as arrays (``_neumaier_step``); this is
    the scalar reference.
    """

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


def _neumaier_step(s: np.ndarray, c: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``CompensatedSum._step`` on arrays: the same IEEE operations, so the same bits."""
    t = s + x
    return t, c + np.where(np.abs(s) >= np.abs(x), (s - t) + x, (x - t) + s)


class TermSequence(abc.ABC):
    """Per-sheet terms with closed-form Taylor coefficients and norm certificates.

    The terms come a block of sheets at a time (see the module docstring); an
    entry that overflows is inf or NaN, OutOfRegime where the sum needs it.
    """

    n_min: int = 1
    #: Last sheet carrying a term, or None for an infinite family.
    n_max: int | None = None
    perforation: Perforation

    @abc.abstractmethod
    def taylor_coefficients(self, ns: np.ndarray, m: int, z: complex) -> np.ndarray:
        """Taylor coefficients of orders 0..m on the sheets ns at z: row k holds those of (. - z)**k."""

    @abc.abstractmethod
    def term_grid(self, ns: np.ndarray, zs: list) -> np.ndarray:
        """Terms on the sheets ns at the points zs: row i holds the terms at zs[i].

        Row i is ``taylor_coefficients(ns, 0, zs[i])[0]``, bit for bit.
        """

    def term(self, n: int, z: complex) -> complex:
        """The sheet-n term at z, from ``term_grid``."""
        return complex(self.term_grid(np.array([n]), [z])[0, 0])

    def term_array(self, n: int, zs: np.ndarray) -> np.ndarray:
        """The sheet-n terms at the points zs, from ``term_grid``."""
        return self.term_grid(np.array([n]), list(zs))[:, 0]

    def poles(self, n: int) -> np.ndarray:
        return self.perforation.poles_on_sheet(n)

    @property
    def decay_cert(self) -> DecayCert | None:
        return None

    def tail_policy(self, z0: complex, m: int):
        """The tails at z0 of the coefficient series of orders 0..m, or the MeandroError that refuses z0.

        The tails are known before any term (see ``tails``): a finite
        family's are exact, and a decay certificate over a Diophantine
        radius gives rigorous ones at every point.  Any other sequence is
        refused with DiophantineRequired.
        """
        if self.n_max is not None:
            return _FiniteTails(self.n_max)
        if _certifiable(self):
            return _CertifiedTails(self, z0)
        return DiophantineRequired("no decay certificate over a Diophantine radius: no tails known before the terms")

    def residue(self, n: int, pole: complex) -> complex:
        raise NotImplementedError("this sequence does not expose closed-form residues")


def _upper_sum(a: float, b: float) -> float:
    """a + b rounded up: fl(a + b), or the next float above it where it rounded down (TwoSum)."""
    s = a + b
    bv = s - a
    return math.nextafter(s, math.inf) if (a - (s - bv)) + (b - bv) > 0.0 else s


@dataclass(frozen=True)
class SumResult:
    """A sum over sheets, its last sheet and two bounds on its error.

    ``tail_bound`` bounds the terms left out, and it alone decides the stop.
    ``rounding`` bounds the error of adding the kept terms, as the family
    computes them, in floating point.  ``error_bound``, their sum rounded
    up, bounds |value - S|, S the sum of the series of those terms.
    """

    value: complex
    terms_used: int
    tail_bound: float
    rounding: float

    @property
    def error_bound(self) -> float:
        return _upper_sum(self.tail_bound, self.rounding)


@dataclass(frozen=True)
class TaylorJet:
    """Taylor coefficients of the sum and two bounds on the error of each.

    coefficients[k] is the sum over the sheets of the terms' coefficients
    of (z - z0)**k, for k = 0..order, with that sum's tail and rounding
    (see ``SumResult``).  ``certified`` says that a decay certificate over a
    Diophantine radius backs the tails; a finite family's tails are exact
    and the pi_k family's come from its remainder, though the flag is False
    for both.
    """

    center: complex
    coefficients: np.ndarray
    coefficient_tails: np.ndarray
    coefficient_rounding: np.ndarray
    order: int
    certified: bool = True

    @property
    def coefficient_bounds(self) -> list[float]:
        return [_upper_sum(t, r) for t, r in zip(self.coefficient_tails.tolist(), self.coefficient_rounding.tolist())]

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


class _Group:
    """One lane group of a block: row r of ``terms`` is lane ``lanes[r]``.

    ``clean[r]`` counts the row's finite terms before its first non-finite
    one, and ``bad[r]`` says whether it has one.  A lane's tolerance at a
    magnitude v is max(abs_tol, rel_tol * max(v, floor)), and -inf (no
    limit) where v is not finite, so no lane stops on a running sum past
    the float range.
    ``_CertifiedStop.scan`` gives for the rows the block index of each
    one's stopping sheet (the block's length where it holds none) and the
    tail there.
    """

    def __init__(self, ns, terms, lanes, k, acc, abs_tol, floor, rel_tol):
        self.ns, self.terms, self.lanes, self.k, self.acc = ns, terms, lanes, k, acc
        self.abs_tol, self.floor, self.rel_tol = abs_tol, floor, rel_tol
        fine = np.isfinite(terms)
        self.bad = ~fine.all(axis=1)
        self.clean = np.where(self.bad, fine.argmin(axis=1), len(ns))

    def tol(self, v: np.ndarray) -> np.ndarray:
        """The tolerances at the magnitudes v, elementwise; -inf where v is not finite."""
        return np.where(v < math.inf, np.maximum(self.abs_tol, self.rel_tol * np.maximum(v, self.floor)), -math.inf)

    def sums(self, rows=slice(None)) -> np.ndarray:
        """Running sums of the lanes ``rows`` through each sheet of the block."""
        return self.acc[rows, None] + np.cumsum(self.terms[rows], axis=1)


def _search(tail, bound, lo: int, hi: int) -> int:
    """The first j in [lo, hi] with tail(j) <= bound(j), or hi + 1 if there is none.

    It assumes only what a bisection would: tail does not increase and bound
    does not decrease in j.  tail(hi) comes first, so a span with no such j
    costs one tail, and then tail(lo).  While lo fails and hi passes, a step
    joins the gaps g = log tail - log bound at lo and hi by a line and tries
    j = lo + ceil(g_lo/(g_lo - g_hi)*(hi - lo)), in (lo, hi] as g_lo > 0 >=
    g_hi; it then probes the neighbour on the side where the answer lies
    (j - 1 if j passes, j + 1 if not), so a step that lands within a sheet
    of it ends the search.  Where a gap is not finite (a tail or bound of
    inf or 0), and after two steps that fail to halve the span, a step
    bisects.  Each tail is taken at most once.
    """
    seen: dict[int, float | None] = {}

    def passes(j: int) -> bool:
        t, b = tail(j), bound(j)
        seen[j] = math.log(t) - math.log(b) if 0.0 < t < math.inf and 0.0 < b < math.inf else None
        return t <= b

    if not passes(hi):
        return hi + 1
    if lo == hi or passes(lo):
        return lo
    misses = 0
    while hi - lo > 1:
        width, g_lo, g_hi = hi - lo, seen[lo], seen[hi]
        if misses < 2 and g_lo is not None and g_hi is not None and g_lo > 0.0 >= g_hi:
            j = lo + math.ceil(g_lo / (g_lo - g_hi) * width)
            if j == hi or passes(j):
                lo, hi = (lo, j - 1) if j - 1 > lo and passes(j - 1) else (max(lo, j - 1), j)
            else:
                lo, hi = (j, j + 1) if j + 1 == hi or passes(j + 1) else (j + 1, hi)
        else:
            j = (lo + hi) // 2
            lo, hi = (lo, j) if passes(j) else (j, hi)
        if 2 * (hi - lo) > width:
            misses += 1
    return hi


class _CertifiedStop:
    """Stop at the first sheet whose tail, known before the terms, is within the limit.

    Lane l sums at the point ``zs[l // width]``, whose tails are
    ``tails[l // width]`` (None for a refused point).  Lanes with one limit
    on every sheet (rel_tol = 0) get their stops from ``plan`` before any
    term.  A jet's lane searches for j1, the first sheet with tail <=
    U*(1 + 1e-9), U the tolerance at |acc| + sum |terms|: for j < j1,
    tail(j) > U*(1 + 1e-9) >= limit(j).  The lane stops at j1 if its tail is
    within the exact limit there, and otherwise ``_first_stop`` goes on from
    j1 + 1.
    """

    def __init__(self, seq: TermSequence, zs: list, width: int, last: int, tails: list):
        self.seq, self.zs, self.width, self.last, self.tails = seq, zs, width, last, tails
        # Whether the order-0 tail is the same at every point.
        self.shared = all(t.order0_shared for t in tails if t is not None)
        self._tail_cache: dict[tuple[int, int, int], float] = {}

    def _tail(self, lane: int, k: int, n: int) -> float:
        p = lane // self.width
        key = (k, n, -1 if k == 0 and self.shared else p)
        if key not in self._tail_cache:
            self._tail_cache[key] = self.tails[p].tail(k, n)
        return self._tail_cache[key]

    def stop(self, lane: int, k: int, limit: float) -> tuple[int, float]:
        """The first sheet n in [n_min, last] with tail(k, n) <= limit, with its tail, or (last + 1, inf).

        The blocks of ``doubling_blocks`` are searched in turn: no tail is
        taken past the stop's block, where the radius may leave the float range.
        """
        tail = lambda n: self._tail(lane, k, n)
        for lo, hi in doubling_blocks(self.seq.n_min, self.last + 1):
            n = _search(tail, lambda n: limit, lo, hi - 1)
            if n < hi:
                return n, tail(n)
        return self.last + 1, math.inf

    def plan(self, points: np.ndarray, orders: range, limit: float) -> None:
        """The stops of the lanes of these points, each with this limit on every sheet.

        ``stop`` runs once per order and point, once in all for order 0 where its tail is the same at every point.
        Each lane's stopping sheet (last + 1 for none) and tail go to ``stop_at`` and ``stop_tail``.
        """
        lanes = len(self.zs) * self.width
        self.stop_at, self.stop_tail = np.full(lanes, self.last + 1), np.zeros(lanes)
        at, tail = self.stop_at.reshape(-1, self.width), self.stop_tail.reshape(-1, self.width)
        for i, k in enumerate(orders):
            shared = k == 0 and self.shared
            for p in points[:1 if shared else None].tolist():
                share = slice(None) if shared else p  # a lane of a point that has ended is never read
                at[share, i], tail[share, i] = self.stop(p * self.width + i, k, limit)

    def _first_stop(self, lane: int, k: int, ns: list[int], limit: np.ndarray, start: int = 0):
        """The first j >= start with tail(ns[j]) <= limit[j], with its tail, or None.

        With M(j) the running maximum of the limits from ``start`` on, the
        test tail(j) <= M(j)*(1 + 1e-9) fails and then holds, since the tail
        does not increase and M does not decrease; no sheet before the first
        j where it holds has tail <= limit.  ``_search`` finds that j: it
        stops the lane if its tail is within limit[j], and else the search
        goes on from j + 1 with M restarted there.
        """
        tail = lambda j: self._tail(lane, k, ns[j])
        while start < len(ns):
            ceiling = (np.maximum.accumulate(limit[start:]) * (1.0 + 1e-9)).tolist()
            j = _search(tail, lambda j: ceiling[j - start], start, len(ns) - 1)
            if j == len(ns):
                return None
            if tail(j) <= limit[j]:
                return j, tail(j)
            start = j + 1
        return None

    def scan(self, g: _Group) -> tuple[np.ndarray, np.ndarray]:
        if g.rel_tol == 0.0:  # an open lane's stop is at or after the block's first sheet
            ends = self.stop_at[g.lanes] - int(g.ns[0])
            return np.where(ends < g.clean, ends, len(g.ns)), self.stop_tail[g.lanes]
        ns, lanes, ks, cleans = g.ns.tolist(), g.lanes.tolist(), g.k.tolist(), g.clean.tolist()
        ends, tails = np.full(len(lanes), len(ns)), np.zeros(len(lanes))
        # Every limit of the block is at most U, the one at |acc| + sum |terms|,
        # or at the largest float, which no finite running sum exceeds.
        mags = np.abs(g.terms).sum(axis=1)
        for r in np.flatnonzero(g.bad).tolist():
            mags[r] = np.abs(g.terms[r, : g.clean[r]]).sum()
        bound = (g.tol(np.minimum(np.abs(g.acc) + mags, sys.float_info.max)) * (1.0 + 1e-9)).tolist()
        firsts = [
            _search(lambda j: self._tail(lane, k, ns[j]), lambda j: bound[r], 0, clean - 1) if clean else 0
            for r, (lane, k, clean) in enumerate(zip(lanes, ks, cleans))
        ]
        rows = [r for r, j in enumerate(firsts) if j < cleans[r]]
        # The running sums at each lane's j1, one row at a time, and the limits there.
        js = [firsts[r] for r in rows]
        sums = g.acc[rows] + np.array([np.cumsum(g.terms[r, : j + 1])[-1] for r, j in zip(rows, js)])
        for r, j, limit in zip(rows, js, g.tol(np.abs(sums)).tolist()):
            tail = self._tail(lanes[r], ks[r], ns[j])
            if tail <= limit:
                ends[r], tails[r] = j, tail
            elif j + 1 < cleans[r]:
                limit = g.tol(np.abs(g.sums([r])))[0]
                stop = self._first_stop(lanes[r], ks[r], ns[: cleans[r]], limit, j + 1)
                ends[r], tails[r] = stop or (len(ns), 0.0)
        return ends, tails


def _index(rows: np.ndarray) -> slice | np.ndarray:
    """An index of these ascending rows: a slice (so a view) when they are consecutive."""
    first, last = int(rows[0]), int(rows[-1])
    return slice(first, last + 1) if last - first == len(rows) - 1 else rows


@functools.lru_cache(maxsize=1024)
def _depth(n: int) -> int:
    """The most roundings on one value's path through numpy's pairwise sum of n values.

    numpy's ``pairwise_sum`` (``loops_utils.h.src``) adds fewer than 8 values
    one by one onto 0; up to 128, 8 accumulators take the first n - n % 8,
    a tree of depth 3 adds them, and the rest come one by one; above 128 it
    adds the sums of two parts split at a multiple of 8 near n/2.  The
    rounding bound is sound only where numpy reduces in this order: numpy
    2.4.6 does, in the engine's layout (``.real`` and ``.imag`` of complex
    rows), as ``tests/test_block_sums.py::test_the_depth_is_that_of_numpys_order``
    checks; that test fails on a numpy that reduces otherwise.
    """
    if n < 8:
        return max(n - 1, 0)
    if n <= 128:
        return n // 8 + 2 + n % 8
    half = n // 2 - n // 2 % 8
    return 1 + max(_depth(half), _depth(n - half))


def _block_sums(terms: np.ndarray, lens: np.ndarray, padded: bool) -> tuple[np.ndarray, np.ndarray]:
    """numpy's pairwise sums of terms[i, :lens[i]], one (real, imag) row each, and a bound on their rounding.

    Where ``padded`` (the rows of one point), each row is padded with zeros,
    written over its later entries in ``terms``, up to the longest row, and
    all are reduced together; otherwise the rows of each length are reduced
    together.  Either way a row's bits depend on its point alone.  The
    rounding of a sum of L values is at most gamma_d*(sum |Re t| + sum |Im
    t|), gamma_d = d*u/(1 - d*u), d = ``_depth(L)``, u = 2**-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 4); the second
    array holds d*(sum |Re t| + sum |Im t|) a row.  A sum past the float
    range is inf or NaN; the caller ignores numpy's warnings of it.
    """
    pad = np.full(len(lens), lens.max()) if padded else lens
    sums, weights = np.empty((len(lens), 2)), np.empty(len(lens))
    lo, hi = int(pad.min()), int(pad.max())
    for size in [hi] if lo == hi else np.unique(pad).tolist():
        rows = slice(None) if lo == hi else _index(np.flatnonzero(pad == size))
        kept = terms[rows, :size]
        if padded and (lens < size).any():
            np.copyto(kept, 0.0, where=np.arange(size) >= lens[:, None])
        sums[rows, 0], sums[rows, 1] = np.add.reduce(kept.real, 1), np.add.reduce(kept.imag, 1)
        weights[rows] = _depth(size) * (np.add.reduce(np.abs(kept.real), 1) + np.add.reduce(np.abs(kept.imag), 1))
    return sums, weights


def _sum_derivative_series(
    seq: TermSequence,
    zs: list,
    orders: range,
    abs_tol: float,
    rel_tol: float,
    floor: float,
    max_terms: int,
) -> list[list[SumResult] | MeandroError]:
    """Shared engine: one ascending pass summing the Taylor coefficient series of every lane.

    A lane is one point of ``zs`` and one order of ``orders``; a pass of
    orders above 0 sums one point, and only order 0 many.  Returns, for
    each point, one SumResult per order, or the MeandroError that ends the
    point's pass: the one that a call with that point alone returns.  A
    lane's tolerance at a magnitude v is max(abs_tol, rel_tol * max(v,
    floor)).  The sheets are walked in the blocks of a single point (see
    the module docstring), so every point gets the block partition, and the
    sums, of its lone call; within a block the points are handled in groups
    of at most about _GROUP_VALUES values (at least one point).  The stopping rule
    of the module docstring is applied to the open lanes of each group,
    with each point's tails from ``seq.tail_policy``, and each lane keeps
    the block's terms through its stopping sheet.  Lane state is arrays
    (the stops too), and errors, in ``errors`` by point, the only objects;
    plain sums take their stops from ``_CertifiedStop.plan``.

    Pole clearance is checked once per sheet, on every sheet up to the
    furthest one a point's orders need, until the point is cleared: in a
    pass whose last sheet has a float radius (not NaN in
    ``radius.values``), after a block whose last sheet is L,
    ``geometry._tail_clears`` at L (the residual scan's discharge rule, or
    the poles' distance power law up to the last sheet of the pass) proves
    that no disc of a later sheet that the pass can reach holds the point,
    and first_blocked_all then passes it over.  A point whose tail policy
    refuses it ends with that error before any term.  Otherwise a sheet
    without a float radius in a block (the ConfigError or OutOfRegime that
    first_blocked_all gives the point) comes before the block's other
    errors, and those come in sheet order: a removed disc holding it
    (PoleProximity), a term that is not finite (OutOfRegime).  A lane's sum
    past the float range after a block (OutOfRegime) ends it then, and
    running out of sheets ends it with TolUnreachable.

    Each lane's kept terms of a block are added by ``_block_sums``, and the
    block sums are accumulated with Neumaier's compensation, in two (lanes,
    2) arrays that one ``_neumaier_step`` updates a group at a time.  A
    step's new sum s and the error e of s + x are exact (Fast2Sum), and
    adding e into the compensation c rounds by at most u|c| (Higham, ch.
    4.3).  So a lane's rounding is u*W + |r|_1, raised by 2**-30 (for
    gamma_d/(d*u) and the rounding of W, under 2**22 blocks) and rounded up:
    W sums the blocks' ``_block_sums`` weights and |c|_1 after each step, r
    is the error of v = fl(s + c) (TwoSum), and |x|_1 = |Re x| + |Im x|.
    """
    width = len(orders)
    if orders[-1] > 0 and len(zs) > 1:
        raise ValueError("a pass of orders above 0 sums one point")
    tails = [seq.tail_policy(z, orders[-1]) for z in zs]
    # The error that ends a point, first the refusal of its tails.
    errors: dict[int, MeandroError] = {p: t for p, t in enumerate(tails) if isinstance(t, MeandroError)}
    # Points that have ended, with an error or with every lane stopped, and
    # points that no disc after the last block can hold (``_tail_clears``).
    ended, cleared = np.zeros((2, len(zs)), dtype=bool)
    for p in errors:
        ended[p] = True
    points = np.array(zs, dtype=object)  # the points as given, to pick by index
    n_lanes = len(zs) * width
    lane_k = np.tile(np.arange(orders.start, orders.stop), len(zs))
    # Neumaier running sums and compensations, (real, imag) a lane, and W of each lane's rounding.
    (acc_s, acc_c), acc_w = np.zeros((2, n_lanes, 2)), np.zeros(n_lanes)
    # Whether each lane has stopped, and its stopping sheet and tail once it has.
    done, stop_n, stop_tail = np.zeros(n_lanes, dtype=bool), np.zeros(n_lanes, dtype=np.int64), np.zeros(n_lanes)
    last = seq.n_min + max_terms - 1
    if seq.n_max is not None:
        last = min(last, seq.n_max)
    rule = _CertifiedStop(seq, zs, width, last, [None if p in errors else t for p, t in enumerate(tails)])
    # Points are cleared only in a pass whose last sheet has a float radius.
    clearable = not np.isnan(seq.perforation.radius.values(np.array([last]))[0])

    def sum_block(ns: np.ndarray, pts: np.ndarray) -> None:
        """Sum the block of sheets ns for the open lanes of these points, as one lane group."""
        where = _index(pts)
        if width == 1:  # a live point's one lane is open (the general path costs some 12 µs a block more)
            ids, lanes, m = pts, where, orders.start
        else:
            ids = (pts[:, None] * width + np.arange(width)).ravel()
            ids = ids[~done[ids]]
            lanes = _index(ids)
            m = int(lane_k[lanes].max())
        ks = lane_k[lanes]
        with np.errstate(all="ignore"):
            if m == 0:
                block = seq.term_grid(ns, points[where].tolist())
            else:  # one point: a pass of orders above 0 sums one
                block = seq.taylor_coefficients(ns, m, zs[int(pts[0])])
            acc = (acc_s[lanes] + acc_c[lanes]).view(complex)[:, 0]
            if len(ids) < len(block):  # the open orders of one point's rows 0..m
                block = block[_index(ks)]
            g = _Group(ns, block, ids, ks, acc, abs_tol, floor, rel_tol)
            ends, found = rule.scan(g)
        lo, failures = int(ns[0]), len(errors)
        # Each lane's last sheet of the block: its stop, its first non-finite term, or the block's last.
        reach = np.minimum(np.minimum(ends, g.clean), len(ns) - 1)
        # A point's error is its first in (sheet, order); a pole's disc comes before the terms.
        firsts = [
            (int(ids[r]) // width, int(reach[r]), int(ks[r]),
             OutOfRegime(f"order-{ks[r]} derivative term on sheet {lo + reach[r]} is not finite"))
            for r in np.flatnonzero(g.bad & (ends == len(ns))).tolist()
        ] if g.bad.any() else []
        if not cleared[where].all():  # a cleared point clears every disc of the block
            check = np.flatnonzero(~cleared[where])
            point_reach = np.maximum.reduceat(reach, np.searchsorted(ids, pts * width))
            near, limits = points[pts[check]].tolist(), (point_reach[check] + 1).tolist()
            for p, hit in zip(pts[check].tolist(), seq.perforation.first_blocked_all(ns, near, ends=limits)):
                if isinstance(hit, MeandroError):  # a sheet without a float radius: before the block's other errors
                    errors[p] = hit
                elif hit is not None:
                    firsts.append((p, hit[0] - lo, -1, PoleProximity(*hit)))
        for p, *_, err in sorted(firsts, key=lambda first: first[:3]):
            errors.setdefault(p, err)
        rows = slice(None)
        if len(errors) > failures:
            ended[list(errors)] = True
            rows = np.flatnonzero(~ended[ids // width])
            if not len(rows):
                return
            lanes = ids[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            sums, weights = _block_sums(g.terms[rows], reach[rows] + 1, width > 1)
            acc_s[lanes], acc_c[lanes] = s, c = _neumaier_step(acc_s[lanes], acc_c[lanes], sums)
            acc_w[lanes] += weights + np.abs(c).sum(axis=1)
        if not np.isfinite(s).all():  # the lane's sum through the block is past the float range
            for r in np.flatnonzero(~np.isfinite(s).all(axis=1)).tolist():
                k, n = int(ks[rows][r]), lo + int(reach[rows][r])
                err = OutOfRegime(f"the order-{k} sum over sheets {lo} to {n} overflows a float", order=k, sheet=n)
                errors.setdefault(int(ids[rows][r]) // width, err)
            ended[list(errors)] = True
        stopped = ends < len(ns)  # the lanes of a point that has failed stop too, unread
        if stopped.any():
            hit = ids[stopped]
            done[hit], stop_n[hit], stop_tail[hit] = True, lo + reach[stopped], found[stopped]
            ended[where] |= done.reshape(-1, width)[where].all(axis=1)

    live = np.flatnonzero(~ended)
    unclear = live.tolist() if clearable else []  # live points not yet cleared
    furthest = None  # each point's furthest stop, known before the terms
    if rel_tol == 0.0:
        rule.plan(live, orders, abs_tol)
        furthest = rule.stop_at.reshape(-1, width).max(axis=1)  # a done lane's stop is in an earlier block
    for lo, hi in doubling_blocks(seq.n_min, last + 1, orders[-1] + 1):
        if not len(live):
            break
        if furthest is not None:  # no sheet past the furthest stop is summed
            hi = min(hi, 1 + int(furthest[live].max()))
        ns = np.arange(lo, hi)
        size = max(1, _GROUP_VALUES // (len(ns) * (orders[-1] + 1)))
        for start in range(0, len(live), size):
            sum_block(ns, live[start : start + size])
        live = live[~ended[live]]
        for p in unclear:
            if not ended[p]:
                cleared[p] = _tail_clears(seq.perforation, zs[p], hi - 1, 0.0, last)
        unclear = [p for p in unclear if not (ended[p] or cleared[p])]
    for p in live.tolist():  # out of sheets
        errors[p] = TolUnreachable(f"tolerance not certified within {max_terms} sheets")
    with np.errstate(over="ignore", invalid="ignore"):
        values = acc_s + acc_c
        bv = values - acc_s
        rest = np.abs((acc_s - (values - bv)) + (acc_c - bv)).sum(axis=1)
        roundings = (acc_w * 2.0**-53 + rest) * (1.0 + 2.0**-30)
        roundings = np.where(roundings > 0.0, np.nextafter(roundings, math.inf), 0.0)
    lanes = zip(values.tolist(), stop_n.tolist(), stop_tail.tolist(), roundings.tolist())
    results = [SumResult(complex(*value), n, tail, rounding) for value, n, tail, rounding in lanes]
    return [errors[p] if p in errors else results[p * width : (p + 1) * width] for p in range(len(zs))]


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
    sum of its lone call.  Under a decay certificate over a Diophantine
    radius the stopping sheet is the first n from n_min on with
    ``decay_cert.tail(n) <= tol``, where the tail sums the norm bounds
    themselves, C*j**q*sigma**j over the sheets j > n (with an allowance
    where sigma**j is subnormal); it is the same at every point, found
    before any term is computed, and no sheet past it is summed or checked.
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
    z sits inside a removed disc of a sheet that is visited, the error of
    the family's tail policy where it refuses z, and TolUnreachable when the
    tail bound does not drop below tol within max_terms sheets.
    """
    return coefficient_sum(seq, z, 0, tol, max_terms)


def coefficient_sum(
    seq: TermSequence,
    z0: complex,
    k: int,
    tol: float = 1e-10,
    max_terms: int = 200_000,
) -> SumResult:
    """Sum the k-th Taylor coefficient series at z0 with a Cauchy-estimate tail bound (see ``taylor_jet``)."""
    if k < 0:
        raise ValueError("coefficient order must be non-negative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    outcome = _sum_derivative_series(seq, [z0], range(k, k + 1), tol, 0.0, 0.0, max_terms)[0]
    if isinstance(outcome, MeandroError):
        raise outcome
    return outcome[0]


def taylor_jet(
    seq: TermSequence,
    z0: complex,
    m: int,
    rel_tol: float = 1e-11,
    max_terms: int = 200_000,
) -> TaylorJet:
    """Jet a_0..a_m of the sum at z0: a_k sums the terms' Taylor coefficients of order k.

    All m+1 coefficient series are summed in one pass over the sheets, each
    with the tails of the family's tail policy at z0 (see the module
    docstring), so a series stops where the poles near z0 allow; order k
    stops within max(1e-300, rel_tol * max(|a_k|, 1)).  A sequence without
    tails known before its terms raises DiophantineRequired before any term.
    Orders above 170 raise OutOfRegime.
    """
    if m < 0:
        raise ValueError("jet order must be non-negative")
    if m > _MAX_JET_ORDER:
        raise OutOfRegime(f"jet order {m} exceeds {_MAX_JET_ORDER}, the highest that jets accept")
    inner = _sum_derivative_series(seq, [z0], range(m + 1), _JET_ABS_TOL, rel_tol, 1.0, max_terms)[0]
    if isinstance(inner, MeandroError):
        raise inner
    coeffs = np.array([res.value for res in inner], dtype=complex)
    tails = np.array([res.tail_bound for res in inner], dtype=float)
    rounding = np.array([res.rounding for res in inner], dtype=float)
    return TaylorJet(z0, coeffs, tails, rounding, m, certified=_certifiable(seq))
