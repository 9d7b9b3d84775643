"""Geometry of the stacked plane: sheets, perforations, radius functions.

The stacked plane is the disjoint union of countably many copies ("sheets")
of the complex plane, indexed by a non-negative integer.  A perforation
removes an open disc around every pole of a sheet; the radius of the disc is
given by a radius function which is constant on each sheet.  The residual
set is the set of points of the base plane that survive the projection of
every removed disc.

All distances are Euclidean in the affine chart; the point at infinity is
never a pole.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import ConfigError, MarginViolated, MeandroError, NotContained, OutOfRegime

#: Sheets in the first block of a block scan; each next block is twice as long.
_FIRST_BLOCK = 64
#: Most values (sheets times values per sheet) one block of a block scan may hold.
_BLOCK_VALUES = 65_536
#: Most values the numpy bookkeeping of a block handles at once when it
#: serves many points: a block is split into groups of points this small.
_GROUP_VALUES = 4096
#: Absolute slack of the numpy shortlist, per unit of |z| + |z - p|: numpy and
#: the scalar code may round a pole or a distance differently by a few ulps.
_ABS_SLACK = 8 * np.finfo(float).eps
#: Distance within which ``sheets_containing`` takes a point for a pole.
_POLE_MATCH_TOL = 1e-9
#: ``shrink_check``: samples on each inflated pole circle and on the
#: boundary of U, and the rounding slack of the clearance test.
_SHRINK_SAMPLES = 512
_SHRINK_SLACK = 1e-9


def _modulus(z: complex) -> float:
    """abs(z), or inf where |z| is past the float range (abs raises OverflowError there)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class StackPoint:
    """A point of the stacked plane: a sheet index and a finite coordinate."""

    sheet: int
    coord: complex

    def __post_init__(self):
        if self.sheet < 0:
            raise ValueError("sheet index must be non-negative")
        if not cmath.isfinite(self.coord):
            raise ValueError("coordinate must be finite (infinity is never a pole)")


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Disc:
    center: complex
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("disc radius must be positive")

    def distance_to_complement(self, z):
        """Distance from z to the complement; negative if z is outside.

        Accepts scalars or numpy arrays.
        """
        return self.radius - np.abs(z - self.center)

    def boundary_points(self, m: int) -> np.ndarray:
        theta = math.tau * np.arange(m) / m
        return self.center + self.radius * np.exp(1j * theta)


# ---------------------------------------------------------------------------
# Huygens distance
# ---------------------------------------------------------------------------


def huygens_distance(U: Disc, V: Disc) -> float:
    """Largest rho such that every disc D(z, rho) with z in U stays inside V.

    That is V.radius - |U.center - V.center| - U.radius; raises NotContained
    if U leaves V.
    """
    delta = V.radius - abs(U.center - V.center) - U.radius
    if delta < 0:
        raise NotContained(U.center + U.radius, "inner disc leaves outer disc")
    return delta


# ---------------------------------------------------------------------------
# Radius functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiophantineRadius:
    """Per-sheet radius c/(n + shift)**alpha with a lambda margin.

    The polynomial decay is what makes coefficient sums of the perforation
    converge; alpha >= 1 and r <= 1 are required by the shrinking and Taylor
    estimates downstream.  ``shift`` accommodates families whose sheets are
    indexed from 0.  Where (n + shift)**alpha overflows a float, the radius
    is below the float range: ``values`` gives NaN there, as ``TableRadius``
    does on an untabulated sheet, and ``value`` and ``tail_sup`` raise
    OutOfRegime naming the first such sheet.
    """

    c: float
    alpha: float
    lam: float = 1.5
    shift: int = 0

    def __post_init__(self):
        if not (0 < self.c <= 1):
            raise ValueError("need 0 < c <= 1 so that every sheet radius is <= 1")
        if self.alpha < 1:
            raise ValueError("Diophantine exponent must be >= 1")
        if self.lam <= 1:
            raise ValueError("lambda margin must exceed 1")
        if self.shift < 0:
            raise ValueError("shift must be non-negative")
        # A float exponent: numpy's integer powers of the sheets would wrap.
        object.__setattr__(self, "alpha", float(self.alpha))

    def value(self, n: int) -> float:
        if n + self.shift < 1:
            raise ValueError("Diophantine radii are defined for sheets n + shift >= 1")
        return self.c / self._power(n)

    def values(self, ns: np.ndarray) -> np.ndarray:
        """Radii on the sheets ns (a sorted integer array); NaN where the radius is below the float range."""
        if len(ns) and ns[0] + self.shift < 1:
            raise ValueError("Diophantine radii are defined for sheets n + shift >= 1")
        with np.errstate(over="ignore"):
            powers = (ns + self.shift) ** self.alpha
        radii = self.c / powers
        if len(ns) and not np.isfinite(powers[-1]):
            radii[~np.isfinite(powers)] = math.nan
        return radii

    def tail_sup(self, cutoff: int) -> float:
        """Upper bound for the radius on every sheet beyond the cutoff.

        It is r_cutoff itself: r_n <= tail_sup(cutoff) for every n > cutoff,
        and tail_sup is non-increasing in the cutoff.
        """
        return self.value(cutoff)

    def _power(self, n: int) -> float:
        try:
            return (n + self.shift) ** self.alpha
        except OverflowError:
            raise self._underflow(n) from None

    def _underflow(self, n: int) -> OutOfRegime:
        """The OutOfRegime of the first sheet whose radius is below the float range, given such a sheet n.

        The first is searched by bisection, so every caller names the same
        sheet, whichever sheet it reached first.
        """
        lo = 1 - self.shift  # (lo + shift)**alpha = 1
        while n - lo > 1:
            mid = (lo + n) // 2
            try:
                (mid + self.shift) ** self.alpha
                lo = mid
            except OverflowError:
                n = mid
        return OutOfRegime(
            f"the radius c/(n + shift)**alpha is below the float range on sheet {n} (alpha = {self.alpha:g})",
            sheet=n, alpha=self.alpha,
        )


@dataclass(frozen=True)
class TableRadius:
    """Explicit per-sheet radii.  Cannot discharge tail sheets."""

    table: Mapping[int, float]
    lam: float = 1.5

    def __post_init__(self):
        if self.lam <= 1:
            raise ValueError("lambda margin must exceed 1")
        for n, r in self.table.items():
            if not (0 < r <= 1):
                raise ValueError(f"radius on sheet {n} must lie in (0, 1]")

    def value(self, n: int) -> float:
        try:
            return self.table[n]
        except KeyError as exc:
            raise ConfigError(f"no radius tabulated for sheet {n}") from exc

    def values(self, ns: np.ndarray) -> np.ndarray:
        """Radii on the sheets ns; NaN where no radius is tabulated."""
        return np.array([self.table.get(int(n), math.nan) for n in ns], dtype=float)

    def tail_sup(self, cutoff: int) -> None:
        return None


RadiusFunction = Union[DiophantineRadius, TableRadius]


# ---------------------------------------------------------------------------
# Pole families
# ---------------------------------------------------------------------------


class PoleFamilyBase:
    """Shared behaviour of the pole families.

    A parametric family is fixed by its type, so two instances of one type are
    equal; families holding data override ``__eq__`` and ``__hash__``.  A
    family with few poles a sheet gives a NaN-padded ``poles_table``, from
    which ``nearest_pole_all`` works in numpy.  Two optional contracts bound
    the distance from a point to the poles: ``tail_distance_bound`` for all
    sheets after a cutoff at once (the membership discharge and the jet
    tails off the accumulation set), and ``distance_power_law`` sheet by
    sheet (the jet tails at an accumulation point).
    """

    #: True when each pole lies on finitely many sheets: a fiber sum can end.
    finite_fibers: bool = False

    def poles_table(self, ns: np.ndarray) -> np.ndarray | None:
        """The poles of each sheet of ns as rows of one array, or None.

        Row i lists the poles of sheet ns[i] in the order of
        ``poles_on_sheet``, padded with NaN to the longest row.  Families
        with a few poles a sheet provide it; the default is None.
        """
        return None

    def tail_distance_bound(self, z: complex, cutoff: int) -> float | None:
        """A lower bound on the distance from z to every pole on a sheet beyond the cutoff.

        The bound is for the exact poles; the float poles of
        ``poles_on_sheet`` may lie a few ulps closer.  It is non-decreasing
        in the cutoff: once a cutoff gets a bound, every larger cutoff gets
        one at least as large.  inf means there is no pole beyond the
        cutoff, or none within the float range of z; None (the default)
        means no bound is known.
        """
        return None

    def distance_power_law(self, z: complex) -> tuple[float, float] | None:
        """(a, beta) with |z - p| >= a * n**-beta for every pole p on every sheet n >= 1.

        Both are positive.  The law serves where z is an accumulation point
        of the poles, where ``tail_distance_bound`` tends to 0.  As there,
        the bound is for the exact poles, and None (the default) means no
        law is known.  The jet tails use it with the sequence's norm bound
        at distance r_n from the poles (see ``tails._CertifiedTails``).
        """
        return None

    def nearest_pole(self, n: int, z: complex) -> tuple[complex, float]:
        """The first nearest pole of sheet n to z and its distance; (0j, inf) on a sheet without poles."""
        poles = self.poles_on_sheet(n)
        if len(poles) == 0:
            return 0j, math.inf
        with np.errstate(over="ignore"):  # a distance past the float range is inf
            d = np.abs(z - poles)
        i = int(np.argmin(d))
        return complex(poles[i]), float(d[i])

    def nearest_pole_all(self, ns: np.ndarray, z) -> tuple[np.ndarray, np.ndarray]:
        """Nearest pole and its distance to z on each sheet of ns.

        z is a point, or a column of points (shape (P, 1)) for a row of
        results per point.  With a ``poles_table`` the table is swept column
        by column, and a pole replaces the one kept only when strictly
        nearer, so each row keeps its first nearest pole, as the scalar
        ``nearest_pole`` does; a sheet without poles gets the pole 0 at
        distance inf.  Without a table the scalar ``nearest_pole`` runs
        sheet by sheet, unless the family overrides this with a closed form.
        """
        table = self.poles_table(ns)
        if table is None:
            shape = np.broadcast_shapes(np.shape(z), ns.shape)
            pairs = [self.nearest_pole(n, p) for p in np.ravel(z).tolist() for n in ns.tolist()]
            return (
                np.array([p for p, _ in pairs], dtype=complex).reshape(shape),
                np.array([d for _, d in pairs], dtype=float).reshape(shape),
            )
        poles = table[:, 0]
        with np.errstate(over="ignore"):  # a distance past the float range is inf
            dist = np.abs(z - poles)
            for j in range(1, table.shape[1]):
                column = table[:, j]
                d = np.abs(z - column)
                nearer = d < dist  # False on a NaN pad
                poles = np.where(nearer, column, poles)
                dist = np.where(nearer, d, dist)
        empty = np.isnan(dist)  # pads start a row only when it has no poles
        if np.count_nonzero(empty):
            poles, dist = np.where(empty, 0j, poles), np.where(empty, math.inf, dist)
        return poles, dist

    def __eq__(self, other) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


def nearest_root_of_unity(n: int, z: complex) -> tuple[int, complex]:
    """Index and value of the n-th root of unity closest to z.

    Angle rounding: k = round(n*arg(z)/2pi) with ties going to even k.  For
    z != 0 the angular nearest root is also the Euclidean nearest.
    """
    k = int(np.rint(n * np.angle(z) / math.tau)) % n
    return k, cmath.exp(2j * math.pi * k / n)


class RootsOfUnity(PoleFamilyBase):
    """Sheet n carries the n-th roots of unity, n >= 1."""

    n_min = 1
    parametric = True

    def poles_on_sheet(self, n: int) -> np.ndarray:
        return np.exp(2j * math.pi * np.arange(n) / n)

    def nearest_pole(self, n: int, z: complex) -> tuple[complex, float]:
        _, pole = nearest_root_of_unity(n, z)
        return pole, abs(z - pole)

    def nearest_pole_all(self, ns: np.ndarray, z) -> tuple[np.ndarray, np.ndarray]:
        # The angle rounding of nearest_root_of_unity, on every sheet (and point) at once.
        k = np.rint(ns * np.angle(z) / math.tau).astype(np.int64) % ns
        poles = np.exp(2j * math.pi * k / ns)
        return poles, np.abs(z - poles)

    def tail_distance_bound(self, z: complex, cutoff: int) -> float:
        # Every pole beyond the cutoff still lies on the unit circle.
        return abs(_modulus(z) - 1.0)

    def sheets_containing(self, pole: complex, limit: int) -> Iterator[int]:
        if abs(abs(pole) - 1.0) > _POLE_MATCH_TOL:
            return
        order = None
        for n in range(1, limit + 1):
            if abs(pole**n - 1.0) <= _POLE_MATCH_TOL * n:
                order = n
                break
        if order is None:
            return
        n = order
        while n <= limit:
            yield n
            n += order


class MeanderPoles(PoleFamilyBase):
    """Sheet n carries the single pole -1/n, n >= 1."""

    n_min = 1
    parametric = True
    finite_fibers = True

    def poles_on_sheet(self, n: int) -> np.ndarray:
        return np.array([-1.0 / n], dtype=complex)

    def nearest_pole(self, n: int, z: complex) -> tuple[complex, float]:
        pole = -1.0 / n
        return pole, abs(z - pole)

    def poles_table(self, ns: np.ndarray) -> np.ndarray:
        return (-1.0 / ns + 0j)[:, None]

    def tail_distance_bound(self, z: complex, cutoff: int) -> float:
        # Poles beyond the cutoff lie inside the real segment [-1/(cutoff+1), 0].
        a = -1.0 / (cutoff + 1)
        x = min(max(z.real, a), 0.0)
        return _modulus(z - x)

    def distance_power_law(self, z: complex) -> tuple[float, float] | None:
        # |z + 1/n| >= Re z + 1/n >= 1/n when Re z >= 0.
        return (1.0, 1.0) if z.real >= 0.0 else None

    def sheets_containing(self, pole: complex, limit: int) -> Iterator[int]:
        if pole.real >= 0 or abs(pole.imag) > _POLE_MATCH_TOL:
            return
        n = int(round(-1.0 / pole.real))
        if 1 <= n <= limit and abs(pole - (-1.0 / n)) <= _POLE_MATCH_TOL:
            yield n


class ReciprocalPoles(PoleFamilyBase):
    """Sheet k carries the poles 1/j for j = 1..k+1, k >= 0.

    This is the pole pattern of the zero-expansion terms z^k / prod(1 - j z).
    """

    n_min = 0
    parametric = True

    def poles_on_sheet(self, n: int) -> np.ndarray:
        return 1.0 / np.arange(1, n + 2, dtype=float) + 0j

    def tail_distance_bound(self, z: complex, cutoff: int) -> float:
        x = min(max(z.real, 0.0), 1.0)
        return _modulus(z - x)

    def sheets_containing(self, pole: complex, limit: int) -> Iterator[int]:
        if pole.real <= 0 or abs(pole.imag) > _POLE_MATCH_TOL:
            return
        j = int(round(1.0 / pole.real))
        if j < 1 or abs(pole - 1.0 / j) > _POLE_MATCH_TOL:
            return
        for n in range(max(j - 1, self.n_min), limit + 1):
            yield n


class ExplicitPoles(PoleFamilyBase):
    """Finite pole lists given per sheet."""

    parametric = False
    finite_fibers = True

    def __init__(self, table: Mapping[int, Sequence[complex]]):
        if not table:
            raise ValueError("explicit pole table must not be empty")
        self._table = {int(n): np.asarray(ps, dtype=complex) for n, ps in table.items()}
        for n, ps in self._table.items():
            if n < 0:
                raise ValueError("sheet indices must be non-negative")
            if len(set(ps.tolist())) != len(ps):
                raise ValueError(f"poles on sheet {n} must be distinct")
        self.n_min = min(self._table)
        # The padded table: one row per listed sheet, ascending, and an
        # all-NaN last row for the sheets that are not listed.
        self._sheets = np.array(sorted(self._table), dtype=np.int64)
        width = max(1, *(len(ps) for ps in self._table.values()))
        self._padded = np.full((len(self._sheets) + 1, width), np.nan, dtype=complex)
        for i, n in enumerate(self._sheets.tolist()):
            ps = self._table[n]
            self._padded[i, : len(ps)] = ps

    def __eq__(self, other) -> bool:
        return (
            type(other) is ExplicitPoles
            and self._table.keys() == other._table.keys()
            and all(np.array_equal(ps, other._table[n]) for n, ps in self._table.items())
        )

    def __hash__(self) -> int:
        return hash(tuple((n, tuple(ps.tolist())) for n, ps in sorted(self._table.items())))

    def sheets(self) -> list[int]:
        return sorted(self._table)

    def poles_on_sheet(self, n: int) -> np.ndarray:
        return self._table.get(n, np.empty(0, dtype=complex))

    def poles_table(self, ns: np.ndarray) -> np.ndarray:
        i = np.minimum(np.searchsorted(self._sheets, ns), len(self._sheets) - 1)
        listed = self._sheets[i] == ns
        return self._padded[np.where(listed, i, len(self._sheets))]

    def tail_distance_bound(self, z: complex, cutoff: int) -> float | None:
        if cutoff >= max(self._table):
            return math.inf  # no poles beyond the cutoff at all
        return None

    def sheets_containing(self, pole: complex, limit: int) -> Iterator[int]:
        for n in sorted(self._table):
            if n > limit:
                break
            if np.any(np.abs(self._table[n] - pole) <= _POLE_MATCH_TOL):
                yield n


PoleFamily = Union[RootsOfUnity, MeanderPoles, ReciprocalPoles, ExplicitPoles]


# ---------------------------------------------------------------------------
# Perforation
# ---------------------------------------------------------------------------


class CauchyState(Enum):
    UNKNOWN = "unknown"
    VERIFIED = "verified"
    REFUTED = "refuted"


@dataclass(frozen=True)
class CauchyFlag:
    state: CauchyState = CauchyState.UNKNOWN
    cutoff: int = 0
    witness: tuple[StackPoint, StackPoint] | None = None


@dataclass(frozen=True)
class Perforation:
    """A pole family together with its radius function."""

    poles: PoleFamily
    radius: RadiusFunction

    @property
    def lam(self) -> float:
        return self.radius.lam

    @property
    def n_min(self) -> int:
        return self.poles.n_min

    def radius_at(self, n: int) -> float:
        return self.radius.value(n)

    def poles_on_sheet(self, n: int) -> np.ndarray:
        return self.poles.poles_on_sheet(n)

    def nearest_pole(self, n: int, z: complex) -> tuple[complex, float]:
        return self.poles.nearest_pole(n, z)

    def first_blocked_all(
        self, ns: np.ndarray, zs: list, margin: float = 0.0, ends: list[int] | None = None
    ) -> list[tuple[int, complex] | MeandroError | None]:
        """For each point of zs, the first sheet whose disc of radius r_n*(1 + margin) holds it.

        Point i looks at the sheets ns[:ends[i]] (all of ns by default) and
        gets that sheet with its pole, or None if it clears every disc.
        ``nearest_pole_all`` shortlists the (point, sheet) pairs of all the
        points at once, with a small slack; the scalar ``nearest_pole`` and
        ``radius_at`` decide each shortlisted pair in sheet order, so the
        verdict and the witness are those of the sheet-by-sheet test.  Near
        the end of the float range the slack may be infinite, which only
        shortlists.  A sheet with poles whose radius ``values`` gives as NaN
        (untabulated, or below the float range) is shortlisted too; the
        point gets the MeandroError of ``radius_at`` there (ConfigError or
        OutOfRegime) if no earlier sheet holds it.  No point's outcome
        raises.
        """
        scale = 1.0 + margin
        if ends is not None:
            ns = ns[: max(ends)]
        column = np.array(zs, dtype=complex).reshape(-1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            _, dist = self.poles.nearest_pole_all(ns, column)
            live = np.isfinite(dist)  # a sheet without poles needs no radius
            if ends is not None and min(ends) < len(ns):
                live &= np.arange(len(ns)) < np.array(ends).reshape(-1, 1)
            everywhere = live.all()
            if not everywhere:
                cols = np.flatnonzero(live.any(axis=0))
                ns, dist, live = ns[cols], dist[:, cols], live[:, cols]
            bound = self.radius.values(ns) * scale * (1.0 + 1e-9)
            near = ~(dist >= bound + _ABS_SLACK * (1.0 + np.abs(column) + dist))
            if not everywhere:
                near &= live
        out: list[tuple[int, complex] | MeandroError | None] = [None] * len(zs)
        rows, cols = np.nonzero(near)  # by point, then by sheet
        for i, n in zip(rows.tolist(), ns[cols].tolist()):
            if out[i] is None:
                pole, d = self.nearest_pole(n, zs[i])
                try:
                    if d < self.radius_at(n) * scale:
                        out[i] = n, pole
                except MeandroError as exc:
                    out[i] = exc
        return out


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShrinkReport:
    sheet: int
    clearance: float
    required: float

    @property
    def margin(self) -> float:
        return self.clearance - self.required


def shrink_check(perf: Perforation, U: Disc, V: Disc, sheet: int) -> ShrinkReport:
    """Verify the shrinking estimate on one sheet.

    With r the sheet radius, lambda the margin and eps = lambda - 1, the
    perforation of U by the inflated radius lambda*r must keep Huygens
    distance at least eps*r from the perforation of V by r.  The boundary of
    the inflated perforation (outer boundary of U plus the inflated pole
    circles clipped to U) is sampled and the minimum clearance to the
    complement of V(r) is measured.  Sampling a subset can only overestimate
    the true infimum, so ``_SHRINK_SLACK`` absorbs rounding alone.

    Raises MarginViolated with the worst sample if the clearance falls short,
    which signals either a non-lambda radius function or a geometry bug.
    """
    lam = perf.lam
    eps = lam - 1.0
    r_n = perf.radius_at(sheet)
    if r_n > 1.0:
        raise ValueError("shrinking estimate requires sheet radius <= 1")
    if huygens_distance(U, V) < eps - 1e-12:
        raise ValueError("need Huygens distance of the unperforated pair >= lambda - 1")

    poles = perf.poles_on_sheet(sheet)
    outer = U.boundary_points(_SHRINK_SAMPLES)
    if len(poles):
        # Outer-boundary points swallowed by an inflated disc are not part of
        # the perforated set.  Circle samples are NOT cross-filtered against
        # the other poles: with a valid lambda-radius function the inflated
        # discs are disjoint and the filter would be a no-op, while with an
        # invalid one the overlap must surface as a violation below.
        d_outer = np.abs(outer[:, None] - poles[None, :]).min(axis=1)
        pts = [outer[d_outer >= lam * r_n - 1e-12]]
        ring = np.exp(1j * math.tau * np.arange(_SHRINK_SAMPLES) / _SHRINK_SAMPLES)
        circles = (poles[:, None] + lam * r_n * ring[None, :]).ravel()
        inside = U.distance_to_complement(circles) >= 0.0
        if inside.any():
            pts.append(circles[inside])
        boundary = np.concatenate(pts)
        dist_to_poles = np.abs(boundary[:, None] - poles[None, :]).min(axis=1)
    else:
        boundary = outer
        dist_to_poles = np.full(len(boundary), np.inf)

    clear_V = V.distance_to_complement(boundary)
    clearance = np.minimum(clear_V, dist_to_poles - r_n)
    worst = int(np.argmin(clearance))
    required = eps * r_n
    measured = float(clearance[worst])
    if measured < required - _SHRINK_SLACK:
        raise MarginViolated(complex(boundary[worst]), measured, required)
    return ShrinkReport(sheet=sheet, clearance=measured, required=required)


class MembershipState(Enum):
    IN = "in"
    OUT = "out"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Membership:
    state: MembershipState
    sheet: int | None = None
    pole: complex | None = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.state is MembershipState.IN


def doubling_blocks(start: int, stop: int, per_sheet: int = 1) -> Iterator[tuple[int, int]]:
    """Half-open ranges that tile [start, stop), each twice as long as the last.

    The first is 64 sheets long.  A block holds at most 65 536 values at
    ``per_sheet`` values a sheet, so the memory of a block scan stays
    bounded at any length.
    """
    cap = max(_BLOCK_VALUES // per_sheet, 1)
    size = min(_FIRST_BLOCK, cap)
    while start < stop:
        end = min(start + size, stop)
        yield start, end
        start, size = end, min(2 * size, cap)


def _sheet_blocks(family: PoleFamily, cutoff: int) -> Iterator[np.ndarray]:
    """The family's sheets up to the cutoff, ascending, in lazily built blocks."""
    if family.parametric:
        for lo, hi in doubling_blocks(family.n_min, cutoff + 1):
            yield np.arange(lo, hi)
    else:
        listed = np.array([n for n in family.sheets() if n <= cutoff], dtype=np.int64)
        for lo, hi in doubling_blocks(0, len(listed)):
            yield listed[lo:hi]


def residual_membership(
    perf: Perforation, z: complex, cutoff: int = 10_000, margin: float = 0.0
) -> Membership:
    """``residual_memberships`` at the one point z; raises its MeandroError."""
    verdict = residual_memberships(perf, [z], cutoff, margin)[0]
    if isinstance(verdict, MeandroError):
        raise verdict
    return verdict


def residual_memberships(
    perf: Perforation, zs: Sequence[complex], cutoff: int = 10_000, margin: float = 0.0
) -> list[Membership | MeandroError]:
    """Decide whether each point of zs survives every removed disc, up to a sheet cutoff.

    Membership requires |z - p| >= r_n*(1 + margin) for every pole p of every
    sheet n.  Sheets up to the cutoff are scanned in blocks of 64, 128, ...
    sheets, at most 65 536 at a time, for all the points still in doubt at
    once (in groups of at most about 4 096 point-sheet pairs): the family's
    numpy ``nearest_pole_all`` shortlists the sheets of a block whose disc
    may hold a point, and the scalar ``nearest_pole`` and ``radius_at``
    decide each shortlisted sheet in order (``Perforation.first_blocked_all``).
    A point's first sheet that holds it is its witness, as in a
    sheet-by-sheet scan, and the point then leaves the scan.  Entry i is the
    verdict at zs[i], or the MeandroError of the first sheet without a float
    radius that the scan of zs[i] reaches (ConfigError where none is
    tabulated, OutOfRegime where it is below the float range).

    One test, ``_tail_clears``, discharges the sheets after a sheet L: z is
    In if d = ``tail_distance_bound(z, L)`` is inf or d >= tail_sup(L)*
    (1 + margin)*(1 + 1e-9) + 8*eps*(1 + |z| + d).  d bounds the distance
    to every pole after L and tail_sup(L) >= r_n there, so no later disc
    holds z.  It gives the verdict at the cutoff (Unknown where it fails,
    as always with an explicit radius table), and it ends a scan early:
    after a block whose last sheet L is below the cutoff, a point still in
    doubt that passes it is In, and the full scan would agree, as both
    bounds are monotone in the cutoff.  The slacks cover float poles an ulp
    or so off the exact ones (roots of unity lie about 1e-16 off the circle,
    more than r_L - r_(L+1) near L = 1e5).
    """
    if margin < 0:
        raise ValueError("margin must be non-negative")
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    if not all(cmath.isfinite(z) for z in zs):
        raise ValueError("z must be finite")

    family = perf.poles
    out: list[Membership | MeandroError | None] = [None] * len(zs)
    live = list(range(len(zs)))
    for ns in _sheet_blocks(family, cutoff):
        if not live:
            break
        size = max(1, _GROUP_VALUES // len(ns))
        for start in range(0, len(live), size):
            group = live[start : start + size]
            for i, hit in zip(group, perf.first_blocked_all(ns, [zs[i] for i in group], margin)):
                if isinstance(hit, MeandroError):
                    out[i] = hit
                elif hit is not None:
                    out[i] = Membership(MembershipState.OUT, sheet=hit[0], pole=hit[1])
        last = int(ns[-1])
        if last < cutoff:
            for i in live:
                if out[i] is None and _tail_clears(perf, zs[i], last, margin):
                    out[i] = Membership(MembershipState.IN)
        live = [i for i in live if out[i] is None]
    for i in live:
        out[i] = _tail_membership(perf, zs[i], cutoff, margin)
    return out


def _tail_clears(perf: Perforation, z: complex, sheet: int, margin: float, last: int | None = None) -> bool:
    """True when no disc after ``sheet`` (up to ``last``, if given) can hold z; see ``residual_memberships``.

    Given ``last``, the law |z - p| >= a*n**-beta (``distance_power_law``)
    may clear those sheets instead, as at an accumulation point: r_n <=
    c*n**-alpha for any shift, so sheet n passes the test with d = a*n**-beta
    if f(n) = a*n**-beta*(1 - 1e-9)*(1 - eps) - c*n**-alpha*(1 + margin)*
    (1 + 1e-9) - eps*(1 + |z|) >= 0, with eps the slack.  f rises and then
    falls when beta <= alpha, so sheets sheet + 1 and last cover those
    between; a radius below the float range at last gives False.
    """
    d = perf.poles.tail_distance_bound(z, sheet)
    if d == math.inf:
        return True  # no pole after the sheet, so no disc
    r = None if d is None else perf.radius.tail_sup(sheet)
    if r is not None and d >= r * (1.0 + margin) * (1.0 + 1e-9) + _ABS_SLACK * (1.0 + abs(z) + d):
        return True
    law, radius = None if last is None else perf.poles.distance_power_law(z), perf.radius
    if law is None or not isinstance(radius, DiophantineRadius) or law[1] > radius.alpha:
        return False
    a, c = law[0] * (1.0 - 1e-9) * (1.0 - _ABS_SLACK), radius.c * (1.0 + margin) * (1.0 + 1e-9)
    try:
        return all(a / n ** law[1] - c / n**radius.alpha >= _ABS_SLACK * (1 + abs(z)) for n in (sheet + 1, last))
    except OverflowError:
        return False


def _tail_membership(perf: Perforation, z: complex, cutoff: int, margin: float) -> Membership:
    """The verdict at z once no sheet up to the cutoff holds it: In where ``_tail_clears`` clears the rest."""
    if _tail_clears(perf, z, cutoff, margin):
        return Membership(MembershipState.IN)
    if perf.poles.tail_distance_bound(z, cutoff) is None:
        return Membership(MembershipState.UNKNOWN, note="unscanned sheets beyond cutoff")
    if perf.radius.tail_sup(cutoff) is None:
        return Membership(
            MembershipState.UNKNOWN, note="explicit radius table cannot bound tail sheets"
        )
    return Membership(MembershipState.UNKNOWN, note="tail bound too weak at this cutoff")


def _refutation_witness_roots(n: int, m: int) -> tuple[complex, complex]:
    """Closest pair of distinct roots of unity between sheets n and m."""
    best = (math.inf, 1 + 0j, 1 + 0j)
    for j in range(n):
        a = cmath.exp(2j * math.pi * j / n)
        _, b = nearest_root_of_unity(m, a)
        d = abs(a - b)
        if d < 1e-12:  # same projection; probe the next root over instead
            k = (round(m * j / n) + 1) % m
            b = cmath.exp(2j * math.pi * k / m)
            d = abs(a - b)
        if d < best[0]:
            best = (d, a, b)
    return best[1], best[2]


def cauchy_radius_check(perf: Perforation, cutoff: int) -> CauchyFlag:
    """Check disjointness of projected inflated discs around distinct poles.

    All pole pairs with distinct projections on sheets up to the cutoff must
    satisfy |p - q| >= lambda*(r_n + r_m).  Roots-of-unity families use the
    closed-form minimal chord 2*sin(pi*gcd(n,m)/(n*m)) between sheets, which
    the tests cross-check against a brute-force pairwise scan.

    Other families sweep the poles in order of their real parts, as in
    Shamos and Hoey's closest pair.  The entries are the poles up to the
    cutoff in sheet order (rows of ``poles_table``, equal to
    ``poles_on_sheet``), the radii come from ``radius.values``, and the
    first sheet whose radius is NaN there (untabulated, or below the float
    range) raises the error of its ``radius_at``.  Entry i can violate the
    condition only with a later entry j with |Re p_j - Re p_i| <=
    lambda*(r_i + max_(k>i) r_k)*slack; ``searchsorted`` finds those, in a
    window widened by 1e-12 relative.  The candidate pairs are tested in
    numpy with a small slack, at most
    65 536 at a time, so memory stays bounded even when many poles share a
    real part.  The scalar test decides the survivors in pair-scan order,
    by (i, j), so the first violating pair found is the witness.
    """
    lam = perf.lam
    family = perf.poles

    if isinstance(family, RootsOfUnity):
        for n in range(1, cutoff + 1):
            r_n = perf.radius_at(n)
            if n >= 2 and 2.0 * math.sin(math.pi / n) < 2.0 * lam * r_n:
                a, b = _refutation_witness_roots(n, n)
                return CauchyFlag(CauchyState.REFUTED, cutoff, (StackPoint(n, a), StackPoint(n, b)))
            for m in range(1, n):
                gap = 2.0 * math.sin(math.pi * math.gcd(n, m) / (n * m))
                if gap < lam * (r_n + perf.radius_at(m)):
                    a, b = _refutation_witness_roots(m, n)
                    return CauchyFlag(
                        CauchyState.REFUTED, cutoff, (StackPoint(m, a), StackPoint(n, b))
                    )
        return CauchyFlag(CauchyState.VERIFIED, cutoff)

    if family.parametric:
        sheets = np.arange(family.n_min, cutoff + 1)
    else:
        sheets = np.array([n for n in family.sheets() if n <= cutoff], dtype=np.int64)
    radii = perf.radius.values(sheets)
    for n in sheets[np.isnan(radii)][:1].tolist():
        perf.radius_at(n)  # the ConfigError or OutOfRegime of the first sheet without a float radius
    table = family.poles_table(sheets)
    if table is None:
        rows = [family.poles_on_sheet(n) for n in sheets.tolist()]
        ps = np.concatenate([np.empty(0, dtype=complex), *rows])
        owner = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    else:
        filled = ~np.isnan(table)
        ps, owner = table[filled], np.nonzero(filled)[0]
    rs = radii[owner]
    slack = 1.0 + 1e-9
    # The largest radius after each entry bounds the partner of every pair it starts.
    after = np.zeros_like(rs)
    after[:-1] = np.maximum.accumulate(rs[:0:-1])[::-1]
    reach = lam * (rs + after) * slack * (1.0 + 1e-12)
    re = ps.real
    order = np.argsort(re, kind="stable")
    hi = np.searchsorted(re[order], re + reach, "right")
    ends = np.cumsum(hi - np.searchsorted(re[order], re - reach, "left"))
    total = int(ends[-1]) if len(ends) else 0
    to_sorted = hi - ends  # pair number t of entry i takes sorted position t + to_sorted[i]
    found = None
    for start in range(0, total, _BLOCK_VALUES):
        t = np.arange(start, min(start + _BLOCK_VALUES, total))
        i = np.searchsorted(ends, t, "right")
        j = order[t + to_sorted[i]]
        keep = j > i
        if found is not None:  # only the rest of the witness's own pairs can precede it
            keep &= (i == found[0]) & (j < found[1])
        i, j = i[keep], j[keep]
        # A pair with one projection is exempt from the Cauchy condition.
        near = (ps[i] != ps[j]) & (np.abs(ps[j] - ps[i]) < lam * (rs[i] + rs[j]) * slack)
        for a, b in sorted(zip(i[near].tolist(), j[near].tolist())):
            n, m = int(sheets[owner[a]]), int(sheets[owner[b]])
            p, q = complex(ps[a]), complex(ps[b])
            if abs(p - q) < lam * (perf.radius_at(n) + perf.radius_at(m)):
                found = a, b, StackPoint(n, p), StackPoint(m, q)
                break
        if found is not None and ends[found[0]] <= start + _BLOCK_VALUES:
            break
    if found is not None:
        return CauchyFlag(CauchyState.REFUTED, cutoff, found[2:])
    return CauchyFlag(CauchyState.VERIFIED, cutoff)


# ---------------------------------------------------------------------------
# JSON perforation configuration
# ---------------------------------------------------------------------------

#: Schema of the perforation configuration document (tests/test_cli.py has examples).
PERFORATION_SCHEMA = {
    "type": "object",
    "required": ["poles", "radius", "lambda"],
    "additionalProperties": False,
    "properties": {
        "poles": {
            "oneOf": [
                {"enum": ["roots_of_unity", "meander"]},
                {
                    "type": "object",
                    "required": ["explicit"],
                    "additionalProperties": False,
                    "properties": {
                        "explicit": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "type": "array",
                                "minItems": 3,
                                "maxItems": 3,
                                "items": {"type": "number"},
                            },
                        }
                    },
                },
            ]
        },
        "radius": {
            "oneOf": [
                {
                    "type": "object",
                    "required": ["c", "alpha"],
                    "additionalProperties": False,
                    "properties": {
                        "c": {"type": "number", "exclusiveMinimum": 0},
                        "alpha": {"type": "number", "minimum": 1},
                    },
                },
                {
                    "type": "object",
                    "required": ["table"],
                    "additionalProperties": False,
                    "properties": {
                        "table": {
                            "type": "object",
                            "additionalProperties": {"type": "number", "exclusiveMinimum": 0},
                        }
                    },
                },
            ]
        },
        "lambda": {"type": "number", "exclusiveMinimum": 1},
    },
}


#: The bounds ``_conform`` implements: the comparison that breaks each, and its wording.
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
}


def _is_number(v) -> bool:
    # float and int first: isinstance tries the tuple in order, and the ABC is slow.
    return isinstance(v, (float, int, numbers.Number)) and not isinstance(v, bool)


#: The Draft 2020-12 types the package's schemas use: a bool is no number, and
#: a float with an integral value is an integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": _is_number,
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}
_REJECTED = object()


class _Violation(NamedTuple):
    """One violation of a schema keyword, as jsonschema's ``iter_errors`` reports it."""

    path: tuple  # from the root of the instance to the violating value
    keyword: str
    message: str
    type_matches: bool  # whether the violating value is of its schema's "type"
    context: Sequence  # for oneOf: the violations of the branches it tried


def _conform(value, schema: dict, errors: list | None = None, path: tuple = ()):
    """``value`` as ``schema`` accepts it, or ``_REJECTED``: the package's only config validator.

    It implements the keywords of the package's schemas as JSON Schema Draft
    2020-12 defines them; each bound rejects by Python's comparison, so NaN
    passes them.  An integral float that an ``integer`` schema accepts comes
    back as an int.  A keyword or type it does not implement raises
    ValueError once reached, so a schema that outgrows it cannot widen what
    it accepts.  With ``errors`` None it stops at the first violation.  Given
    a list, it appends every ``_Violation`` of ``value`` (found at ``path``)
    in the order of jsonschema's ``iter_errors``, each worded as jsonschema
    4.26 words it, quoting the value as given rather than as converted.
    """
    instance = value
    broken = False
    for keyword, arg in schema.items():
        # A satisfied keyword continues.  A violated one sets ``wrong`` to its
        # messages (True if ``errors`` is None); one that checks the values
        # below ``instance`` sets ``children`` to their steps.
        wrong = children = ()
        if keyword == "type":
            if arg not in _TYPES:
                raise ValueError(f"the schema checker does not implement the type {arg!r}")
            if _TYPES[arg](instance):
                value = int(instance) if arg == "integer" else value
                continue
            wrong = errors is None or (f"{instance!r} is not of type {arg!r}",)
        elif keyword == "oneOf":
            context = None if errors is None else []  # kept only if no branch accepts
            accepted = []
            for sub in arg:
                conformed = _conform(instance, sub, context, path)
                if conformed is not _REJECTED:
                    accepted.append((conformed, sub))
            if len(accepted) == 1:
                value = accepted[0][0]
                continue
            if accepted:  # jsonschema names the first branch that accepts last
                names = ", ".join(repr(sub) for _, sub in accepted[1:] + accepted[:1])
                wrong, context = errors is None or (f"{instance!r} is valid under each of {names}",), ()
            else:
                wrong = errors is None or (f"{instance!r} is not valid under any of the given schemas",)
        elif keyword in _BOUNDS:
            breaks, phrase = _BOUNDS[keyword]
            if not (_is_number(instance) and breaks(instance, arg)):
                continue
            wrong = errors is None or (f"{instance!r} {phrase} {arg!r}",)
        elif keyword == "items":
            if not isinstance(instance, list):
                continue
            children = range(len(instance))
        elif keyword == "minItems":
            if not isinstance(instance, list) or len(instance) >= arg:
                continue
            wrong = errors is None or (f"{instance!r} " + ("should be non-empty" if arg == 1 else "is too short"),)
        elif keyword == "maxItems":
            if not isinstance(instance, list) or len(instance) <= arg:
                continue
            wrong = errors is None or (f"{instance!r} " + ("is expected to be empty" if arg == 0 else "is too long"),)
        elif keyword == "properties":
            if not isinstance(instance, dict):
                continue
            children = filter(instance.__contains__, arg)
        elif keyword == "required":
            if not isinstance(instance, dict) or all(map(instance.__contains__, arg)):
                continue
            wrong = errors is None or [f"{key!r} is a required property" for key in arg if key not in instance]
        elif keyword == "additionalProperties":
            if not isinstance(instance, dict) or arg is True:
                continue
            properties = schema.get("properties", {})
            if arg is not False:
                children = itertools.filterfalse(properties.__contains__, instance)
            elif instance.keys() <= properties.keys():
                continue
            else:
                extras = sorted((key for key in instance if key not in properties), key=str)
                names = ", ".join(map(repr, extras)) + (" was" if len(extras) == 1 else " were")
                wrong = errors is None or (f"Additional properties are not allowed ({names} unexpected)",)
        elif keyword == "enum":
            if isinstance(instance, str) and instance in arg:  # a string equals only a string
                continue
            if not all(isinstance(member, str) for member in arg):
                raise ValueError("the schema checker implements enums of strings only")
            wrong = errors is None or (f"{instance!r} is not one of {arg!r}",)
        else:
            raise ValueError(f"the schema checker does not implement {keyword!r}")
        if wrong:
            if errors is None:
                return _REJECTED
            broken = True
            kind = schema.get("type")
            matches = kind in _TYPES and _TYPES[kind](instance)
            errors += (_Violation(path, keyword, message, matches, context if keyword == "oneOf" else ())
                       for message in wrong)
            continue
        value = instance.copy() if value is instance else value
        for step in children:
            sub = arg[step] if keyword == "properties" else arg
            item = _conform(instance[step], sub, errors, None if errors is None else (*path, step))
            if item is not _REJECTED:
                value[step] = item
            elif errors is None:
                return _REJECTED
            else:
                broken = True
    return _REJECTED if broken else value


def _accepts(instance, schema: dict) -> bool:
    """Whether ``_conform`` accepts ``instance`` under ``schema``."""
    return _conform(instance, schema) is not _REJECTED


def _relevance(violation: _Violation) -> tuple:
    # jsonschema's ``relevance`` key; no keyword of these schemas is "strong".
    return (-len(violation.path), violation.path, violation.keyword != "oneOf", not violation.type_matches)


def _best(violations: list[_Violation]) -> _Violation:
    """The violation jsonschema's ``best_match`` picks from ``violations``."""
    best = max(violations, key=_relevance)
    while best.context:
        smallest = sorted(best.context, key=_relevance)[:2]
        if len(smallest) == 2 and _relevance(smallest[0]) == _relevance(smallest[1]):
            return best
        best = smallest[0]
    return best


def validated(instance, schema: dict, context: str):
    """``instance`` as ``schema`` accepts it, with its integer fields as ints.

    A rejected instance raises ConfigError with ``context`` and the message
    of the violation that jsonschema's ``best_match`` would pick.
    """
    value = _conform(instance, schema)
    if value is _REJECTED:
        violations: list[_Violation] = []
        _conform(instance, schema, violations)
        raise ConfigError(f"{context}: {_best(violations).message}")
    return value


def perforation_from_config(config: dict) -> Perforation:
    """Build a Perforation from a configuration dictionary, validated here."""
    return _build_perforation(validated(config, PERFORATION_SCHEMA, "invalid perforation config"))


def _build_perforation(config: dict) -> Perforation:
    """Build a Perforation from a configuration that PERFORATION_SCHEMA accepts.

    A value the schema admits but a family or radius refuses (a negative,
    repeated or non-integral sheet, a radius above 1, a sheet 0 under a
    Diophantine radius) raises ConfigError.
    """
    try:
        lam = float(config["lambda"])
        poles_cfg = config["poles"]
        if poles_cfg == "roots_of_unity":
            family: PoleFamily = RootsOfUnity()
        elif poles_cfg == "meander":
            family = MeanderPoles()
        else:
            table: dict[int, list[complex]] = {}
            for n, re, im in poles_cfg["explicit"]:
                if not float(n).is_integer():
                    raise ValueError(f"sheet index {n} is not an integer")
                table.setdefault(int(n), []).append(complex(re, im))
            family = ExplicitPoles(table)

        radius_cfg = config["radius"]
        if "table" in radius_cfg:
            radius: RadiusFunction = TableRadius(
                {int(k): float(v) for k, v in radius_cfg["table"].items()}, lam=lam
            )
        else:
            radius = DiophantineRadius(float(radius_cfg["c"]), float(radius_cfg["alpha"]), lam=lam)
            if family.n_min < 1:
                raise ValueError(f"Diophantine radii start on sheet 1, and the poles on sheet {family.n_min}")
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid perforation config: {exc}") from exc
    return Perforation(poles=family, radius=radius)
