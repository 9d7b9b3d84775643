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
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import ConfigError, MarginViolated, NotContained


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

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) < self.radius

    def distance_to_complement(self, z):
        """Distance from z to the complement; negative if z is outside.

        Accepts scalars or numpy arrays.
        """
        return self.radius - np.abs(z - self.center)

    def boundary_points(self, m: int) -> np.ndarray:
        theta = math.tau * np.arange(m) / m
        return self.center + self.radius * np.exp(1j * theta)


@dataclass(frozen=True)
class Rectangle:
    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError("rectangle must have positive extent")

    def contains(self, z: complex) -> bool:
        return self.x0 < z.real < self.x1 and self.y0 < z.imag < self.y1

    def distance_to_complement(self, z):
        re, im = np.real(z), np.imag(z)
        return np.minimum.reduce([re - self.x0, self.x1 - re, im - self.y0, self.y1 - im])

    def boundary_points(self, m: int) -> np.ndarray:
        # Corners are always included so suprema attained there are exact.
        per_edge = max(m // 4, 2)
        xs = np.linspace(self.x0, self.x1, per_edge)
        ys = np.linspace(self.y0, self.y1, per_edge)
        bottom = xs + 1j * self.y0
        top = xs + 1j * self.y1
        left = self.x0 + 1j * ys
        right = self.x1 + 1j * ys
        return np.concatenate([bottom, top, left, right])


@dataclass(frozen=True)
class AnnulusRegion:
    center: complex
    inner: float
    outer: float

    def __post_init__(self):
        if not (0 < self.inner < self.outer):
            raise ValueError("annulus needs 0 < inner < outer")

    def contains(self, z: complex) -> bool:
        d = abs(z - self.center)
        return self.inner < d < self.outer

    def distance_to_complement(self, z):
        d = np.abs(z - self.center)
        return np.minimum(d - self.inner, self.outer - d)

    def boundary_points(self, m: int) -> np.ndarray:
        half = max(m // 2, 8)
        theta = math.tau * np.arange(half) / half
        ring = np.exp(1j * theta)
        return np.concatenate(
            [self.center + self.inner * ring, self.center + self.outer * ring]
        )


Region = Union[Disc, Rectangle, AnnulusRegion]


# ---------------------------------------------------------------------------
# Huygens distance
# ---------------------------------------------------------------------------


def huygens_distance(
    U: Region,
    V: Region,
    samples: int = 1024,
    agree_tol: float = 1e-10,
    max_doublings: int = 8,
) -> float:
    """Largest rho such that every disc D(z, rho) with z in U stays inside V.

    Disc-in-disc pairs use the exact closed form.  Other shape pairs sample
    the boundary of U densely (the infimum of the distance-to-complement of
    V over U is attained on the boundary of U for the supported shapes) and
    double the density until two successive answers agree to ``agree_tol``.

    Raises NotContained if any sample of U lies outside V.
    """
    if isinstance(U, Disc) and isinstance(V, Disc):
        delta = V.radius - abs(U.center - V.center) - U.radius
        if delta < 0:
            raise NotContained(U.center + U.radius, "inner disc leaves outer disc")
        return delta

    previous = None
    m = samples
    for _ in range(max_doublings):
        pts = U.boundary_points(m)
        dists = np.asarray(V.distance_to_complement(pts), dtype=float)
        worst = int(np.argmin(dists))
        if dists[worst] < 0:
            raise NotContained(complex(pts[worst]))
        current = float(dists[worst])
        if previous is not None and abs(current - previous) < agree_tol:
            return current
        previous = current
        m *= 2
    return previous


# ---------------------------------------------------------------------------
# Radius functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiophantineRadius:
    """Per-sheet radius c/(n + shift)**alpha with a lambda margin.

    The polynomial decay is what makes derivative sums of the perforation
    converge; alpha >= 1 and r <= 1 are required by the shrinking and Taylor
    estimates downstream.  ``shift`` accommodates families whose sheets are
    indexed from 0.
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

    def value(self, n: int) -> float:
        if n + self.shift < 1:
            raise ValueError("Diophantine radii are defined for sheets n + shift >= 1")
        return self.c / (n + self.shift) ** self.alpha

    def values(self, ns: np.ndarray) -> np.ndarray:
        """Radii on the sheets ns (a sorted integer array)."""
        if len(ns) and ns[0] + self.shift < 1:
            raise ValueError("Diophantine radii are defined for sheets n + shift >= 1")
        return self.c / (ns + self.shift) ** self.alpha

    def tail_sup(self, cutoff: int) -> float:
        """Upper bound for the radius on every sheet beyond the cutoff."""
        return self.c / (cutoff + self.shift) ** self.alpha


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
        """Radii on the sheets ns."""
        return np.array([self.value(int(n)) for n in ns], dtype=float)

    def tail_sup(self, cutoff: int) -> None:
        return None


RadiusFunction = Union[DiophantineRadius, TableRadius]


# ---------------------------------------------------------------------------
# Pole families
# ---------------------------------------------------------------------------


class PoleFamilyBase:
    """Shared behaviour of the pole families.

    A parametric family is fixed by its type, so two instances of one type are
    equal; families holding data override ``__eq__`` and ``__hash__``.
    """

    def nearest_pole_all(self, ns: np.ndarray, z: complex) -> tuple[np.ndarray, np.ndarray]:
        """Nearest pole and its distance to z on each sheet of ns.

        Default: the scalar ``nearest_pole`` sheet by sheet; families with a
        closed form override it with numpy code.
        """
        pairs = [self.nearest_pole(int(n), z) for n in ns]
        return (
            np.array([p for p, _ in pairs], dtype=complex),
            np.array([d for _, d in pairs], dtype=float),
        )

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
    finite_fibers = False  # a root of unity lies on infinitely many sheets

    def poles_on_sheet(self, n: int) -> np.ndarray:
        return np.exp(2j * math.pi * np.arange(n) / n)

    def nearest_pole(self, n: int, z: complex) -> tuple[complex, float]:
        _, pole = nearest_root_of_unity(n, z)
        return pole, abs(z - pole)

    def nearest_pole_all(self, ns: np.ndarray, z: complex) -> tuple[np.ndarray, np.ndarray]:
        # The angle rounding of nearest_root_of_unity, on every sheet at once.
        k = np.rint(ns * np.angle(z) / math.tau).astype(np.int64) % ns
        poles = np.exp(2j * math.pi * k / ns)
        return poles, np.abs(z - poles)

    def tail_distance_bound(self, z: complex, cutoff: int) -> float:
        # Every pole beyond the cutoff still lies on the unit circle.
        return abs(abs(z) - 1.0)

    def sheets_containing(self, pole: complex, limit: int, tol: float = 1e-9) -> Iterator[int]:
        if abs(abs(pole) - 1.0) > tol:
            return
        order = None
        for n in range(1, limit + 1):
            if abs(pole**n - 1.0) <= tol * n:
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

    def nearest_pole_all(self, ns: np.ndarray, z: complex) -> tuple[np.ndarray, np.ndarray]:
        poles = -1.0 / ns + 0j
        return poles, np.abs(z - poles)

    def tail_distance_bound(self, z: complex, cutoff: int) -> float:
        # Poles beyond the cutoff lie inside the real segment [-1/(cutoff+1), 0].
        a = -1.0 / (cutoff + 1)
        x = min(max(z.real, a), 0.0)
        return abs(z - x)

    def sheets_containing(self, pole: complex, limit: int, tol: float = 1e-9) -> Iterator[int]:
        if pole.real >= 0 or abs(pole.imag) > tol:
            return
        n = int(round(-1.0 / pole.real))
        if 1 <= n <= limit and abs(pole - (-1.0 / n)) <= tol:
            yield n


class ReciprocalPoles(PoleFamilyBase):
    """Sheet k carries the poles 1/j for j = 1..k+1, k >= 0.

    This is the pole pattern of the zero-expansion terms z^k / prod(1 - j z).
    """

    n_min = 0
    parametric = True
    finite_fibers = False

    def poles_on_sheet(self, n: int) -> np.ndarray:
        return 1.0 / np.arange(1, n + 2, dtype=float) + 0j

    def nearest_pole(self, n: int, z: complex) -> tuple[complex, float]:
        poles = self.poles_on_sheet(n)
        d = np.abs(z - poles)
        i = int(np.argmin(d))
        return complex(poles[i]), float(d[i])

    def tail_distance_bound(self, z: complex, cutoff: int) -> float:
        x = min(max(z.real, 0.0), 1.0)
        return abs(z - x)

    def sheets_containing(self, pole: complex, limit: int, tol: float = 1e-9) -> Iterator[int]:
        if pole.real <= 0 or abs(pole.imag) > tol:
            return
        j = int(round(1.0 / pole.real))
        if j < 1 or abs(pole - 1.0 / j) > tol:
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

    def nearest_pole(self, n: int, z: complex) -> tuple[complex, float]:
        poles = self.poles_on_sheet(n)
        if len(poles) == 0:
            return 0j, math.inf
        d = np.abs(z - poles)
        i = int(np.argmin(d))
        return complex(poles[i]), float(d[i])

    def tail_distance_bound(self, z: complex, cutoff: int) -> float | None:
        if cutoff >= max(self._table):
            return math.inf  # no poles beyond the cutoff at all
        return None

    def sheets_containing(self, pole: complex, limit: int, tol: float = 1e-9) -> Iterator[int]:
        for n in sorted(self._table):
            if n > limit:
                break
            if np.any(np.abs(self._table[n] - pole) <= tol):
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

    def first_blocked(self, ns: np.ndarray, z: complex) -> tuple[int, complex] | None:
        """First sheet of ns whose removed disc holds z, with its pole; None if z clears all.

        ``nearest_pole_all`` shortlists the sheets with a small slack; the
        scalar ``nearest_pole`` and ``radius_at`` decide each one, so the
        verdict and the witness are those of the sheet-by-sheet test.
        """
        _, dist = self.poles.nearest_pole_all(ns, z)
        near = np.flatnonzero(np.isfinite(dist))  # a sheet without poles needs no radius
        near = near[dist[near] < self.radius.values(ns[near]) * (1.0 + 1e-9)]
        for i in near:
            n = int(ns[i])
            pole, d = self.nearest_pole(n, z)
            if d < self.radius_at(n):
                return n, pole
        return None


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


def shrink_check(
    perf: Perforation,
    U: Region,
    V: Region,
    sheet: int,
    samples: int = 512,
    slack: float = 1e-9,
) -> ShrinkReport:
    """Verify the shrinking estimate on one sheet.

    With r the sheet radius, lambda the margin and eps = lambda - 1, the
    perforation of U by the inflated radius lambda*r must keep Huygens
    distance at least eps*r from the perforation of V by r.  The boundary of
    the inflated perforation (outer boundary of U plus the inflated pole
    circles clipped to U) is sampled and the minimum clearance to the
    complement of V(r) is measured.  Sampling a subset can only overestimate
    the true infimum, so ``slack`` absorbs rounding alone.

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
    outer = U.boundary_points(max(samples, 256))
    if len(poles):
        # Outer-boundary points swallowed by an inflated disc are not part of
        # the perforated set.  Circle samples are NOT cross-filtered against
        # the other poles: with a valid lambda-radius function the inflated
        # discs are disjoint and the filter would be a no-op, while with an
        # invalid one the overlap must surface as a violation below.
        d_outer = np.abs(outer[:, None] - poles[None, :]).min(axis=1)
        pts = [outer[d_outer >= lam * r_n - 1e-12]]
        ring = np.exp(1j * math.tau * np.arange(samples) / samples)
        circles = (poles[:, None] + lam * r_n * ring[None, :]).ravel()
        inside = np.asarray(U.distance_to_complement(circles), dtype=float) >= 0.0
        if inside.any():
            pts.append(circles[inside])
        boundary = np.concatenate(pts)
        dist_to_poles = np.abs(boundary[:, None] - poles[None, :]).min(axis=1)
    else:
        boundary = outer
        dist_to_poles = np.full(len(boundary), np.inf)

    clear_V = np.asarray(V.distance_to_complement(boundary), dtype=float)
    clearance = np.minimum(clear_V, dist_to_poles - r_n)
    worst = int(np.argmin(clearance))
    required = eps * r_n
    measured = float(clearance[worst])
    if measured < required - slack:
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


def residual_membership(
    perf: Perforation, z: complex, cutoff: int = 10_000, margin: float = 0.0
) -> Membership:
    """Decide whether z survives every removed disc, up to a sheet cutoff.

    Membership requires |z - p| >= r_n*(1 + margin) for every pole p of every
    sheet n.  Sheets up to the cutoff are scanned with the per-family nearest
    pole search.  Beyond the cutoff, sheets are discharged when a lower bound
    on the distance from z to all remaining poles dominates the supremum of
    the remaining radii; with an explicit radius table the tail cannot be
    bounded and the verdict is Unknown.
    """
    if margin < 0:
        raise ValueError("margin must be non-negative")
    if not cmath.isfinite(z):
        raise ValueError("z must be finite")

    family = perf.poles
    if family.parametric:
        sheets: Sequence[int] = range(family.n_min, cutoff + 1)
    else:
        sheets = [n for n in family.sheets() if n <= cutoff]

    for n in sheets:
        r_n = perf.radius_at(n)
        pole, dist = family.nearest_pole(n, z)
        if dist < r_n * (1.0 + margin):
            return Membership(MembershipState.OUT, sheet=n, pole=pole)

    tail_dist = family.tail_distance_bound(z, cutoff)
    if tail_dist is None:
        return Membership(MembershipState.UNKNOWN, note="unscanned sheets beyond cutoff")
    if tail_dist == math.inf:
        return Membership(MembershipState.IN)
    tail_radius = perf.radius.tail_sup(cutoff)
    if tail_radius is None:
        return Membership(
            MembershipState.UNKNOWN, note="explicit radius table cannot bound tail sheets"
        )
    if tail_dist >= tail_radius * (1.0 + margin):
        return Membership(MembershipState.IN)
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
        sheets = list(range(family.n_min, cutoff + 1))
    else:
        sheets = [n for n in family.sheets() if n <= cutoff]

    entries: list[tuple[int, complex, float]] = []
    for n in sheets:
        r_n = perf.radius_at(n)
        entries.extend((n, complex(p), r_n) for p in family.poles_on_sheet(n))
    for i in range(len(entries)):
        n, p, rp = entries[i]
        for j in range(i + 1, len(entries)):
            m, q, rq = entries[j]
            if p == q:
                continue  # same projection: exempt from the Cauchy condition
            if abs(p - q) < lam * (rp + rq):
                return CauchyFlag(
                    CauchyState.REFUTED, cutoff, (StackPoint(n, p), StackPoint(m, q))
                )
    return CauchyFlag(CauchyState.VERIFIED, cutoff)


# ---------------------------------------------------------------------------
# JSON perforation configuration
# ---------------------------------------------------------------------------

#: Schema of the perforation configuration document (see README for examples).
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


def perforation_from_config(config: dict) -> Perforation:
    """Build a Perforation from a validated configuration dictionary."""
    import jsonschema

    try:
        jsonschema.validate(config, PERFORATION_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"invalid perforation config: {exc.message}") from exc

    lam = float(config["lambda"])
    poles_cfg = config["poles"]
    if poles_cfg == "roots_of_unity":
        family: PoleFamily = RootsOfUnity()
    elif poles_cfg == "meander":
        family = MeanderPoles()
    else:
        table: dict[int, list[complex]] = {}
        for n, re, im in poles_cfg["explicit"]:
            table.setdefault(int(n), []).append(complex(re, im))
        family = ExplicitPoles(table)

    radius_cfg = config["radius"]
    if "table" in radius_cfg:
        radius: RadiusFunction = TableRadius(
            {int(k): float(v) for k, v in radius_cfg["table"].items()}, lam=lam
        )
    else:
        radius = DiophantineRadius(float(radius_cfg["c"]), float(radius_cfg["alpha"]), lam=lam)
    return Perforation(poles=family, radius=radius)
