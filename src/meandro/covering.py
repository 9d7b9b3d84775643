"""The ramified covering w -> w**alpha and radius transport through it.

A disc of radius r around eta = omega**alpha pulls back, for |omega| <= 1
and r(eta) < |eta|, to a neighbourhood squeezed between two discs:

    D(eta, s)  inside  image of D(omega, rho)  inside  D(eta, r),

with s = alpha*r**(2-1/alpha)/(2**alpha - 1) and rho = r/(2**alpha - 1);
the two satisfy s = alpha * r**(1-1/alpha) * rho exactly.  This is what lets
higher Gevrey classes be transported down to class one by the substitution
z = w**beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated
from .geometry import DiophantineRadius, Disc, Perforation, PoleFamilyBase, TableRadius
from .series import TermSequence


def induced_radii(r: float, alpha: int) -> tuple[float, float]:
    """(s, rho) induced by the covering of exponent alpha from source radius r."""
    if not (0 < r <= 1):
        raise ValueError("need 0 < r <= 1")
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    denom = 2.0**alpha - 1.0
    s = alpha * r ** (2.0 - 1.0 / alpha) / denom
    rho = r / denom
    return s, rho


@dataclass(frozen=True)
class InclusionReport:
    omega: complex
    alpha: int
    r: float
    s: float
    rho: float
    margin_preimage: float  # rho minus worst preimage distance (inclusion i)
    margin_image: float  # r minus worst image distance (inclusion ii)

    @property
    def passed(self) -> bool:
        return self.margin_preimage >= -1e-12 and self.margin_image >= -1e-12


def inclusion_check(
    omega: complex, r: float, alpha: int, n_angles: int = 360
) -> InclusionReport:
    """Sample both disc inclusions around the covering and report worst margins.

    (i) every boundary point of D(omega**alpha, s) must have an alpha-th root
    within rho of omega; (ii) the image of the boundary of D(omega, rho) must
    stay within r of omega**alpha.  Root branches are searched per sample
    point, taking the branch closest to omega.

    Standing hypotheses (|omega| <= 1, rho < |omega|, r < |omega**alpha|) are
    reported as HypothesisViolated rather than silently skipped.
    """
    if n_angles < 8:
        raise ValueError("need at least 8 angles")
    s, rho = induced_radii(r, alpha)
    eta = omega**alpha
    if abs(omega) > 1.0 + 1e-12:
        raise HypothesisViolated(f"|omega| = {abs(omega):.6g} > 1")
    if rho >= abs(omega):
        raise HypothesisViolated("origin falls inside D(omega, rho)")
    if r >= abs(eta):
        raise HypothesisViolated(
            f"source radius r = {r:.3g} >= |omega**alpha| = {abs(eta):.6g}"
        )

    theta = 2.0 * math.pi * np.arange(n_angles) / n_angles
    ring = np.exp(1j * theta)

    # (i): alpha-th root preimages of the inner target circle.
    w = eta + s * ring
    mod = np.abs(w) ** (1.0 / alpha)
    arg = np.angle(w)
    branches = np.array(
        [mod * np.exp(1j * (arg + 2.0 * math.pi * j) / alpha) for j in range(alpha)]
    )
    nearest = np.min(np.abs(branches - omega), axis=0)
    margin_pre = rho - float(np.max(nearest))

    # (ii): forward image of the source circle.
    u = omega + rho * ring
    margin_im = r - float(np.max(np.abs(u**alpha - eta)))

    return InclusionReport(
        omega=omega, alpha=alpha, r=r, s=s, rho=rho,
        margin_preimage=margin_pre, margin_image=margin_im,
    )


def _bell_row(k: int, xs: list[complex]) -> list[complex]:
    """Partial Bell polynomials B_{k,j}(x_1, ...) for j = 0..k, by recurrence."""
    table = {(0, 0): 1 + 0j}
    for kk in range(1, k + 1):
        for jj in range(1, kk + 1):
            acc = 0j
            for i in range(1, kk - jj + 2):
                prev = table.get((kk - i, jj - 1), 0j)
                if prev != 0 and i <= len(xs):
                    acc += math.comb(kk - 1, i - 1) * xs[i - 1] * prev
            table[(kk, jj)] = acc
    return [table.get((k, j), 0j) for j in range(k + 1)]


class _PullbackPoles(PoleFamilyBase):
    """Pole preimages under w -> center + w**beta, sheet by sheet."""

    def __init__(self, base_family, beta: int, center: complex):
        self._base = base_family
        self.beta = beta
        self.center = center
        self.n_min = base_family.n_min
        self.parametric = base_family.parametric
        self.finite_fibers = getattr(base_family, "finite_fibers", False)

    def __eq__(self, other) -> bool:
        return type(other) is _PullbackPoles and (self._base, self.beta, self.center) == (
            other._base, other.beta, other.center
        )

    def __hash__(self) -> int:
        return hash((self._base, self.beta, self.center))

    def poles_on_sheet(self, n: int) -> np.ndarray:
        base = self._base.poles_on_sheet(n)
        if len(base) == 0:
            return base
        shifted = np.asarray(base, dtype=complex) - self.center
        mod = np.abs(shifted) ** (1.0 / self.beta)
        arg = np.angle(shifted)
        js = np.arange(self.beta)
        roots = mod[:, None] * np.exp(
            1j * (arg[:, None] + 2.0 * math.pi * js[None, :]) / self.beta
        )
        return roots.ravel()

    def nearest_pole(self, n: int, w: complex) -> tuple[complex, float]:
        poles = self.poles_on_sheet(n)
        if len(poles) == 0:
            return 0j, math.inf
        d = np.abs(w - poles)
        i = int(np.argmin(d))
        return complex(poles[i]), float(d[i])

    def tail_distance_bound(self, w: complex, cutoff: int) -> None:
        return None  # no closed-form tail bound through the covering

    def sheets(self):
        return self._base.sheets()

    def sheets_containing(self, pole: complex, limit: int, tol: float = 1e-9):
        image = self.center + pole**self.beta
        return self._base.sheets_containing(image, limit, tol)


class PullbackSequence(TermSequence):
    """Composition of a sequence with the covering w -> center + w**beta.

    Terms are F_n(w) = f_n(center + w**beta); derivatives come from the
    chain rule in partial-Bell form (the inner derivatives vanish beyond
    order beta, so the expansion is finite).  Norm bounds and the decay
    certificate transport unchanged: the pullback takes its values among the
    base sequence's values.
    """

    def __init__(self, base: TermSequence, beta: int, center: complex = 0j):
        if beta < 1:
            raise ValueError("beta must be a positive integer")
        self.base = base
        self.beta = beta
        self.center = complex(center)
        self.n_min = base.n_min
        self.n_max = base.n_max
        self.bounds_global = base.bounds_global

        base_radius = base.perforation.radius
        denom = 2.0**beta - 1.0
        if isinstance(base_radius, DiophantineRadius):
            radius = DiophantineRadius(
                base_radius.c / denom, base_radius.alpha, base_radius.lam, base_radius.shift
            )
        else:
            radius = TableRadius(
                {n: r / denom for n, r in base_radius.table.items()}, lam=base_radius.lam
            )
        self.perforation = Perforation(
            _PullbackPoles(base.perforation.poles, beta, self.center), radius
        )
        if isinstance(base.region, Disc) and base.region.center == 0:
            reach = max(base.region.radius - abs(self.center), 1e-6)
            self.region = Disc(0j, reach ** (1.0 / beta))
        else:
            self.region = base.region

    @property
    def meander_cert(self):
        return self.base.meander_cert

    def _image(self, w: complex) -> complex:
        return self.center + w**self.beta

    def term(self, n: int, w: complex) -> complex:
        return self.base.term(n, self._image(w))

    def term_array(self, n: int, ws: np.ndarray) -> np.ndarray:
        return self.base.term_array(n, self.center + ws**self.beta)

    def derivative(self, n: int, k: int, w: complex) -> complex:
        if k == 0:
            return self.term(n, w)
        if w == 0 and self.beta > 1:
            # Only the beta-th inner derivative survives at the branch point:
            # F^(k)(0) = f^(j)(center) * k!/j! when k = j*beta, else 0.
            if k % self.beta:
                return 0j
            j = k // self.beta
            return (
                self.base.derivative(n, j, self.center)
                * math.factorial(k)
                / math.factorial(j)
            )
        z = self._image(w)
        # Derivatives of the inner map: beta!/(beta-i)! * w**(beta-i), zero past beta.
        xs = [
            math.perm(self.beta, i) * w ** (self.beta - i) if i <= self.beta else 0j
            for i in range(1, k + 1)
        ]
        bells = _bell_row(k, xs)
        total = 0j
        for j in range(1, k + 1):
            if bells[j] != 0:
                total += self.base.derivative(n, j, z) * bells[j]
        return total

    def derivatives(self, ns: np.ndarray, m: int, w: complex) -> np.ndarray:
        out = np.zeros((m + 1, len(ns)), dtype=complex)
        if w == 0 and self.beta > 1:
            base = self.base.derivatives(ns, m // self.beta, self.center)
            for j in range(m // self.beta + 1):
                k = j * self.beta
                out[k] = base[j] * math.factorial(k) / math.factorial(j)
            return out
        # The partial-Bell coefficients depend on w alone.
        base = self.base.derivatives(ns, m, self._image(w))
        out[0] = base[0]
        xs = [math.perm(self.beta, i) * w ** (self.beta - i) if i <= self.beta else 0j
              for i in range(1, m + 1)]
        for k in range(1, m + 1):
            bells = _bell_row(k, xs)
            for j in range(1, k + 1):
                if bells[j] != 0:
                    out[k] += base[j] * bells[j]
        return out

    def norm_bound(self, n: int) -> float:
        return self.base.norm_bound(n)


def pullback_model(seq: TermSequence, beta: int, center: complex = 0j) -> PullbackSequence:
    """Sequence w -> f(center + w**beta) with transported radii and bounds."""
    return PullbackSequence(seq, beta, center)
