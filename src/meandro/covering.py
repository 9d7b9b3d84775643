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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated, OutOfRegime
from .geometry import DiophantineRadius, Perforation, PoleFamilyBase, TableRadius
from .series import TermSequence
from .tails import DecayCert


def _squeeze(alpha: int) -> float:
    """2**alpha - 1, the factor by which the covering of exponent alpha shrinks radii."""
    if alpha >= 1024:
        raise OutOfRegime(
            f"covering exponent {alpha} is too large: 2**{alpha} overflows a float (at most 1023)",
            alpha=alpha,
        )
    return 2.0**alpha - 1.0


def induced_radii(r: float, alpha: int) -> tuple[float, float]:
    """(s, rho) induced by the covering of exponent alpha from source radius r."""
    if not (0 < r <= 1):
        raise ValueError("need 0 < r <= 1")
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    denom = _squeeze(alpha)
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
    if abs(omega) > 1.0 + 1e-12:
        raise HypothesisViolated(f"|omega| = {abs(omega):.6g} > 1")
    eta = omega**alpha
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


@functools.lru_cache(maxsize=8)
def _powers(beta: int, w: complex, m: int, top: int) -> tuple[tuple[int, int, complex], ...]:
    """(j, k, [t**k] P(t)**j) for each non-zero entry with j <= top and 1 <= k <= m.

    P(t) = (w + t)**beta - w**beta = sum_{i=1..beta} C(beta, i) * w**(beta-i) * t**i,
    so [t**k] P(t)**j is 0 for k < j.  A jet's pass asks for the same table
    on most blocks of its point, so the last few are kept.
    """
    inner = np.array([0j] + [math.comb(beta, i) * w ** (beta - i) for i in range(1, min(beta, m) + 1)])
    powers = np.zeros((top + 1, m + 1), dtype=complex)
    powers[0, 0] = 1.0
    for j in range(1, top + 1):
        powers[j] = np.convolve(powers[j - 1], inner)[: m + 1]
    return tuple((j, k + 1, complex(powers[j, k + 1])) for j, k in np.argwhere(powers[:, 1:]).tolist())


class _PullbackPoles(PoleFamilyBase):
    """Pole preimages under w -> center + w**beta, sheet by sheet."""

    def __init__(self, base_family, beta: int, center: complex):
        self._base = base_family
        self.beta = beta
        self.center = center
        self.n_min = base_family.n_min
        self.parametric = base_family.parametric
        self.finite_fibers = base_family.finite_fibers

    def __eq__(self, other) -> bool:
        return type(other) is _PullbackPoles and (self._base, self.beta, self.center) == (
            other._base, other.beta, other.center
        )

    def __hash__(self) -> int:
        return hash((self._base, self.beta, self.center))

    def _preimages(self, base: np.ndarray) -> np.ndarray:
        """The beta preimages of each base pole along a new last axis."""
        shifted = base - self.center
        mod = np.abs(shifted) ** (1.0 / self.beta)
        arg = np.angle(shifted)
        js = np.arange(self.beta)
        return mod[..., None] * np.exp(1j * (arg[..., None] + 2.0 * math.pi * js) / self.beta)

    def poles_on_sheet(self, n: int) -> np.ndarray:
        base = self._base.poles_on_sheet(n)
        if len(base) == 0:
            return base
        return self._preimages(np.asarray(base, dtype=complex)).ravel()

    def poles_table(self, ns: np.ndarray) -> np.ndarray | None:
        base = self._base.poles_table(ns)
        if base is None:
            return None
        # A NaN pad has NaN preimages.
        return self._preimages(base).reshape(len(ns), base.shape[1] * self.beta)

    def sheets(self):
        return self._base.sheets()

    def sheets_containing(self, pole: complex, limit: int):
        image = self.center + pole**self.beta
        return self._base.sheets_containing(image, limit)


class PullbackSequence(TermSequence):
    """Composition of a sequence with the covering w -> center + w**beta.

    Terms are F_n(w) = f_n(center + w**beta): ``term_grid`` is the base's
    at the images, and ``taylor_coefficients`` come from the base's at the
    image z0 = center + w0**beta by composition: with z - z0 = P(t) =
    sum_{i=1..beta} C(beta, i) * w0**(beta-i) * t**i and f_n = sum_j b_j *
    (z - z0)**j, the coefficient of t**k is sum_j b_j * [t**k] P(t)**j, one
    (m+1)**2 table of the powers of P per point.  At the branch point w0 = 0
    (beta > 1), P(t) = t**beta, so only the base's orders up to m//beta
    are needed.  Row 0 is the base's row 0 at the image, so it is
    ``term_grid``'s bit for bit.

    The removed discs, of radius rho_n = r_n/(2**beta - 1) about the
    preimages of the base poles, map into the base discs but do not cover
    them, so the base norm bound does not hold off them: the image of such
    a point may lie within r_n of a base pole.  The base must then have a
    bound that grows at most like r_n over the distance to the poles,
    |f_n(z)| <= norm_bound(n) * max(1, r_n/dist(z, P_n)), as the meander's
    (exactly) and the q-log's (by its rim estimate) do.  The norm bound
    and the certificate are the base's times the excess K * n**e of
    ``_excess``, which bounds r_n/dist(z, P_n) off the removed discs.
    """

    def __init__(self, base: TermSequence, beta: int, center: complex = 0j):
        if beta < 1:
            raise ValueError("beta must be a positive integer")
        self.base = base
        self.beta = beta
        self.center = complex(center)
        self.n_min = base.n_min
        self.n_max = base.n_max

        base_radius = base.perforation.radius
        denom = _squeeze(beta)
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

    @functools.cached_property
    def _excess(self) -> tuple[float, float] | None:
        """(K, e) with max(1, r_n/dist(center + w**beta, P_n)) <= K * n**e off the removed discs, or None.

        For a base pole p of sheet n, let eta = p - center, mu =
        |eta|**(1/beta), a_0..a_{beta-1} the preimages mu*zeta**k of eta, and
        rho = rho_n.  1/(w**beta - eta) is holomorphic off the discs
        D(a_k, rho) and vanishes at infinity, so by the maximum principle
        |w**beta - eta| = prod_k |w - a_k| is least on a rim, where one
        factor is rho and each other one is at least max(rho, mu*|1 -
        zeta**m| - rho) >= mu*|1 - zeta**m|/2 (m = 1..beta-1).  As prod_m
        |1 - zeta**m| = beta and r_n = (2**beta - 1)*rho, that gives
        r_n/|w**beta - eta| <= (2**beta - 1) * 2**(beta-1)/beta *
        mu**(1-beta).  A lower bound a*n**-b on |p - center| over the poles
        of sheet n turns mu**(1-beta) into a**-s * n**(b*s), s = (beta -
        1)/beta: the base poles' ``tail_distance_bound`` at the centre over
        every sheet (b = 0) where it is positive, else their
        ``distance_power_law``.  K is raised by a relative 1e-9 for its
        rounding.  None where neither is known, where K is not finite, or
        where the base is itself a pullback, whose bound has no such form.
        """
        base, beta = self.base, self.beta
        if isinstance(base, PullbackSequence):
            return None
        poles = base.perforation.poles
        d = poles.tail_distance_bound(self.center, base.n_min - 1)
        if beta == 1 or d == math.inf:  # a shift, or no pole within the float range of the centre
            return 1.0, 0.0
        law = (d, 0.0) if d is not None and d > 0.0 else poles.distance_power_law(self.center)
        if law is None:
            return None
        (a, b), s = law, (beta - 1) / beta
        try:
            K = _squeeze(beta) * 2.0 ** (beta - 1) / beta * a**-s
        except OverflowError:
            return None
        if not K < math.inf:
            return None
        return max(1.0, K) * (1.0 + 1e-9), b * s

    @functools.cached_property
    def decay_cert(self) -> DecayCert | None:
        """The base certificate times the excess: (C*K, q + e, sigma)."""
        cert = self.base.decay_cert
        if cert is None or self._excess is None:
            return None
        K, e = self._excess
        return DecayCert(cert.C * K, cert.q + e, cert.sigma)

    def _image(self, w: complex) -> complex:
        return self.center + w**self.beta

    def term_grid(self, ns: np.ndarray, ws: list) -> np.ndarray:
        """The base's ``term_grid`` at the images center + w**beta; inf where an image overflows."""
        out = np.full((len(ws), len(ns)), math.inf, dtype=complex)
        images = {}
        for i, w in enumerate(ws):
            try:
                images[i] = self._image(w)
            except OverflowError:
                pass
        if images:
            out[list(images)] = self.base.term_grid(ns, list(images.values()))
        return out

    def taylor_coefficients(self, ns: np.ndarray, m: int, w: complex) -> np.ndarray:
        try:
            z = self._image(w)
        except OverflowError:  # infinite entries, as in ``term_grid``
            return np.full((m + 1, len(ns)), math.inf, dtype=complex)
        top = m // self.beta if w == 0 and self.beta > 1 else m  # the base orders that reach order m
        base = self.base.taylor_coefficients(ns, top, z)
        out = np.zeros((m + 1, len(ns)), dtype=complex)
        out[0] = base[0]
        for j, k, power in _powers(self.beta, w, m, top):
            out[k] += power * base[j]
        return out

    def residue(self, n: int, pole: complex) -> complex:
        """f_n's residue over beta * pole**(beta-1): a preimage of a base pole is simple, as pole**beta != 0."""
        return self.base.residue(n, self._image(pole)) / (self.beta * pole ** (self.beta - 1))

    def norm_bound(self, n: int) -> float:
        """The base norm bound times the excess K * n**e; inf where no excess is known."""
        if self._excess is None:
            return math.inf
        K, e = self._excess
        return self.base.norm_bound(n) * K * n**e


def pullback_model(seq: TermSequence, beta: int, center: complex = 0j) -> PullbackSequence:
    """Sequence w -> f(center + w**beta) with transported radii and bounds."""
    return PullbackSequence(seq, beta, center)
