"""Laurent expansions and polar parts on annuli around a pole.

On the annulus A(w; lam, r) = {r < |z - w| < lam*r} the monomials
(z - w)**k form an orthogonal basis of the square-integrable holomorphic
functions for the area inner product <f, g> = (1/pi) * integral of f*conj(g).
Their norms have the closed form

    ||phi_k|| = sqrt((lam**(2k+2) - 1)/(k+1)) * r**(k+1)   (k != -1)
    ||phi_-1|| = sqrt(2*log(lam)),

the k = -1 case being the limit of the general formula.  Coefficients are
extracted by spectrally accurate trapezoid quadrature on the mid-circle of
radius sqrt(lam)*r (primary path); the two-dimensional inner-product route
is retained as a cross-check oracle.

The negative-index half of the expansion (the polar part) extends
holomorphically to the exterior of the inflated disc, with the sup there
controlled by s(lam)*r times the annulus sup, where

    s(lam) = sum_{k<0} C(lam, k) * lam**k,
    C(lam, k) = pi*(lam**2 - 1)*sqrt((k+1)/(lam**(2k+2) - 1)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DiophantineRequired, NonConvergent, OutOfRegime, PoleProximity
from .geometry import DiophantineRadius
from .series import SumResult, TermSequence

#: ``s_lambda`` stops once a term falls below this share of the running total.
_S_LAMBDA_CUTOFF = 1e-16
#: ``laurent_coefficients``: the settling tolerance, relative to the circle
#: sup, the first node count and the most node doublings.
_LAURENT_TOL = 1e-12
_LAURENT_START_NODES = 256
_LAURENT_DOUBLINGS = 6
#: Least inner radius, in ulps of |center|: below it the first nodes of the
#: circle lie less than 2*pi*64/256 = 1.6 ulps apart, so rounding merges them.
_LAURENT_MIN_ULPS = 64
#: ``annulus_inner_product``: Gauss-Legendre nodes across the annulus and
#: trapezoid nodes around it.
_AREA_RADIAL_NODES = 64
_AREA_ANGULAR_NODES = 256
#: ``polar_part`` keeps the terms whose share of the largest term on the
#: inner circle is at least this.
_POLAR_TRUNCATE = 1e-16
#: Samples on each circle of ``annulus_sup`` and of ``PolarPart.sup_on_circle``.
_ANNULUS_SUP_SAMPLES = 2048
_CIRCLE_SUP_SAMPLES = 720


@dataclass(frozen=True)
class AnnulusSpec:
    """Annulus A(center; lam, r) = {r < |z - center| < lam*r}."""

    center: complex
    r: float
    lam: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("inner radius must be positive")
        if self.lam <= 1:
            raise ValueError("ratio lam must exceed 1")

    @property
    def outer(self) -> float:
        return self.lam * self.r

    @property
    def mid_radius(self) -> float:
        # Geometric mean: farthest from both boundary circles in log scale.
        return math.sqrt(self.lam) * self.r


def basis_norm(k: int, r: float, lam: float) -> float:
    """Norm of (z-center)**k in the annulus Hilbert space.

    sqrt((lam**(2k+2)-1)/(k+1)) * r**(k+1) for k != -1; the k = -1 value
    sqrt(2*log(lam)) is the limit of that expression as k -> -1.
    """
    if r <= 0 or lam <= 1:
        raise ValueError("need r > 0 and lam > 1")
    if k == -1:
        return math.sqrt(2.0 * math.log(lam))
    return math.sqrt((lam ** (2 * k + 2) - 1.0) / (k + 1)) * r ** (k + 1)


def c_constant(lam: float, k: int) -> float:
    """Coefficient-bound constant C(lam, k) = pi*(lam**2-1)*sqrt((k+1)/(lam**(2k+2)-1)).

    At k = -1 the ratio under the root degenerates to 0/0 and is replaced by
    its limit 1/(2*log(lam)).  As k -> -infinity, C(lam, k) behaves like
    pi*(lam**2-1)*sqrt(|k|).
    """
    if lam <= 1:
        raise ValueError("lam must exceed 1")
    if k == -1:
        ratio = 1.0 / (2.0 * math.log(lam))
    else:
        ratio = (k + 1) / (lam ** (2 * k + 2) - 1.0)
    return math.pi * (lam**2 - 1.0) * math.sqrt(ratio)


def s_lambda(lam: float) -> float:
    """sum_{k<0} C(lam, k)*lam**k, until a term is below ``_S_LAMBDA_CUTOFF`` of the sum."""
    total = 0.0
    k = -1
    while True:
        term = c_constant(lam, k) * lam**k
        total += term
        if term < _S_LAMBDA_CUTOFF * total:
            return total
        k -= 1
        if k < -100_000:
            raise NonConvergent("s(lam) summation failed to settle")


@dataclass(frozen=True)
class LaurentExpansion:
    center: complex
    k_min: int
    k_max: int
    coefficients: np.ndarray  # index i holds c_{k_min + i}
    nodes_used: int
    scale: float  # sup of |f| on the quadrature circle

    def coefficient(self, k: int) -> complex:
        if not (self.k_min <= k <= self.k_max):
            raise IndexError(f"k = {k} outside stored window")
        return complex(self.coefficients[k - self.k_min])

    def evaluate(self, z: complex) -> complex:
        ks = np.arange(self.k_min, self.k_max + 1)
        return complex(np.sum(self.coefficients * (z - self.center) ** ks.astype(float)))


def _settled_bins(
    f: Callable, center: complex, R: float, ks: np.ndarray, m: int
) -> tuple[np.ndarray, float, int]:
    """Scaled bins c_k*R**k on the circle |z - center| = R, with sup|f| and nodes.

    The node count M of the trapezoid rule (one FFT) is doubled, at most
    ``_LAURENT_DOUBLINGS`` times, until no bin of the window moves by
    ``_LAURENT_TOL`` times the circle sup or more.
    """
    previous = None
    diff = math.inf
    for _ in range(_LAURENT_DOUBLINGS + 1):
        zs = center + R * np.exp(1j * math.tau * np.arange(m) / m)
        vals = np.asarray(f(zs), dtype=complex)
        scale = max(float(np.max(np.abs(vals))), 1e-300)
        bins = np.fft.fft(vals)[ks % m] / m
        if previous is not None:
            diff = float(np.max(np.abs(bins - previous))) / scale
            if diff < _LAURENT_TOL:
                return bins, scale, m
        previous = bins
        m *= 2
    raise NonConvergent(
        "coefficients failed to settle under node doubling "
        f"(singularity inside the annulus?): radius {R:.6g}, {m // 2} nodes, "
        f"last change {diff:.3g} x circle sup (tol {_LAURENT_TOL:.3g})",
        radius=R,
        nodes=m // 2,
        difference=diff,
    )


def laurent_coefficients(
    f: Callable,
    ann: AnnulusSpec,
    k_min: int = -64,
    k_max: int = 64,
    radius: float | None = None,
) -> LaurentExpansion:
    """Laurent coefficients of f on the annulus by circle quadrature.

    c_k = (1/2*pi*i) * contour integral of f(z)*(z-center)**(-k-1) on the
    circle of radius R (default the mid-circle sqrt(lam)*r), evaluated by the
    M-point trapezoid rule (one FFT), M from ``_LAURENT_START_NODES`` up.  M
    is doubled until the scaled bins c_k*R**k of the window move by less
    than tol = ``_LAURENT_TOL`` times the measured circle sup; only the
    settled bins are rescaled by R**(-k), so the R**(-k) amplification of
    FFT round-off never enters the test.

    The trapezoid rule converges on every circle where f is analytic, so a
    settled window alone does not show that f is holomorphic on the annulus.
    The window is therefore also computed on the radii r*lam**(1/4) and
    r*lam**(3/4) and compared with the one on R, index by index, against the
    round-off allowance tol*(sup_R|f|*R**(-k) + sup_S|f|*S**(-k)) of the two
    circles.  By Cauchy's theorem the windows agree when f is holomorphic
    between the circles, and a pole between them shifts them apart.  A
    caller-given ``radius`` supplies the returned window and is checked
    against the same two radii, which then cover the span from the smallest
    to the largest of the three.

    A singularity is found only where these checks can see it: one between
    the two outermost circles compared, or one on a circle so close that
    doubling cannot settle.  A pole between the inner circle r and
    min(R, r*lam**(1/4)), or between max(R, r*lam**(3/4)) and lam*r, is
    missed.  Either failure raises NonConvergent with its witness: the
    radius, node count and last scaled change for doubling, or the two radii
    and the worst per-k mismatch over its allowance for the comparison.  A
    rescaled coefficient past the float range (a tiny radius) raises
    OutOfRegime with the radius and the first such k.  So does, after it, an
    inner radius below ``_LAURENT_MIN_ULPS`` ulps of |center|: the nodes
    center + R*e^(i*theta) round onto too few points, and a settled window
    there can be wrong (on a real center the nodes keep only their
    imaginary parts, and c_1 comes out as half of f'(center)).
    """
    if k_min > k_max:
        raise ValueError("k_min must not exceed k_max")
    R = ann.mid_radius if radius is None else radius
    if not (ann.r < R < ann.outer):
        raise ValueError("quadrature radius must lie inside the annulus")

    ks = np.arange(k_min, k_max + 1)
    span = max(abs(k_min), abs(k_max))
    m = max(_LAURENT_START_NODES, 1 << (2 * span + 8).bit_length())
    bins, scale, nodes = _settled_bins(f, ann.center, R, ks, m)
    for S in (ann.r * ann.lam**0.25, ann.r * ann.lam**0.75):
        other, other_scale, _ = _settled_bins(f, ann.center, S, ks, m)
        # Both sides of |c_k(R) - c_k(S)| <= allowance_k, multiplied by S**k.
        t = (S / R) ** ks.astype(float)
        excess = np.abs(bins * t - other) / (_LAURENT_TOL * (scale * t + other_scale))
        worst = int(np.argmax(excess))
        if not excess[worst] <= 1.0:  # a NaN counts as a mismatch
            raise NonConvergent(
                f"coefficients differ between radii {R:.6g} and {S:.6g} "
                f"(singularity inside the annulus): at k = {int(ks[worst])} the "
                f"mismatch is {excess[worst]:.3g} x its round-off allowance",
                radii=(R, S),
                k=int(ks[worst]),
                excess=float(excess[worst]),
            )
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = bins * R ** (-ks.astype(float))
    finite = np.isfinite(coeffs)
    if not finite.all():
        k = int(ks[np.argmin(finite)])
        raise OutOfRegime(
            f"the Laurent coefficient c_{k} on the radius {R:.6g} is past the float range", radius=R, k=k
        )
    if ann.r < _LAURENT_MIN_ULPS * math.ulp(abs(ann.center)):
        raise OutOfRegime(
            f"the radius {ann.r:.6g} is below {_LAURENT_MIN_ULPS} ulps of |center| = {abs(ann.center):.6g}, "
            "so the quadrature nodes round onto too few points",
            radius=ann.r,
            center=ann.center,
        )
    return LaurentExpansion(ann.center, k_min, k_max, coeffs, nodes, scale)


def annulus_inner_product(f: Callable, g: Callable, ann: AnnulusSpec) -> complex:
    """(1/pi) * integral over the annulus of f * conj(g), by tensor quadrature.

    Gauss-Legendre radially (``_AREA_RADIAL_NODES``), trapezoid in angle
    (``_AREA_ANGULAR_NODES``).  This is the cross-check route for
    laurent_coefficients and for the basis-norm formulas.
    """
    n_theta = _AREA_ANGULAR_NODES
    nodes, weights = np.polynomial.legendre.leggauss(_AREA_RADIAL_NODES)
    s = 0.5 * (ann.outer - ann.r) * nodes + 0.5 * (ann.outer + ann.r)
    ws = 0.5 * (ann.outer - ann.r) * weights
    theta = math.tau * np.arange(n_theta) / n_theta
    zs = ann.center + s[:, None] * np.exp(1j * theta[None, :])
    radial = (f(zs) * np.conj(g(zs))).sum(axis=1) * (math.tau / n_theta)
    return complex(np.sum(radial * ws * s) / math.pi)


def laurent_coefficient_l2(f: Callable, ann: AnnulusSpec, k: int) -> complex:
    """Coefficient via the inner-product formula <f|phi_k>/||phi_k||**2."""
    phi = lambda z: (z - ann.center) ** float(k)
    return annulus_inner_product(f, phi, ann) / basis_norm(k, ann.r, ann.lam) ** 2


@dataclass(frozen=True)
class PolarPart:
    """Negative-index half of a Laurent expansion; holomorphic off the disc."""

    center: complex
    ks: np.ndarray  # negative indices, descending from -1
    coefficients: np.ndarray
    r: float
    lam: float

    def evaluate(self, z) -> complex | np.ndarray:
        w = np.asarray(z, dtype=complex) - self.center
        vals = np.zeros_like(w)
        for k, c in zip(self.ks, self.coefficients):
            vals = vals + c * w ** float(k)
        return complex(vals) if np.isscalar(z) or vals.shape == () else vals

    def sup_on_circle(self, radius: float) -> float:
        """Sampled sup of |polar part| on a circle, at ``_CIRCLE_SUP_SAMPLES`` points."""
        samples = _CIRCLE_SUP_SAMPLES
        zs = self.center + radius * np.exp(1j * math.tau * np.arange(samples) / samples)
        return float(np.max(np.abs(self.evaluate(zs))))


def polar_part(f: Callable, ann: AnnulusSpec, k_depth: int = 64) -> PolarPart:
    """Polar part of f at the annulus center.

    Extracts the negative-index Laurent coefficients and drops those whose
    contribution |c_k|*r**k on the inner circle falls below
    ``_POLAR_TRUNCATE`` times the largest such contribution.  The result evaluates on the whole
    exterior of the inflated disc and obeys the extension estimate checked
    by extension_bound.
    """
    exp = laurent_coefficients(f, ann, k_min=-k_depth, k_max=0)
    ks = np.arange(-1, -k_depth - 1, -1)
    coeffs = np.array([exp.coefficient(int(k)) for k in ks])
    weights = np.abs(coeffs) * ann.r ** ks.astype(float)
    scale = max(float(weights.max(initial=0.0)), 1e-300)
    keep = weights >= _POLAR_TRUNCATE * scale
    return PolarPart(ann.center, ks[keep], coeffs[keep], ann.r, ann.lam)


def annulus_sup(f: Callable, ann: AnnulusSpec) -> float:
    """Measured sup of |f| over the annulus (attained on its boundary circles).

    Each circle carries ``_ANNULUS_SUP_SAMPLES`` points.
    """
    samples = _ANNULUS_SUP_SAMPLES
    theta = np.exp(1j * math.tau * np.arange(samples) / samples)
    zs = np.concatenate(
        [ann.center + ann.r * theta, ann.center + ann.outer * theta]
    )
    return float(np.max(np.abs(f(zs))))


def extension_bound(ann: AnnulusSpec, annulus_sup_value: float) -> float:
    """Exterior sup bound for the polar part: s(lam) * r * (annulus sup)."""
    return s_lambda(ann.lam) * ann.r * annulus_sup_value


def fiber_polar_sum(
    seq: TermSequence,
    omega_proj: complex,
    z: complex,
    tol: float = 1e-10,
    sheet_limit: int = 100_000,
) -> SumResult:
    """Sum of the polar parts of all sheets whose pole set contains omega_proj.

    Every model in this package has simple poles, so the sheet-n polar part
    at the pole is residue/(z - pole).  The tail over unsummed sheets is
    bounded by s(lam) * sum_{n>N} r_n * norm_bound(n) <= s(lam) * c *
    sum_{n>N} n**-alpha * norm_bound(n), which the decay certificate sums
    as s(lam) * C * c * sum_{n>N} n**(q-alpha) * sigma**n (``DecayCert.tail``
    with the power q - alpha); that also guarantees the summability
    hypothesis sum_n norm_bound(n)*r_n < infinity.  The terms are added one
    by one, and ``SumResult.rounding`` bounds the rounding of that sum.
    """
    perf = seq.perforation
    radius = perf.radius
    cert = seq.decay_cert
    if cert is None or not isinstance(radius, DiophantineRadius):
        raise DiophantineRequired(
            "fiber polar sums need a decay certificate over a Diophantine radius"
        )
    fiber = iter(perf.poles.sheets_containing(omega_proj, sheet_limit))  # drawn up to the stop alone
    n0 = next(fiber, None)
    if n0 is None:
        raise ValueError(f"{omega_proj} is not a pole projection of this family")
    if abs(z - omega_proj) < radius.lam * radius.value(n0):
        raise PoleProximity(n0, omega_proj)

    s_val = s_lambda(radius.lam)
    acc, mag, count = 0j, 0.0, 0
    for n in itertools.chain([n0], fiber):
        pole, _ = perf.nearest_pole(n, omega_proj)
        term = seq.residue(n, pole) / (z - pole)
        acc += term
        mag, count = mag + abs(term.real) + abs(term.imag), count + 1
        tail = s_val * radius.c * cert.tail(n, cert.q - radius.alpha)
        if tail <= tol:
            break
    else:
        if not perf.poles.finite_fibers:
            raise NonConvergent(f"fiber tail bound {tail:.3g} still above tol after sheet {n}")
        tail = 0.0  # the fiber is exhausted: no tail at all
    # Each part of the sum rounds by at most gamma_{count-1} = (count-1)*u/(1 - (count-1)*u) times the sum of its
    # |t|, u = 2**-53 (Higham, ch. 4.2, and 0 + t is exact); 1 + 2**-16 covers gamma's denominator and the roundings
    # of mag and of this product, under 2**32 terms.
    rounding = math.nextafter((count - 1) * 2.0**-53 * mag * (1.0 + 2.0**-16), math.inf) if count > 1 else 0.0
    return SumResult(acc, n, tail, rounding)
