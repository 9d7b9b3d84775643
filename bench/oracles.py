"""Independent reference values for every result the benchmark checks.

Each oracle is a closed form or a brute force written without calling the
meandro code it checks:

* meander jets at 0 are Eulerian power sums, evaluated exactly with
  Fractions from the explicit Eulerian-number formula;
* q-log jets at 0 are the Lambert series a_0 = -x/(1-x), a_m = -sum_{d|m} x^d;
* sums at a point are brute-force partial sums taken far past the point where
  the remaining terms drop below double precision, added with math.fsum;
* membership verdicts come from a numpy scan over every sheet up to the cutoff;
* truncation-curve roots come from bisection: the truncated meander equation
  is strictly increasing between consecutive poles, so each interval holds
  exactly one real root.

A checked value is a miss when it differs from its oracle by more than its
own reported tail bound plus the fixed rounding allowance for its kind.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

#: Rounding allowances, relative to the sum of absolute term magnitudes.
SUM_REL = 1e-12
JET_REL = 1e-12
#: Relative allowance for Gevrey fits and truncation values built on jets.
GEVREY_REL = 1e-8
#: Absolute allowance for covering margins and fiber sums.
MARGIN_ABS = 1e-12
#: Allowance for Laurent coefficients, relative to sup|f| * R**(-k) on the
#: quadrature circle, the scale at which the FFT quadrature settles.
LAURENT_REL = 1e-9
#: Relative allowance for truncation-curve roots.
ROOT_REL = 1e-9

_TWO_PI = 2.0 * math.pi


def close(got: complex, want: complex, tail: float, scale: float, rel: float) -> bool:
    """True when |got - want| is within the tail bound plus rel * scale."""
    return abs(got - want) <= tail + rel * scale


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------


def _eulerian_row(k: int) -> list[int]:
    """Eulerian numbers A(k, m), m = 0..k-1, from the explicit alternating sum."""
    return [
        sum((-1) ** j * math.comb(k + 1, j) * (m + 1 - j) ** k for j in range(m + 1))
        for m in range(k)
    ]


def power_sum(k: int, x: float) -> Fraction:
    """Exact sum_{n>=1} n**k x**n for the binary value of x, |x| < 1."""
    q = Fraction(x)
    if k == 0:
        return q / (1 - q)
    poly = sum(a * q**m for m, a in enumerate(_eulerian_row(k)))
    return q * poly / (1 - q) ** (k + 1)


def meander_jet(x: float, order: int) -> list[float]:
    """a_k of sum_n x**n/(1 + n z) at z = 0: (-1)**k * sum_n n**k x**n."""
    return [float((-1) ** k * power_sum(k, x)) for k in range(order + 1)]


def lambert_jet(x: float, order: int) -> list[float]:
    """a_m of sum_n x**n/(z**n - 1) at z = 0 (Lambert series)."""
    q = Fraction(x)
    out = [float(-q / (1 - q))]
    for m in range(1, order + 1):
        out.append(float(-sum(q**d for d in range(1, m + 1) if m % d == 0)))
    return out


def pullback_jet(base: list[float], beta: int, order: int) -> list[float]:
    """Jet of F(w) = f(w**beta) at 0: a_{beta j}(F) = a_j(f), other orders 0."""
    return [base[k // beta] if k % beta == 0 else 0.0 for k in range(order + 1)]


# ---------------------------------------------------------------------------
# Sums at a point
# ---------------------------------------------------------------------------


def _terms_needed(x: complex) -> int:
    return int(math.log(1e-24) / math.log(abs(x))) + 64


def _fsum_complex(terms: np.ndarray) -> tuple[complex, float]:
    value = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
    return value, float(np.abs(terms).sum())


def meander_sum(x: complex, z: complex) -> tuple[complex, float]:
    """(sum_n x**n/(1 + n z), sum_n |term|) by brute force."""
    n = np.arange(1, _terms_needed(x) + 1, dtype=float)
    return _fsum_complex(x**n / (1.0 + n * z))


def qlog_sum(x: complex, z: complex) -> tuple[complex, float]:
    """(sum_n x**n/(z**n - 1), sum_n |term|) by brute force."""
    terms = [x**n / (z**n - 1.0) for n in range(1, _terms_needed(x) + 1)]
    return _fsum_complex(np.array(terms, dtype=complex))


def zero_sum_general_sum(c: complex, poles: list, z: complex) -> tuple[complex, float]:
    """Exact finite sum c + sum_k a_k z**k/(1 - z/e_k) of the zero-sum family.

    The coefficients cancel the jet of the partial sums at 0 order by order;
    they are solved here in 60-digit arithmetic so that the cancellation
    costs no accuracy.
    """
    import mpmath

    def num(v):
        if isinstance(v, Fraction):
            return mpmath.mpf(v.numerator) / v.denominator
        return mpmath.mpmathify(v)

    with mpmath.workdps(60):
        es = [num(e) for e in poles]
        a = [-num(c)]
        for k in range(len(es) - 1):
            a.append(-mpmath.fsum(a[j] * es[j] ** (-(k + 1 - j)) for j in range(k + 1)))
        w = mpmath.mpmathify(z)
        terms = [a[k] * w**k / (1 - w / es[k]) for k in range(len(es))]
        terms[0] += num(c)
        total = mpmath.fsum(terms)
        return complex(total), float(mpmath.fsum(abs(t) for t in terms))


def fiber_sum(x: complex, omega: complex, z: complex) -> complex:
    """Sum of the q-log polar parts over every sheet whose poles contain omega.

    omega is a primitive d-th root of unity, so it lies on sheets n = d*j,
    with residue x**n * omega/n each:  -log(1 - x**d)/d * omega/(z - omega).
    """
    d = next(n for n in range(1, 1000) if abs(omega**n - 1.0) < 1e-12)
    return -cmath.log(1.0 - x**d) / d * omega / (z - omega)


# ---------------------------------------------------------------------------
# Laurent coefficients
# ---------------------------------------------------------------------------


def qlog_laurent(x: complex, n: int, w: complex, k_min: int, k_max: int) -> dict[int, complex]:
    """Laurent coefficients of x**n/(z**n - 1) at its simple pole w.

    z**n - 1 = (z - w) h(z) with h(w + u) = sum_j C(n, j+1) w**(n-1-j) u**j,
    so the coefficients are x**n times those of 1/h shifted by one.
    """
    h = [math.comb(n, j + 1) * w ** (n - 1 - j) for j in range(n)]
    inv = [1.0 / h[0]]
    for j in range(1, k_max + 2):
        acc = sum(h[i] * inv[j - i] for i in range(1, min(j, n - 1) + 1))
        inv.append(-acc / h[0])
    out = {}
    for k in range(k_min, k_max + 1):
        out[k] = x**n * inv[k + 1] if k >= -1 else 0j
    return out


# ---------------------------------------------------------------------------
# Residual-set membership
# ---------------------------------------------------------------------------


def membership(family: dict, z: complex, cutoff: int, margin: float = 0.0):
    """Verdict ('in' | 'out' | 'unknown', sheet, pole) by scanning every sheet.

    ``family`` is {"kind": "roots", "c", "alpha"}, {"kind": "meander", "c",
    "alpha"} or {"kind": "explicit", "poles": {n: [p, ...]}, "radii": {n: r}}.
    Beyond the cutoff, parametric families are discharged when the distance
    from z to every remaining pole exceeds the largest remaining radius;
    explicit tables with unscanned sheets give 'unknown'.
    """
    kind = family["kind"]
    if kind == "explicit":
        for n in sorted(family["poles"]):
            if n > cutoff:
                return "unknown", None, None
            poles = np.asarray(family["poles"][n], dtype=complex)
            d = np.abs(z - poles)
            i = int(np.argmin(d))
            if d[i] < family["radii"][n] * (1.0 + margin):
                return "out", n, complex(poles[i])
        return "in", None, None

    c, alpha = family["c"], family["alpha"]
    n = np.arange(1, cutoff + 1)
    radius = c / n.astype(float) ** alpha * (1.0 + margin)
    if kind == "roots":
        centre = np.rint(n * (cmath.phase(z) / _TWO_PI))
        cand = centre[:, None] + np.array([-1.0, 0.0, 1.0])[None, :]
        roots = np.exp(1j * _TWO_PI * cand / n[:, None])
        dist = np.abs(z - roots)
        pick = np.argmin(dist, axis=1)
        nearest = roots[n - 1, pick]
        d = dist[n - 1, pick]
        tail_dist = abs(abs(z) - 1.0)
    else:
        nearest = -1.0 / n + 0j
        d = np.abs(z - nearest)
        edge = -1.0 / (cutoff + 1)
        tail_dist = abs(z - min(max(z.real, edge), 0.0))
    hit = np.nonzero(d < radius)[0]
    if len(hit):
        i = int(hit[0])
        return "out", int(n[i]), complex(nearest[i])
    if tail_dist >= c / cutoff**alpha * (1.0 + margin):
        return "in", None, None
    return "unknown", None, None


def cauchy_verified(entries: list[tuple[complex, float]], lam: float) -> bool:
    """Every pair of poles with distinct projections keeps |p - q| >= lam (r_p + r_q)."""
    p = np.array([e[0] for e in entries], dtype=complex)
    r = np.array([e[1] for e in entries], dtype=float)
    gap = np.abs(p[:, None] - p[None, :])
    need = lam * (r[:, None] + r[None, :])
    bad = (gap < need) & (gap > 0.0)
    return not bool(bad.any())


# ---------------------------------------------------------------------------
# Covering, truncation curves and Gevrey diagnostics
# ---------------------------------------------------------------------------


def inclusion_margins(omega: complex, r: float, alpha: int, n_angles: int):
    """(s, rho, margin_preimage, margin_image) or None if a hypothesis fails."""
    denom = 2.0**alpha - 1.0
    s = alpha * r ** (2.0 - 1.0 / alpha) / denom
    rho = r / denom
    eta = omega**alpha
    if abs(omega) > 1.0 + 1e-12 or rho >= abs(omega) or r >= abs(eta):
        return s, rho, None
    ring = np.exp(1j * _TWO_PI * np.arange(n_angles) / n_angles)
    # The alpha-th root of w nearest omega is omega * (w/eta)**(1/alpha) on
    # the principal branch, because |w/eta - 1| = s/|eta| < 1.
    pre = np.abs(omega * ((eta + s * ring) / eta) ** (1.0 / alpha) - omega)
    image = np.abs((omega + rho * ring) ** alpha - eta)
    return s, rho, (rho - float(pre.max()), r - float(image.max()))


def _curve_residual(z: float, x: float, n: int) -> float:
    return z - math.fsum(x**k / (1.0 + k * z) for k in range(1, n + 1))


def _bisect(lo: float, hi: float, x: float, n: int) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        try:
            negative = _curve_residual(mid, x, n) < 0.0
        except ZeroDivisionError:  # mid rounds onto a pole
            break
        if negative:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def curve_roots(x: float, n: int) -> list[float]:
    """All real roots of z*prod(1 + k z) = sum_k x**k prod_{j!=k}(1 + j z), sorted.

    For x > 0 the function z - sum_k x**k/(1 + k z) increases strictly on each
    interval between consecutive poles -1/k and runs from -inf to +inf, so
    there is one root per interval: n + 1 in all.  For x = 0 the roots are 0
    and the poles themselves.
    """
    if x == 0.0:
        return sorted([0.0] + [-1.0 / k for k in range(1, n + 1)])
    edges = [-1e12] + [-1.0 / k for k in range(1, n + 1)] + [1e12]
    return [_bisect(edges[i], edges[i + 1], x, n) for i in range(n + 1)]


def gevrey_fit(coeffs: list[float], lo: int, hi: int) -> tuple[float, float]:
    """(C, alpha) of the least-squares fit log|a_k| = k log C + alpha log k!."""
    ks = [k for k in range(max(lo, 1), min(hi, len(coeffs) - 1) + 1) if coeffs[k] != 0.0]
    y = np.log([abs(coeffs[k]) for k in ks])
    design = np.array([[k, math.lgamma(k + 1)] for k in ks])
    sol = np.linalg.lstsq(design, y, rcond=None)[0]
    return math.exp(sol[0]), float(sol[1])


def root_test(coeffs: list[float], window: int = 5) -> tuple[float, str]:
    """(last radius estimate, verdict) of the sliding-window root test."""
    est = []
    for start in range(1, len(coeffs) - window + 1):
        roots = [abs(coeffs[k]) ** (1.0 / k) for k in range(start, start + window) if coeffs[k] != 0.0]
        est.append(1.0 / max(roots) if roots else math.inf)
    last = est[-3:]
    divergent = len(last) == 3 and all(map(math.isfinite, last)) and last[0] > last[1] > last[2]
    return est[-1], "divergent-like" if divergent else "convergent-like"
