"""Gevrey-class fitting, smallest-term summation and divergence diagnostics.

A coefficient sequence with |a_k| ~ C**k * (k!)**alpha is fitted by least
squares on log|a_k| = k*log(C) + alpha*log(k!), with log(k!) evaluated
through the log-gamma function (Stirling would bias alpha by O(1/k)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InsufficientData, OutOfRegime
from .series import TaylorJet

#: Coefficients in each window of ``divergence_diagnostic``.
_DIAGNOSTIC_WINDOW = 5


@dataclass(frozen=True)
class GevreyFit:
    C: float
    alpha: float
    r_squared: float
    window: tuple[int, int]
    points_used: int


def _r_squared(y: np.ndarray, fitted: np.ndarray) -> float:
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def gevrey_fit(coeffs: Sequence[complex], window: tuple[int, int] | None = None) -> GevreyFit:
    """Fit (C, alpha) to log|a_k| ~ k*log(C) + alpha*lgamma(k+1).

    Zero coefficients (and k = 0, where both regressors vanish) are skipped.
    The residual quality is reported as a coefficient of determination and
    never hidden.
    """
    a = np.asarray(coeffs, dtype=complex)
    lo, hi = window if window is not None else (1, len(a) - 1)
    ks = np.array(
        [k for k in range(max(lo, 1), min(hi, len(a) - 1) + 1) if abs(a[k]) > 0.0]
    )
    if len(ks) < 8:
        raise InsufficientData("need at least 8 nonzero coefficients in the window")
    y = np.log(np.abs(a[ks]))
    design = np.column_stack([ks, [math.lgamma(k + 1) for k in ks]])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ sol
    return GevreyFit(
        C=float(math.exp(sol[0])),
        alpha=float(sol[1]),
        r_squared=_r_squared(y, fitted),
        window=(int(ks[0]), int(ks[-1])),
        points_used=len(ks),
    )


@dataclass(frozen=True)
class TruncationResult:
    m: int
    value: complex
    envelope_arg: float  # |z - center|**(-1/alpha), the flat-error abscissa


def smallest_term_truncation(
    source: TaylorJet | Sequence[complex], z: complex, C: float, alpha: float
) -> TruncationResult:
    """Truncate at the smallest term: m = floor((C*|z|)**(-1/alpha)).

    Returns the partial sum through order m-1 and the abscissa
    |z|**(-1/alpha) against which the exponentially small error
    A*exp(-B*|z|**(-1/alpha)) is fitted downstream.
    """
    if isinstance(source, TaylorJet):
        coeffs = source.coefficients
        center = source.center
    else:
        coeffs = np.asarray(source, dtype=complex)
        center = 0j
    w = z - center
    q = C * abs(w)
    if q >= 1.0:
        raise OutOfRegime(f"C*|z| = {q:.3g} >= 1: no smallest term")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    m = int(math.floor(q ** (-1.0 / alpha)))
    if m > len(coeffs):
        raise InsufficientData(f"truncation order {m} exceeds the {len(coeffs)} stored coefficients")
    acc = 0j
    for k in range(m - 1, -1, -1):
        acc = acc * w + coeffs[k]
    return TruncationResult(m=m, value=acc, envelope_arg=abs(w) ** (-1.0 / alpha))


class DivergenceVerdict(Enum):
    CONVERGENT_LIKE = "convergent-like"
    DIVERGENT_LIKE = "divergent-like"


@dataclass(frozen=True)
class DivergenceReport:
    radius_estimate: float
    verdict: DivergenceVerdict
    window_estimates: tuple[float, ...]


def divergence_diagnostic(coeffs: Sequence[complex]) -> DivergenceReport:
    """Sliding-window root-test radius estimate 1/max|a_k|**(1/k).

    Each window holds ``_DIAGNOSTIC_WINDOW`` consecutive orders from k = 1 on.

    The verdict is divergent-like when the estimate decreases strictly over
    the last three windows (poles crowding the expansion point drive the
    radius to zero); it is scale-equivariant under a_k -> sigma**k a_k.
    """
    a = np.asarray(coeffs, dtype=complex)
    if len(a) < 10:
        raise InsufficientData("need at least 10 coefficients")
    estimates = []
    for start in range(1, len(a) - _DIAGNOSTIC_WINDOW + 1):
        ks = np.arange(start, start + _DIAGNOSTIC_WINDOW)
        mags = np.abs(a[ks])
        nz = mags > 0.0
        if not nz.any():
            estimates.append(math.inf)
            continue
        root_vals = mags[nz] ** (1.0 / ks[nz])
        estimates.append(1.0 / float(np.max(root_vals)))
    last = estimates[-3:]
    divergent = (
        len(last) == 3
        and all(math.isfinite(v) for v in last)
        and last[0] > last[1] > last[2]
    )
    verdict = DivergenceVerdict.DIVERGENT_LIKE if divergent else DivergenceVerdict.CONVERGENT_LIKE
    return DivergenceReport(
        radius_estimate=estimates[-1], verdict=verdict, window_estimates=tuple(estimates)
    )


@dataclass(frozen=True)
class FlatnessFit:
    A: float
    B: float
    r_squared: float


def flatness_check(values: Sequence[tuple[complex, float]], alpha: float) -> FlatnessFit:
    """Fit log|S(f)(z)| ~ log(A) - B*|z|**(-1/alpha) on ray samples.

    B > 0 with a good fit is the numerical signature of exponential flatness
    (the hypothesis under which a flat function must vanish); B near 0 or a
    poor fit means no flatness.  Zero magnitudes are skipped.
    """
    pts = [(abs(z), mag) for z, mag in values if mag > 0.0]
    if len(pts) < 8:
        raise InsufficientData("need at least 8 positive magnitudes")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    u = np.array([t ** (-1.0 / alpha) for t, _ in pts])
    y = np.log([mag for _, mag in pts])
    slope, intercept = np.polyfit(u, y, 1)
    fitted = slope * u + intercept
    return FlatnessFit(A=float(np.exp(intercept)), B=float(-slope), r_squared=_r_squared(y, fitted))
