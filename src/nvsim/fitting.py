"""Deterministic nonlinear least-squares fits for the experiment curves.

Every fit uses a documented, data-derived initialization (no randomness)
and a fixed trust-region solve, so identical data produce bit-identical
results.  A fit has converged when the solver succeeded and every
parameter has a finite standard error.  Models:

    lorentzian dip : c - d * (hw^2 / ((x - x0)^2 + hw^2))
    damped sine    : a * exp(-t/tau_d) * cos(2 pi f t) + c
    stretched exp  : a * exp(-(t/t2)^p), p bounded to [0.5, 3]
    sine           : a * sin(k x)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

MAX_NFEV = 500
FIT_TOL = 1e-10


class FitError(ValueError):
    """The data admit no fit of the model: a decay with no positive value, a sine with no slope."""


@dataclass(frozen=True)
class CurveFitResult:
    params: np.ndarray
    stderr: np.ndarray
    cov: np.ndarray  # of the params: all NaN if J is numerically rank-deficient
    residual_rms: float
    converged: bool
    param_names: tuple = ()


def _finish(res, n_pts: int, names) -> CurveFitResult:
    rms = math.sqrt(2.0 * res.cost / n_pts) if n_pts else 0.0
    m = len(res.x)
    # covariance from J^T J, unless J is numerically rank-deficient once its
    # columns are scaled to unit norm (the units alone put cond(J^T J) past
    # 1/eps for odmr): inv(J^T J) is then rounding noise of either sign.
    # A negative variance is no error bar either.
    cov = np.full((m, m), np.nan)
    try:
        norm = np.linalg.norm(res.jac, axis=0)
        sv = np.linalg.svd(res.jac / np.where(norm > 0.0, norm, 1.0), compute_uv=False)
        if sv[-1] > np.finfo(float).eps * sv[0] * max(res.jac.shape):
            cov = np.linalg.inv(res.jac.T @ res.jac) * (2.0 * res.cost / max(n_pts - m, 1))
    except np.linalg.LinAlgError:
        pass
    var = np.diag(cov)
    stderr = np.sqrt(np.where(var < 0.0, np.nan, var))
    # a parameter without a finite error bar is not determined by the data
    converged = bool(res.success) and bool(np.all(np.isfinite(stderr)))
    return CurveFitResult(res.x, stderr, cov, rms, converged, tuple(names))


def _solve(model, x, y, x0, names, bounds=(-np.inf, np.inf)) -> CurveFitResult:
    """Least squares of model(x, *p) - y from x0."""
    res = least_squares(
        lambda p: model(x, *p) - y, x0, bounds=bounds, xtol=FIT_TOL, ftol=FIT_TOL, gtol=FIT_TOL, max_nfev=MAX_NFEV
    )
    return _finish(res, len(x), names)


def lorentzian_dip(x, x0, fwhm, depth, baseline):
    hw = fwhm / 2.0
    return baseline - depth * hw * hw / ((x - x0) ** 2 + hw * hw)


def fit_lorentzian(x, y) -> CurveFitResult:
    """Fit a single Lorentzian dip.

    Seeds: x0 at the minimum sample, baseline from the edge samples,
    depth from the dip, width from the half-depth crossings.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 8:
        raise ValueError("need at least 8 points for a 4-parameter fit")
    i0 = int(np.argmin(y))
    baseline = 0.5 * (np.median(y[: max(len(y) // 10, 2)]) + np.median(y[-max(len(y) // 10, 2):]))
    depth = baseline - y[i0]
    half = baseline - depth / 2.0
    below = np.where(y < half)[0]
    if len(below) >= 2:
        fwhm = abs(x[below[-1]] - x[below[0]])
    else:
        fwhm = abs(x[-1] - x[0]) / 10.0
    fwhm = max(fwhm, abs(x[1] - x[0]))
    return _solve(lorentzian_dip, x, y, [x[i0], fwhm, depth, baseline], ("x0", "fwhm", "depth", "baseline"))


def damped_sine(t, a, tau_d, f, c):
    return a * np.exp(-t / tau_d) * np.cos(2.0 * math.pi * f * t) + c


def fit_damped_sine(t, y) -> CurveFitResult:
    """Fit a * exp(-t/tau_d) cos(2 pi f t) + c; frequency seeded from the
    discrete Fourier peak of the mean-subtracted data."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(t) < 8:
        raise ValueError("need at least 8 points for a 4-parameter fit")
    c0 = float(np.mean(y))
    a0 = float(np.max(y) - np.min(y)) / 2.0
    f0 = _fourier_peak_freq(t, y - c0)
    span = t[-1] - t[0] if t[-1] > t[0] else 1.0
    return _solve(
        damped_sine,
        t,
        y,
        [a0, 2.0 * span, f0, c0],
        ("a", "tau_d", "f", "c"),
        bounds=([0.0, 1e-3 * span, 0.0, -np.inf], [np.inf, np.inf, np.inf, np.inf]),
    )


def _fourier_peak_freq(t, y) -> float:
    """Dominant frequency on a uniform grid (DC excluded)."""
    n = len(t)
    dt = (t[-1] - t[0]) / (n - 1)
    spec = np.abs(np.fft.rfft(y))
    spec[0] = 0.0
    k = int(np.argmax(spec))
    return k / (n * dt) if dt > 0 else 1.0


def stretched_exp(t, a, t2, p):
    out = np.zeros_like(np.asarray(t, dtype=float))
    pos = t > 0
    out[pos] = a * np.exp(-((t[pos] / t2) ** p))
    out[~pos] = a
    return out


def fit_stretched_exp(t, y) -> CurveFitResult:
    """Fit a exp(-(t/t2)^p) with p in [0.5, 3].

    Seeds from a log-log linear regression of -ln(y/a0) on ln t using the
    points with 0.05 a0 < y < 0.95 a0.  Raises FitError if no y is positive.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(t) < 6:
        raise ValueError("need at least 6 points for a 3-parameter fit")
    a0 = float(np.max(y))
    if a0 <= 0:
        raise FitError("data has no positive values to fit a decay")
    sel = (y > 0.05 * a0) & (y < 0.95 * a0) & (t > 0)
    if np.count_nonzero(sel) >= 2:
        lx = np.log(t[sel])
        ly = np.log(-np.log(np.clip(y[sel] / a0, 1e-12, 1.0 - 1e-12)))
        p0, intercept = np.polyfit(lx, ly, 1)
        t2_0 = math.exp(-intercept / p0) if p0 != 0 else t[-1]
        p0 = min(max(p0, 0.5), 3.0)
    else:
        # decay not resolved inside the sweep; seed at the sweep edge
        p0, t2_0 = 1.0, t[-1] if t[-1] > 0 else 1.0
    t2_0 = min(max(t2_0, t[t > 0].min() / 10.0), t[-1] * 100.0)
    return _solve(
        stretched_exp,
        t,
        y,
        [a0 if a0 > 0 else 1.0, t2_0, p0],
        ("a", "t2", "p"),
        bounds=([0.0, t[t > 0].min() / 100.0, 0.5], [np.inf, t[-1] * 1e3, 3.0]),
    )


def sine_through_origin(x, a, k):
    return a * np.sin(k * x)


def fit_sine(x, y) -> CurveFitResult:
    """Fit a sin(k x), seeded from the Fourier peak over the sweep,
    falling back to a quarter-period guess for short sweeps."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 6:
        raise ValueError("need at least 6 points")
    a0 = float(np.max(np.abs(y)))
    a0 = a0 if a0 > 0 else 1.0
    span = x[-1] - x[0]
    f0 = _fourier_peak_freq(x, y)
    k0 = 2.0 * math.pi * f0
    if k0 * span < math.pi / 2.0:
        k0 = math.pi / (2.0 * max(abs(x[-1]), abs(x[0]), 1e-300))
    # sign of a from the small-argument slope
    i = np.argsort(np.abs(x))[: max(3, len(x) // 4)]
    if len(i) >= 2 and np.ptp(x[i]) > 0:
        slope = np.polyfit(x[i], y[i], 1)[0]
        a0 = math.copysign(a0, slope if slope != 0 else 1.0)
    return _solve(sine_through_origin, x, y, [a0, k0], ("a", "k"))
