"""Dephasing noise models: quasi-static detuning spread, an
Ornstein-Uhlenbeck bath, and pulse amplitude errors.

The OU process x(t) has stationary std b (rad/s), correlation time
tau_c (s), autocovariance C(t) = b^2 exp(-|t|/tau_c) and two-sided PSD
S(w) = 2 b^2 tau_c / (1 + w^2 tau_c^2).  The exact trajectory sampler
and the FID and echo closed forms that the tests hold this module to
are in nvsim.oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sequences import toggling_segments

# Above this ratio the echo response to the bath is effectively
# quasi-static and a finite calibration target cannot plausibly be
# attributed to bath dynamics.
MAX_TAU_C_RATIO = 1000.0


@dataclass(frozen=True)
class QuasiStaticSpread:
    """Zero-mean Gaussian static detuning per spin, std sigma_delta (rad/s)."""

    sigma_delta: float

    def __post_init__(self):
        if self.sigma_delta < 0:
            raise ValueError("sigma_delta must be >= 0")


@dataclass(frozen=True)
class OUBath:
    """Ornstein-Uhlenbeck detuning bath with coupling b and correlation tau_c."""

    b: float
    tau_c: float

    def __post_init__(self):
        if self.b < 0:
            raise ValueError("b must be >= 0")
        if self.tau_c <= 0:
            raise ValueError("tau_c must be > 0")

    def psd(self, omega):
        """Two-sided power spectral density, rad^2/s^2 per (rad/s)."""
        return 2.0 * self.b**2 * self.tau_c / (1.0 + (np.asarray(omega) * self.tau_c) ** 2)


@dataclass(frozen=True)
class AmplitudeErrorModel:
    """Fractional Rabi-frequency error, fixed per spin per run.

    epsilon_i = systematic + N(0, sigma^2), redrawn until 1 + eps > 0.
    """

    sigma: float = 0.0
    systematic: float = 0.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if 1.0 + self.systematic <= 0:
            raise ValueError("1 + systematic must be > 0")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        eps = self.systematic + self.sigma * rng.standard_normal(n)
        bad = eps <= -1.0
        while np.any(bad):
            eps[bad] = self.systematic + self.sigma * rng.standard_normal(int(bad.sum()))
            bad = eps <= -1.0
        return eps


NO_AMPLITUDE_ERROR = AmplitudeErrorModel()


def sigma_from_t2star(t2_star: float) -> float:
    """Detuning spread giving a Gaussian FID envelope with 1/e time t2_star.

    W(t) = exp(-sigma^2 t^2 / 2) = 1/e at t = t2_star  =>  sigma = sqrt(2)/t2_star.
    """
    if t2_star <= 0:
        raise ValueError("t2_star must be > 0")
    return math.sqrt(2.0) / t2_star


class OUTransition(NamedTuple):
    """Gaussian law of (integral over an interval, value at its end) given
    the value x at the start: with independent standard normals z1, z2,

        integral = int_x x + a21 z1 + a22 z2,    end = end_x x + a11 z1.
    """

    int_x: float
    end_x: float
    a11: float
    a21: float
    a22: float


def ou_transition(lead: float, L: float, bath: OUBath) -> OUTransition:
    """Exact joint law of the OU integral over L seconds and the value at
    its end, reached after `lead` unintegrated seconds from the start value.

    Over L alone (lead = 0) the pair is Gaussian with the covariance of
    Gillespie, Phys. Rev. E 54, 2084 (1996), factored by Cholesky.  The
    lead scales both means by e^(-lead/tau_c) and adds the variance
    b^2 (1 - e^(-2 lead/tau_c)) of the value it hands on, along
    g = (tau_c (1 - mu), mu) with mu = e^(-L/tau_c).  With lead = 0 that
    term is exactly zero, so the coefficients are those of L alone.
    """
    b, tau = bath.b, bath.tau_c
    h = L / tau
    mu = math.exp(-h)
    one_minus_mu = -math.expm1(-h)
    # g2 = 2h - 3 + 4 e^-h - e^-2h, series-protected for small h
    if h < 0.01:
        g2 = (2.0 / 3.0) * h**3 - 0.5 * h**4 + (7.0 / 30.0) * h**5
    else:
        g2 = 2.0 * h - 3.0 + 4.0 * mu - mu * mu
    g_int = tau * one_minus_mu
    c = b * b * -math.expm1(-2.0 * lead / tau)
    v11 = b * b * (-math.expm1(-2.0 * h)) + c * mu * mu
    v12 = b * b * tau * one_minus_mu**2 + c * g_int * mu
    v22 = b * b * tau * tau * g2 + c * g_int * g_int
    a11 = math.sqrt(v11)
    a21 = v12 / a11 if a11 > 0.0 else 0.0
    a22 = math.sqrt(max(v22 - a21 * a21, 0.0))
    lead_mu = math.exp(-lead / tau)
    return OUTransition(g_int * lead_mu, mu * lead_mu, a11, a21, a22)


def ou_chi_exact(pi_times: np.ndarray, total_t: float, bath: OUBath) -> float:
    """Exact decoherence exponent for an ideal pi-pulse train under OU noise.

    Time-domain double integral of the autocovariance against the
    toggling sign y_i = (-1)^i of segment i = [a_i, e_i], in closed form
    and O(m).  With h_i = (e_i - a_i)/tau_c and g_i = 1 - e^(-h_i):

        chi = b^2 tau_c^2 sum_i [ h_i - 1 + e^(-h_i) + y_i g_i R_i ],
        R_i = sum_{j<i} y_j g_j e^(-(a_i - e_j)/tau_c),
        R_(i+1) = e^(-h_i) R_i + y_i g_i,

    so the cross terms are a running sum that only decays.  g_i uses
    expm1 and the diagonal a series for h < 0.01, so each term keeps its
    digits.  The sum does not: at tau_c >> T the diagonal terms (about
    h_i^2/2) and the cross terms cancel down to order h_i^3, so the
    relative error grows with tau_c over the shortest segment.  Against
    a 50-digit reference at T = 9 us it is 3.6e-13 (echo) and 2.0e-12
    (XY16-16) at tau_c = 100 T, 4.5e-13 and 4.2e-10 at 1000 T (the
    longest calibrate_bath accepts), and 4.9e-11 for an echo at 1e5 T.
    Independent of the frequency-domain route in
    filters.coherence_analytic.  FloatingPointError rather than nan.
    """
    bounds, signs = toggling_segments(pi_times, total_t)
    tau = bath.tau_c
    acc = 0.0
    r = 0.0
    for L, y in zip(np.diff(bounds).tolist(), signs.tolist()):
        h = L / tau
        g = -math.expm1(-h)
        if h < 0.01:
            diag = h * h * (0.5 - h * (1.0 / 6.0 - h * (1.0 / 24.0 - h * (1.0 / 120.0 - h / 720.0))))
        else:
            diag = h + math.expm1(-h)
        acc += diag + y * g * r
        r = math.exp(-h) * r + y * g
    chi = bath.b**2 * tau * tau * acc
    if math.isnan(chi):  # b^2 tau_c^2 underflowed to 0 against an infinite sum
        raise FloatingPointError(f"the OU exponent is nan at b = {bath.b!r} rad/s, tau_c = {tau!r} s")
    return chi


def calibrate_bath(target_t2: float, tau_c: float) -> OUBath:
    """The OU coupling b at which the echo coherence hits 1/e at target_t2.

    The echo exponent is exactly b^2 chi_1 with chi_1 = ou_chi_exact at
    b = 1, so b = 1/sqrt(chi_1) in closed form.  tau_c above
    MAX_TAU_C_RATIO * target_t2 is rejected: in that regime the bath is
    quasi-static and the echo barely decays at the target time.  Raises
    ValueError if chi_1 is not finite and positive.
    """
    if target_t2 <= 0:
        raise ValueError("target_t2 must be > 0")
    if tau_c > MAX_TAU_C_RATIO * target_t2:
        raise ValueError(
            f"tau_c = {tau_c} exceeds {MAX_TAU_C_RATIO} * target_t2: "
            "quasi-static bath, echo calibration is ill-conditioned"
        )
    chi_unit = ou_chi_exact([target_t2 / 2.0], target_t2, OUBath(1.0, tau_c))
    if not (math.isfinite(chi_unit) and chi_unit > 0.0):
        raise ValueError(f"echo exponent at b = 1 is {chi_unit!r}, not finite and positive")
    return OUBath(1.0 / math.sqrt(chi_unit), tau_c)
