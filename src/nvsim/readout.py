"""Photodetector window model and its one draw, shot_stream.

Each shot runs the sequence twice (readout branches +1 and -1), each
followed by a laser readout pulse with a signal window S (spin-state
dependent) and a late reference window R (spins repolarized, laser level
only):

    S window mean = v0 (1 + lam) (1 - C (1 - p0))
    R window mean = v0 (1 + lam)

The processed output S = (S1 - R1) - (S2 - R2) cancels laser-level
fluctuations within each branch and microwave-power drifts between the
branches.  Laser fluctuation lam has a slow component common to the
whole shot (laser_fluct_rel) and an optional fast component drawn per
laser pulse (laser_fluct_fast_rel); an optional random-walk drift knob
models 1/f-like wander across shots.  Shot noise enters as independent
Gaussian noise per window with std scaling as 1/sqrt(window width).

Every window is affine in standard normals: window w of branch b is
m_w (1 + lam_b) + sigma_w z_w with lam_b = fl z0 + walk + ff z_b, m_w the
window mean at lam = 0 and walk the running sum of drift steps.  Outside
the walk, the seven normals of a shot (z0, z1, z2 and the four z_w) are
i.i.d. across shots, so k fixed combinations of the windows (rows of
weights over s1, r1, s2, r2) are, per shot, exactly mean + R^T w with
w ~ N(0, I_k), R being the triangular QR factor of A^T for the k x 7
coefficient matrix A: A A^T = R^T R, also when A is rank-deficient.
shot_stream therefore draws k normals per shot, not 7, for the rows its
caller names: [TWO_BRANCH], [SINGLE_BRANCH] or the four WINDOWS.  The
draw order is fixed: first the n_shots drift steps (only when
laser_drift_step_rel is set), in one call, then the k normals of each
shot, shot after shot, in one more call.

At zero signal (p0 = 0.5 in both branches) the two-branch output's mean
is exactly 0.0, so the drift walk adds nothing and the processed shots
are i.i.d. N(0, sigma^2) with sigma = |R[0, 0]|.  A sum of L of them is
then one N(0, L sigma^2) draw; the resolution runner in cli uses this to
draw block sums, one normal per cut of the stream, instead of shots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReadoutModel:
    """Window-level voltages for the optical readout chain."""

    v0_v: float = 0.5
    contrast: float = 0.02
    s_window_s: float = 10.0e-6
    r_window_s: float = 50.0e-6
    laser_pulse_s: float = 400.0e-6
    shot_noise_v: float = 5.77e-5
    laser_fluct_rel: float = 0.0
    laser_fluct_fast_rel: float = 0.0
    laser_drift_step_rel: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.contrast < 1.0):
            raise ValueError("contrast must be in (0, 1)")
        if self.s_window_s + self.r_window_s > self.laser_pulse_s:
            raise ValueError("S and R windows must fit inside the laser pulse")
        if self.v0_v <= 0 or self.shot_noise_v < 0:
            raise ValueError("v0_v must be > 0 and shot_noise_v >= 0")

    @property
    def r_noise_v(self) -> float:
        """R-window noise std: scaled by sqrt(width ratio) vs the S window."""
        return self.shot_noise_v * math.sqrt(self.s_window_s / self.r_window_s)


# rows of weights over the windows (s1, r1, s2, r2), one per output of shot_stream
TWO_BRANCH = (1.0, -1.0, -1.0, 1.0)  # (S1 - R1) - (S2 - R2)
SINGLE_BRANCH = (1.0, -1.0, 0.0, 0.0)  # S1 - R1, the A/B arm without the branch pair
WINDOWS = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))


def shot_law(p0_plus, p0_minus, model: ReadoutModel, rows) -> tuple[np.ndarray, np.ndarray]:
    """(mean, factor) of rows @ (s1, r1, s2, r2) for one shot, drift walk aside.

    The k outputs are mean + factor @ w with w ~ N(0, I_k), so their
    covariance is factor @ factor.T; the drift walk adds mean times the
    running sum of the drift steps.
    """
    for p in (p0_plus, p0_minus):
        if not (0.0 <= p <= 1.0):
            raise ValueError("populations must lie in [0, 1]")
    rows = np.asarray(rows, dtype=float)
    v0, c = model.v0_v, model.contrast
    weighted = rows * np.array([v0 * (1.0 - c * (1.0 - p0_plus)), v0, v0 * (1.0 - c * (1.0 - p0_minus)), v0])
    branch = weighted[:, 0::2] + weighted[:, 1::2]  # coefficient of lam_b, per row and branch
    mean = branch[:, 0] + branch[:, 1]  # noise-free output, also the coefficient of the slow laser
    noise = rows * np.array([model.shot_noise_v, model.r_noise_v, model.shot_noise_v, model.r_noise_v])
    # coefficient of each i.i.d. normal of a shot, per row: slow laser, fast laser per branch, window noise
    ff = model.laser_fluct_fast_rel
    coeff = np.column_stack([model.laser_fluct_rel * mean, ff * branch[:, 0], ff * branch[:, 1], noise])
    return mean, np.linalg.qr(coeff.T, mode="r").T


def shot_stream(p0_plus, p0_minus, model: ReadoutModel, n_shots: int, rng: np.random.Generator, rows) -> np.ndarray:
    """(k, n_shots) array of the k rows @ (s1, r1, s2, r2) for n_shots identical-population shots.

    rows is [TWO_BRANCH], [SINGLE_BRANCH], WINDOWS or any other k rows of
    weights.  Draws the drift steps, then k normals per shot.
    """
    mean, factor = shot_law(p0_plus, p0_minus, model, rows)
    out = np.empty((len(mean), n_shots))
    out[:] = mean[:, None]
    if model.laser_drift_step_rel:
        walk = rng.standard_normal(n_shots)
        walk *= model.laser_drift_step_rel
        np.cumsum(walk, out=walk)
        out += mean[:, None] * walk
    w = rng.standard_normal((n_shots, len(mean)))  # shot-major
    # elementwise, not a matmul, so each shot's sum is rounded in a fixed order
    for j in range(len(mean)):
        out += factor[:, j, None] * w[:, j]
    return out


def readout_shot_std(model: ReadoutModel) -> float:
    """Analytic shot-noise std of the processed output (no laser terms)."""
    return math.sqrt(2.0 * model.shot_noise_v**2 + 2.0 * model.r_noise_v**2)
