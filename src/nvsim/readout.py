"""Photodetector window model and two-branch common-mode-rejected processing.

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


def simulate_shot_stream(
    p0_plus: float,
    p0_minus: float,
    model: ReadoutModel,
    n_shots: int,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Vectorized window records for n_shots identical-population shots.

    Returns arrays s1, r1, s2, r2.  The slow laser component is one draw
    per shot plus an optional random walk with per-shot step
    laser_drift_step_rel.
    """
    for p in (p0_plus, p0_minus):
        if not (0.0 <= p <= 1.0):
            raise ValueError("populations must lie in [0, 1]")
    lam_shot = model.laser_fluct_rel * rng.standard_normal(n_shots)
    if model.laser_drift_step_rel:
        lam_shot = lam_shot + np.cumsum(model.laser_drift_step_rel * rng.standard_normal(n_shots))
    lam1 = lam_shot + model.laser_fluct_fast_rel * rng.standard_normal(n_shots)
    lam2 = lam_shot + model.laser_fluct_fast_rel * rng.standard_normal(n_shots)
    base1 = model.v0_v * (1.0 + lam1)
    base2 = model.v0_v * (1.0 + lam2)
    s1 = base1 * (1.0 - model.contrast * (1.0 - p0_plus)) + model.shot_noise_v * rng.standard_normal(n_shots)
    r1 = base1 + model.r_noise_v * rng.standard_normal(n_shots)
    s2 = base2 * (1.0 - model.contrast * (1.0 - p0_minus)) + model.shot_noise_v * rng.standard_normal(n_shots)
    r2 = base2 + model.r_noise_v * rng.standard_normal(n_shots)
    return {"s1": s1, "r1": r1, "s2": s2, "r2": r2}


def process_two_branch(w) -> np.ndarray:
    """Two-branch difference of reference-subtracted windows."""
    return (w["s1"] - w["r1"]) - (w["s2"] - w["r2"])


def process_single_branch(w) -> np.ndarray:
    """Reference-subtracted single branch (A/B comparison: no branch pair)."""
    return w["s1"] - w["r1"]


def expected_two_branch_mean(p0_plus: float, p0_minus: float, model: ReadoutModel) -> float:
    """Noise-free processed output: v0 C (p0_plus - p0_minus)."""
    return model.v0_v * model.contrast * (p0_plus - p0_minus)


def readout_shot_std(model: ReadoutModel) -> float:
    """Analytic shot-noise std of the processed output (no laser terms)."""
    return math.sqrt(2.0 * model.shot_noise_v**2 + 2.0 * model.r_noise_v**2)
