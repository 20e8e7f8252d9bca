"""Reference implementations the tests check the run path against; no run-path module imports this one.
README's stage -> oracle -> test table names, for each stage of `simulate run`, its oracle and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import MU_0
from .ensemble import DetectionVolume
from .noise import OUBath, OUTransition, ou_transition
from .readout import ReadoutModel

NORM_TOL = 1e-9


@dataclass(frozen=True)
class BlochState:
    """Bloch vector of one effective two-level spin; |v| <= 1."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        n2 = self.x * self.x + self.y * self.y + self.z * self.z
        if n2 > 1.0 + NORM_TOL:
            raise ValueError(f"Bloch vector norm^2 = {n2} exceeds 1 + {NORM_TOL}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @staticmethod
    def from_array(v) -> "BlochState":
        return BlochState(float(v[0]), float(v[1]), float(v[2]))

    def norm(self) -> float:
        return math.sqrt(self.x**2 + self.y**2 + self.z**2)


BRIGHT = BlochState(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class DriveParams:
    """Constant rotating-frame drive.

    rabi_angular_freq : Omega, rad/s
    phase             : rotation-axis azimuth in the equatorial plane, rad
    detuning          : Delta, rad/s
    duration          : pulse length, s
    """

    rabi_angular_freq: float
    phase: float
    detuning: float
    duration: float

    def __post_init__(self):
        if self.rabi_angular_freq < 0:
            raise ValueError("rabi_angular_freq must be >= 0")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")


def rotate_ideal(state: BlochState, phase: float, angle: float) -> BlochState:
    """Instantaneous rotation by `angle` about the equatorial axis at `phase`.

    Rodrigues' formula about k = (cos phase, sin phase, 0), right-handed as
    dv/dt = n x v:  v cos(angle) + (k x v) sin(angle) + k (k . v) (1 - cos(angle)).
    """
    kx, ky = math.cos(phase), math.sin(phase)
    c, s = math.cos(angle), math.sin(angle)
    x, y, z = state.x, state.y, state.z
    kv = (kx * x + ky * y) * (1.0 - c)
    return BlochState(x * c + ky * z * s + kx * kv, y * c - kx * z * s + ky * kv, z * c + (kx * y - ky * x) * s)


def evolve_free(state: BlochState, tau: float, detuning: float) -> BlochState:
    """Free precession about z by detuning * tau; z is unchanged."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    a = detuning * tau
    c, s = math.cos(a), math.sin(a)
    return BlochState(c * state.x - s * state.y, s * state.x + c * state.y, state.z)


def evolve_driven(state: BlochState, drive: DriveParams, dt: float | None = None) -> BlochState:
    """Fixed-step RK4 integration of dv/dt = n x v over the pulse.

    dt must satisfy dt <= duration/50; the default uses duration/100.
    The number of steps is rounded up so the pulse length is exact.
    """
    T = drive.duration
    if T == 0.0:
        return state
    if dt is None:
        dt = T / 100.0
    if dt > T / 50.0 + 1e-18 * T:
        raise ValueError(f"dt = {dt} too coarse: must be <= duration/50 = {T / 50.0}")
    n_steps = max(1, math.ceil(T / dt - 1e-12))
    h = T / n_steps
    n = np.array(
        [
            drive.rabi_angular_freq * math.cos(drive.phase),
            drive.rabi_angular_freq * math.sin(drive.phase),
            drive.detuning,
        ]
    )
    v = state.as_array()
    for _ in range(n_steps):
        k1 = np.cross(n, v)
        k2 = np.cross(n, v + 0.5 * h * k1)
        k3 = np.cross(n, v + 0.5 * h * k2)
        k4 = np.cross(n, v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return BlochState.from_array(v)


def population_ms0(state: BlochState) -> float:
    """ms=0 (bright) population, (1+z)/2 clipped to [0, 1]."""
    return min(max((1.0 + state.z) / 2.0, 0.0), 1.0)


def ou_step(x: np.ndarray, L: float, bath: OUBath, rng: np.random.Generator):
    """One exact joint update of the OU value and its integral over L seconds.

    Given the values x at the start, returns (integral over [t, t + L],
    values at t + L), drawn from ou_transition(0.0, L, bath) with two
    standard normals per path, z1 then z2.  L = 0 or b = 0 draws nothing.
    """
    if L == 0.0 or bath.b == 0.0:
        return np.zeros_like(x), x
    z1 = rng.standard_normal(len(x))
    z2 = rng.standard_normal(len(x))
    return apply_ou_transition(ou_transition(0.0, L, bath), x, z1, z2)


def apply_ou_transition(law: OUTransition, x, z1, z2):
    """(integrals, end values) under law for start values x and normals z1, z2;
    the arguments are left alone."""
    x, z1, z2 = (np.asarray(a, dtype=float) for a in (x, z1, z2))
    return law.int_x * x + law.a21 * z1 + law.a22 * z2, law.end_x * x + law.a11 * z1


def sample_ou_segment_integrals(
    bath: OUBath, bounds: np.ndarray, n_paths: int, rng: np.random.Generator
) -> np.ndarray:
    """Exactly sample the integral of an OU path over consecutive segments.

    `bounds` are the m+1 segment boundaries (s); returns an (n_paths, m)
    array of integral values (rad), one `ou_step` per segment, so
    arbitrarily long segments are sampled without discretization error.
    Starts from the stationary distribution.
    """
    bounds = np.asarray(bounds, dtype=float)
    out = np.empty((n_paths, len(bounds) - 1))
    x = rng.normal(0.0, bath.b, size=n_paths) if bath.b > 0 else np.zeros(n_paths)
    for k, L in enumerate(np.diff(bounds)):
        out[:, k], x = ou_step(x, float(L), bath, rng)
    return out


# Taylor coefficients of x - 3 + 4 e^(-x/2) - e^-x, the x^k term being
# (-1)^k (4 / 2^k - 1) / k! for k = 3..12, highest first for np.polyval
_ECHO_SERIES = [(-1) ** k * (4.0 / 2**k - 1.0) / math.factorial(k) for k in range(12, 2, -1)]


def chi_fid_ou(t, bath: OUBath):
    """Free-induction decoherence exponent b^2 tau_c^2 (e^-x + x - 1), x = t/tau_c,
    under the OU bath: the coherence is W = exp(-chi), chi = Var(phase)/2.

    x + expm1(-x) by its Taylor series below x = 0.01, where the two terms cancel.
    """
    x = np.asarray(t, dtype=float) / bath.tau_c
    series = x * x * np.polyval([1.0 / 720.0, -1.0 / 120.0, 1.0 / 24.0, -1.0 / 6.0, 0.5], x)
    return bath.b**2 * bath.tau_c**2 * np.where(x < 0.01, series, x + np.expm1(-x))


def chi_echo_ou(t, bath: OUBath):
    """Hahn-echo decoherence exponent b^2 tau_c^2 (x - 3 + 4 e^(-x/2) - e^-x), x = t/tau_c.

    With a = expm1(-x/2), x - 3 + 4 e^(-x/2) - e^-x = x + 2a - a^2; that
    is O(x^3) from O(x) terms, so below x = 0.25 its Taylor series is used.
    """
    x = np.asarray(t, dtype=float) / bath.tau_c
    a = np.expm1(-x / 2.0)
    series = x**3 * np.polyval(_ECHO_SERIES, x)
    return bath.b**2 * bath.tau_c**2 * np.where(x < 0.25, series, x + 2.0 * a - a * a)


def expected_two_branch_mean(p0_plus: float, p0_minus: float, model: ReadoutModel) -> float:
    """Noise-free processed output: v0 C (p0_plus - p0_minus)."""
    return model.v0_v * model.contrast * (p0_plus - p0_minus)


def field_of_wire(current: float, distance: float, wire_radius: float = 0.0) -> float:
    """|B| of an infinite straight wire: mu0 I / (2 pi d)."""
    if distance <= wire_radius:
        raise ValueError("query point inside the conductor")
    return MU_0 * current / (2.0 * math.pi * distance)


def volume_ratio_vs_quoted(volume: DetectionVolume, quoted_volume_m3: float) -> float:
    """Quoted / geometric volume; the mismatch is documented, not resolved."""
    return quoted_volume_m3 / geometric_volume_m3(volume)


def geometric_volume_m3(volume: DetectionVolume) -> float:
    """The detection cylinder's volume, pi (beam_diameter_m / 2)^2 depth_m."""
    return math.pi * (volume.beam_diameter_m / 2.0) ** 2 * volume.depth_m


def resonance_enhancement(f: float, f0: float, q: float):
    """Normalized Lorentzian power response, 1 at f0, FWHM = f0/q."""
    if f0 <= 0 or q <= 0:
        raise ValueError("f0 and q must be > 0")
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0):
        raise ValueError("f must be > 0")
    x = 2.0 * q * (f - f0) / f0
    out = 1.0 / (1.0 + x * x)
    return float(out) if out.ndim == 0 else out
