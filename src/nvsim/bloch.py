"""Two-level spin dynamics on the Bloch sphere (rotating frame).

Conventions, locked by golden tests in tests/test_bloch.py:

* z = +1 is the bright ms=0 state.
* The equation of motion is dv/dt = n x v with
  n = (Omega cos(phi), Omega sin(phi), Delta), i.e. right-handed
  precession about the drive/detuning axis.  Under this convention a
  pi/2 pulse about x takes +z to -y, and free evolution takes +x
  towards +y for positive detuning.

All operations are pure functions on immutable value types, except
rotate_drive, the exact constant-drive kernel that the ensemble engine
applies in place to (3, n) arrays of Bloch vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-9
_TINY = np.finfo(float).tiny


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


def rotate_drive(v, omega, delta, phase: float, duration: float, work=None) -> None:
    """Exact constant-drive rotation of Bloch vectors, in place.

    v is a (3, n) array, or three (n,) component arrays, updated in place.
    The rotation is about n = (omega cos(phase), omega sin(phase), delta)
    by |n| duration, the solution of dv/dt = n x v.  It is applied in
    Cayley form with the Gibbs vector g = tan(|n| duration / 2) n / |n|:

        v <- v + 2 / (1 + |g|^2)  g x (v + g x v),

    so one np.tan takes the place of np.sin and np.cos (about 2 ns per
    element against 20 for the pair, numpy 2.4 on an AVX-512 Xeon, where
    only tan is vectorized).  |n|^2 = omega^2 + delta^2, since the
    in-plane components square to omega^2.  omega and delta are scalars
    or per-vector (n,) arrays; a zero axis leaves v unchanged.  work is
    an optional (9, n) scratch array, reused by callers that rotate the
    same vectors many times.
    """
    vx, vy, vz = v
    if work is None:
        work = np.empty((9,) + np.shape(vx))
    r, f, gx, gy, gz, wx, wy, wz, p = work
    np.multiply(omega, omega, out=r)
    np.multiply(delta, delta, out=p)
    r += p
    # a zero axis gets a tiny |n|: then tan(...) / |n| stays finite and g = 0
    np.maximum(r, _TINY, out=r)
    np.sqrt(r, out=r)
    np.multiply(r, 0.5 * duration, out=f)
    np.tan(f, out=f)
    np.divide(f, r, out=r)
    np.multiply(omega, r, out=gy)
    np.multiply(gy, math.cos(phase), out=gx)
    gy *= math.sin(phase)
    np.multiply(delta, r, out=gz)
    np.multiply(f, f, out=f)
    f += 1.0
    np.divide(2.0, f, out=f)
    g, vs, ws = (gx, gy, gz), (vx, vy, vz), (wx, wy, wz)
    for i, w in enumerate(ws):  # w = v + g x v
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(g[j], vs[k], out=w)
        np.multiply(g[k], vs[j], out=p)
        w -= p
        w += vs[i]
    for i, vi in enumerate(vs):  # v += f g x w
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(g[j], ws[k], out=r)
        np.multiply(g[k], ws[j], out=p)
        r -= p
        r *= f
        vi += r


def rotate_ideal(state: BlochState, phase: float, angle: float) -> BlochState:
    """Instantaneous rotation by `angle` about the equatorial axis at `phase`.

    Closed form: rotate_drive with omega = angle over unit time.
    """
    v = state.as_array()[:, None]
    rotate_drive(v, angle, 0.0, phase, 1.0)
    return BlochState.from_array(v[:, 0])


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


def rabi_population(omega, delta, t):
    """Closed-form ms=0 population for a constant drive starting from +z.

    P = 1 - (Omega^2/(Omega^2+Delta^2)) sin^2(sqrt(Omega^2+Delta^2) t / 2).
    Vectorized over any argument.
    """
    omega = np.asarray(omega, dtype=float)
    delta = np.asarray(delta, dtype=float)
    t = np.asarray(t, dtype=float)
    w2 = omega**2 + delta**2
    wr = np.sqrt(w2)
    frac = np.divide(omega**2, w2, out=np.zeros_like(w2), where=w2 > 0)
    return 1.0 - frac * np.sin(wr * t / 2.0) ** 2
