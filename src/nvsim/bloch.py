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
    by |n| duration, the solution of dv/dt = n x v.  It is applied in the
    pulse's own frame, turned by phase about z, where the axis is
    (omega, 0, delta), in Cayley form with the Gibbs vector
    g = tan(|n| duration / 2) n / |n|:

        v <- v + f g x (v + g x v),    f = 2 / (1 + |g|^2),

    so one np.tan takes the place of np.sin and np.cos (about 2 ns per
    element against 20 for the pair, numpy 2.4 on an AVX-512 Xeon, where
    only tan is vectorized).  With g_y = 0 the step is 16 array passes,
    after 15 that build g and f g from omega and delta: 31 in all.  At
    phase = 0 the frame is the lab frame; otherwise (x, y) is turned into
    the pulse's frame and the increment turned back, 12 passes more, so a
    caller that rotates many times keeps v in the frame of its pulses.
    omega and delta are scalars or per-vector (n,) arrays; a zero axis
    leaves v unchanged, bit for bit.  work is an optional (9, n) scratch
    array, reused by callers that rotate the same vectors many times.
    """
    vx, vy, vz = v
    if work is None:
        work = np.empty((9,) + np.shape(vx))
    r, f, gx, gz, wx, wy, wz, p, q = work
    np.square(omega, out=r)
    np.square(delta, out=p)
    r += p
    # a zero axis gets a tiny |n|: then tan(...) / |n| stays finite and g = 0
    np.maximum(r, _TINY, out=r)
    np.sqrt(r, out=r)
    np.multiply(r, 0.5 * duration, out=f)
    np.tan(f, out=f)
    np.divide(f, r, out=r)
    np.multiply(omega, r, out=gx)
    np.multiply(delta, r, out=gz)
    np.square(f, out=f)
    f += 1.0
    np.divide(2.0, f, out=f)
    ux, uy = vx, vy
    if phase:  # (x, y) in the pulse's frame: the components along its axis and across it
        c, s = math.cos(phase), math.sin(phase)
        ux = np.multiply(vx, c, out=q)
        ux += np.multiply(vy, s, out=r)
        uy = np.multiply(vy, c, out=p)
        uy -= np.multiply(vx, s, out=r)
    # w = u + g x u
    np.multiply(gz, uy, out=wx)
    np.subtract(ux, wx, out=wx)
    np.multiply(gz, ux, out=wy)
    wy += uy
    np.multiply(gx, vz, out=wz)
    wy -= wz
    np.multiply(gx, uy, out=wz)
    wz += vz
    # the increment f g x w = (-mx, dy, dz), with f g in g's place
    gx *= f
    gz *= f
    np.multiply(gx, wy, out=f)
    vz += f
    mx = np.multiply(gz, wy, out=wy)
    dy = np.multiply(gz, wx, out=wx)
    np.multiply(gx, wz, out=wz)
    dy -= wz
    if phase:  # the increment turned back to the lab frame
        ax = np.multiply(mx, c, out=q)
        ax += np.multiply(dy, s, out=r)
        ay = np.multiply(dy, c, out=p)
        ay -= np.multiply(mx, s, out=r)
        mx, dy = ax, ay
    vx -= mx
    vy += dy


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
