"""Quasi-static microwave field maps for the three driver geometries.

At ~2.8 GHz the free-space wavelength (~0.1 m) is far larger than the
mm-scale structures, so magnetostatics with a resonance-enhanced current
amplitude captures the field shapes.  Geometries, in a common frame:

* cwr  : center strip of width w along y in the z=0 plane carrying +I,
         flanked by two ground strips carrying -I/2 each (returns).
* ring : circular loop of radius R in the z=0 plane centered on the origin.
* wire : straight wire along y at the origin.

All calculators return Tesla per ampere times the geometry shape;
drive_field, the field spins read, and the exported grid are per sqrt(W)
of drive power, so amplitudes scale as sqrt(P).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipe, ellipk

from .constants import GAMMA_E, LINE_IMPEDANCE_OHM, MU_0

KINDS = ("cwr", "ring", "wire")


@dataclass(frozen=True)
class ResonatorSpec:
    """Driver geometry, resonance parameters, and drive power."""

    kind: str
    q_factor: float = 27.0
    drive_power_w: float = 50.0
    strip_width_m: float = 1.0e-3
    gap_m: float = 0.5e-3
    ground_width_m: float = 1.0e-3
    ring_radius_m: float = 2.0e-3
    wire_diameter_m: float = 20.0e-6
    standoff_m: float = 2.0e-4

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        for name in (
            "q_factor",
            "drive_power_w",
            "strip_width_m",
            "gap_m",
            "ground_width_m",
            "ring_radius_m",
            "wire_diameter_m",
            "standoff_m",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    @property
    def resonant(self) -> bool:
        # A plain wire is a broadband short: no resonant current build-up.
        return self.kind in ("cwr", "ring")


def peak_current_per_sqrt_watt(spec: ResonatorSpec) -> float:
    """Peak drive current per sqrt(W) on resonance: I = sqrt(2 P E / Z0) / sqrt(P).

    E is the resonant power enhancement, Q (times the Lorentzian response
    oracles.resonance_enhancement, which is 1 at f0) for resonant
    structures and unity for the wire.
    """
    return math.sqrt(2.0 * (spec.q_factor if spec.resonant else 1.0) / LINE_IMPEDANCE_OHM)


def wire_field_2d(current: float, x, z):
    """(Bx, Bz) of a wire along y at the origin carrying +I along +y."""
    dx = np.asarray(x, dtype=float)
    dz = np.asarray(z, dtype=float)
    r2 = dx * dx + dz * dz
    pref = MU_0 * current / (2.0 * math.pi)
    return pref * dz / r2, -pref * dx / r2


def field_of_strip(width: float, current: float, point) -> np.ndarray:
    """(Bx, Bz) of an infinitesimally thin strip of uniform surface current.

    Strip spans |x| <= width/2 at z = 0, current +I along +y; the wire
    solution integrated across the width in closed form.  point = (x, z)
    with x and z scalars or broadcastable arrays; returns shape (2, ...).
    Off the strip in its own plane Bx vanishes, as both arctangents agree.
    """
    x = np.asarray(point[0], dtype=float)
    z = np.asarray(point[1], dtype=float)
    a = width / 2.0
    if np.any((z == 0.0) & (np.abs(x) <= a)):
        raise ValueError("query point on the conductor")
    K = MU_0 * current / (2.0 * math.pi * width)
    bx = K * (np.arctan2(x + a, z) - np.arctan2(x - a, z))
    bz = -0.5 * K * np.log(((x + a) ** 2 + z * z) / ((x - a) ** 2 + z * z))
    return np.array([bx, bz])


def field_of_ring(radius: float, current: float, point) -> np.ndarray:
    """(Bx, By, Bz) of a circular loop in the z=0 plane via elliptic integrals.

    point = (x, y, z) with x, y and z scalars or broadcastable arrays;
    returns shape (3, ...).  On the axis the loop's closed form is used;
    a point on the loop itself raises ValueError.
    """
    x, y, z = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in point))
    a = radius
    rho = np.hypot(x, y)
    if np.any(np.hypot(rho - a, z) == 0.0):
        raise ValueError("query point on the conductor")
    axis = rho < 1e-12 * a
    r = np.where(axis, 0.5 * a, rho)  # any off-axis radius: the axis points take the closed form below
    denom = (a + r) ** 2 + z * z
    m = 4.0 * a * r / denom
    Km = ellipk(m)
    Em = ellipe(m)
    pref = MU_0 * current / (2.0 * math.pi * np.sqrt(denom))
    sub = (a - r) ** 2 + z * z
    bz_axis = MU_0 * current * a * a / (2.0 * (a * a + z * z) ** 1.5)
    bz = np.where(axis, bz_axis, pref * (Km + Em * (a * a - r * r - z * z) / sub))
    brho = np.where(axis, 0.0, pref * (z / r) * (-Km + Em * (a * a + r * r + z * z) / sub))
    return np.array([brho * x / r, brho * y / r, bz])


def _cwr_field_2d(spec: ResonatorSpec, current: float, x, z):
    """CWR cross-section field: center strip +I, two ground strips -I/2."""
    w, g, wg = spec.strip_width_m, spec.gap_m, spec.ground_width_m
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    bx = np.zeros(np.broadcast(x, z).shape)
    bz = np.zeros_like(bx)
    offset = w / 2.0 + g + wg / 2.0
    for x0, I, ww in ((0.0, current, w), (offset, -current / 2.0, wg), (-offset, -current / 2.0, wg)):
        sx, sz = field_of_strip(ww, I, (x - x0, z))
        bx += sx
        bz += sz
    return bx, bz


def drive_field(spec: ResonatorSpec, x, y, z):
    """(Bx, By, Bz) of the driver at points (x, y, z), in T per sqrt(W).

    x, y and z are scalars or broadcastable arrays.  The cwr and the wire
    are invariant along y (By = 0); points inside the wire's conductor
    are NaN, and points on a strip or on the ring raise ValueError.
    """
    ipk = peak_current_per_sqrt_watt(spec)
    if spec.kind == "ring":
        return tuple(field_of_ring(spec.ring_radius_m, ipk, (x, y, z)))
    if spec.kind == "cwr":
        bx, bz = _cwr_field_2d(spec, ipk, x, z)
    else:
        bx, bz = wire_field_2d(ipk, x, z)
        inside = np.hypot(x, z) <= spec.wire_diameter_m / 2.0
        bx = np.where(inside, np.nan, bx)
        bz = np.where(inside, np.nan, bz)
    return bx, np.zeros_like(bx), bz


@dataclass(frozen=True)
class FieldMap:
    """Microwave field amplitude on a regular (u, v) cross-section grid,
    for export: spins read drive_field at their own positions.

    u is the lateral coordinate, v the height above the structure plane.
    b_u/b_v are the in-plane field components in T per sqrt(W); the wire
    and cwr are invariant along y (u = x), the ring is axisymmetric
    (u = signed radius in the x-z plane used for profiles/export).
    """

    u: np.ndarray
    v: np.ndarray
    b_u: np.ndarray
    b_v: np.ndarray

    def table(self):
        """fieldmap.csv as a table (name, header, columns), one row per grid
        point with v varying fastest.

        The cross-section plane is written as y = 0 with u -> x, v -> z;
        amplitudes are per sqrt(W).  Babs_T is math.hypot of each point,
        whose bits np.hypot does not always give.
        """
        n_u, n_v = self.b_u.shape
        b_u, b_v = self.b_u.ravel(), self.b_v.ravel()
        zero = np.zeros(b_u.size)
        b_abs = [math.hypot(a, b) for a, b in zip(b_u.tolist(), b_v.tolist())]
        columns = [np.repeat(self.u, n_v), zero, np.tile(self.v, n_u), b_u, zero, b_v, b_abs]
        return "fieldmap.csv", ["x_m", "y_m", "z_m", "Bx_T", "By_T", "Bz_T", "Babs_T"], columns


def compute_field_map(spec: ResonatorSpec, n_u: int = 201, n_v: int = 81) -> FieldMap:
    """Evaluate drive_field on a regular grid in the y = 0 plane, per sqrt(W).

    u spans +-(strip_width_m + 2 (gap_m + ground_width_m)) for the cwr,
    +-2 ring_radius_m for the ring and +-2 mm for the wire; the heights v
    run from standoff_m / 2 to 4 standoff_m.  A wire's field is not
    defined inside its conductor, so grid points with hypot(u, v) <=
    wire_diameter_m / 2 are NaN, here and in fieldmap.csv.
    """
    u_extent = {
        "cwr": spec.strip_width_m + 2 * (spec.gap_m + spec.ground_width_m),
        "ring": 2.0 * spec.ring_radius_m,
        "wire": 2.0e-3,
    }[spec.kind]
    u = np.linspace(-u_extent, u_extent, n_u)
    v = np.linspace(0.5 * spec.standoff_m, 4.0 * spec.standoff_m, n_v)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    bu, _, bv = drive_field(spec, uu, 0.0, vv)
    return FieldMap(u, v, bu, bv)


def rabi_from_b_vectors(b_vectors: np.ndarray) -> np.ndarray:
    """Local Rabi angular frequency Omega = gamma |B1_perp| / 2 for (n, 3) fields, NV axis along z.

    The factor 1/2 is the rotating-wave reduction of a linearly polarized
    drive.  |B1_perp| = |B1 x axis|, which keeps its digits when B1 is
    nearly parallel to the axis (the ring near its own axis).
    """
    bperp = np.linalg.norm(np.cross(np.asarray(b_vectors, dtype=float), (0.0, 0.0, 1.0)), axis=-1)
    return GAMMA_E * bperp / 2.0
