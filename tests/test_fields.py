"""Field calculators vs Biot-Savart quadrature oracles, resonance response,
geometry comparison properties."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from nvsim.constants import GAMMA_E, MU_0
from nvsim.ensemble import DetectionVolume, NoiseModel, sample_ensemble
from nvsim.experiments import write_table
from nvsim.fields import (
    ResonatorSpec,
    compute_field_map,
    drive_field,
    field_of_ring,
    field_of_strip,
    peak_current_per_sqrt_watt,
    rabi_from_b_vectors,
    wire_field_2d,
)
from nvsim.noise import OUBath, QuasiStaticSpread
from nvsim.oracles import field_of_wire, resonance_enhancement


# ---------------------------------------------------------------- oracles

def oracle_wire_segment(current, x, z, half_length):
    """|B| at (x, 0, z) from a straight segment along y, by quadrature."""

    def integrand(y):
        r2 = x * x + z * z + y * y
        return (x * x + z * z) ** 0.5 / r2**1.5

    val, _ = quad(integrand, -half_length, half_length, limit=400)
    return MU_0 * current / (4 * math.pi) * val


def oracle_strip(width, current, x, z, n_max=None):
    """Strip field by adaptive quadrature of wire fields across the width."""
    K = current / width

    def bx_int(u):
        return wire_field_2d(K, x - u, z)[0]

    def bz_int(u):
        return wire_field_2d(K, x - u, z)[1]

    bx, _ = quad(bx_int, -width / 2, width / 2, limit=400)
    bz, _ = quad(bz_int, -width / 2, width / 2, limit=400)
    return np.array([bx, bz])


def oracle_ring(radius, current, point):
    """Loop field by quadrature of the line Biot-Savart integrand."""
    px, py, pz = point

    def integrand(phi, comp):
        sx, sy = radius * math.cos(phi), radius * math.sin(phi)
        dlx, dly = -radius * math.sin(phi), radius * math.cos(phi)
        rx, ry, rz = px - sx, py - sy, pz
        r3 = (rx * rx + ry * ry + rz * rz) ** 1.5
        cross = (dly * rz - 0.0, 0.0 - dlx * rz, dlx * ry - dly * rx)
        return cross[comp] / r3

    out = []
    for comp in range(3):
        val, _ = quad(lambda p: integrand(p, comp), 0, 2 * math.pi, limit=400)
        out.append(MU_0 * current / (4 * math.pi) * val)
    return np.array(out)


# ---------------------------------------------------------------- wire

def test_wire_closed_form_value():
    assert field_of_wire(1.0, 1e-3) == pytest.approx(2.0e-4, rel=1e-12)


def test_wire_inverse_distance_law():
    d = 0.4e-3
    assert field_of_wire(1.0, 2 * d) == pytest.approx(field_of_wire(1.0, d) / 2, rel=1e-12)


def test_wire_inside_conductor_rejected():
    with pytest.raises(ValueError):
        field_of_wire(1.0, 5e-6, wire_radius=10e-6)


def test_wire_vs_segment_quadrature():
    d = 3e-4
    got = field_of_wire(2.0, d)
    want = oracle_wire_segment(2.0, d, 0.0, half_length=1e4 * d)
    assert got == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------- strip

def test_strip_on_conductor_rejected():
    with pytest.raises(ValueError):
        field_of_strip(1e-3, 1.0, (0.0, 0.0))


def test_strip_narrow_limit_matches_wire():
    d = 1e-3
    b = field_of_strip(1e-6, 1.0, (0.0, d))
    assert np.hypot(*b) == pytest.approx(field_of_wire(1.0, d), rel=1e-3)


def test_strip_far_field_matches_wire():
    w = 1e-3
    r = 60 * w
    b = field_of_strip(w, 1.0, (0.3 * r, 0.95 * r))
    d = math.hypot(0.3 * r, 0.95 * r)
    assert np.hypot(*b) == pytest.approx(field_of_wire(1.0, d), rel=0.01)


def test_strip_mirror_symmetry():
    # tangential component even, normal component odd across the midplane
    w, z = 1e-3, 2e-4
    for x in (0.1e-3, 0.37e-3, 0.9e-3):
        bp = field_of_strip(w, 1.0, (x, z))
        bm = field_of_strip(w, 1.0, (-x, z))
        assert bp[0] == pytest.approx(bm[0], rel=1e-12)
        assert bp[1] == pytest.approx(-bm[1], rel=1e-12)


def test_strip_center_field_parallel_to_plane():
    b = field_of_strip(1e-3, 1.0, (0.0, 2e-4))
    assert abs(b[1]) < 1e-18
    assert b[0] != 0.0


def test_strip_vectorized_matches_pointwise():
    rng = np.random.default_rng(7)
    x = rng.uniform(-3e-3, 3e-3, (4, 5))
    z = rng.uniform(0.05e-3, 3e-3, (4, 5))
    grid = field_of_strip(1e-3, 1.0, (x, z))
    assert grid.shape == (2, 4, 5)
    for i in range(4):
        for j in range(5):
            assert np.array_equal(grid[:, i, j], field_of_strip(1e-3, 1.0, (x[i, j], z[i, j])))
    with pytest.raises(ValueError):
        field_of_strip(1e-3, 1.0, (np.array([2e-3, 0.3e-3]), np.array([0.0, 0.0])))


def test_strip_vs_quadrature_oracle_random_points():
    rng = np.random.default_rng(42)
    w = 1e-3
    for _ in range(40):
        x = float(rng.uniform(-3e-3, 3e-3))
        z = float(rng.uniform(0.05e-3, 3e-3))
        got = field_of_strip(w, 1.0, (x, z))
        want = oracle_strip(w, 1.0, x, z)
        assert np.linalg.norm(got - want) <= 1e-3 * np.linalg.norm(want)


# ---------------------------------------------------------------- ring

def test_ring_center_closed_form():
    R = 1e-3
    b = field_of_ring(R, 1.0, (0.0, 0.0, 0.0))
    assert b[2] == pytest.approx(MU_0 / (2 * R), rel=1e-9)
    assert abs(b[0]) < 1e-18 and abs(b[1]) < 1e-18


def test_ring_on_axis_z_equals_R():
    R = 1e-3
    b0 = field_of_ring(R, 1.0, (0.0, 0.0, 0.0))[2]
    bz = field_of_ring(R, 1.0, (0.0, 0.0, R))[2]
    assert bz == pytest.approx(b0 / 2**1.5, rel=1e-9)


def test_ring_on_conductor_rejected():
    with pytest.raises(ValueError):
        field_of_ring(1e-3, 1.0, (1e-3, 0.0, 0.0))  # a point on the loop


def test_ring_vs_quadrature_oracle_random_points():
    rng = np.random.default_rng(7)
    R = 2e-3
    checked = 0
    while checked < 60:
        p = rng.uniform([-4e-3, -4e-3, -3e-3], [4e-3, 4e-3, 3e-3])
        rho = math.hypot(p[0], p[1])
        if math.hypot(rho - R, p[2]) < 0.15 * R:
            continue  # skip the conductor's vicinity
        got = field_of_ring(R, 1.0, p)
        want = oracle_ring(R, 1.0, p)
        assert np.linalg.norm(got - want) <= 1e-3 * np.linalg.norm(want)
        checked += 1


def test_ring_points_array_equals_pointwise_calls():
    R = 2e-3
    rng = np.random.default_rng(8)
    pts = rng.uniform([-4e-3, -4e-3, -3e-3], [4e-3, 4e-3, 3e-3], size=(40, 3))
    # the center, two more axis points, and one in the loop's plane
    pts[:4] = [[0.0, 0.0, 0.0], [1e-16, 0.0, 1e-3], [0.0, -1e-17, -2e-3], [3e-3, 0.0, 0.0]]
    grid = pts.T.reshape(3, 8, 5)
    b = field_of_ring(R, 0.7, grid)
    assert b.shape == (3, 8, 5)
    for i in range(8):
        for j in range(5):
            one = field_of_ring(R, 0.7, grid[:, i, j])
            np.testing.assert_allclose(b[:, i, j], one, rtol=1e-14, atol=0.0)
    # broadcasting a scalar coordinate, as the field map does
    flat = field_of_ring(R, 0.7, (grid[0], 0.0, grid[2]))
    np.testing.assert_array_equal(flat, field_of_ring(R, 0.7, (grid[0], np.zeros((8, 5)), grid[2])))
    with pytest.raises(ValueError, match="conductor"):
        field_of_ring(R, 0.7, (np.array([1e-3, R]), 0.0, np.array([1e-3, 0.0])))


def test_ring_near_wire_universality():
    # close to the conductor every thin loop looks straight: 1/d law
    # (curvature corrections scale as (d/R) ln(R/d))
    R = 2e-3
    for d in (R / 1000, R / 3000):
        b = field_of_ring(R, 1.0, (R + d, 0.0, 0.0))
        assert np.linalg.norm(b) == pytest.approx(field_of_wire(1.0, d), rel=0.01)


# ---------------------------------------------------------------- resonance

def test_resonance_fwhm_value():
    f0, q = 2.832e9, 27.0
    fwhm = f0 / q
    assert fwhm == pytest.approx(104.889e6, rel=1e-3)
    # reference linewidth figure is 104 MHz: within 1%
    assert abs(fwhm - 104e6) / 104e6 < 0.01


def test_resonance_peak_and_half_power():
    f0, q = 2.832e9, 27.0
    fwhm = f0 / q
    assert resonance_enhancement(f0, f0, q) == 1.0
    assert resonance_enhancement(f0 + fwhm / 2, f0, q) == pytest.approx(0.5, abs=1e-6)
    assert resonance_enhancement(f0 - fwhm / 2, f0, q) == pytest.approx(0.5, abs=1e-6)


def test_resonance_validation():
    with pytest.raises(ValueError):
        resonance_enhancement(-1.0, 2.8e9, 27.0)
    with pytest.raises(ValueError):
        resonance_enhancement(2.8e9, 0.0, 27.0)


# ---------------------------------------------------------------- rabi map

def test_rabi_zero_for_parallel_field():
    omega = rabi_from_b_vectors(np.array([[0.0, 0.0, 1e-3]]))
    assert omega[0] == 0.0


def test_rabi_for_perpendicular_074mT():
    omega = rabi_from_b_vectors(np.array([[0.74e-3, 0.0, 0.0]]))
    assert omega[0] / (2 * math.pi) == pytest.approx(10.4e6, rel=5e-3)
    # and the 48 ns pi time inverts to ~0.743 mT
    b_needed = 2 * (math.pi / 48e-9) / GAMMA_E
    assert b_needed == pytest.approx(0.7434e-3, rel=1e-3)


def test_rabi_scales_sqrt_power():
    spec = ResonatorSpec("cwr")
    m1 = compute_field_map(spec, n_u=41, n_v=11)
    b1 = np.column_stack([m1.b_u.ravel(), np.zeros(m1.b_u.size), m1.b_v.ravel()])
    om1 = rabi_from_b_vectors(b1)
    # doubling power multiplies B by sqrt(2) hence Omega by sqrt(2)
    assert np.allclose(
        rabi_from_b_vectors(b1 * math.sqrt(2.0)),
        math.sqrt(2.0) * om1,
        rtol=1e-12,
        equal_nan=True,
    )


# ---------------------------------------------------------------- maps

@pytest.fixture(scope="module")
def maps():
    specs = {k: ResonatorSpec(k) for k in ("cwr", "ring", "wire")}
    return {k: compute_field_map(s, n_u=161, n_v=25) for k, s in specs.items()}


def test_geometry_peak_ordering(maps):
    # Drive amplitude at the sample placement (axis, standoff height):
    # the ring's global maximum sits next to its conductor, but the
    # large-volume sample is centered.
    standoff = 2e-4
    peaks = {}
    for kind, m in maps.items():
        iz = int(np.argmin(np.abs(m.v - standoff)))
        iu = int(np.argmin(np.abs(m.u)))
        peaks[kind] = math.hypot(m.b_u[iu, iz], m.b_v[iu, iz])  # as fieldmap.csv's Babs_T
    assert peaks["cwr"] > peaks["ring"] > peaks["wire"]
    # margins are not razor-thin
    assert peaks["cwr"] > 1.2 * peaks["ring"]
    assert peaks["ring"] > 1.2 * peaks["wire"]


def test_cwr_flatter_than_wire_over_beam(maps):
    standoff, half_beam = 2e-4, 15e-6
    var = {}
    for kind in ("cwr", "wire"):
        spec = ResonatorSpec(kind)
        xs = np.linspace(-half_beam, half_beam, 31)
        if kind == "cwr":
            from nvsim.fields import _cwr_field_2d

            bx, bz = _cwr_field_2d(spec, 1.0, xs, np.full_like(xs, standoff))
        else:
            bx, bz = wire_field_2d(1.0, xs, np.full_like(xs, standoff))
        mag = np.hypot(bx, bz)
        var[kind] = (mag.max() - mag.min()) / mag.mean()
    assert var["wire"] >= 2.0 * var["cwr"]


def test_map_mirror_symmetry(maps):
    for m in maps.values():
        _, header, columns = m.table()
        mag = np.array(columns[header.index("Babs_T")]).reshape(m.b_u.shape)  # v varies fastest
        flipped = mag[::-1, :]
        ok = np.isfinite(mag) & np.isfinite(flipped)
        assert np.allclose(mag[ok], flipped[ok], rtol=1e-9, atol=1e-30)


def test_peak_current_enhancement():
    cwr = ResonatorSpec("cwr", q_factor=27.0)
    wire = ResonatorSpec("wire")
    # resonant build-up: sqrt(2 Q / Z0) vs sqrt(2 / Z0)
    assert peak_current_per_sqrt_watt(cwr) == pytest.approx(math.sqrt(2 * 27 / 50.0), rel=1e-12)
    assert peak_current_per_sqrt_watt(wire) == pytest.approx(math.sqrt(2 / 50.0), rel=1e-12)


def test_spin_omega_matches_closed_form():
    # each spin's Omega is gamma |B_perp| sqrt(P) / 2 of the geometry's own
    # closed form at its position, with B_perp across the NV axis z
    from nvsim.fields import _cwr_field_2d

    quiet = NoiseModel(QuasiStaticSpread(0.0), OUBath(0.0, 1e-5))
    for kind in ("cwr", "ring", "wire"):
        spec = ResonatorSpec(kind, drive_power_w=30.0)
        ens = sample_ensemble(DetectionVolume(), spec, quiet, 4000, 7)
        x, y, z = ens.positions.T
        ipk = peak_current_per_sqrt_watt(spec)
        if kind == "cwr":
            bperp = np.abs(_cwr_field_2d(spec, ipk, x, z)[0])
        elif kind == "wire":
            bperp = np.abs(wire_field_2d(ipk, x, z)[0])
        else:
            bx, by, _ = field_of_ring(spec.ring_radius_m, ipk, (x, y, z))
            bperp = np.hypot(bx, by)
        want = GAMMA_E * bperp * math.sqrt(30.0) / 2.0
        assert np.allclose(ens.omega, want, rtol=1e-12, atol=0.0), kind


def test_drive_field_is_nan_inside_the_wire():
    spec = ResonatorSpec("wire", wire_diameter_m=20e-6)
    bx, by, bz = drive_field(spec, np.array([0.0, 3e-6, 0.0]), 0.0, np.array([5e-6, 5e-6, 2e-4]))
    assert np.isnan(bx[:2]).all() and np.isnan(bz[:2]).all()
    assert np.isfinite(bx[2]) and bz[2] == 0.0 and np.all(by == 0.0)


def _map_csv_lines(m, tmp_path) -> list[str]:
    name, header, columns = m.table()
    write_table(tmp_path / name, header, columns)
    return (tmp_path / name).read_text().splitlines()


def test_map_csv_export(maps, tmp_path):
    name, _, _ = maps["wire"].table()
    lines = _map_csv_lines(maps["wire"], tmp_path)
    assert name == "fieldmap.csv"
    assert lines[0] == "x_m,y_m,z_m,Bx_T,By_T,Bz_T,Babs_T"
    assert len(lines) == 1 + maps["wire"].b_u.size


def test_map_csv_fields_are_plain_floats(maps, tmp_path):
    # every field parses with float() and round-trips the grid exactly;
    # Babs_T is math.hypot of each point, bit for bit
    for m in maps.values():
        rows = _map_csv_lines(m, tmp_path)[1:]
        table = np.array([[float(f) for f in row.split(",")] for row in rows])
        assert np.array_equal(table[:, 0], np.repeat(m.u, len(m.v)))
        assert np.array_equal(table[:, 2], np.tile(m.v, len(m.u)))
        assert np.array_equal(table[:, 3], m.b_u.ravel(), equal_nan=True)
        assert np.array_equal(table[:, 5], m.b_v.ravel(), equal_nan=True)
        assert not table[:, [1, 4]].any()
        want = [math.hypot(a, b) for a, b in zip(m.b_u.ravel().tolist(), m.b_v.ravel().tolist())]
        assert np.array_equal(table[:, 6], want, equal_nan=True)


def test_spec_validation():
    with pytest.raises(ValueError):
        ResonatorSpec("coil")
    with pytest.raises(ValueError):
        ResonatorSpec("cwr", strip_width_m=-1.0)
