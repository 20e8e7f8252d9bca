"""Single-spin dynamics: golden conventions, norm conservation, RK4 order."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvsim.bloch import rabi_population, rotate_drive
from nvsim.oracles import (
    BRIGHT,
    BlochState,
    DriveParams,
    evolve_driven,
    evolve_free,
    population_ms0,
    rotate_ideal,
)

angles = st.floats(-10.0, 10.0, allow_nan=False)
phases = st.floats(0.0, 2.0 * math.pi)


def unit_states():
    return st.tuples(
        st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 1.0)
    ).map(
        lambda t: BlochState(
            t[2] * math.sqrt(max(1.0 - t[0] ** 2, 0.0)) * math.cos(t[1]),
            t[2] * math.sqrt(max(1.0 - t[0] ** 2, 0.0)) * math.sin(t[1]),
            t[2] * t[0],
        )
    )


def test_pi_flip():
    s = rotate_ideal(BRIGHT, 0.0, math.pi)
    assert abs(s.z + 1.0) < 1e-15
    assert abs(s.x) < 1e-15


def test_golden_handedness_quarter_turn():
    # Locked convention: dv/dt = n x v sends +z to -y under a pi/2 x pulse.
    s = rotate_ideal(BRIGHT, 0.0, math.pi / 2.0)
    assert s.y == pytest.approx(-1.0, abs=1e-12)
    assert abs(s.x) < 1e-12 and abs(s.z) < 1e-12


def test_golden_free_precession_quarter_turn():
    # Same generator: +x precesses to +y for positive detuning.
    s = evolve_free(BlochState(1.0, 0.0, 0.0), 1.0, math.pi / 2.0)
    assert s.y == pytest.approx(1.0, abs=1e-12)


@given(unit_states(), phases)
def test_full_rotation_identity(s, phi):
    r = rotate_ideal(s, phi, 2.0 * math.pi)
    assert abs(r.x - s.x) < 1e-12 and abs(r.y - s.y) < 1e-12 and abs(r.z - s.z) < 1e-12


@given(unit_states(), phases, angles)
def test_rotation_preserves_norm(s, phi, theta):
    r = rotate_ideal(s, phi, theta)
    assert abs(r.norm() - s.norm()) < 1e-12


@given(unit_states(), phases)
def test_pi_pi_is_identity(s, phi):
    r = rotate_ideal(rotate_ideal(s, phi, math.pi), phi, math.pi)
    assert abs(r.x - s.x) < 1e-12 and abs(r.y - s.y) < 1e-12 and abs(r.z - s.z) < 1e-12


@given(unit_states(), st.floats(0.0, 1e-3), st.floats(-1e7, 1e7))
def test_free_evolution_keeps_z_and_norm(s, tau, delta):
    r = evolve_free(s, tau, delta)
    assert r.z == s.z
    assert abs(r.norm() - s.norm()) < 1e-12


def test_zero_time_free_evolution():
    s = BlochState(1.0, 0.0, 0.0)
    assert evolve_free(s, 0.0, 1e9) == s


def test_pole_is_fixed_point():
    r = evolve_free(BRIGHT, 1e-6, 2.0 * math.pi * 5e6)
    assert r.z == 1.0 and abs(r.x) < 1e-15


def test_ms0_population_values():
    assert population_ms0(BRIGHT) == 1.0
    assert population_ms0(BlochState(0.0, 0.0, -1.0)) == 0.0
    assert population_ms0(BlochState(1.0, 0.0, 0.0)) == 0.5


def test_driven_pi_pulse_matches_48ns_flip():
    # Omega = pi / 48 ns  ->  Omega/2pi = 10.417 MHz
    omega = math.pi / 48e-9
    assert omega / (2 * math.pi) == pytest.approx(10.4166667e6, rel=1e-6)
    drv = DriveParams(omega, 0.0, 0.0, 48e-9)
    s = evolve_driven(BRIGHT, drv)
    assert s.z == pytest.approx(-1.0, abs=1e-6)


def test_driven_agrees_with_ideal_rotation():
    omega = math.pi / 48e-9
    for phase in (0.0, math.pi / 2, 1.1):
        drv = DriveParams(omega, phase, 0.0, 48e-9)
        got = evolve_driven(BRIGHT, drv).as_array()
        want = rotate_ideal(BRIGHT, phase, math.pi).as_array()
        assert np.linalg.norm(got - want) < 1e-6


def test_rotate_drive_golden_quarter_turns():
    # the kernel's own conventions: a pi/2 drive takes +z to -y, and positive
    # detuning precesses +x towards +y
    v = np.array([[0.0], [0.0], [1.0]])
    rotate_drive(v, math.pi / 2.0, 0.0, 1.0, np.empty((8, 1)))
    assert v[1, 0] == pytest.approx(-1.0, abs=1e-12)
    assert abs(v[0, 0]) < 1e-12 and abs(v[2, 0]) < 1e-12
    v = np.array([[1.0], [0.0], [0.0]])
    rotate_drive(v, 0.0, math.pi / 2.0, 1.0, np.empty((8, 1)))
    assert v[1, 0] == pytest.approx(1.0, abs=1e-12)
    assert abs(v[0, 0]) < 1e-12 and abs(v[2, 0]) < 1e-12


def turn_z(v, phase):
    """(x, y) of the (3, n) array v turned by -phase about z, in place: into the frame of a pulse at phase."""
    c, s = math.cos(phase), math.sin(phase)
    v[:2] = c * v[0] + s * v[1], c * v[1] - s * v[0]


@settings(max_examples=40, deadline=None)
@given(
    unit_states(),
    st.floats(0.0, 5e7),
    phases,
    st.floats(-5e7, 5e7),
    st.floats(1e-9, 2e-7),
)
def test_rotate_drive_matches_rk4(s, omega, phase, delta, duration):
    # the engine's exact constant-drive kernel against the RK4 integrator, in the
    # pulse's frame: v turned into it, rotated about (omega, 0, delta), turned back
    v = s.as_array()[:, None]
    turn_z(v, phase)
    rotate_drive(v, omega, delta, duration, np.empty((8, 1)))
    turn_z(v, -phase)
    drv = DriveParams(omega, phase, delta, duration)
    want = evolve_driven(s, drv, dt=duration / 400).as_array()
    assert np.linalg.norm(v[:, 0] - want) < 1e-6


def test_rotate_drive_per_vector_parameters():
    # per-spin omega and delta arrays act column by column, like scalar calls
    rng = np.random.default_rng(3)
    v = rng.normal(size=(3, 5))
    omega = rng.uniform(0.0, 3e7, 5)
    delta = np.array([0.0, -2e7, 1e6, 0.0, 4e7])
    omega[3] = 0.0  # zero axis
    v0 = v.copy()
    want = v.copy()
    for i in range(5):
        col = want[:, i : i + 1]
        rotate_drive(col, omega[i], delta[i], 48e-9, np.empty((8, 1)))
    rotate_drive(v, omega, delta, 48e-9, np.empty((8, 5)))
    assert np.array_equal(v, want)
    assert np.array_equal(v[:, 3], v0[:, 3])
    # three separate component arrays
    comps = tuple(v0.copy())
    rotate_drive(comps, omega, delta, 48e-9, np.empty((8, 5)))
    assert np.array_equal(np.array(comps), want)


@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0, 2.0])
def test_rabi_formula_oracle(ratio):
    # Detuned drive vs the generalized Rabi formula.
    omega = 2.0 * math.pi * 10.4166667e6
    delta = ratio * omega
    duration = 120e-9
    drv = DriveParams(omega, 0.0, delta, duration)
    s = evolve_driven(BRIGHT, drv, dt=duration / 400)
    expected = float(rabi_population(omega, delta, duration))
    assert population_ms0(s) == pytest.approx(expected, abs=1e-5)


def test_zero_drive_is_identity():
    drv = DriveParams(0.0, 0.0, 0.0, 1e-6)
    s = evolve_driven(BRIGHT, drv)
    assert s.z == pytest.approx(1.0, abs=1e-12)


def test_dt_too_coarse_rejected():
    drv = DriveParams(1e7, 0.0, 0.0, 48e-9)
    with pytest.raises(ValueError):
        evolve_driven(BRIGHT, drv, dt=48e-9 / 10)


def test_norm_drift_below_1e8_per_pulse():
    omega = math.pi / 48e-9
    drv = DriveParams(omega, 0.3, 0.4 * omega, 48e-9)
    s = evolve_driven(BRIGHT, drv)
    assert abs(s.norm() - 1.0) < 1e-8


def test_rk4_fourth_order_convergence():
    omega = math.pi / 48e-9
    drv = DriveParams(omega, 0.0, 0.6 * omega, 48e-9)
    exact = None
    errs, dts = [], []
    # reference: very fine integration
    ref = evolve_driven(BRIGHT, drv, dt=drv.duration / 6400).as_array()
    for n in (64, 128, 256, 512):
        dt = drv.duration / n
        v = evolve_driven(BRIGHT, drv, dt=dt).as_array()
        errs.append(np.linalg.norm(v - ref))
        dts.append(dt)
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.3)


def test_state_invariant_enforced():
    with pytest.raises(ValueError):
        BlochState(1.0, 1.0, 1.0)


def test_drive_params_validation():
    with pytest.raises(ValueError):
        DriveParams(-1.0, 0.0, 0.0, 1e-9)
    with pytest.raises(ValueError):
        DriveParams(1.0, 0.0, 0.0, -1e-9)
