"""Noise models: OU sampling exactness, closed forms, bath calibration."""

import hashlib
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy.optimize import brentq

from nvsim.ensemble import DetectionVolume, NoiseModel, run_two_branch, sample_ensemble
from nvsim.noise import (
    AmplitudeErrorModel,
    OUBath,
    QuasiStaticSpread,
    calibrate_bath,
    ou_chi_exact,
    ou_transition,
    sigma_from_t2star,
)
from nvsim.oracles import apply_ou_transition, chi_echo_ou, chi_fid_ou, ou_step, sample_ou_segment_integrals
from nvsim.sequences import build_cpmg, build_hahn_echo, build_xy16, pulse_times

BATH = OUBath(4.77e5, 10e-6)


def test_sigma_from_t2star_value():
    # sqrt(2) / 150 ns, frozen
    assert sigma_from_t2star(150e-9) == pytest.approx(9.428090415820634e6, rel=1e-12)


def test_sigma_limits():
    assert sigma_from_t2star(1e9) < 1e-8
    with pytest.raises(ValueError):
        sigma_from_t2star(0.0)


def test_quasistatic_gaussian_fid_one_over_e():
    # MC average of exp(i Delta t) at t = T2* must hit 1/e within 2%.
    sigma = sigma_from_t2star(150e-9)
    rng = np.random.default_rng(11)
    deltas = sigma * rng.standard_normal(200000)
    w = np.cos(deltas * 150e-9).mean()
    assert w == pytest.approx(math.exp(-1.0), rel=0.02)


def test_ou_path_stationary_variance():
    rng = np.random.default_rng(1)
    n_paths, k = 100000, 12
    dt = BATH.tau_c / 20
    # k exact ou_step updates of n_paths stationary states
    x = rng.normal(0.0, BATH.b, n_paths)
    for _ in range(k):
        x = ou_step(x, dt, BATH, rng)[1]
    assert np.var(x) == pytest.approx(BATH.b**2, rel=0.03)


def test_ou_path_lag_tauc_autocorrelation():
    rng = np.random.default_rng(2)
    n_paths = 100000
    dt = BATH.tau_c / 10
    steps = 10  # lag = tau_c
    x0 = rng.normal(0.0, BATH.b, n_paths)
    x = x0
    for _ in range(steps):
        x = ou_step(x, dt, BATH, rng)[1]
    cov = np.mean(x0 * x)
    assert cov == pytest.approx(BATH.b**2 / math.e, rel=0.05)


def test_closed_form_small_time_expansions():
    # chi_fid -> b^2 t^2 / 2 and chi_echo -> b^2 t^3 / (12 tau_c) for t << tau_c
    t = BATH.tau_c / 200
    assert chi_fid_ou(t, BATH) == pytest.approx(0.5 * BATH.b**2 * t**2, rel=2e-3)
    assert chi_echo_ou(t, BATH) == pytest.approx(
        BATH.b**2 * t**3 / (12 * BATH.tau_c), rel=2e-3
    )


def test_segment_integral_sampler_matches_fid_variance():
    rng = np.random.default_rng(3)
    T = 9e-6
    I = sample_ou_segment_integrals(BATH, np.array([0.0, T]), 200000, rng)
    assert I[:, 0].var() == pytest.approx(2.0 * float(chi_fid_ou(T, BATH)), rel=0.02)


def test_segment_integral_sampler_matches_echo_variance():
    rng = np.random.default_rng(4)
    T = 9e-6
    I = sample_ou_segment_integrals(BATH, np.array([0.0, T / 2, T]), 200000, rng)
    phi = I[:, 0] - I[:, 1]
    assert phi.var() == pytest.approx(2.0 * float(chi_echo_ou(T, BATH)), rel=0.02)


def test_segment_integral_sampler_zero_coupling():
    rng = np.random.default_rng(5)
    I = sample_ou_segment_integrals(OUBath(0.0, 1e-6), np.array([0.0, 1e-6, 2e-6]), 7, rng)
    assert np.all(I == 0.0)


def test_ou_chi_exact_matches_echo_closed_form():
    for T in (1e-6, 5e-6, 9e-6, 25e-6):
        got = ou_chi_exact(np.array([T / 2]), T, BATH)
        assert got == pytest.approx(float(chi_echo_ou(T, BATH)), rel=1e-10)


def test_ou_chi_exact_matches_fid_closed_form():
    for T in (1e-6, 9e-6):
        got = ou_chi_exact(np.array([]), T, BATH)
        assert got == pytest.approx(float(chi_fid_ou(T, BATH)), rel=1e-10)


def test_segment_integral_sampler_zero_length_segment():
    rng = np.random.default_rng(6)
    I = sample_ou_segment_integrals(BATH, np.array([0.0, 1e-6, 1e-6, 2e-6]), 1000, rng)
    assert np.all(I[:, 1] == 0.0) and np.all(np.isfinite(I))


def _gillespie_step_coefficients(L, bath):
    """Reference: the single-interval OU step written out term by term, the
    Cholesky factor of Gillespie's covariance of (value at the end, integral)."""
    b, tau = bath.b, bath.tau_c
    h = L / tau
    mu = math.exp(-h)
    one_minus_mu = -math.expm1(-h)
    v11 = b * b * (-math.expm1(-2.0 * h))
    v12 = b * b * tau * one_minus_mu**2
    if h < 0.01:
        g2 = (2.0 / 3.0) * h**3 - 0.5 * h**4 + (7.0 / 30.0) * h**5
    else:
        g2 = 2.0 * h - 3.0 + 4.0 * mu - mu * mu
    v22 = b * b * tau * tau * g2
    a11 = math.sqrt(v11)
    a21 = v12 / a11
    a22 = math.sqrt(max(v22 - a21 * a21, 0.0))
    return tau * one_minus_mu, mu, a11, a21, a22


def _law(tr):
    """Mean coefficients and covariance of (integral, end value) from a transition."""
    cov = np.array([[tr.a21**2 + tr.a22**2, tr.a21 * tr.a11], [tr.a21 * tr.a11, tr.a11**2]])
    return np.array([tr.int_x, tr.end_x]), cov


H_GRID = [1e-4, 3e-3, 0.01, 0.2, 1.0, 10.0]


@pytest.mark.parametrize("h_lead", H_GRID)
@pytest.mark.parametrize("h", H_GRID)
def test_ou_transition_composes_two_steps(h_lead, h):
    # lead then L as two single-interval laws: the lead's end value, with
    # mean end_x x and variance a11^2, is the start of the integrated L
    lead_law = ou_transition(0.0, h_lead * BATH.tau_c, BATH)
    step = ou_transition(0.0, h * BATH.tau_c, BATH)
    mean_step, cov_step = _law(step)
    want_mean = mean_step * lead_law.end_x
    want_cov = cov_step + lead_law.a11**2 * np.outer(mean_step, mean_step)
    mean, cov = _law(ou_transition(h_lead * BATH.tau_c, h * BATH.tau_c, BATH))
    assert mean == pytest.approx(want_mean, rel=1e-12)
    assert cov.ravel() == pytest.approx(want_cov.ravel(), rel=1e-12)


@pytest.mark.parametrize("h", [1e-6, 1e-4, 0.005, 0.00999, 0.01, 0.3, 1.0, 4.0, 30.0])
def test_ou_transition_without_lead_is_the_single_step(h):
    got = tuple(ou_transition(0.0, h * BATH.tau_c, BATH))
    assert got == _gillespie_step_coefficients(h * BATH.tau_c, BATH)  # bit-equal


def test_ou_transition_apply_follows_its_formula():
    law = ou_transition(0.2 * BATH.tau_c, 0.7 * BATH.tau_c, BATH)
    x, z1, z2 = np.random.default_rng(3).standard_normal((3, 1000)) * [[BATH.b], [1.0], [1.0]]
    inputs = (x.copy(), z1.copy(), z2.copy())
    integral, end = apply_ou_transition(law, x, z1, z2)
    # the formula of the OUTransition docstring, term by term
    assert np.array_equal(integral, law.int_x * x + law.a21 * z1 + law.a22 * z2)
    assert np.array_equal(end, law.end_x * x + law.a11 * z1)
    assert all(np.array_equal(a, b) for a, b in zip((x, z1, z2), inputs))  # left alone


def test_segment_integral_sampler_bytes_frozen():
    # the stepper's draw order and arithmetic, pinned at a fixed seed
    bounds = np.array([0.0, 1e-9, 2e-6, 2.05e-6, 30e-6, 130e-6])
    rng = np.random.Generator(np.random.Philox(7))
    out = sample_ou_segment_integrals(OUBath(3e5, 10e-6), bounds, 64, rng)
    digest = hashlib.sha256(out.tobytes()).hexdigest()
    assert digest == "d139401cf00b2bc9f959073f60c932c546132832b0f5e9d50e44d4c3db10b7d6"


def _chi_decimal(times, total_t, bath) -> float:
    """50-digit reference: the O(m^2) double sum of exponentials.

    Pair j < i contributes y_i y_j tau^2 (e^-a_i - e^-e_i)(e^e_j - e^a_j) in
    units of tau, from per-bound exponentials; a segment's own term is
    tau^2 (h - 1 + e^-h).
    """
    getcontext().prec = 50
    bounds = [Decimal(0)] + [Decimal(float(t)) for t in times] + [Decimal(float(total_t))]
    tau = Decimal(bath.tau_c)
    up = [(t / tau).exp() for t in bounds]
    down = [(-t / tau).exp() for t in bounds]
    acc = Decimal(0)
    for i in range(len(bounds) - 1):
        h = (bounds[i + 1] - bounds[i]) / tau
        acc += h - 1 + (-h).exp()
        cross = sum(((-1) ** j * (up[j + 1] - up[j]) for j in range(i)), Decimal(0))
        acc += (-1) ** i * (down[i] - down[i + 1]) * cross
    return float(Decimal(bath.b) ** 2 * tau * tau * acc)


@pytest.mark.parametrize(
    "build",
    [
        build_hahn_echo,
        lambda T: build_cpmg(64, T / 64),
        *[(lambda n: lambda T: build_xy16(n, T / (16 * n)))(n) for n in (1, 4, 15, 16)],
    ],
    ids=["echo", "cpmg64", "xy16-1", "xy16-4", "xy16-15", "xy16-16"],
)
def test_ou_chi_exact_matches_50_digit_reference(build):
    # Short trains of many pulses cancel their cross terms almost exactly
    # (XY16-15 at 100 ns: chi ~ 3e-11); the oracle must keep its digits there.
    bath = calibrate_bath(9e-6, 10e-6)
    for T in (100e-9, 1e-6, 10e-6, 100e-6, 2e-3):
        times, total = pulse_times(build(T))
        assert ou_chi_exact(times, total, bath) == pytest.approx(_chi_decimal(times, total, bath), rel=1e-9)


@pytest.mark.parametrize("build", [build_hahn_echo, lambda T: build_xy16(4, T / 64)], ids=["echo", "xy16-4"])
def test_trajectory_sampler_agrees_with_one_draw_engine(build):
    # The ideal-pulse engine averages phi_OU ~ N(0, 2 chi) exactly, which
    # rests on the phase law alone; this test-only sampler steps trajectories
    # segment by segment, independently of ou_chi_exact, and must give the
    # same law at T ~ T2 (chi = 1).  Only the sampler is random now.  Rerun
    # with every seed set to s for s in 0-199, neither check failed for
    # either sequence: the variance was off by at most 1.0% (tolerance 2%),
    # the cosine mean by at most 3.6 SE of the sampler's mean (medians 0.7).
    bath = calibrate_bath(9e-6, 10e-6)
    t2 = brentq(lambda T: ou_chi_exact(*pulse_times(build(T)), bath) - 1.0, 1e-6, 1e-3, rtol=1e-12)
    seq = build(t2)
    times, total = pulse_times(seq)
    bounds = np.concatenate(([0.0], times, [total]))
    signs = (-1.0) ** np.arange(len(bounds) - 1)
    chi = ou_chi_exact(times, total, bath)
    n = 200_000
    rng = np.random.default_rng(11)
    phi = np.concatenate(
        [sample_ou_segment_integrals(bath, bounds, n // 4, rng) @ signs for _ in range(4)]
    )
    assert phi.var() == pytest.approx(2.0 * chi, rel=0.02)

    model = NoiseModel(QuasiStaticSpread(0.0), bath)
    ens = sample_ensemble(DetectionVolume(), None, model, 64, 12, rabi_angular_freq=math.pi / 48e-9)
    p_plus, p_minus = run_two_branch(seq, ens, bath)
    w = math.exp(-chi)
    se = math.sqrt(((1.0 + w**4) / 2.0 - w * w) / n)  # of the sampler's mean: the engine is exact
    assert abs(np.cos(phi).mean() - (p_plus - p_minus)) <= 5.0 * se


def test_calibrate_bath_round_trip():
    bath = calibrate_bath(9e-6, 10e-6)
    assert math.exp(-float(chi_echo_ou(9e-6, bath))) == pytest.approx(math.exp(-1.0), abs=1e-9)


@pytest.mark.parametrize("tau_c", [1e-9, 10e-6, 1000 * 9e-6])
def test_calibrate_bath_is_closed_form(tau_c):
    # the echo exponent is exactly b^2 chi(b = 1), so the calibrated b puts the
    # 50-digit exponent at 1; tau_c = 1000 T2 is the longest that calibration accepts
    bath = calibrate_bath(9e-6, tau_c)
    assert _chi_decimal([4.5e-6], 9e-6, bath) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("ratio", [100.0, 1000.0, 1e5])
def test_closed_forms_match_50_digit_reference_at_long_tau_c(ratio):
    # t << tau_c, where the textbook forms of both exponents cancel digits
    t = 9e-6
    bath = OUBath(1.0, ratio * t)
    assert float(chi_fid_ou(t, bath)) == pytest.approx(_chi_decimal([], t, bath), rel=1e-12, abs=0.0)
    assert float(chi_echo_ou(t, bath)) == pytest.approx(_chi_decimal([t / 2], t, bath), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("ratio", [100.0, 1000.0])
@pytest.mark.parametrize(
    "build", [build_hahn_echo, lambda T: build_xy16(16, T / 256)], ids=["echo", "xy16-16"]
)
def test_ou_chi_exact_keeps_its_stated_bound_at_long_tau_c(build, ratio):
    # the diagonal and cross sums cancel at tau_c >> T; the docstring states the
    # digits kept (4.2e-10 for XY16-16 at 1000 T), pinned here with margin
    t = 9e-6
    bath = OUBath(1.0, ratio * t)
    times, total = pulse_times(build(t))
    assert ou_chi_exact(times, total, bath) == pytest.approx(_chi_decimal(times, total, bath), rel=1e-9, abs=0.0)


def test_calibrate_bath_rejects_vanishing_exponent():
    with pytest.raises(ValueError, match="not finite and positive"):
        calibrate_bath(9e-6, 1e-300)


def test_calibrate_bath_monotonic_in_target():
    b_short = calibrate_bath(9e-6, 10e-6).b
    b_long = calibrate_bath(18e-6, 10e-6).b
    assert b_long < b_short


def test_calibrate_bath_rejects_quasistatic_tau_c():
    with pytest.raises(ValueError):
        calibrate_bath(9e-6, 100e-3)


def test_psd_convention():
    w = np.array([0.0, 1.0 / BATH.tau_c])
    S = BATH.psd(w)
    assert S[0] == pytest.approx(2 * BATH.b**2 * BATH.tau_c)
    assert S[1] == pytest.approx(BATH.b**2 * BATH.tau_c)


def test_amplitude_error_model():
    m = AmplitudeErrorModel(sigma=0.3, systematic=0.05)
    rng = np.random.default_rng(6)
    eps = m.sample(rng, 50000)
    assert np.all(1.0 + eps > 0)
    assert eps.mean() == pytest.approx(0.05, abs=0.01)
    with pytest.raises(ValueError):
        AmplitudeErrorModel(systematic=-1.0)
    with pytest.raises(ValueError):
        AmplitudeErrorModel(sigma=-0.1)


def test_quasistatic_spread_validation():
    with pytest.raises(ValueError):
        QuasiStaticSpread(-1.0)
    with pytest.raises(ValueError):
        OUBath(1.0, 0.0)
