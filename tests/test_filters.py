"""Filter-function formalism: closed forms, normalization anchor, quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from nvsim.experiments import make_coherence_builder
from nvsim.filters import (
    _Grid,
    _pair_sums,
    _toggling_coefficients,
    chi_from_spectrum,
    coherence_analytic,
    filter_weight,
)
from nvsim.noise import OUBath, calibrate_bath, ou_chi_exact
from nvsim.oracles import chi_echo_ou, chi_fid_ou
from nvsim.sequences import build_cpmg, build_fid, build_hahn_echo, build_xy16, pulse_times, toggling_moment

BATH = calibrate_bath(9e-6, 10e-6)


def test_fid_filter_closed_form():
    T = 3e-6
    w = np.linspace(1e3, 5e7, 57)
    assert np.allclose(filter_weight([], T, w), 4 * np.sin(w * T / 2) ** 2, rtol=1e-12)


def test_echo_filter_closed_form():
    T = 2e-6
    w = np.linspace(1e3, 5e7, 57)
    got = filter_weight([T / 2], T, w)
    assert np.allclose(got, 16 * np.sin(w * T / 4) ** 4, rtol=1e-9, atol=1e-12)


def test_filter_against_numerical_fourier_of_toggling():
    # Independent oracle: F = |int y(t) e^{iwt} dt|^2 w^2 by direct quadrature.
    T = 2e-6
    times = [0.4e-6, 1.1e-6, 1.6e-6]

    def y(t):
        return (-1.0) ** sum(t >= tk for tk in times)

    for w in (3e5, 2.2e6, 1.7e7):
        re, _ = quad(lambda t: y(t) * math.cos(w * t), 0, T, points=times, limit=200)
        im, _ = quad(lambda t: y(t) * math.sin(w * t), 0, T, points=times, limit=200)
        expected = (re**2 + im**2) * w**2
        assert filter_weight(times, T, w) == pytest.approx(expected, rel=1e-8)


def test_static_noise_refocused_limit():
    # F/w^2 -> 0 with at least one pulse (vs T^2 for free induction).
    T = 2e-6
    for times in ([T / 2], [(k - 0.5) * T / 4 for k in range(1, 5)]):
        w1, w2 = 1e-2 / T, 0.5e-2 / T
        v1 = filter_weight(times, T, w1) / w1**2
        v2 = filter_weight(times, T, w2) / w2**2
        assert v1 < 1e-3 * T**2
        assert v2 == pytest.approx(v1 / 4, rel=1e-3)  # quadratic vanishing
    assert filter_weight([], T, 1e-2 / T) / (1e-2 / T) ** 2 == pytest.approx(T**2, rel=1e-3)


def test_unordered_times_rejected():
    with pytest.raises(ValueError):
        filter_weight([2e-6, 1e-6], 3e-6, 1e5)
    with pytest.raises(ValueError):
        filter_weight([0.0, 1e-6], 2e-6, 1e5)


def test_toggling_moment():
    assert toggling_moment([], 2e-6) == pytest.approx(2e-6)
    assert toggling_moment([1e-6], 2e-6) == pytest.approx(0.0, abs=1e-20)
    t, T = pulse_times(build_xy16(1, 1e-6))
    assert toggling_moment(t, T) == pytest.approx(0.0, abs=1e-18)


def test_quasistatic_fid_pins_normalization():
    # Exact Gaussian average: W = exp(-sigma^2 t^2 / 2).
    sigma = 9.428090415820634e6
    for T in (50e-9, 150e-9, 300e-9):
        w = coherence_analytic(build_fid(T), sigma_static=sigma)
        assert w == pytest.approx(math.exp(-0.5 * sigma**2 * T**2), rel=1e-12)


def test_quadrature_matches_fid_closed_form():
    for T in (2e-6, 9e-6, 30e-6):
        chi = chi_from_spectrum([], T, BATH.psd)
        assert chi == pytest.approx(float(chi_fid_ou(T, BATH)), rel=1e-5)


def test_quadrature_matches_echo_closed_form():
    for T in (2e-6, 9e-6, 20e-6):
        times, total = pulse_times(build_hahn_echo(T))
        chi = chi_from_spectrum(times, total, BATH.psd)
        assert chi == pytest.approx(float(chi_echo_ou(T, BATH)), rel=1e-5)


def test_quadrature_matches_time_domain_for_cpmg():
    # Dual route: frequency-domain quadrature vs exact time-domain sums.
    seq = build_cpmg(4, 2e-6)
    times, total = pulse_times(seq)
    chi_freq = chi_from_spectrum(times, total, BATH.psd)
    chi_time = ou_chi_exact(times, total, BATH)
    assert chi_freq == pytest.approx(chi_time, rel=1e-5)


def test_quadrature_matches_time_domain_for_xy16():
    seq = build_xy16(1, 1.5e-6)
    times, total = pulse_times(seq)
    chi_freq = chi_from_spectrum(times, total, BATH.psd)
    chi_time = ou_chi_exact(times, total, BATH)
    assert chi_freq == pytest.approx(chi_time, rel=1e-5)


def test_echo_small_t_cubic_oracle():
    T = BATH.tau_c / 100
    times, total = pulse_times(build_hahn_echo(T))
    chi = chi_from_spectrum(times, total, BATH.psd)
    assert chi == pytest.approx(BATH.b**2 * T**3 / (12 * BATH.tau_c), rel=5e-3)


def test_zero_coupling_full_coherence():
    dead = OUBath(0.0, 10e-6)
    for seq in (build_fid(1e-6), build_hahn_echo(9e-6), build_xy16(2, 1e-6)):
        assert coherence_analytic(seq, dead) == pytest.approx(1.0, abs=1e-12)


def test_coherence_accepts_bath_or_callable():
    seq = build_hahn_echo(9e-6)
    w_bath = coherence_analytic(seq, BATH)
    w_call = coherence_analytic(seq, BATH.psd)
    assert w_bath == pytest.approx(w_call, rel=1e-12)
    assert w_bath == pytest.approx(math.exp(-1.0), abs=1e-6)


def test_nonintegrable_spectrum_rejected():
    seq = build_hahn_echo(2e-6)
    times, total = pulse_times(seq)
    with pytest.raises(ValueError):
        chi_from_spectrum(times, total, lambda w: 1e-12 * (1.0 + w * w))


def test_spectrum_infinite_at_zero_rejected():
    # Under 1/f noise chi diverges for free induction, whose F/w^2 is T^2 at
    # w = 0, but not for an echo, whose F/w^2 vanishes there.
    def one_over_f(w):
        with np.errstate(divide="ignore"):
            return 1e8 / np.abs(w)

    with pytest.raises(ValueError):
        chi_from_spectrum([], 2e-6, one_over_f)
    assert 0.0 < chi_from_spectrum([1e-6], 2e-6, one_over_f) < np.inf


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 256),
    seed=st.integers(0, 2**32 - 1),
    log_t_over_tau_c=st.floats(math.log(0.01), math.log(100.0)),
    log_chi=st.floats(math.log(1e-3), math.log(10.0)),
)
def test_chi_meets_rtol_on_random_trains(n, seed, log_t_over_tau_c, log_chi):
    # Random ordered train of n pulses in (0, T); the OU coupling is set so
    # the exact exponent is chi.  The frequency route must meet its rtol.
    T = 100e-6
    times = np.sort(np.random.default_rng(seed).uniform(0.0, T, n))
    tau_c = T / math.exp(log_t_over_tau_c)
    b = math.sqrt(math.exp(log_chi) / ou_chi_exact(times, T, OUBath(1.0, tau_c)))
    bath = OUBath(b, tau_c)
    exact = ou_chi_exact(times, T, bath)
    assert abs(chi_from_spectrum(times, T, bath.psd, rtol=1e-6) - exact) <= 1e-6 * exact


@pytest.mark.parametrize("rtol", [1e-6, 1e-8])
def test_chi_meets_rtol_on_acceptance_6_points(rtol):
    # echo and XY16-{1,4,16} at 0.15, 1.075 and 2 T2; XY16-16 at 2 T2 (256
    # pulses) once missed rtol 1e-6 by 300x.
    for family, n_rep in (("echo", 1), ("xy16", 1), ("xy16", 4), ("xy16", 16)):
        builder, _ = make_coherence_builder(family, n_rep)
        t2 = brentq(lambda T: ou_chi_exact(*pulse_times(builder(T)), BATH) - 1.0, 1e-7, 5e-3, rtol=1e-9)
        for factor in (0.15, 1.075, 2.0):
            times, total = pulse_times(builder(factor * t2))
            exact = ou_chi_exact(times, total, BATH)
            chi = chi_from_spectrum(times, total, BATH.psd, rtol=rtol)
            assert abs(chi - exact) <= rtol * exact, f"{family}-{n_rep} at {factor} T2"


def _abel_sum(edges, c, period):
    """Reference: sum_{j!=k} |c_j c_k| (1/2 + 1/|sin(pi (t_j - t_k)/period)|), one lag at a time."""
    total = 0.0
    for d in range(1, edges.size):
        lag = edges[d:] - edges[:-d]
        total += float(np.abs(c[d:] * c[:-d]) @ (0.5 + 1.0 / np.sin(np.pi / period * lag)))
    return 2.0 * total


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 256), seed=st.integers(0, 2**32 - 1))
def test_tail_constant_bounds_the_abel_sum_of_every_period(n, seed):
    # The once-per-call constant dw sum_{j<k}|c_j c_k| + 2pi sum_{j<k}|c_j c_k|/lag
    # (Jordan: sin(pi lag/L) >= 2 lag/L for lag <= T <= L/2) against the exact
    # per-period Abel sum, on the trains of test_chi_meets_rtol_on_random_trains.
    T = 100e-6
    times = np.sort(np.random.default_rng(seed).uniform(0.0, T, n))
    edges, c = _toggling_coefficients(times, T)
    pairs, weighted = _pair_sums(edges, c)
    for k in range(5):
        period = 2.0 * T * 2**k
        dw = 2.0 * np.pi / period
        assert dw * pairs + 2.0 * np.pi * weighted >= dw * _abel_sum(edges, c, period)


def _exact_phases(edges, dw, count):
    """e^(i r dw t_k) for r = 1..count, phases taken in extended precision."""
    r = np.arange(1, count + 1, dtype=np.longdouble)
    arg = np.multiply.outer(r * np.longdouble(dw), np.asarray(edges, dtype=np.longdouble))
    return (np.cos(arg) + 1j * np.sin(arg)).astype(complex)


@pytest.mark.parametrize(
    "times, T",
    [
        ([], 3e-6),
        pulse_times(build_xy16(16, 1e-6)),
        (np.sort(np.random.default_rng(1).uniform(0.0, 100e-6, 256)), 100e-6),
    ],
)
def test_halved_grid_tables_match_a_fresh_grid_and_the_exact_phases(times, T):
    # Each halved grid's table is built from the last one's, and every grid's
    # runs are powers of its last table row: every table entry within 1e-13 of
    # the extended-precision phase, and of a freshly built grid.  The largest
    # run phase is 7x the largest table phase (~2800 rad on the first grid,
    # where rounding the argument to double alone moves an exp by ~3e-13), so
    # runs get 7e-13.
    edges, c = _toggling_coefficients(times, T)
    grid = _Grid(edges, c, np.pi / T)
    for k in range(7):
        rows, cols = grid.table.shape[0], grid.runs.shape[1]
        assert np.abs(grid.table - _exact_phases(edges, grid.dw, rows)).max() <= 1e-13
        assert np.abs(grid.runs[:, 1:].T - _exact_phases(edges, rows * grid.dw, cols - 1)).max() <= 7e-13
        assert np.all(grid.runs[:, 0] == 1.0)
        if k:
            fresh = _Grid(edges, c, grid.dw)
            assert np.abs(grid.table - fresh.table).max() <= 1e-13
            assert np.abs(grid.runs - fresh.runs).max() <= 7e-13
        grid = grid.halved()
    assert grid.dw == np.pi / T / 2**7
