"""Decoupling scaling and ordering properties of the OU bath model."""

import math

import numpy as np
import pytest

from nvsim.ensemble import DetectionVolume, NoiseModel, run_two_branch, sample_ensemble
from nvsim.fitting import fit_stretched_exp
from nvsim.noise import QuasiStaticSpread, calibrate_bath, ou_chi_exact
from nvsim.sequences import build_cpmg, build_xy16, pulse_times

OMEGA = math.pi / 48e-9


def cpmg_chi(T, n, bath):
    times = (np.arange(1, n + 1) - 0.5) * (T / n)
    return ou_chi_exact(times, T, bath)


def test_t2_grows_as_n_to_two_thirds_in_slow_bath():
    # slow-bath regime: T2(n) << tau_c throughout; fitted T2 from the
    # analytic decay curves, slope of log T2 vs log n = 2/3 +- 0.1
    tau_c = 1e-3
    bath = calibrate_bath(2e-6, tau_c)
    t2s, ns = [], [1, 2, 4, 8, 16]
    for n in ns:
        t2_guess = 2e-6 * n ** (2.0 / 3.0)
        sweep = np.linspace(0.2 * t2_guess, 2.5 * t2_guess, 30)
        w = np.exp(-np.array([cpmg_chi(T, n, bath) for T in sweep]))
        fit = fit_stretched_exp(sweep, w)
        assert fit.converged
        t2s.append(float(fit.params[1]))
        assert t2s[-1] < tau_c / 10  # still in the slow-bath regime
    slope = np.polyfit(np.log(ns), np.log(t2s), 1)[0]
    assert slope == pytest.approx(2.0 / 3.0, abs=0.1)


def test_decoupling_ordering_analytic():
    # more pulses at the same total time never hurt: W_XY16-N >= W_XY16-M, N > M
    bath = calibrate_bath(9e-6, 10e-6)
    for T in (20e-6, 60e-6, 150e-6):
        chis = []
        for n_rep in (1, 4, 16):
            times, total = pulse_times(build_xy16(n_rep, T / (16 * n_rep)))
            chis.append(ou_chi_exact(times, total, bath))
        assert chis[0] > chis[1] > chis[2]


def test_decoupling_ordering_monte_carlo():
    bath = calibrate_bath(9e-6, 10e-6)
    nm = NoiseModel(QuasiStaticSpread(0.0), bath)
    ens = sample_ensemble(DetectionVolume(), None, nm, 8000, 21, rabi_angular_freq=OMEGA)
    T = 60e-6
    ws = []
    for n_rep in (1, 4, 16):
        seq = build_xy16(n_rep, T / (16 * n_rep))
        p_plus, p_minus = run_two_branch(seq, ens, bath)
        ws.append(p_plus - p_minus)
    # Deterministic: no draw remains.  The ideal engine averages the OU phase
    # exactly, so W = exp(-chi) = 0.2078, 0.9049 and 0.9938 for XY16-1, -4 and
    # -16 at any seed, and the checks below hold by 0.66, 0.089 and 0.75.
    # sigma is the 3-sigma error bar a Monte Carlo W of 8000 spins would carry.
    sigma = 3.0 / math.sqrt(8000)
    assert ws[1] > ws[0] + sigma or abs(ws[1] - ws[0]) < 3 * sigma
    assert ws[2] > ws[1]
    assert ws[2] > ws[0] + sigma


def test_cpmg_and_xy16_identical_without_pulse_errors():
    # with ideal pulses the filter function depends only on the timing
    bath = calibrate_bath(9e-6, 10e-6)
    T = 40e-6
    n = 32
    t_c, tot_c = pulse_times(build_cpmg(n, T / n))
    t_x, tot_x = pulse_times(build_xy16(2, T / n))
    assert np.allclose(t_c, t_x)
    assert ou_chi_exact(t_c, tot_c, bath) == pytest.approx(
        ou_chi_exact(t_x, tot_x, bath), rel=1e-12
    )
