"""Curve fits: synthetic recovery, determinism, model nesting."""

from types import SimpleNamespace

import numpy as np
import pytest

from nvsim.fitting import (
    FitError,
    _finish,
    damped_sine,
    fit_damped_sine,
    fit_lorentzian,
    fit_sine,
    fit_stretched_exp,
    lorentzian_dip,
    stretched_exp,
)


def test_lorentzian_recovery_noiseless():
    x = np.linspace(2.78e9, 2.84e9, 241)
    true = (2.8088e9, 10e6, 0.03, 1.0)
    y = lorentzian_dip(x, *true)
    fit = fit_lorentzian(x, y)
    assert fit.converged
    for got, want in zip(fit.params, true):
        assert got == pytest.approx(want, rel=1e-6)
    assert fit.residual_rms < 1e-9


def test_lorentzian_stderr_reasonable():
    rng = np.random.default_rng(0)
    x = np.linspace(2.78e9, 2.84e9, 241)
    y = lorentzian_dip(x, 2.8088e9, 10e6, 0.03, 1.0) + 1e-4 * rng.standard_normal(len(x))
    fit = fit_lorentzian(x, y)
    assert fit.converged
    # center recovered well within a linewidth; stderr consistent
    assert abs(fit.params[0] - 2.8088e9) < 5 * fit.stderr[0] + 1e3


def test_damped_sine_recovery_with_noise():
    rng = np.random.default_rng(1)
    t = np.linspace(0.0, 400e-9, 161)
    true = (0.5, 300e-9, 10.4166667e6, 0.5)
    y = damped_sine(t, *true) + 0.01 * rng.standard_normal(len(t))
    fit = fit_damped_sine(t, y)
    assert fit.converged
    assert fit.params[2] == pytest.approx(true[2], rel=1e-3)


def test_stretched_exp_nests_pure_exponential():
    rng = np.random.default_rng(2)
    t = np.linspace(0.2e-6, 30e-6, 40)
    y = np.exp(-t / 9e-6) + 0.003 * rng.standard_normal(len(t))
    fit = fit_stretched_exp(t, y)
    assert fit.converged
    assert fit.params[2] == pytest.approx(1.0, abs=0.02)
    assert fit.params[1] == pytest.approx(9e-6, rel=0.02)


def test_stretched_exp_recovery():
    t = np.linspace(0.5e-6, 40e-6, 50)
    y = stretched_exp(t, 1.0, 12e-6, 2.3)
    fit = fit_stretched_exp(t, y)
    assert fit.params[1] == pytest.approx(12e-6, rel=1e-6)
    assert fit.params[2] == pytest.approx(2.3, abs=1e-6)


def test_sine_fit_and_slope():
    b = np.linspace(-4e-8, 4e-8, 33)
    k, a = 2.4e7, 3.1e-3
    y = a * np.sin(k * b)
    fit = fit_sine(b, y)
    assert fit.converged
    assert abs(fit.params[0] * fit.params[1]) == pytest.approx(a * k, rel=1e-6)


def test_sine_fit_negative_amplitude():
    b = np.linspace(-4e-8, 4e-8, 33)
    y = -2e-3 * np.sin(2.4e7 * b)
    fit = fit_sine(b, y)
    assert fit.params[0] * fit.params[1] < 0 or fit.params[0] < 0
    assert abs(fit.params[0] * fit.params[1]) == pytest.approx(2e-3 * 2.4e7, rel=1e-6)


def test_fit_determinism_bit_for_bit():
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 400e-9, 101)
    y = damped_sine(t, 0.5, 250e-9, 1.04e7, 0.5) + 0.01 * rng.standard_normal(len(t))
    f1 = fit_damped_sine(t, y)
    f2 = fit_damped_sine(t, y.copy())
    assert np.array_equal(f1.params, f2.params)
    assert np.array_equal(f1.stderr, f2.stderr)
    assert f1.residual_rms == f2.residual_rms


def test_stretched_exp_rejects_a_curve_with_no_positive_value():
    t = np.linspace(1e-6, 20e-6, 6)
    with pytest.raises(FitError, match="no positive values"):
        fit_stretched_exp(t, -np.linspace(0.01, 0.002, 6))


def test_too_few_points_rejected():
    with pytest.raises(ValueError):
        fit_lorentzian([1, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError):
        fit_damped_sine([1, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError):
        fit_stretched_exp([1, 2], [1, 2])
    with pytest.raises(ValueError):
        fit_sine([1, 2], [1, 2])


def _solved(jac, cost=0.5):
    return SimpleNamespace(x=np.zeros(jac.shape[1]), jac=jac, cost=cost, success=True)


def test_rank_deficient_jacobian_has_no_error_bars():
    # the second column is the first plus 1e-12 times the third: rank 2 in exact
    # arithmetic, and the diagonal of inv(J^T J) is ~1e14 of either sign
    t = np.linspace(0.0, 1.0, 20)
    jac = np.column_stack([np.ones_like(t), 1.0 + 1e-12 * t, t])
    fit = _finish(_solved(jac), len(t), ("a", "b", "c"))
    assert np.all(np.isnan(fit.stderr))
    assert np.all(np.isnan(fit.cov))
    assert not fit.converged


def test_badly_scaled_jacobian_keeps_its_error_bars():
    # columns of norm ~1, ~1e-9 and ~1e6, like an ODMR fit in Hz: cond(J^T J)
    # is far past 1/eps, but the parameters are determined
    t = np.linspace(0.0, 1.0, 20)
    jac = np.column_stack([np.ones_like(t), 1e-9 * t, 1e6 * t * t])
    assert np.linalg.cond(jac.T @ jac) > 1e20
    fit = _finish(_solved(jac), len(t), ("a", "b", "c"))
    scale = np.linalg.norm(jac, axis=0)
    scaled = jac / scale
    want = np.sqrt(np.diag(np.linalg.inv(scaled.T @ scaled)) / (len(t) - 3)) / scale
    assert fit.converged
    assert fit.stderr == pytest.approx(want, rel=1e-9)
