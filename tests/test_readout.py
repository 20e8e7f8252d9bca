"""Window model, common-mode rejection A/B, averaging statistics."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvsim import readout
from nvsim.oracles import expected_two_branch_mean
from nvsim.readout import SINGLE_BRANCH, TWO_BRANCH, WINDOWS, ReadoutModel, shot_stream

volts = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)

QUIET = ReadoutModel(v0_v=0.5, contrast=0.02, shot_noise_v=0.0)


def windows(s1, r1, s2, r2):
    return np.array([s1, r1, s2, r2])


def test_two_branch_trivial_values():
    assert TWO_BRANCH @ windows(5.0, 5.0, 3.0, 3.0) == 0.0


@given(volts, volts, volts, volts, volts)
def test_two_branch_affine_invariance(s1, r1, s2, r2, c):
    base = TWO_BRANCH @ windows(s1, r1, s2, r2)
    shifted = TWO_BRANCH @ windows(s1 + c, r1 + c, s2 + c, r2 + c)
    scale = max(abs(s1), abs(r1), abs(s2), abs(r2), abs(c), 1.0)
    assert abs(shifted - base) < 1e-12 * scale


@given(volts, volts, volts, volts, volts)
def test_within_branch_drift_cancels(s1, r1, s2, r2, d):
    base = TWO_BRANCH @ windows(s1, r1, s2, r2)
    drifted = TWO_BRANCH @ windows(s1 + d, r1 + d, s2, r2)
    scale = max(abs(s1), abs(r1), abs(s2), abs(r2), abs(d), 1.0)
    assert abs(drifted - base) < 1e-12 * scale


def test_window_means_and_contrast():
    rng = np.random.default_rng(0)
    w = shot_stream(1.0, 0.0, QUIET, 1, rng, WINDOWS)
    assert w[0][0] == pytest.approx(QUIET.v0_v)          # bright branch: no dip
    assert w[1][0] == pytest.approx(QUIET.v0_v)
    assert w[2][0] == pytest.approx(QUIET.v0_v * (1 - QUIET.contrast))
    assert (TWO_BRANCH @ w)[0] == pytest.approx(expected_two_branch_mean(1.0, 0.0, QUIET))


def test_contrast_zero_limit_is_all_reference():
    # C -> 0: S windows equal R windows up to shot noise
    m = ReadoutModel(v0_v=0.5, contrast=1e-12, shot_noise_v=0.0)
    rng = np.random.default_rng(1)
    w = shot_stream(0.3, 0.9, m, 1, rng, WINDOWS)
    assert (TWO_BRANCH @ w)[0] == pytest.approx(0.0, abs=1e-11)


def test_equal_populations_give_zero():
    rng = np.random.default_rng(2)
    w = shot_stream(0.5, 0.5, QUIET, 1, rng, WINDOWS)
    assert (TWO_BRANCH @ w)[0] == pytest.approx(0.0, abs=1e-15)


def test_population_bounds_validated():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        shot_stream(1.2, 0.5, QUIET, 1, rng, WINDOWS)
    with pytest.raises(ValueError):
        shot_stream(0.5, -0.1, QUIET, 1, rng, WINDOWS)


def test_one_percent_laser_shift_is_second_order():
    # deterministic common lam = +1%: output changes by lam*C*dp relative to v0
    m = QUIET
    p_plus, p_minus = 0.7, 0.3
    base = expected_two_branch_mean(p_plus, p_minus, m)
    lam = 0.01
    s1 = m.v0_v * (1 + lam) * (1 - m.contrast * (1 - p_plus))
    r1 = m.v0_v * (1 + lam)
    s2 = m.v0_v * (1 + lam) * (1 - m.contrast * (1 - p_minus))
    r2 = m.v0_v * (1 + lam)
    shifted = TWO_BRANCH @ windows(s1, r1, s2, r2)
    assert abs(shifted - base) / m.v0_v < 1e-4


def test_common_mode_rejection_quantified_ab():
    """Laser fluctuation per pulse: the two-branch output leaks < 0.02% of full scale,
    dropping the reference subtraction leaks > 50x more."""
    m = ReadoutModel(
        v0_v=0.5, contrast=0.02, shot_noise_v=0.0,
        laser_fluct_rel=0.0, laser_fluct_fast_rel=0.01,
    )
    rng = np.random.default_rng(4)
    p_plus, p_minus = 0.55, 0.45
    stream = shot_stream(p_plus, p_minus, m, 40000, rng, WINDOWS)
    leak_full = np.std(TWO_BRANCH @ stream - expected_two_branch_mean(p_plus, p_minus, m))
    no_ref = stream[0] - stream[2]  # branch subtraction only, reference windows unused
    leak_noref = np.std(no_ref - np.mean(no_ref))
    assert leak_full / m.v0_v < 2e-4
    assert leak_noref > 50 * leak_full


def test_branch_subtraction_rejects_mw_drift():
    """Equal population shift in both branches: the two-branch output is exactly blind,
    a single reference-subtracted branch shifts by v0 C drift."""
    m = QUIET
    p_plus, p_minus, drift = 0.6, 0.4, 0.01
    rng = np.random.default_rng(5)
    w = shot_stream(p_plus + drift, p_minus + drift, m, 1, rng, WINDOWS)
    w0 = shot_stream(p_plus, p_minus, m, 1, rng, WINDOWS)
    assert (TWO_BRANCH @ w)[0] == pytest.approx((TWO_BRANCH @ w0)[0], abs=1e-15)
    leak_single = abs((SINGLE_BRANCH @ w)[0] - (SINGLE_BRANCH @ w0)[0])
    assert leak_single == pytest.approx(m.v0_v * m.contrast * drift, rel=1e-9)
    assert leak_single > 50 * abs((TWO_BRANCH @ w)[0] - (TWO_BRANCH @ w0)[0])


def test_slow_shot_common_laser_cancels_at_balance():
    # per-shot common lam couples only through Delta p: zero at balance
    m = ReadoutModel(v0_v=0.5, contrast=0.02, shot_noise_v=0.0, laser_fluct_rel=0.01)
    rng = np.random.default_rng(6)
    stream = shot_stream(0.5, 0.5, m, 20000, rng, WINDOWS)
    assert np.std(TWO_BRANCH @ stream) < 1e-12
    # but a single branch sees the full offset wobble
    assert np.std(SINGLE_BRANCH @ stream) > 1e-5


def test_shot_noise_widths_scaling():
    m = ReadoutModel(v0_v=0.5, contrast=0.02, shot_noise_v=1e-4)
    assert m.r_noise_v == pytest.approx(1e-4 * math.sqrt(10.0 / 50.0))
    rng = np.random.default_rng(7)
    stream = shot_stream(0.5, 0.5, m, 200000, rng, WINDOWS)
    expected = math.sqrt(2 * m.shot_noise_v**2 + 2 * m.r_noise_v**2)
    assert np.std(TWO_BRANCH @ stream) == pytest.approx(expected, rel=0.01)


def test_default_shot_noise_produces_reference_scale_std():
    m = ReadoutModel(v0_v=0.5, contrast=0.02, shot_noise_v=57.7e-6)
    expected = math.sqrt(2 * m.shot_noise_v**2 + 2 * m.r_noise_v**2)
    assert expected == pytest.approx(89.4e-6, rel=2e-3)


def test_averaging_scales_as_inverse_sqrt_shots():
    m = ReadoutModel(v0_v=0.5, contrast=0.02, shot_noise_v=57.7e-6, laser_fluct_rel=0.01)
    rng = np.random.default_rng(8)
    total = 2_000_000
    stream = shot_stream(0.5, 0.5, m, total, rng, WINDOWS)
    s = TWO_BRANCH @ stream
    ms, stds = [], []
    for mshots in (100, 1000, 10000, 100000):
        k = total // mshots
        means = s[: k * mshots].reshape(k, mshots).mean(axis=1)
        ms.append(mshots)
        stds.append(np.std(means, ddof=1))
    slope = np.polyfit(np.log(ms), np.log(stds), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.03)


def test_normalized_signal_scale():
    # S_norm = S / (v0 C): a perfect revival gives +1, the AC quadrature sin(phi)
    m = QUIET
    scale = m.v0_v * m.contrast
    assert expected_two_branch_mean(1.0, 0.0, m) / scale == pytest.approx(1.0)
    assert expected_two_branch_mean(0.5, 0.5, m) == 0.0
    # small-angle linearity: S_norm ~ W phi within 1% for phi < 0.14
    for phi in (0.05, 0.1, 0.14):
        s = expected_two_branch_mean((1 + math.sin(phi)) / 2, (1 - math.sin(phi)) / 2, m) / scale
        assert s == pytest.approx(phi, rel=0.01)


def test_readout_model_validation():
    with pytest.raises(ValueError):
        ReadoutModel(contrast=1.5)
    with pytest.raises(ValueError):
        ReadoutModel(s_window_s=300e-6, r_window_s=200e-6, laser_pulse_s=400e-6)


def test_laser_drift_random_walk_wanders_raw_windows_not_output():
    m = ReadoutModel(v0_v=0.5, contrast=0.02, shot_noise_v=57.7e-6, laser_drift_step_rel=1e-3)
    rng = np.random.default_rng(9)
    stream = shot_stream(0.5, 0.5, m, 50000, rng, WINDOWS)
    # raw reference level wanders far beyond shot noise ...
    assert abs(np.mean(stream[1][-1000:]) - np.mean(stream[1][:1000])) > 20 * m.shot_noise_v
    # ... while the processed output stays at the shot-noise floor
    expected = math.sqrt(2 * m.shot_noise_v**2 + 2 * m.r_noise_v**2)
    assert np.std(TWO_BRANCH @ stream) == pytest.approx(expected, rel=0.05)

# ---------------------------------------------------------------- the fold against the window formulas


def window_law(p0_plus, p0_minus, model):
    """Mean and covariance of (s1, r1, s2, r2) per shot, written out from the window formulas.

    s_b = m_s (1 + lam_b) + sigma_s z, r_b = v0 (1 + lam_b) + sigma_r z' with
    lam_b = fl z0 + ff z_b: windows of one branch share fl^2 + ff^2, of two
    branches fl^2, and each window adds its own noise variance.  The drift
    walk is left out: it is not i.i.d. across shots.
    """
    v0, c = model.v0_v, model.contrast
    mean = np.array([v0 * (1.0 - c * (1.0 - p0_plus)), v0, v0 * (1.0 - c * (1.0 - p0_minus)), v0])
    branch = np.array([0, 0, 1, 1])
    lam_cov = model.laser_fluct_rel**2 + model.laser_fluct_fast_rel**2 * (branch[:, None] == branch[None, :])
    noise_var = np.array([model.shot_noise_v, model.r_noise_v, model.shot_noise_v, model.r_noise_v]) ** 2
    return mean, np.outer(mean, mean) * lam_cov + np.diag(noise_var)


ROW_SETS = {
    "windows": np.array(WINDOWS),
    "two_branch": np.array([TWO_BRANCH]),
    "single_branch": np.array([SINGLE_BRANCH]),
}


def documented_stream(p_plus, p_minus, m, n_shots, rng, rows):
    """The stream rebuilt from the documented draw layout: drift steps first, then k normals per shot."""
    mean, factor = readout.shot_law(p_plus, p_minus, m, rows)
    walk = np.cumsum(m.laser_drift_step_rel * rng.standard_normal(n_shots)) if m.laser_drift_step_rel else 0.0
    w = rng.standard_normal((n_shots, len(mean)))
    return mean[:, None] * (1.0 + walk) + factor @ w.T


unit = st.floats(0.0, 1.0)
SUBNORMAL = np.finfo(float).smallest_subnormal


@st.composite
def readout_models(draw):
    v0 = draw(st.floats(0.01, 10.0))
    return ReadoutModel(
        v0_v=v0,
        contrast=draw(st.floats(1e-3, 0.999)),
        shot_noise_v=v0 * draw(st.floats(0.0, 1e-2)),
        laser_fluct_rel=draw(st.floats(0.0, 0.1)),
        laser_fluct_fast_rel=draw(st.floats(0.0, 0.1)),
        laser_drift_step_rel=draw(st.sampled_from([0.0, 1e-5, 1e-3])),
    )


@settings(max_examples=30, deadline=None)
@given(
    unit,
    unit,
    readout_models(),
    st.sampled_from([1, 2**16 - 1, 2**16 + 1, 3 * 2**16 + 7]),
    st.integers(0, 2**32 - 1),
)
@example(0.0, 0.0, ReadoutModel(v0_v=0.1, contrast=0.02, shot_noise_v=0.0, laser_fluct_fast_rel=8.05e-160), 1, 0)
def test_fold_matches_window_formulas(p_plus, p_minus, m, n_shots, seed):
    win_mean, win_cov = window_law(p_plus, p_minus, m)
    abs_cov = np.abs(win_cov)
    for name, rows in ROW_SETS.items():
        mean, factor = readout.shot_law(p_plus, p_minus, m, rows)
        # rel 1e-12 of the same sums over absolute values, the scale rounding is bound to
        assert np.all(np.abs(mean - rows @ win_mean) <= 1e-12 * (np.abs(rows) @ win_mean)), name
        scale = np.sqrt(np.diag(np.abs(rows) @ abs_cov @ np.abs(rows).T))
        err = np.abs(factor @ factor.T - rows @ win_cov @ rows.T)
        # window_law squares fl and ff before the means scale them: a square that underflows
        # is rounded on the subnormal grid, and that error, times a mean squared, has no
        # relative bound.  The floor is under 4e-321 (means below 10 V): no check at normal scale changes
        floor = 8.0 * SUBNORMAL * (1.0 + np.max(win_mean) ** 2)
        assert np.all(err <= 1e-12 * np.outer(scale, scale) + floor), name
        # and the stream is that law, drawn in the documented layout
        expect = documented_stream(p_plus, p_minus, m, n_shots, np.random.default_rng(seed), rows)
        got = shot_stream(p_plus, p_minus, m, n_shots, np.random.default_rng(seed), rows)
        tol = 1e-13 if name == "windows" else 4e-15
        assert got.shape == expect.shape == (len(rows), n_shots)
        assert np.max(np.abs(got - expect)) <= tol * m.v0_v, name


def test_stream_moments_match_the_window_law():
    """2e5 shots: the window covariance, means and processed stds lie within 5 standard errors of the law."""
    m = ReadoutModel(v0_v=0.5, contrast=0.02, shot_noise_v=57.7e-6, laser_fluct_rel=1e-4, laser_fluct_fast_rel=6e-5)
    n = 200_000
    p_plus, p_minus = 0.8, 0.3
    mean, cov = window_law(p_plus, p_minus, m)
    x = shot_stream(p_plus, p_minus, m, n, np.random.default_rng(13), WINDOWS)
    var = np.diag(cov)
    assert np.all(np.abs(x.mean(axis=1) - mean) <= 5.0 * np.sqrt(var / n))
    # a Gaussian sample covariance entry has variance (S_aa S_bb + S_ab^2) / n
    cov_se = np.sqrt((np.outer(var, var) + cov**2) / n)
    assert np.all(np.abs(np.cov(x) - cov) <= 5.0 * cov_se)
    for seed, row in enumerate((TWO_BRANCH, SINGLE_BRANCH)):
        sigma = math.sqrt(row @ cov @ row)
        vals = shot_stream(p_plus, p_minus, m, n, np.random.default_rng(seed), [row])[0]
        assert abs(np.std(vals, ddof=1) - sigma) <= 5.0 * sigma / math.sqrt(2.0 * n)


def test_fold_advances_generator_by_k_plus_drift_normals_per_shot():
    n = 2**16 + 1000
    for drift in (0.0, 1e-4):
        m = ReadoutModel(laser_fluct_rel=0.01, laser_drift_step_rel=drift)
        for rows in (WINDOWS, [TWO_BRANCH]):
            rng_ref, rng = np.random.default_rng(11), np.random.default_rng(11)
            rng_ref.standard_normal((len(rows) + (drift > 0)) * n)
            shot_stream(0.4, 0.6, m, n, rng, rows)
            assert rng.standard_normal() == rng_ref.standard_normal(), (len(rows), drift)


def test_zero_noise_law_is_rank_deficient_and_exact():
    # no laser, no shot noise: the factor is zero and every shot is the mean
    mean, factor = readout.shot_law(0.2, 0.9, QUIET, WINDOWS)
    assert not factor.any()
    w = shot_stream(0.2, 0.9, QUIET, 5, np.random.default_rng(14), WINDOWS)
    assert all(np.array_equal(row, np.full(5, mu)) for row, mu in zip(w, mean))


# the rows each stream folds the four windows with
STREAM_ROWS = {
    "two_branch": [TWO_BRANCH],
    "single_branch": [SINGLE_BRANCH],
    "windows": WINDOWS,
}

STREAMS = {
    name: lambda m, n, rng, rows=rows: shot_stream(0.3, 0.6, m, n, rng, rows) for name, rows in STREAM_ROWS.items()
}


def _stream_in_pieces(stream, m, n, rng, piece):
    """STREAMS[stream] drawn piece shots per generator call, the drift walk carrying its running sum."""
    mean, factor = readout.shot_law(0.3, 0.6, m, STREAM_ROWS[stream])
    out = np.empty((len(mean), n))
    out[:] = mean[:, None]
    if m.laser_drift_step_rel:
        carry = 0.0
        for lo in range(0, n, piece):
            walk = rng.standard_normal(min(piece, n - lo)) * m.laser_drift_step_rel
            walk[0] += carry
            np.cumsum(walk, out=walk)
            carry = walk[-1]
            out[:, lo : lo + len(walk)] += mean[:, None] * walk
    for lo in range(0, n, piece):
        w = rng.standard_normal((min(piece, n - lo), len(mean)))
        block = out[:, lo : lo + len(w)]
        for j in range(len(mean)):
            block += factor[:, j, None] * w[:, j]
    return out


@pytest.mark.parametrize("stream", list(STREAMS))
def test_processed_stream_bits_independent_of_chunk_size(stream):
    # the one-call stream equals the same stream drawn in chunks of any size
    m = ReadoutModel(laser_fluct_rel=0.01, laser_fluct_fast_rel=0.003, laser_drift_step_rel=1e-3)
    n = 3 * 2**16 + 7
    whole = STREAMS[stream](m, n, np.random.default_rng(12))
    for chunk in (1000, 4096, 2**16):
        assert np.array_equal(_stream_in_pieces(stream, m, n, np.random.default_rng(12), chunk), whole), chunk


# sha256 prefix of each stream's bytes and the generator's next normal, per (stream, drift, n_shots):
# the readout draw order pinned to its bits
GOLDEN_STREAMS = {
    ("windows", 0.0, 1): ("ff4c0b1555cd8bb8", 0.9053558666731177),
    ("windows", 0.0, 999): ("c60b391acfbd48f0", -2.985375261854107),
    ("windows", 0.0, 131079): ("09d08687312d898c", 0.2290178343243861),
    ("two_branch", 0.0, 1): ("f4391ce822475760", 0.8216181435011584),
    ("two_branch", 0.0, 999): ("990c595e5b994b3f", -0.7344954985958293),
    ("two_branch", 0.0, 131079): ("f2b23cce4aab84ca", -0.2501859454128411),
    ("single_branch", 0.0, 1): ("0a39b2084acc9c4d", 0.8216181435011584),
    ("single_branch", 0.0, 999): ("449914f328c00340", -0.7344954985958293),
    ("single_branch", 0.0, 131079): ("0834eab4635a790a", -0.2501859454128411),
    ("windows", 0.001, 1): ("8c776ef4dafe16b6", 0.4463745723640113),
    ("windows", 0.001, 999): ("462094538b66f902", 0.22727816329697403),
    ("windows", 0.001, 131079): ("999599f10fe76452", 0.5403414618086145),
    ("two_branch", 0.001, 1): ("8501b0ba2fefd075", 0.33043707618338714),
    ("two_branch", 0.001, 999): ("30023211f61fa35c", 0.5608875611380941),
    ("two_branch", 0.001, 131079): ("b5164a078544c12a", 1.0304940948178603),
    ("single_branch", 0.001, 1): ("255346a4b69589f5", 0.33043707618338714),
    ("single_branch", 0.001, 999): ("5c0bc4b761bb7d53", 0.5608875611380941),
    ("single_branch", 0.001, 131079): ("22322f2ea9337a32", 1.0304940948178603),
}


@pytest.mark.parametrize("drift", [0.0, 1e-3])
def test_streams_keep_their_golden_bits(drift):
    # every stream keeps its golden bits and generator end state
    m = ReadoutModel(laser_fluct_rel=0.01, laser_fluct_fast_rel=0.003, laser_drift_step_rel=drift)
    for stream in STREAMS:
        for n in (1, 999, 2 * 2**16 + 7):
            rng = np.random.default_rng(n)
            x = np.ascontiguousarray(STREAMS[stream](m, n, rng))
            digest, next_normal = GOLDEN_STREAMS[(stream, drift, n)]
            assert hashlib.sha256(x.tobytes()).hexdigest()[:16] == digest, (stream, n)
            assert rng.standard_normal() == next_normal, (stream, n)


@pytest.mark.parametrize("drift", [0.0, 1e-3])
@pytest.mark.parametrize("piece", [1, 999, 2**16, 2**16 + 1])
def test_pieces_concatenate_to_the_stream(drift, piece):
    # drawn piece shots at a time, every stream keeps its golden bits and generator end state
    m = ReadoutModel(laser_fluct_rel=0.01, laser_fluct_fast_rel=0.003, laser_drift_step_rel=drift)
    sizes = (1, 999, 2 * 2**16 + 7) if piece > 1 else (1, 999)  # one-shot pieces are slow
    for stream in STREAMS:
        for n in sizes:
            rng = np.random.default_rng(n)
            x = np.ascontiguousarray(_stream_in_pieces(stream, m, n, rng, piece))
            digest, next_normal = GOLDEN_STREAMS[(stream, drift, n)]
            assert hashlib.sha256(x.tobytes()).hexdigest()[:16] == digest, (stream, n)
            assert rng.standard_normal() == next_normal, (stream, n)
