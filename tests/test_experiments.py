"""Experiment drivers: ODMR geometry, Rabi fit, coherence round trips,
AC response, sensitivity arithmetic, resolution curves."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nvsim.constants import GAMMA_E, ZERO_FIELD_SPLITTING_HZ
from nvsim.ensemble import DetectionVolume, NoiseModel, run_two_branch, sample_ensemble
from nvsim import readout
from nvsim.config import averaging_counts, parse_config
from nvsim.experiments import (
    PIECE_BLOCKS,
    _cut_block_means,
    make_coherence_builder,
    odmr_dip_frequencies,
    resolution_vs_time,
    run_ac_magnetometry,
    run_coherence,
    run_odmr,
    run_rabi,
    run_resolution,
    sensitivity_from_slope,
    synchronized_phase,
    write_table,
)
from nvsim.noise import AmplitudeErrorModel, OUBath, QuasiStaticSpread, calibrate_bath
from nvsim.readout import ReadoutModel, readout_shot_std
from nvsim.sequences import build_cpmg, build_xy16, pulse_times

from test_ensemble import prepared_on

VOL = DetectionVolume()
OMEGA = math.pi / 48e-9


def make_ensemble(n=4000, seed=1, sigma=0.0, bath=OUBath(0.0, 1e-5), amp=AmplitudeErrorModel()):
    nm = NoiseModel(QuasiStaticSpread(sigma), bath, amp)
    return sample_ensemble(VOL, None, nm, n, seed, rabi_angular_freq=OMEGA), nm


# ---------------------------------------------------------------- ODMR

def test_odmr_dip_positions_at_2mT():
    dips = odmr_dip_frequencies(2e-3)
    # aligned lower branch: 2.870 GHz - 28.024 GHz/T * 2 mT = 2.813952 GHz
    assert dips[0] == pytest.approx(2.813952e9, rel=1e-9)
    assert dips[1] == pytest.approx(2.926048e9, rel=1e-9)
    # the reference device dip sits at 2.8088 GHz: within 6 MHz of the
    # Zeeman arithmetic (residual attributed to zero-field/strain offsets)
    assert abs(dips[0] - 2.8088e9) < 6e6


def test_odmr_misaligned_split_is_one_third():
    dips = odmr_dip_frequencies(2e-3)
    aligned_split = dips[1] - dips[0]
    misaligned_split = dips[3] - dips[2]
    assert aligned_split == pytest.approx(3.0 * misaligned_split, rel=1e-12)


def test_odmr_zero_field_degenerate():
    dips = odmr_dip_frequencies(0.0)
    assert np.all(dips == ZERO_FIELD_SPLITTING_HZ)


def test_odmr_fit_recovers_aligned_dip():
    freqs = np.linspace(2.77e9, 2.97e9, 1601)
    res = run_odmr(freqs, 2e-3, 6e6, contrast_aligned=0.02, contrast_misaligned=0.005)
    assert res.fit.converged
    assert res.fitted_dip_hz == pytest.approx(2.813952e9, abs=0.5e6)


def test_odmr_requires_sorted_sweep():
    with pytest.raises(ValueError):
        run_odmr(np.array([2.9e9, 2.8e9]), 2e-3, 6e6)


# ---------------------------------------------------------------- Rabi

def test_rabi_pi_time_homogeneous_no_noise():
    ens, _ = make_ensemble(n=256)
    durations = np.linspace(0.0, 400e-9, 81)
    res = run_rabi(durations, ens)
    assert res.fit.converged
    assert res.t_pi_s == pytest.approx(48e-9, abs=0.5e-9)
    assert res.population[0] == pytest.approx(1.0, abs=1e-12)
    # a readout model adds detector noise, and its points need shots to average
    with pytest.raises(ValueError, match="shots"):
        run_rabi(durations, ens, ReadoutModel())


def test_rabi_decay_time_decreases_with_spread():
    taus = []
    for spread in (0.02, 0.05):
        ens, _ = make_ensemble(n=20000, seed=2, amp=AmplitudeErrorModel(sigma=spread))
        res = run_rabi(np.linspace(0.0, 2e-6, 301), ens)
        taus.append(res.fit.params[1])
        assert np.isfinite(res.fit.params[1])
    assert taus[1] < taus[0]


# ---------------------------------------------------------------- coherence

def test_coherence_echo_round_trip_small():
    bath = calibrate_bath(9e-6, 10e-6)
    ens, _ = make_ensemble(n=3000, seed=3, bath=bath)
    t_sweep = np.linspace(0.5e-6, 20e-6, 18)
    res = run_coherence("echo", 1, t_sweep, ens, bath)
    assert res.fit.converged and not res.censored
    assert res.t2_s == pytest.approx(9e-6, rel=0.08)


def test_coherence_censored_when_no_decay():
    bath = OUBath(0.0, 1e-5)
    ens, _ = make_ensemble(n=512, seed=4, bath=bath)
    res = run_coherence("echo", 1, np.linspace(1e-6, 20e-6, 10), ens, bath)
    assert res.censored
    assert np.all(res.signal_norm > 0.999)


def test_converged_t2_before_the_first_point_is_censored():
    # the round-trip echo, swept from 10 us on: the fit converges on the true
    # T2 of 9 us, which lies before the first point, so the curve is censored
    bath = calibrate_bath(9e-6, 10e-6)
    ens, _ = make_ensemble(n=3000, seed=3, bath=bath)
    t_sweep = np.linspace(10e-6, 24e-6, 15)
    res = run_coherence("echo", 1, t_sweep, ens, bath)
    assert res.fit.converged
    assert res.t2_s < t_sweep[0]
    assert res.t2_s == pytest.approx(9e-6, rel=0.05)
    assert res.censored


def test_coherence_builder_families():
    for family, n_rep, expect in (("echo", 1, 1), ("cpmg", 8, 8), ("xy4", 2, 8),
                                  ("xy8", 2, 16), ("xy16", 2, 32), ("fid", 1, 0)):
        builder, n_pi = make_coherence_builder(family, n_rep)
        assert n_pi == expect
        seq = builder(16e-6)
        assert seq.n_pi_pulses == expect
        assert pulse_times(seq)[1] == pytest.approx(16e-6)
    with pytest.raises(ValueError):
        make_coherence_builder("udd", 1)


@pytest.mark.parametrize("n_rep", [1, 3, 16])
def test_coherence_builder_pi_count_matches_closed_form(n_rep):
    counts = {"fid": 0, "echo": 1, "cpmg": n_rep, "xy4": 4 * n_rep, "xy8": 8 * n_rep, "xy16": 16 * n_rep}
    for family, expect in counts.items():
        assert make_coherence_builder(family, n_rep)[1] == expect


# ---------------------------------------------------------------- sensitivity

def test_sensitivity_from_slope_reference_arithmetic():
    # frozen: 89.4 uV / 320000 V/T * sqrt(1.47 ms) = 1.07115e-11 T/rtHz
    rep = sensitivity_from_slope(89.4e-6, 320000.0, 1.47e-3)
    assert rep.eta_t_per_sqrt_hz == pytest.approx(1.071145e-11, rel=1e-4)
    assert abs(rep.eta_t_per_sqrt_hz - 10.8e-12) / 10.8e-12 < 0.015


def test_sensitivity_from_slope_scalings():
    base = sensitivity_from_slope(89.4e-6, 320000.0, 1.47e-3).eta_t_per_sqrt_hz
    assert sensitivity_from_slope(2 * 89.4e-6, 320000.0, 1.47e-3).eta_t_per_sqrt_hz == pytest.approx(2 * base)
    assert sensitivity_from_slope(89.4e-6, 320000.0, 4 * 1.47e-3).eta_t_per_sqrt_hz == pytest.approx(2 * base)


def test_sensitivity_from_slope_rejects_zero_slope():
    with pytest.raises(ValueError):
        sensitivity_from_slope(89.4e-6, 0.0, 1.47e-3)


# ---------------------------------------------------------------- resolution

def test_resolution_reference_points():
    elapsed, minf = resolution_vs_time(89.4e-6, 320000.0, 1.47e-3, [1, 50000])
    assert minf[0] == pytest.approx(2.79375e-10, rel=1e-6)   # single shot: 0.279 nT
    assert elapsed[1] == pytest.approx(73.5, rel=1e-6)        # 50000 shots -> 73.5 s
    assert minf[1] == pytest.approx(2.79375e-10 / math.sqrt(50000), rel=1e-6)


def test_resolution_loglog_slope_is_exactly_minus_half():
    n = np.array([10, 100, 1000, 10000])
    elapsed, minf = resolution_vs_time(89.4e-6, 320000.0, 1.47e-3, n)
    slope = np.polyfit(np.log(elapsed), np.log(minf), 1)[0]
    assert slope == pytest.approx(-0.5, abs=1e-12)


def test_run_resolution_measured_slope():
    m = ReadoutModel(v0_v=0.5, contrast=0.02, shot_noise_v=57.7e-6, laser_fluct_rel=0.01)
    # 160 blocks: seeds 0-199 fail 0 times (at 40 blocks the slope check failed 6 times before the
    # cut-sum draw, 12 after); the slope's spread over seeds is 0.0117 (0.05 = 4.3 SE).  An endpoint
    # min_field x 1.5 fails on all 200 seeds.
    res = run_resolution(m, 110000.0, 1.47e-3, [100, 1000, 10000], blocks_per_point=160, seed=5)
    assert res.loglog_slope == pytest.approx(-0.5, abs=0.05)
    # measured matches the analytic shot-noise prediction, point by point within 5 SE
    assert np.all(np.abs(res.min_field_t - res.ideal_min_field_t) <= 5.0 * res.min_field_stderr_t)


def test_run_resolution_stderr_column():
    m = ReadoutModel(v0_v=0.5, contrast=0.02, shot_noise_v=57.7e-6, laser_fluct_rel=0.01)
    res = run_resolution(m, 110000.0, 1.47e-3, [10, 100, 1000], blocks_per_point=20, seed=3)
    k = np.array([2000, 200, 20])
    assert res.min_field_stderr_t == pytest.approx(res.min_field_t / np.sqrt(2.0 * (k - 1)), rel=1e-15)


def test_run_resolution_memory_is_bounded():
    # acceptance-7 arguments: the stream is reduced as it is drawn, so 4x the
    # blocks (8 M shots) holds no more than the block means it adds
    m = ReadoutModel(v0_v=0.5, contrast=0.02, shot_noise_v=57.7e-6, laser_fluct_rel=0.01)
    peaks = []
    for blocks in (20, 80):
        tracemalloc.start()
        try:
            run_resolution(m, 110000.0, 1.47e-3, [100, 1000, 10000, 100000], blocks_per_point=blocks, seed=71)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 4 * 2**20
    assert abs(peaks[1] - peaks[0]) <= 2**20


def _whole_stream_block_means(sigma, sizes, blocks, rng):
    """The block means per M from every cut of the stream at once: one normal per cut, one prefix sum."""
    total = max(sizes) * blocks
    edges = [np.arange(n, (total // n) * n + 1, n) for n in sizes]
    cuts = np.unique(np.concatenate(edges))
    prefix = np.cumsum(np.sqrt(np.diff(cuts, prepend=0)) * sigma * rng.standard_normal(len(cuts)))
    return [np.diff(prefix[np.searchsorted(cuts, e)], prepend=0.0) / n for n, e in zip(sizes, edges)]


def _zero_signal_sigma(m):
    """sigma of the i.i.d. zero-signal two-branch shots; the drift walk has no term there."""
    mean, factor = readout.shot_law(0.5, 0.5, m, [readout.TWO_BRANCH])
    assert mean[0] == 0.0
    return abs(float(factor[0, 0]))


M_SETS = {
    "decades": [100, 1000, 10000, 100000],
    # M that do not divide the piece, and M above 2**16
    "geomspace": np.unique(np.round(np.geomspace(100, 100000, 5)).astype(int)).tolist(),
}


@pytest.mark.parametrize("chunk", [1000, 4096, 2**16])
@pytest.mark.parametrize("drift", [0.0, 1e-4])
@pytest.mark.parametrize("sizes", list(M_SETS))
def test_streamed_block_means_equal_whole_stream_means(sizes, drift, chunk):
    # drawn in pieces of chunk shots, the block means are bit for bit those drawn from all cuts at once
    sizes = M_SETS[sizes]
    sigma = _zero_signal_sigma(ReadoutModel(laser_fluct_rel=0.01, laser_fluct_fast_rel=0.003, laser_drift_step_rel=drift))
    blocks = 3
    rng_ref, rng = np.random.default_rng(17), np.random.default_rng(17)
    expect = _whole_stream_block_means(sigma, sizes, blocks, rng_ref)
    got = _cut_block_means(sigma, sizes, [max(sizes) * blocks // n for n in sizes], rng, chunk)
    for n, a, b in zip(sizes, got, expect):
        assert np.array_equal(a, b), n
    assert rng.standard_normal() == rng_ref.standard_normal()


@pytest.mark.parametrize("blocks", [20, 80])
def test_resolution_cfg_pieces_give_the_whole_stream_means(blocks):
    # run_resolution's piece, PIECE_BLOCKS blocks of the smallest M, splits resolution.cfg's
    # stream (2 pieces at 20 blocks, 5 at 80) and moves no bit
    sizes = M_SETS["decades"]
    piece = max(sizes[-1], PIECE_BLOCKS * sizes[0])
    assert -(-sizes[-1] * blocks // piece) == {20: 2, 80: 5}[blocks]
    sigma = _zero_signal_sigma(ReadoutModel(laser_fluct_rel=0.01))
    rng_ref, rng = np.random.default_rng(29), np.random.default_rng(29)
    expect = _whole_stream_block_means(sigma, sizes, blocks, rng_ref)
    got = _cut_block_means(sigma, sizes, [sizes[-1] * blocks // n for n in sizes], rng, piece)
    for n, a, b in zip(sizes, got, expect):
        assert np.array_equal(a, b), n
    assert rng.standard_normal() == rng_ref.standard_normal()


def test_run_resolution_equals_the_whole_stream_reduction():
    sizes = M_SETS["geomspace"]
    runs = []
    for drift in (1e-4, 0.0):
        m = ReadoutModel(laser_fluct_rel=0.01, laser_drift_step_rel=drift)
        runs.append(run_resolution(m, 110000.0, 1.47e-3, sizes, blocks_per_point=4, seed=23))
    means = _whole_stream_block_means(_zero_signal_sigma(m), sizes, 4, np.random.default_rng(23))
    expect = np.array([float(np.std(x, ddof=1)) / 110000.0 for x in means])
    assert np.array_equal(runs[0].min_field_t, expect)
    assert np.array_equal(runs[1].min_field_t, expect)  # the drift walk adds nothing at zero signal


class _RecordingNormals:
    """Stands in for a generator: records each standard_normal(n) and returns the next n chosen values."""

    def __init__(self, values=None):
        self.values = values
        self.requests = []

    def standard_normal(self, n):
        lo = sum(self.requests)
        self.requests.append(n)
        return np.zeros(n) if self.values is None else np.array(self.values[lo : lo + n], dtype=float)


def test_cut_block_means_have_the_exact_covariance():
    # no M divides another, and blocks of 3 and 5 straddle the pieces of 7 shots
    sizes, blocks, sigma = [3, 5, 7], 4, 1.7
    counts = [7 * blocks // n for n in sizes]
    probe = _RecordingNormals()
    _cut_block_means(sigma, sizes, counts, probe, 7)
    n = sum(probe.requests)
    edges = {e for m, q in zip(sizes, counts) for e in range(m, m * q + 1, m)}
    assert n == len(edges) == 16
    # the means are linear in the normals: column i of B is the means for the i-th unit vector
    b = np.column_stack([np.concatenate(_cut_block_means(1.0, sizes, counts, _RecordingNormals(e), 7)) for e in np.eye(n)])
    spans = [(j * m, (j + 1) * m, m) for m, q in zip(sizes, counts) for j in range(q)]
    exact = np.array(
        [[sigma**2 * max(0, min(hi, hj) - max(li, lj)) / (mi * mj) for lj, hj, mj in spans] for li, hi, mi in spans]
    )
    np.testing.assert_allclose(sigma**2 * (b @ b.T), exact, rtol=1e-12, atol=0.0)


def test_resolution_cfg_draws_one_normal_per_block_edge_cut():
    cfg = parse_config(str(Path(__file__).resolve().parent.parent / "configs" / "resolution.cfg"))
    sizes = averaging_counts(cfg).tolist()
    assert sizes == [100, 1000, 10000, 100000] and cfg.blocks_per_point == 20
    probe = _RecordingNormals()
    means = _cut_block_means(1.0, sizes, [sizes[-1] * 20 // n for n in sizes], probe, sizes[-1])
    assert sum(probe.requests) == 20000  # not the stream's 2,000,000 shots
    assert [len(x) for x in means] == [20000, 2000, 200, 20]


def test_readout_shot_std_matches_quadrature_sum():
    m = ReadoutModel(shot_noise_v=57.7e-6)
    assert readout_shot_std(m) == pytest.approx(89.4e-6, rel=2e-3)


# ---------------------------------------------------------------- AC sensing

def test_ac_magnetometry_odd_response_and_slope():
    bath = OUBath(0.0, 1e-5)
    ens, _ = make_ensemble(n=512, seed=6, bath=bath)
    readout = ReadoutModel(v0_v=0.5, contrast=0.02, shot_noise_v=57.7e-6)
    tau = 1.0 / (2 * 362e3)
    seq = build_xy16(1, tau, readout_phase=math.pi / 2)
    amplitudes = np.linspace(-2e-7, 2e-7, 17)
    res = run_ac_magnetometry(seq, 362e3, amplitudes, ens, bath, readout, 4000, 1.47e-3, shot_seed=7)
    assert res.fit.converged
    # odd response: zero crossing at the origin
    i0 = int(np.argmin(np.abs(amplitudes)))
    assert abs(res.signal_norm[i0]) < 1e-12
    assert np.allclose(res.signal_norm, -res.signal_norm[::-1], atol=1e-9)
    # slope at origin from the fit matches a central difference within 2%
    db = amplitudes[1] - amplitudes[0]
    numeric = (res.signal_norm[i0 + 1] - res.signal_norm[i0 - 1]) / (2 * db)
    analytic_slope = res.max_slope_v_per_t / (readout.v0_v * readout.contrast)
    assert analytic_slope == pytest.approx(abs(numeric), rel=0.02)
    # and the normalized response follows W sin((2/pi) gamma B T)
    T = pulse_times(seq)[1]
    expect = np.sin((2 / math.pi) * GAMMA_E * amplitudes * T)
    assert np.allclose(res.signal_norm, expect, atol=1e-9)


def test_ac_magnetometry_zero_crossings_equally_spaced():
    bath = OUBath(0.0, 1e-5)
    ens, _ = make_ensemble(n=256, seed=8, bath=bath)
    readout = ReadoutModel(v0_v=0.5, contrast=0.02, shot_noise_v=1e-6)
    tau = 1.0 / (2 * 362e3)
    seq = build_xy16(1, tau, readout_phase=math.pi / 2)
    T = pulse_times(seq)[1]
    period = 2 * math.pi / ((2 / math.pi) * GAMMA_E * T)
    amplitudes = np.linspace(-1.2 * period, 1.2 * period, 97)
    res = run_ac_magnetometry(seq, 362e3, amplitudes, ens, bath, readout, 100, 1.47e-3, shot_seed=9)
    sgn = np.sign(res.signal_norm)
    crossings = amplitudes[:-1][np.diff(sgn) != 0]
    gaps = np.diff(crossings)
    assert np.allclose(gaps, period / 2, rtol=0.05)


def test_ac_report_self_consistency_and_noise_prediction():
    # the report's eta must equal (delta_s/slope)*sqrt(t_seq) exactly, and
    # the measured delta_s must match the analytic shot-noise prediction
    # within 5% at 1e4 shots.
    bath = OUBath(0.0, 1e-5)
    ens, _ = make_ensemble(n=512, seed=12, bath=bath)
    readout = ReadoutModel(v0_v=0.5, contrast=0.02, shot_noise_v=57.7e-6)
    tau = 1.0 / (2 * 362e3)
    seq = build_xy16(1, tau, readout_phase=math.pi / 2)
    res = run_ac_magnetometry(
        seq, 362e3, np.linspace(-2e-7, 2e-7, 9), ens, bath, readout, 10000, 1.47e-3, shot_seed=13
    )
    rep = res.report
    assert rep.eta_t_per_sqrt_hz == pytest.approx(
        rep.delta_s_v / rep.max_slope_v_per_t * math.sqrt(rep.t_seq_s), rel=1e-12
    )
    assert rep.delta_s_v == pytest.approx(readout_shot_std(readout), rel=0.05)


def test_synchronized_phase_helper():
    assert synchronized_phase(1e-9, 100e-6) == pytest.approx(
        (2 / math.pi) * GAMMA_E * 1e-9 * 100e-6
    )


# ---------------------------------------------------------------- robustness

def test_phase_robustness_xy16_beats_cpmg_smoke():
    bath = OUBath(0.0, 1e-5)
    nm = NoiseModel(QuasiStaticSpread(0.0), bath, AmplitudeErrorModel(systematic=0.05))
    ens = sample_ensemble(VOL, None, nm, 512, 10, rabi_angular_freq=OMEGA)
    tau = 1e-6
    fams = {
        "xy16": build_xy16(2, tau),
        "cpmg": build_cpmg(32, tau),
    }
    phases = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    worst = {
        name: min(np.subtract(*run_two_branch(prepared_on(seq, a), ens, bath, pulse_width=48e-9)) for a in phases)
        for name, seq in fams.items()
    }
    # no OU noise, no static spread, one amplitude error: every spin is the same, so
    # the seed does not matter; over ensemble seeds 0-199 the worst-phase XY16 is
    # 0.993844 and CPMG 0.232726 on every seed.  With the finite engine ignoring
    # each pulse's phase, both are 0.381504 and the check fails.
    assert worst["xy16"] > worst["cpmg"]

@pytest.mark.parametrize("column", [
    np.array([0.1, -2.5e-300, 1e16, np.nan, -0.0, np.inf]),
    np.arange(6),
    np.arange(6) > 2,
    [0.1, 1.0 / 3.0, 5e-324, 2.0, 1e22, -7.25],
    ["a", 0.5, np.float64(1.0 / 3.0), np.float32(0.1), 1, np.int64(-3)],  # fit.csv's mix
], ids=["float-array", "int-array", "bool-array", "float-list", "mixed-list"])
def test_write_table_writes_each_cell_by_the_per_cell_rule(tmp_path, column):
    # the per-cell rule: repr(float(v)) for a float, str(v) for anything else
    def cell(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    values = column.tolist() if isinstance(column, np.ndarray) else column
    names = [f"r{i}" for i in range(len(values))]
    write_table(tmp_path / "t.csv", ["name", "value"], [names, column])
    want = "name,value\n" + "".join(f"{n},{cell(v)}\n" for n, v in zip(names, values))
    assert (tmp_path / "t.csv").read_text() == want


def test_write_table_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), [1.0, 2.0]])
