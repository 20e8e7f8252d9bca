"""Acceptance criteria: one test per criterion, stated tolerances, one
pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import filecmp
import functools
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from nvsim.cli import build_spread, main as cli_main
from nvsim.config import RunConfig
from nvsim.ensemble import DetectionVolume, NoiseModel, ideal_populations, run_two_branch, sample_ensemble
from nvsim.experiments import DEFAULT_AC_PHASE, make_coherence_builder, sensitivity_from_slope
from nvsim.fields import (
    ResonatorSpec,
    compute_field_map,
    field_of_ring,
    field_of_strip,
    wire_field_2d,
)
from nvsim.filters import coherence_analytic
from nvsim.noise import (
    AmplitudeErrorModel,
    QuasiStaticSpread,
    calibrate_bath,
    ou_chi_exact,
)
from nvsim.oracles import field_of_wire, resonance_enhancement
from nvsim.readout import SINGLE_BRANCH, ReadoutModel, shot_stream
from nvsim.sequences import build_cpmg, build_xy16

from test_ensemble import prepared_on
from test_experiments import NO_BATH, NO_SPREAD, run_config
from test_fields import oracle_ring, oracle_strip, oracle_wire_segment

VOL = DetectionVolume()
OMEGA = math.pi / 48e-9
BATH = calibrate_bath(9e-6, 10e-6)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            t0 = time.perf_counter()
            try:
                fn(*a, **k)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {label}")
                raise
            print(f"ACCEPTANCE {num}: PASS - {label} ({time.perf_counter() - t0:.1f} s)")

        return wrapper

    return deco


def ensemble_with(bath, n=10000, seed=20260809):
    nm = NoiseModel(QuasiStaticSpread(0.0), bath, AmplitudeErrorModel())
    return sample_ensemble(VOL, None, nm, n, seed, rabi_angular_freq=OMEGA)


@criterion(1, "sensitivity arithmetic: 89.4 uV / 320 kV/T at 1.47 ms -> 10.7-10.8 pT/rtHz")
def test_acceptance_1_sensitivity_arithmetic():
    t0 = time.perf_counter()
    rep = sensitivity_from_slope(89.4e-6, 320000.0, 1.47e-3)
    runtime = time.perf_counter() - t0
    eta_pt = rep.eta_t_per_sqrt_hz * 1e12
    assert 10.7 <= eta_pt <= 10.8
    assert abs(eta_pt - 10.8) / 10.8 <= 0.015
    assert runtime < 1e-3


@criterion(2, "Rabi pi-time: homogeneous 10.417 MHz drive fits t_pi = 48 +- 0.5 ns")
def test_acceptance_2_rabi_pi_time():
    # 48 ns pulses and 400 ns of drive are the defaults
    out, t = run_config(experiment="rabi", n_spins=2000, n_points=81, shots=1, **NO_SPREAD)
    assert out.fit.converged
    assert abs(t["fit"]["t_pi_s"] - 48e-9) <= 0.5e-9


@criterion(3, "T2* round trip: sigma(150 ns) gives a simulated FID 1/e time 150 ns +- 2%")
def test_acceptance_3_t2star_round_trip():
    # t2_star_s = 150 ns is the default
    out, t = run_config(experiment="fid", t_min_s=10e-9, t_max_s=450e-9, n_points=45, **NO_BATH)
    assert out.fit.converged and t["fit"]["censored"] == 0.0
    assert abs(t["fit"]["t2_s"] - 150e-9) / 150e-9 <= 0.02


@criterion(4, "echo calibration round trip: fitted T2 = 9 us +- 5% at 1e4 trajectories")
def test_acceptance_4_echo_round_trip():
    t0 = time.perf_counter()
    # the default bath is BATH, and the default sweep 0.5-20 us
    out, t = run_config(experiment="echo", n_points=20)
    assert out.fit.converged and t["fit"]["censored"] == 0.0
    assert abs(t["fit"]["t2_s"] - 9e-6) / 9e-6 <= 0.05
    assert time.perf_counter() - t0 < 120.0


@criterion(5, "DD enhancement: XY16-16 fitted T2/T2_echo in [20, 45]")
def test_acceptance_5_dd_enhancement_bracket():
    t0 = time.perf_counter()
    echo = run_config(experiment="echo", n_points=20)
    xy = run_config(experiment="xy16", n_repeats=16, t_min_s=20e-6, t_max_s=700e-6, n_points=24)
    assert echo[0].fit.converged and xy[0].fit.converged
    ratio = xy[1]["fit"]["t2_s"] / echo[1]["fit"]["t2_s"]
    assert 20.0 <= ratio <= 45.0
    assert time.perf_counter() - t0 < 600.0


def _analytic_t2(family, n_repeats):
    if family == "echo":
        times_of = lambda T: np.array([T / 2])
    else:
        n = 16 * n_repeats
        times_of = lambda T: (np.arange(1, n + 1) - 0.5) * (T / n)
    f = lambda T: ou_chi_exact(times_of(T), T, BATH) - 1.0
    return brentq(f, 1e-7, 5e-3, rtol=1e-9)


@criterion(6, "Monte Carlo vs filter-function quadrature: <= 2% RMS for echo, XY16-{1,4,16}")
def test_acceptance_6_mc_vs_filter_function():
    t0 = time.perf_counter()
    ens = ensemble_with(BATH)
    cases = [("echo", 1), ("xy16", 1), ("xy16", 4), ("xy16", 16)]
    for family, n_rep in cases:
        t2 = _analytic_t2(family, n_rep)
        sweep = np.linspace(0.15 * t2, 2.0 * t2, 12)
        builder, _ = make_coherence_builder(family, n_rep)
        diffs = []
        for i, T in enumerate(sweep):
            seq = builder(float(T))
            p_plus, p_minus = run_two_branch(seq, ens, BATH)
            w_mc = p_plus - p_minus
            w_an = coherence_analytic(seq, BATH)
            diffs.append(w_mc - w_an)
        rms = float(np.sqrt(np.mean(np.square(diffs))))
        # Deterministic: no draw remains.  The ideal engine averages the OU phase exactly,
        # so W_mc = exp(-chi) of noise.ou_chi_exact and the RMS (at most 2.1e-11 over the four
        # cases) is the filter-function quadrature's own error; W_mc x 1.1 fails every case
        # (RMS 0.056).  The Monte Carlo check of chi is test_noise's trajectory sampler.
        assert rms <= 0.02, f"{family}-{n_rep}: RMS {rms:.4f}"
    assert time.perf_counter() - t0 < 600.0


@criterion(7, "resolution scaling: log-log slope -0.5 +- 0.05; 50000 shots -> 73.5 s")
def test_acceptance_7_resolution_scaling():
    # the defaults: M = 100 to 100000 in 4 points, 57.7 uV shot noise and 1% slow laser noise,
    # t_seq = 1.47 ms
    # 100 blocks: seeds 0-199 fail 0 times (at 20 blocks, 18 of 200 seeds failed before the
    # cut-sum draw and 30 after); the slope's spread over seeds is 0.0098 (0.05 = 5.1 SE), the
    # endpoint's relative SE 7.3% (25% = 3.4 SE).  An endpoint min_field x 1.5 fails on 198 of
    # the 200 seeds.  Seed 65 draws the block means at 71, as the call this test made before.
    out, t = run_config(experiment="resolution", blocks_per_point=100, seed=65)
    res = t["resolution.csv"]
    assert abs(float(out.manifest["loglog_slope"]) + 0.5) <= 0.05
    i = list(res["n_avg"]).index(100000)
    # elapsed-time axis: M t_seq; the reference point is 50000 shots
    assert 50000 * 1.47e-3 == pytest.approx(73.5, rel=1e-9)
    assert res["elapsed_s"][i] == pytest.approx(100000 * 1.47e-3, rel=1e-12)
    # The reference device reports 2.7 pT at 74 s, ~2.2x above its own
    # shot-noise limit; that excess is unexplained and intentionally NOT
    # reproduced: the simulated endpoint matches the ideal scaling.
    assert res["min_field_t"][i] == pytest.approx(res["ideal_min_field_t"][i], rel=0.25, abs=0.0)


@criterion(8, "common-mode A/B: 1% laser noise degrades eta < 5% with full processing, > 5x without the branch pair")
def test_acceptance_8_common_mode_ab():
    # XY16-4 synchronized to the default 362 kHz, the default bath (BATH) and readout, t_seq = 1.47 ms
    shots = 60000

    def readout(lam):
        return ReadoutModel(v0_v=0.5, contrast=0.02, shot_noise_v=57.7e-6, laser_fluct_rel=lam)

    def eta(lam):
        keys = dict(n_repeats=4, b_ac_max_t=4e-8, n_amplitudes=9, shots=shots, laser_fluct_rel=lam)
        [eta] = run_config(experiment="ac_sense", seed=78, **keys)[1]["report.csv"]["eta_T_per_sqrtHz"]
        return eta

    # Without the branch pair, eta = delta_s / slope sqrt(t_seq) degrades as delta_s does:
    # the slope is set by the populations, not by lam.  delta_s is the shot-to-shot std at
    # b = 0, here of the single-branch output at the sweep's b = 0 populations.
    seq = build_xy16(4, 1.0 / (2 * 362e3), readout_phase=math.pi / 2)
    sigma_delta = build_spread(RunConfig()).sigma_delta
    [(p_plus, p_minus)] = ideal_populations(seq, BATH, sigma_delta, [0.0], 362e3, DEFAULT_AC_PHASE)

    def delta_s_single(lam):
        rng = np.random.default_rng(82)
        return float(np.std(shot_stream(p_plus, p_minus, readout(lam), shots, rng, [SINGLE_BRANCH])[0], ddof=1))

    deg_full = eta(0.01) / eta(0.0) - 1.0
    deg_single = delta_s_single(0.01) / delta_s_single(0.0) - 1.0
    # The engine draws nothing (the OU phase is averaged exactly), so only the
    # shots are random.  Seed scan of these calls (shot seeds 0-199, drawn at seed + 4),
    # SE = the spread over seeds: deg_full -1.1e-7 +- 3.8e-6 (max 1.1e-5), 1.3e4
    # SE under 0.05; deg_single 0.275053 on every seed (both streams take the same
    # normals, which one factor scales), >= 2.4e4 |deg_full|.  False-failure rate 0
    # of 200 seeds.  Two-branch rows that keep only the first branch, or a slow
    # laser term on one branch alone, fail deg_full < 0.05.
    assert deg_full < 0.05
    assert deg_single > 5.0 * deg_full
    assert deg_single > 0.10  # the laser leak is material without the branch pair


@criterion(9, "resonator: FWHM = f0/Q ~ 104.9 MHz; CWR > ring > wire and >= 2x flatter; 0.1% vs Biot-Savart")
def test_acceptance_9_resonator_properties():
    f0, q = 2.832e9, 27.0
    fwhm = f0 / q
    assert abs(fwhm - 104.9e6) / 104.9e6 < 1e-3
    assert abs(fwhm - 104e6) / 104e6 < 0.01
    assert resonance_enhancement(f0 + fwhm / 2, f0, q) == pytest.approx(0.5, abs=1e-6)

    # peak drive at the sample placement and flatness across the beam
    standoff, half_beam = 2e-4, 15e-6
    peaks = {}
    for kind in ("cwr", "ring", "wire"):
        m = compute_field_map(ResonatorSpec(kind), n_u=161, n_v=25)
        iz = int(np.argmin(np.abs(m.v - standoff)))
        iu = int(np.argmin(np.abs(m.u)))
        peaks[kind] = math.hypot(m.b_u[iu, iz], m.b_v[iu, iz])  # as fieldmap.csv's Babs_T
    assert peaks["cwr"] > peaks["ring"] > peaks["wire"]

    xs = np.linspace(-half_beam, half_beam, 31)
    from nvsim.fields import _cwr_field_2d

    bx, bz = _cwr_field_2d(ResonatorSpec("cwr"), 1.0, xs, np.full_like(xs, standoff))
    var_cwr = (np.hypot(bx, bz).max() - np.hypot(bx, bz).min()) / np.hypot(bx, bz).mean()
    bx, bz = wire_field_2d(1.0, xs, np.full_like(xs, standoff))
    var_wire = (np.hypot(bx, bz).max() - np.hypot(bx, bz).min()) / np.hypot(bx, bz).mean()
    assert var_wire >= 2.0 * var_cwr

    # 100 random off-conductor points vs the quadrature oracle, 0.1%
    rng = np.random.default_rng(91)
    checked = 0
    for _ in range(20):
        d = float(rng.uniform(1e-4, 2e-3))
        got = field_of_wire(1.0, d)
        want = oracle_wire_segment(1.0, d, 0.0, half_length=1e4 * d)
        assert abs(got - want) <= 1e-3 * want
        checked += 1
    w = 1e-3
    for _ in range(40):
        x = float(rng.uniform(-3e-3, 3e-3))
        z = float(rng.uniform(0.05e-3, 3e-3))
        got = field_of_strip(w, 1.0, (x, z))
        want = oracle_strip(w, 1.0, x, z)
        assert np.linalg.norm(got - want) <= 1e-3 * np.linalg.norm(want)
        checked += 1
    R = 2e-3
    while checked < 100:
        p = rng.uniform([-4e-3, -4e-3, -3e-3], [4e-3, 4e-3, 3e-3])
        if math.hypot(math.hypot(p[0], p[1]) - R, p[2]) < 0.15 * R:
            continue
        got = field_of_ring(R, 1.0, p)
        want = oracle_ring(R, 1.0, p)
        assert np.linalg.norm(got - want) <= 1e-3 * np.linalg.norm(want)
        checked += 1
    assert checked == 100


@criterion(10, "robustness: XY16 worst-case equatorial coherence beats CPMG at equal pulse count, T = T2")
def test_acceptance_10_robustness():
    t2_xy16 = _analytic_t2("xy16", 16)
    n_pulses = 256
    tau = t2_xy16 / n_pulses
    nm = NoiseModel(QuasiStaticSpread(0.0), BATH, AmplitudeErrorModel(systematic=0.05))
    ens = sample_ensemble(VOL, None, nm, 128, 101, rabi_angular_freq=OMEGA)
    fams = {
        "xy16": build_xy16(16, tau),
        "cpmg": build_cpmg(n_pulses, tau),
    }
    phases = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    survival = {
        name: np.array([
            np.subtract(*run_two_branch(prepared_on(seq, a), ens, BATH, noise_seed=102, pulse_width=48e-9))
            for a in phases
        ])
        for name, seq in fams.items()
    }
    # p+ - p- of the train turned by prepared_on(seq, a) is the coherence left on
    # axis a, read through the finite pi/2 pulses.  Seed scan of these calls
    # (ensemble seeds 0-199, noise seeds 1000-1199), SE = the spread over seeds:
    # XY16 minus CPMG is 0.576 +- 0.008 at the worst phase and 0.578 +- 0.008 on
    # the x axis, 68 and 70 SE above 0 (128 spins take 0.01 s a call).
    # False-failure rate 0 of 200 seeds.  With the finite engine ignoring each
    # pulse's phase, both trains are all-x and both checks fail on 200 of 200.
    assert survival["xy16"].min() > survival["cpmg"].min()
    # and CPMG specifically fails on the axis 90 deg from its pulse axis
    i_x = 0  # phase 0 = x axis, 90 deg from the CPMG y pulses
    assert survival["xy16"][i_x] > survival["cpmg"][i_x]


@criterion(11, "determinism: same config + seed -> byte-identical CSVs across runs and thread counts")
def test_acceptance_11_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "experiment = xy16\nseed = 424242\nn_repeats = 4\nn_spins = 4096\n"
        "n_points = 10\nt_min_s = 10e-6\nt_max_s = 200e-6\n"
    )
    for outdir, threads in (("a", "1"), ("b", "1"), ("c", "3")):
        rc = cli_main(["run", str(cfg), "--out", str(tmp_path / outdir), "--threads", threads])
        assert rc == 0
    for name in ("curve.csv", "fit.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "c" / name, shallow=False)
