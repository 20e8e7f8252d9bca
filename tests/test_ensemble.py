"""Ensemble sampling determinism and the two-branch evolution engine,
cross-checked against direct single-spin unitary composition."""

import filecmp
import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import kstest

from nvsim import ensemble
from nvsim.bloch import rotate_drive
from nvsim.cli import main as cli_main
from nvsim.constants import GAMMA_E
from nvsim.ensemble import (
    DetectionVolume,
    EnsembleSample,
    NoiseModel,
    ac_phase_integrals,
    ensemble_rabi_curve,
    ideal_populations,
    run_two_branch,
    sample_ensemble,
)
from nvsim.fields import ResonatorSpec
from nvsim.filters import coherence_analytic
from nvsim.noise import (
    AmplitudeErrorModel,
    OUBath,
    QuasiStaticSpread,
    calibrate_bath,
    ou_chi_exact,
    ou_transition,
    sigma_from_t2star,
)
from nvsim.sequences import (
    PH_Y,
    Delay,
    Pulse,
    PulseSequence,
    build_cpmg,
    build_fid,
    build_hahn_echo,
    build_xy16,
    pulse_times,
    render_finite,
    toggling_moment,
    toggling_segments,
)
from nvsim.oracles import (
    BRIGHT,
    DriveParams,
    apply_ou_transition,
    evolve_driven,
    evolve_free,
    geometric_volume_m3,
    population_ms0,
    rotate_ideal,
    volume_ratio_vs_quoted,
)
from test_bloch import turn_z

QUIET = NoiseModel(QuasiStaticSpread(0.0), OUBath(0.0, 10e-6))
VOL = DetectionVolume()
OMEGA = math.pi / 48e-9


def _echo_y():
    echo = build_hahn_echo(2e-6)
    return replace(echo, elements=(Pulse(PH_Y, math.pi / 2),) + echo.elements[1:])


# sequences the ideal view would misread: an interior pi/2 pulse, a (pi/2)_y preparation
MISREAD = {
    "pi2-pair": PulseSequence(
        (Pulse(0.0, math.pi / 2), Delay(1e-6), Pulse(0.0, math.pi / 2), Delay(1e-6), build_fid(0.0).elements[-1]),
        "pi2-pair",
    ),
    "echo-y": _echo_y(),
}


def prepared_on(seq, a):
    """seq with each interior pi pulse's phase turned by -(a + pi/2).

    This z-turn of the frame takes the equatorial axis a onto -y, the state
    the (pi/2)_x pulse prepares, and the readout of a phase-0 sequence has
    p+ - p- = -y.  So with ideal end pulses, p+ - p- of the turned sequence
    is the projection on axis a that a state prepared there keeps under
    seq's pi train: its survival.
    """
    turn = -(a + math.pi / 2)
    first, *inner, last = seq.elements
    inner = [Pulse(e.phase + turn, e.angle) if isinstance(e, Pulse) else e for e in inner]
    return replace(seq, elements=(first, *inner, last))


def quiet_ensemble(n=512, seed=1):
    return sample_ensemble(VOL, None, QUIET, n, seed, rabi_angular_freq=OMEGA)


def compose_sequence(seq, delta, omega_scale=1.0):
    """Oracle: direct rotation composition for a single noiseless spin."""
    s = BRIGHT
    for e in seq.elements:
        if isinstance(e, Delay):
            s = evolve_free(s, e.tau, delta)
        else:
            s = rotate_ideal(s, e.phase, e.angle * omega_scale)
    return population_ms0(s)


# ---------------------------------------------------------------- sampling

def test_detection_volume_geometry():
    # pi (15 um)^2 * 0.3 mm = 2.12e-13 m^3; quoted 1.4e-3 mm^3 is ~6.6x larger
    assert geometric_volume_m3(VOL) == pytest.approx(2.1206e-13, rel=1e-3)
    assert volume_ratio_vs_quoted(VOL, 1.4e-12) == pytest.approx(6.602, rel=1e-2)


def test_uniform_field_gives_equal_omegas():
    ens = quiet_ensemble()
    assert np.all(ens.omega == ens.omega[0])
    assert ens.omega[0] == pytest.approx(OMEGA)


def test_positions_inside_cylinder():
    ens = quiet_ensemble(4096)
    r = np.hypot(ens.positions[:, 0], ens.positions[:, 1])
    assert np.all(r <= VOL.beam_diameter_m / 2 + 1e-18)
    assert np.all(ens.positions[:, 2] >= VOL.standoff_m)
    assert np.all(ens.positions[:, 2] <= VOL.standoff_m + VOL.depth_m)


def test_detuning_spread_statistics():
    sigma = sigma_from_t2star(150e-9)
    nm = NoiseModel(QuasiStaticSpread(sigma), OUBath(0.0, 1e-5))
    ens = sample_ensemble(VOL, None, nm, 100000, 3, rabi_angular_freq=OMEGA)
    # 1% is 4.5 SE of the std; over seeds 0-199 none failed (largest error 0.56%)
    assert np.std(ens.delta_static) == pytest.approx(sigma, rel=0.01)


def test_sampling_deterministic_per_seed():
    a = quiet_ensemble(2048, seed=9)
    b = quiet_ensemble(2048, seed=9)
    c = quiet_ensemble(2048, seed=10)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.delta_static, b.delta_static)
    assert not np.array_equal(a.positions, c.positions)


def test_field_map_sampling_produces_positive_omegas():
    ens = sample_ensemble(VOL, ResonatorSpec("cwr"), QUIET, 256, 5)
    assert np.all(ens.omega > 0)
    # spread is dominated by the 0.3 mm depth, not the 30 um beam width
    assert np.std(ens.omega) / np.mean(ens.omega) < 0.2
    top = ens.positions[:, 2] < np.median(ens.positions[:, 2])
    assert ens.omega[top].mean() > ens.omega[~top].mean()


@pytest.mark.parametrize("kind", ["cwr", "ring", "wire"])
def test_deep_volume_reads_the_field_at_every_depth(kind):
    # 5 mm deep, far past any grid a field map would tabulate
    ens = sample_ensemble(DetectionVolume(depth_m=5e-3), ResonatorSpec(kind), QUIET, 2048, 0)
    assert np.all(np.isfinite(ens.omega)) and np.all(ens.omega > 0)
    deep = ens.positions[:, 2] > 3e-3
    assert deep.any() and ens.omega[deep].mean() < ens.omega[~deep].mean()


def test_spins_inside_the_wire_rejected():
    # a 5 um standoff puts the top of the volume inside the 10 um wire radius
    inside = DetectionVolume(standoff_m=5e-6, depth_m=10e-6)
    with pytest.raises(ValueError, match="not finite"):
        sample_ensemble(inside, ResonatorSpec("wire"), QUIET, 256, 0)


# ---------------------------------------------------------------- engine

def test_zero_noise_identity_branches():
    ens = quiet_ensemble()
    for seq in (build_hahn_echo(2e-6), build_cpmg(8, 1e-6), build_xy16(1, 1e-6)):
        p_plus, p_minus = run_two_branch(seq, ens, QUIET.bath)
        assert p_plus == pytest.approx(1.0, abs=1e-12)
        assert p_minus == pytest.approx(0.0, abs=1e-12)


def test_engine_matches_unitary_composition_with_static_detuning():
    # Dual route: the closed form against direct rotation composition, spin by spin,
    # averaged over delta ~ N(0, sigma^2) by 60-node Gauss-Hermite quadrature
    sigma = 2 * math.pi * 0.3e6
    x, w = np.polynomial.hermite.hermgauss(60)
    deltas, weights = math.sqrt(2.0) * sigma * x, w / math.sqrt(math.pi)
    for seq in (build_fid(0.8e-6), build_hahn_echo(1.6e-6), build_xy16(1, 0.4e-6),
                build_cpmg(3, 0.5e-6)):
        want = float(weights @ [compose_sequence(seq, d) for d in deltas])
        p_plus, _ = run_two_branch(seq, QuasiStaticSpread(sigma), OUBath(0.0, 1e-5))
        assert p_plus == pytest.approx(want, abs=1e-9)
    # the FID keeps a static term: p+ = (1 + exp(-(0.8 us sigma)^2 / 2)) / 2 = 0.66
    assert run_two_branch(build_fid(0.8e-6), QuasiStaticSpread(sigma), OUBath(0.0, 1e-5))[0] < 0.7


def test_echo_branch_difference_independent_of_static_detuning():
    nm = NoiseModel(QuasiStaticSpread(2 * math.pi * 2e6), OUBath(0.0, 1e-5))
    ens = sample_ensemble(VOL, None, nm, 4096, 2, rabi_angular_freq=OMEGA)
    p_plus, p_minus = run_two_branch(build_hahn_echo(4e-6), ens, nm.bath)
    assert p_plus - p_minus == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", list(MISREAD))
def test_ideal_views_reject_sequences_they_would_misread(name):
    seq = MISREAD[name]
    ens = quiet_ensemble(16)
    with pytest.raises(ValueError):
        run_two_branch(seq, ens, QUIET.bath)
    with pytest.raises(ValueError):
        coherence_analytic(seq, QUIET.bath)
    with pytest.raises(ValueError):
        pulse_times(seq)


def test_ac_phase_closed_form():
    # p0+/- = (1 +- W sin phi)/2 with phi = (2/pi) gamma B T for the
    # synchronized train (quadrature readout, zero crossings at the pulses).
    ens = quiet_ensemble()
    tau = 1e-6
    seq = build_xy16(1, tau, readout_phase=math.pi / 2)
    b0 = 4e-9
    [(p_plus, p_minus)] = ideal_populations(seq, QUIET.bath, ens.sigma_delta, [b0], 1.0 / (2 * tau), math.pi / 2)
    phi = (2 / math.pi) * GAMMA_E * b0 * 16 * tau
    assert p_plus == pytest.approx((1 + math.sin(phi)) / 2, abs=1e-9)
    assert p_minus == pytest.approx((1 - math.sin(phi)) / 2, abs=1e-9)
    assert p_plus - p_minus == pytest.approx(math.sin(phi), rel=1e-6)


@pytest.mark.parametrize("freq_hz", [0.0, 362e3, 1.3e6])
@pytest.mark.parametrize("n_rep", [1, 15])
def test_phase_integrals_match_scalar_sum(freq_hz, n_rep):
    # the one-expression phi_ac against a term-by-term sum of the scalar formula
    seq = build_xy16(n_rep, 1.0 / (2 * 362e3), readout_phase=math.pi / 2)
    bounds, signs = toggling_segments(*pulse_times(seq))

    def phase_integral(t0, t1):
        w = 2.0 * math.pi * freq_hz
        if w == 0.0:
            return math.sin(0.7) * (t1 - t0)
        return (math.cos(w * t0 + 0.7) - math.cos(w * t1 + 0.7)) / w

    scalar = sum(s * phase_integral(bounds[k], bounds[k + 1]) for k, s in enumerate(signs))
    ints = ac_phase_integrals(freq_hz, 0.7, bounds[:-1], bounds[1:])
    assert ints.shape == (len(bounds) - 1,)
    assert ints == pytest.approx([phase_integral(a, b) for a, b in zip(bounds[:-1], bounds[1:])], rel=1e-12, abs=1e-22)
    scale = float(np.sum(np.abs(np.diff(bounds))))
    assert float(signs @ ints) == pytest.approx(scalar, abs=1e-12 * scale)


def test_ac_simulated_phase_matches_oracle_within_1pc():
    ens = quiet_ensemble()
    for n_rep, tau, b0 in ((1, 1e-6, 2e-9), (2, 1.5e-6, 1e-9)):
        seq = build_xy16(n_rep, tau, readout_phase=math.pi / 2)
        [(p_plus, p_minus)] = ideal_populations(seq, QUIET.bath, ens.sigma_delta, [b0], 1.0 / (2 * tau), math.pi / 2)
        phi_sim = math.asin(p_plus - p_minus)
        phi_expect = (2 / math.pi) * GAMMA_E * b0 * (16 * n_rep * tau)
        assert phi_sim == pytest.approx(phi_expect, rel=0.01)


def test_thread_count_invariance():
    # neither engine starts a thread, so no thread count can reach its results
    nm = NoiseModel(QuasiStaticSpread(1e6), OUBath(3e5, 10e-6))
    ens = sample_ensemble(VOL, None, nm, 3000, 4, rabi_angular_freq=OMEGA)
    before = threading.active_count()
    run_two_branch(build_xy16(1, 1e-6), ens, nm.bath)
    run_two_branch(build_xy16(1, 1e-6), ens, nm.bath, pulse_width=48e-9)
    assert threading.active_count() == before


# recorded when the ideal engine began to average the static spread in closed form
AC_SWEEP_PINNED = [
    (0.4075740164199455, 0.5924259835800545),
    (0.4535591957908367, 0.5464408042091633),
    (0.5000000000000001, 0.4999999999999999),
    (0.5464408042091635, 0.45355919579083653),
    (0.5924259835800547, 0.40757401641994534),
]


@pytest.mark.parametrize("calls", [1, 2])
def test_ac_sweep_outputs_pinned(calls):
    # The sweep is split over `calls` calls: each point depends only on its
    # own amplitude, not on the others folded with it.
    bath = OUBath(3e5, 10e-6)
    f, phase = 362e3, math.pi / 2
    seq = build_xy16(2, 1 / (2 * f), readout_phase=math.pi / 2)
    amplitudes = np.linspace(-4e-8, 4e-8, 5)
    swept = []
    for part in np.array_split(amplitudes, calls):
        swept += ideal_populations(seq, bath, 1e6, part, f, phase)
    assert swept == AC_SWEEP_PINNED  # bit-identical
    # the synchronized train's closed form: p+ - p- = W sin((2/pi) gamma B T), and
    # XY16's static coefficient (~1e-21 s) leaves exp(-(m sigma)^2 / 2) = 1
    times, total = pulse_times(seq)
    w = math.exp(-ou_chi_exact(times, total, bath))
    for b0, (p_plus, p_minus) in zip(amplitudes, AC_SWEEP_PINNED):
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-15)
        assert p_plus - p_minus == pytest.approx(w * math.sin((2 / math.pi) * GAMMA_E * b0 * total), abs=1e-14)


def test_finite_run_two_branch_thread_count_invariance(tmp_path):
    # the threads key is checked and recorded, but a finite-pulse run starts no
    # thread and writes the same bytes at any thread count
    cfg = tmp_path / "finite.cfg"
    cfg.write_text(
        "experiment = xy16\nseed = 4\nfinite_pulses = true\nn_repeats = 1\nn_spins = 1000\n"
        "n_points = 6\nt_min_s = 2e-6\nt_max_s = 30e-6\n"
    )
    before = threading.active_count()
    for t in (1, 2, 3):
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / str(t)), "--threads", str(t)]) == 0
        assert f"threads={t}\n" in (tmp_path / str(t) / "manifest.txt").read_text()
    assert threading.active_count() == before
    for t in (2, 3):
        for name in ("curve.csv", "fit.csv"):
            assert filecmp.cmp(tmp_path / "1" / name, tmp_path / str(t) / name, shallow=False)


# the reference's own stream layout, that of its two-normal pins: Philox substreams of
# this many spins, independent of the engine's PCG64 Box-Muller rows
REFERENCE_BLOCK = 2048


def _reference_finite(seq, ens, bath, pulse_width, noise_seed):
    """The finite engine with both normals of every gap drawn: the start
    value, then z1 and z2 of noise.ou_transition per pulse+gap step, row by
    row from (seed, 0xB0, noise_seed, block) substreams of REFERENCE_BLOCK
    spins, with v in the lab frame, turned into each pulse's frame and back
    around its rotation.  Returns run_two_branch's (p+, p-)."""
    n = ens.n_spins
    edges = [(lo, min(lo + REFERENCE_BLOCK, n)) for lo in range(0, n, REFERENCE_BLOCK)]
    rngs = [ensemble._rng_for(ens.seed, 0xB0, noise_seed, b) for b in range(len(edges))]

    def row():
        return np.concatenate([rng.standard_normal(hi - lo) for rng, (lo, hi) in zip(rngs, edges)])

    omega = ens.omega * (1.0 + ens.epsilon)
    v = np.zeros((3, n))
    v[2] = 1.0
    work = np.empty((8, n))
    steps, final = render_finite(seq.elements, pulse_width)
    x = bath.b * row()
    for (phase, width), L in steps:
        turn_z(v, phase)
        rotate_drive(v, omega, ens.delta_static + x, width, work)
        turn_z(v, -phase)
        integral, x = apply_ou_transition(ou_transition(width, L, bath), x, row(), row())
        phi = ens.delta_static * L + integral
        v[:2] = np.cos(phi) * v[:2] + np.sin(phi) * np.array([-v[1], v[0]])
    pops = []
    for readout in (seq.readout_phase + math.pi, seq.readout_phase):  # the + then the - branch
        vb = v.copy()
        turn_z(vb, readout)
        rotate_drive(vb, omega, ens.delta_static + x, final[1], work)
        pops.append(float(np.mean((1.0 + vb[2]) / 2.0)))
    return tuple(pops)


def _pinned_case(n=6000):
    nm = NoiseModel(QuasiStaticSpread(1e6), OUBath(3e5, 10e-6), AmplitudeErrorModel(sigma=0.02))
    return nm.bath, sample_ensemble(VOL, None, nm, n, 4, rabi_angular_freq=OMEGA), build_xy16(1, 1e-6)


# recorded when the noise rows became Box-Muller pairs from one PCG64 substream per
# block of at most SPIN_BLOCK spins (the bridge noise a22 z2 of every gap averaged
# out, one normal per step): 6000 spins are one block
FINITE_PINNED = (0.9940281971967567, 0.0069575575723584415)
# recorded at the same time, at SPIN_BLOCK + 300 and 2 SPIN_BLOCK + 300 spins: two and
# three near-equal blocks
FINITE_PINNED_2_BLOCKS = (0.9940296267801455, 0.006963923757116604)
FINITE_PINNED_3_BLOCKS = (0.9940187731623563, 0.006963897436929988)


def test_reference_engine_reproduces_the_two_normal_pins():
    # the engine's values before it averaged each gap's bridge noise (one draw
    # pair per step, recorded before the noise rows were chunked and prefetched)
    bath, ens, seq = _pinned_case()
    got = _reference_finite(seq, ens, bath, 48e-9, 5)
    assert got == pytest.approx((0.9940956603019361, 0.006880441208820322), rel=1e-12, abs=1e-14)


def _reference_comparison(ens_seed, noise_seeds, ref_seeds):
    """Both finite engines on one ensemble: XY16-4 under 48 ns pulses, 1.9 MHz
    off resonance with a static spread and amplitude errors, read out at
    pi/2.  Returns (new, reference), each (seeds, 2): p+ of the sequence and
    of its pi phases turned by prepared_on(seq, 1.0), per noise seed."""
    nm = NoiseModel(QuasiStaticSpread(1e6), OUBath(3e5, 10e-6), AmplitudeErrorModel(sigma=0.02, systematic=0.05))
    ens = sample_ensemble(VOL, None, nm, 2048, ens_seed, rabi_angular_freq=OMEGA)
    ens = replace(ens, delta_static=ens.delta_static + 1.2e7)
    seq = build_xy16(4, 2e-6, readout_phase=math.pi / 2)
    seqs = (seq, prepared_on(seq, 1.0))
    new = [[run_two_branch(q, ens, nm.bath, noise_seed=s, pulse_width=48e-9)[0] for q in seqs] for s in noise_seeds]
    ref = [[_reference_finite(q, ens, nm.bath, 48e-9, s)[0] for q in seqs] for s in ref_seeds]
    return np.array(new), np.array(ref)


def test_finite_engine_agrees_with_the_two_normal_reference():
    # averaging each gap's bridge noise keeps the mean and narrows the spread over
    # noise seeds.  Off resonance, because a turn into the wrong frame mirrors the
    # train, which an ensemble symmetric in detuning cannot tell apart.  Over
    # ensemble seeds 1000-1039 (noise seeds disjoint) the means differed by at most
    # 2.0 SE and the spread ratio was at most 0.52; the test failed on 40 of 40
    # with d = 1 (9.6-21 SE), with the frame turn's sign flipped (6.6-16 SE), without
    # a21 z1 (10-19 SE) or with the engine ignoring each pulse's phase (12-26 SE).
    new, ref = _reference_comparison(12, range(16), range(100, 116))
    se = np.sqrt((new.var(axis=0, ddof=1) + ref.var(axis=0, ddof=1)) / 16)
    assert np.all(np.abs(new.mean(axis=0) - ref.mean(axis=0)) < 5 * se)
    assert np.all(new.std(axis=0, ddof=1) <= ref.std(axis=0, ddof=1))


def _finite_outputs(n):
    bath, ens, seq = _pinned_case(n)
    return run_two_branch(seq, ens, bath, noise_seed=5, pulse_width=48e-9)


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_finite_engine_outputs_pinned(blocks):
    n = {1: 6000, 2: ensemble.SPIN_BLOCK + 300, 3: 2 * ensemble.SPIN_BLOCK + 300}[blocks]
    pinned = {1: FINITE_PINNED, 2: FINITE_PINNED_2_BLOCKS, 3: FINITE_PINNED_3_BLOCKS}[blocks]
    assert _finite_outputs(n) == pinned


@pytest.mark.parametrize("calls", [1, 2, 3])
def test_finite_engine_outputs_pinned_over_three_blocks(calls):
    # each of `calls` consecutive runs in one process meets the pin: no generator,
    # buffer or block state carries over from one run to the next
    for _ in range(calls):
        assert _finite_outputs(2 * ensemble.SPIN_BLOCK + 300) == FINITE_PINNED_3_BLOCKS


def _block_rows(n, n_rows, seed=4, noise_seed=5):
    """Each block's (lo, hi) and its noise rows, as one (n_rows, hi - lo) array: the
    engine's near-equal blocks, each drawn from its own substream."""
    k = -(-n // ensemble.SPIN_BLOCK)
    out = []
    for b in range(k):
        lo, hi = b * n // k, (b + 1) * n // k
        rng = np.random.default_rng([seed, ensemble.NOISE_KEY, noise_seed, b])
        out.append((lo, hi, np.array([row.copy() for row in ensemble._normal_rows(rng, hi - lo, n_rows)])))
    return out


@pytest.mark.parametrize("noise_seed", [1, 2])
@pytest.mark.parametrize("n_rows", [1, 3, 8, 12, 19])
def test_row_supply_matches_row_by_row_substream_draws(n_rows, noise_seed):
    # each block's rows are Box-Muller pairs of its own substream, recomputed pair by
    # pair; 3 near-equal blocks, and an odd row count ends on a pair's cosine row
    n, seed = 2 * ensemble.SPIN_BLOCK + 300, 4
    blocks = _block_rows(n, n_rows, seed, noise_seed)
    for b, (lo, hi, got) in enumerate(blocks):
        rng = np.random.default_rng([seed, 0xB0, noise_seed, b])
        want = []
        for _ in range(-(-n_rows // 2)):
            u1, u2 = rng.random((2, hi - lo))
            r = np.sqrt(-2.0 * np.log(1.0 - u1))
            t = np.tan(math.pi * u2)
            c = 2.0 / (1.0 + t * t)  # cos(2 pi u2) = c - 1, sin(2 pi u2) = t c
            want += [(c - 1.0) * r, t * c * r]
        assert np.array_equal(got, np.array(want[:n_rows]))


def test_row_supply_prefix_does_not_depend_on_the_row_count():
    full = _block_rows(3000, 7)[0][2]
    for n_rows in range(1, 7):
        assert np.array_equal(_block_rows(3000, n_rows)[0][2], full[:n_rows])


def test_row_supply_is_standard_normal():
    # 10^6 draws at one seed: 20 rows of 50000 spins in 5 blocks.  Each bound is
    # 5 standard errors of a true standard normal's statistic over m draws: the
    # mean 1 / sqrt(m), the variance sqrt(2 / m) and a correlation 1 / sqrt(m);
    # KS at sqrt(m) D < 2.5, exceeded with probability ~1e-5.  The cosine and
    # sine rows are checked apart, since each is normal only with its own factor.
    rows = [r for _, _, r in _block_rows(50000, 20)]
    x = np.concatenate([r.ravel() for r in rows])
    assert x.size == 10**6
    assert abs(x.mean()) < 5 / math.sqrt(x.size)
    assert math.sqrt(x.size) * kstest(x, "norm").statistic < 2.5
    cos_rows, sin_rows = (np.concatenate([r[k::2].ravel() for r in rows]) for k in (0, 1))
    for half in (cos_rows, sin_rows):
        assert abs(half.var() - 1.0) < 5 * math.sqrt(2.0 / half.size)
    # the two rows of a pair, and a pair's sine row with the next pair's cosine row
    for a, b in ((cos_rows, sin_rows), (np.concatenate([r[1:-1:2].ravel() for r in rows]),
                                        np.concatenate([r[2::2].ravel() for r in rows]))):
        assert abs(np.corrcoef(a, b)[0, 1]) < 5 / math.sqrt(a.size)


def test_failing_fill_raises_from_run_two_branch(monkeypatch):
    class FailingFill:
        def __init__(self, key):
            pass

        def random(self, *args, **kwargs):
            raise RuntimeError("noise fill failed")

    nm = NoiseModel(QuasiStaticSpread(1e6), OUBath(3e5, 10e-6))
    ens = sample_ensemble(VOL, None, nm, 3000, 4, rabi_angular_freq=OMEGA)
    monkeypatch.setattr(ensemble.np.random, "default_rng", FailingFill)
    with pytest.raises(RuntimeError, match="noise fill failed"):
        run_two_branch(build_xy16(1, 1e-6), ens, nm.bath, pulse_width=48e-9)


def test_noise_seed_changes_trajectories():
    # only the finite engine draws OU trajectories
    nm = NoiseModel(QuasiStaticSpread(0.0), OUBath(3e5, 10e-6))
    ens = sample_ensemble(VOL, None, nm, 2048, 4, rabi_angular_freq=OMEGA)
    seq = build_hahn_echo(9e-6)
    a = run_two_branch(seq, ens, nm.bath, noise_seed=1, pulse_width=48e-9)
    b = run_two_branch(seq, ens, nm.bath, noise_seed=2, pulse_width=48e-9)
    assert a != b


@pytest.mark.parametrize(
    "build",
    [build_hahn_echo, lambda T: build_xy16(1, T / 16), lambda T: build_xy16(4, T / 64)],
    ids=["echo", "xy16-1", "xy16-4"],
)
def test_ideal_engine_equals_its_closed_form(build):
    # Without a static spread every spin's phase is phi_OU ~ N(0, 2 chi), which the
    # ideal engine averages exactly: p+ - p- = exp(-chi), whatever the noise seed.
    bath = calibrate_bath(9e-6, 10e-6)
    nm = NoiseModel(QuasiStaticSpread(0.0), bath)
    ens = sample_ensemble(VOL, None, nm, 512, 4, rabi_angular_freq=OMEGA)
    t2 = brentq(lambda T: ou_chi_exact(*pulse_times(build(T)), bath) - 1.0, 1e-6, 1e-3, rtol=1e-12)
    for T in (0.3 * t2, t2, 1.5 * t2):
        seq = build(T)
        want = math.exp(-ou_chi_exact(*pulse_times(seq), bath))
        for noise_seed in (1, 2):
            p_plus, p_minus = run_two_branch(seq, ens, bath, noise_seed=noise_seed)
            assert p_plus - p_minus == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_ideal_fid_equals_its_closed_form(seed):
    # the FID does not refocus the static term: p+ - p- = exp(-chi - sigma^2 T^2 / 2) whatever
    # the spins drawn, from a sampled ensemble or from the spread alone
    bath = OUBath(5e6, 1e-6)
    sigma = sigma_from_t2star(150e-9)
    ens = sample_ensemble(VOL, None, NoiseModel(QuasiStaticSpread(sigma), bath), 1000, seed, rabi_angular_freq=OMEGA)
    assert ens.sigma_delta == sigma
    for T in (50e-9, 100e-9, 150e-9):
        seq = build_fid(T)
        chi = ou_chi_exact(*pulse_times(seq), bath)
        assert chi > 0.01 and toggling_moment(*pulse_times(seq)) == T
        want = math.exp(-chi - (sigma * T) ** 2 / 2)
        for spins in (ens, QuasiStaticSpread(sigma)):
            p_plus, p_minus = run_two_branch(seq, spins, bath)
            assert p_plus - p_minus == pytest.approx(want, rel=1e-12)


def test_finite_pulses_match_ideal_on_resonance():
    ens = quiet_ensemble(256)
    seq = build_xy16(1, 1e-6)
    p_plus, p_minus = run_two_branch(seq, ens, QUIET.bath, pulse_width=48e-9)
    assert p_plus == pytest.approx(1.0, abs=1e-9)
    assert p_minus == pytest.approx(0.0, abs=1e-9)


def test_finite_pulses_match_ideal_under_ou_noise():
    # XY16-4 at chi ~ 1 from the OU bath alone: the pulse+gap transitions of
    # the finite engine against the ideal engine, which is exact in the OU phase
    bath = calibrate_bath(9e-6, 10e-6)
    seq = build_xy16(4, 2e-6)
    times, total_t = pulse_times(seq)
    chi = ou_chi_exact(times, total_t, bath)
    assert 0.9 < chi < 1.1
    n = 20000
    nm = NoiseModel(QuasiStaticSpread(0.0), bath)
    ens = sample_ensemble(VOL, None, nm, n, 9, rabi_angular_freq=math.pi / 1e-9)
    finite = run_two_branch(seq, ens, bath, pulse_width=1e-9, noise_seed=3)
    ideal = run_two_branch(seq, ens, bath)
    assert ideal[0] - ideal[1] == pytest.approx(math.exp(-chi), rel=1e-12)
    # per spin the finite p+ is about (1 - cos xi)/2 with xi ~ N(mu, 2 chi), mu = 0 mod pi
    var = ((1.0 + math.exp(-4.0 * chi)) / 2.0 - math.exp(-2.0 * chi)) / 4.0
    se = math.sqrt(var / n)  # of the finite mean: the ideal one draws nothing
    # rerun over ensemble and noise seeds 0-199: no seed failed, the largest deviation was
    # 0.032 of this SE (median 0.0066), since the finite engine averages each gap's a22 z2
    # term and spreads far less than the per-spin law above; n stays at 20000
    for got, want in zip(finite, ideal):
        assert abs(got - want) < 5 * se


def test_finite_engine_matches_rk4_composition_with_static_detuning():
    # one noiseless spin: rectangular pulses centered on their ideal
    # instants, integrated by RK4, and exact free precession in between
    width = 48e-9
    # the finite engine renders every pulse, so it also runs what the ideal view rejects
    for seq in (build_fid(0.8e-6), build_hahn_echo(1.6e-6), build_xy16(1, 0.4e-6), build_cpmg(3, 0.5e-6),
                *MISREAD.values()):
        for d, eps in ((2 * math.pi * 1.3e6, 0.0), (-2 * math.pi * 0.7e6, 0.03)):
            ens = EnsembleSample(np.zeros((1, 3)), np.array([OMEGA]), np.array([d]), np.array([eps]), 0, 0.0)
            got, _ = run_two_branch(seq, ens, OUBath(0.0, 1e-5), pulse_width=width)
            s, pending, prev_half = BRIGHT, 0.0, 0.0
            for e in seq.elements:
                if isinstance(e, Delay):
                    pending += e.tau
                    continue
                w = e.angle / math.pi * width
                if pending:
                    s = evolve_free(s, pending - prev_half - w / 2, d)
                s = evolve_driven(s, DriveParams(OMEGA * (1 + eps), e.phase, d, w))
                pending, prev_half = 0.0, w / 2
            assert got == pytest.approx(population_ms0(s), abs=1e-7)


def test_finite_pulse_overlap_rejected():
    ens = quiet_ensemble(16)
    with pytest.raises(ValueError):
        run_two_branch(build_xy16(1, 40e-9), ens, QUIET.bath, pulse_width=48e-9)


def test_finite_engine_rejects_a_trailing_delay():
    # (pi/2)_x - 1 us - pi_y - 1 us - (pi/2)_-x, with 1 us after it (nothing after the delay
    # to read out) or before it (a delay no pulse precedes, which would be dropped)
    echo = (Pulse(0.0, math.pi / 2), Delay(1e-6), Pulse(PH_Y, math.pi), Delay(1e-6), Pulse(math.pi, math.pi / 2))
    for elements in (echo + (Delay(1e-6),), (Delay(1e-6),) + echo):
        with pytest.raises(ValueError, match="must end with its readout pulse"):
            run_two_branch(PulseSequence(elements, "stray-delay"), quiet_ensemble(16), QUIET.bath, pulse_width=48e-9)


def test_finite_pulses_with_amplitude_error_leave_population_behind():
    nm = NoiseModel(QuasiStaticSpread(0.0), OUBath(0.0, 1e-5), AmplitudeErrorModel(systematic=0.05))
    ens = sample_ensemble(VOL, None, nm, 512, 6, rabi_angular_freq=OMEGA)
    seq = build_cpmg(64, 1e-6)
    p_plus, _ = run_two_branch(seq, ens, nm.bath, pulse_width=48e-9)
    assert p_plus < 1.0 - 1e-4  # miscalibrated pulses no longer compose to identity


def test_rabi_inhomogeneity_damps_contrast_at_tenth_flip():
    # 5% Rabi spread: envelope at the 10th flip drops by >= 30%.
    nm_h = QUIET
    ens_h = sample_ensemble(VOL, None, nm_h, 20000, 7, rabi_angular_freq=OMEGA)
    nm_s = NoiseModel(QuasiStaticSpread(0.0), OUBath(0.0, 1e-5), AmplitudeErrorModel(sigma=0.05))
    ens_s = sample_ensemble(VOL, None, nm_s, 20000, 7, rabi_angular_freq=OMEGA)
    t10 = 10 * 48e-9
    p_h = ensemble_rabi_curve(ens_h, [t10])[0]
    p_s = ensemble_rabi_curve(ens_s, [t10])[0]
    contrast_h = abs(2 * p_h - 1)
    contrast_s = abs(2 * p_s - 1)
    # over seeds 0-199 no seed failed: the largest ratio was 0.31
    assert contrast_s <= 0.7 * contrast_h


def test_cpmg_protects_only_pulse_axis_under_amplitude_error():
    nm = NoiseModel(QuasiStaticSpread(0.0), OUBath(0.0, 1e-5), AmplitudeErrorModel(systematic=0.05))
    ens = sample_ensemble(VOL, None, nm, 256, 8, rabi_angular_freq=OMEGA)
    seq = build_cpmg(32, 1e-6)
    # every spin is the same: y 0.994, x 0.382; both 0.382 with the engine ignoring each pulse's phase
    along_y, along_x = (
        np.subtract(*run_two_branch(prepared_on(seq, a), ens, nm.bath, pulse_width=48e-9)) for a in (math.pi / 2, 0.0)
    )
    assert along_y > 0.95
    assert along_x < along_y - 0.1
