"""Experiment drivers: ODMR, Rabi, coherence sweeps, AC magnetometry,
resolution-vs-time, and the sensitivity arithmetic.

Each driver returns a small result object carrying the raw curve, the
fit, and derived quantities; every output file is a table
`(name, header, columns)` written by `write_table`, so the CLI and the
scripts share one format.

AC synchronization: for symmetric pi-train timing (pulses at the
half-integer multiples of the spacing tau) the test field must have its
zero crossings at the pulse centers, i.e. a cosine at the initial pi/2
pulse.  The default AC phase is therefore +pi/2; the accumulated phase
magnitude for an ideal synchronized train is (2/pi) gamma B0 T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import COS_MISALIGNED, GAMMA_E, GAMMA_E_HZ_PER_T, ZERO_FIELD_SPLITTING_HZ
from .ensemble import EnsembleSample, ensemble_rabi_curve, ideal_populations, run_two_branch
from .fitting import (
    CurveFitResult,
    FitError,
    fit_damped_sine,
    fit_lorentzian,
    fit_sine,
    fit_stretched_exp,
)
from .noise import OUBath, QuasiStaticSpread
from .readout import SINGLE_BRANCH, TWO_BRANCH, ReadoutModel, readout_shot_std, shot_law, shot_stream
from .sequences import SWEEP_FAMILIES, PulseSequence

DEFAULT_AC_PHASE = math.pi / 2.0


def make_coherence_builder(family: str, n_repeats: int = 1):
    """(builder, pi_count) for a total-free-time parametrized sequence."""
    if family not in SWEEP_FAMILIES:
        raise ValueError(f"unknown sequence family {family!r}")
    build = SWEEP_FAMILIES[family]
    builder = lambda T: build(n_repeats, T)
    return builder, builder(1.0).n_pi_pulses  # the count does not depend on T


# ---------------------------------------------------------------- ODMR

@dataclass(frozen=True)
class OdmrResult:
    freqs_hz: np.ndarray
    signal: np.ndarray
    fit: CurveFitResult
    fitted_dip_hz: float


def odmr_dip_frequencies(bias_field_t: float) -> np.ndarray:
    """Resonances of the four <111> classes under a field along [111].

    The aligned class shifts by +-gamma B; the three other classes share
    the projection cos = 1/3, so their splitting is one third.
    """
    d = ZERO_FIELD_SPLITTING_HZ
    shift = GAMMA_E_HZ_PER_T * bias_field_t
    return np.array(
        [d - shift, d + shift, d - COS_MISALIGNED * shift, d + COS_MISALIGNED * shift]
    )


def run_odmr(
    freq_sweep,
    bias_field_t: float,
    linewidth_hz: float,
    contrast_aligned: float = 0.02,
    contrast_misaligned: float = 0.005,
    v0_v: float = 1.0,
) -> OdmrResult:
    """Steady-state CW spectrum with Lorentzian dips; fits the deepest dip.

    The three misaligned orientation classes are degenerate for a [111]
    field, so their per-orientation contrast adds threefold.
    """
    f = np.asarray(freq_sweep, dtype=float)
    if np.any(np.diff(f) <= 0):
        raise ValueError("freq_sweep must be sorted increasing")
    dips = odmr_dip_frequencies(bias_field_t)
    weights = [contrast_aligned, contrast_aligned, 3 * contrast_misaligned, 3 * contrast_misaligned]
    signal = np.full_like(f, v0_v)
    hw = linewidth_hz / 2.0
    for f0, c in zip(dips, weights):
        signal -= v0_v * c * hw * hw / ((f - f0) ** 2 + hw * hw)
    # fit a window around the global minimum
    i0 = int(np.argmin(signal))
    mask = np.abs(f - f[i0]) <= 4.0 * linewidth_hz
    fit = fit_lorentzian(f[mask], signal[mask])
    return OdmrResult(f, signal, fit, float(fit.params[0]))


# ---------------------------------------------------------------- Rabi

@dataclass(frozen=True)
class RabiResult:
    durations_s: np.ndarray
    population: np.ndarray
    fit: CurveFitResult
    t_pi_s: float


def run_rabi(
    durations,
    ensemble: EnsembleSample,
    readout: ReadoutModel | None = None,
    shots: int = 0,
    seed: int = 0,
) -> RabiResult:
    """Ensemble-averaged drive curve plus damped-sine fit; t_pi = 1/(2 f).

    With a readout model each point is the mean of `shots` single-branch
    shots instead, which adds detector noise.
    """
    durations = np.asarray(durations, dtype=float)
    if np.any(np.diff(durations) < 0):
        raise ValueError("durations must be sorted")
    pop = ensemble_rabi_curve(ensemble, durations)
    if readout is not None:
        if shots < 1:
            raise ValueError("shots must be >= 1 with a readout model")
        rng = np.random.default_rng(seed)
        meas = np.empty_like(pop)
        for i, p in enumerate(pop):
            vals = shot_stream(p, p, readout, shots, rng, [SINGLE_BRANCH])[0]
            meas[i] = 1.0 + float(np.mean(vals)) / (readout.v0_v * readout.contrast)
        pop = meas
    fit = fit_damped_sine(durations, pop)
    f = float(fit.params[2])
    return RabiResult(durations, pop, fit, 1.0 / (2.0 * f) if f > 0 else math.inf)


# ---------------------------------------------------------------- coherence

@dataclass(frozen=True)
class CoherenceResult:
    t_totals_s: np.ndarray
    signal_norm: np.ndarray
    fit: CurveFitResult
    t2_s: float
    stretch_p: float
    censored: bool


def run_coherence(
    family: str,
    n_repeats: int,
    t_sweep,
    spins: EnsembleSample | QuasiStaticSpread,
    bath: OUBath,
    *,
    pulse_width: float | None = None,
    noise_seed: int = 0,
) -> CoherenceResult:
    """Normalized two-branch signal vs total free time, stretched-exp fit.

    Finite pulses evolve the EnsembleSample spins along fresh bath
    trajectories per point, keyed on (spins.seed, noise_seed + 7919 i);
    ideal pulses average both exactly, from spins.sigma_delta.  A fit
    that did not converge, or whose T2 lands before the first point or
    beyond the last, is flagged censored.
    """
    t_sweep = np.asarray(t_sweep, dtype=float)
    builder, _n_pi = make_coherence_builder(family, n_repeats)
    signal = np.empty_like(t_sweep)
    for i, T in enumerate(t_sweep):
        p_plus, p_minus = run_two_branch(
            builder(T),
            spins,
            bath,
            noise_seed=noise_seed + 7919 * i,
            pulse_width=pulse_width,
        )
        signal[i] = p_plus - p_minus
    fit = fit_stretched_exp(t_sweep, signal)
    t2 = float(fit.params[1])
    p = float(fit.params[2])
    censored = (not fit.converged) or not float(t_sweep[0]) <= t2 <= float(t_sweep[-1])
    return CoherenceResult(t_sweep, signal, fit, t2, p, censored)


# ---------------------------------------------------------------- AC sensing

@dataclass(frozen=True)
class SensitivityReport:
    eta_t_per_sqrt_hz: float
    delta_s_v: float
    max_slope_v_per_t: float
    t_seq_s: float


def sensitivity_from_slope(delta_s: float, max_slope: float, t_seq: float) -> SensitivityReport:
    """Minimum detectable field per root bandwidth from one-shot statistics.

    eta = (delta_s / max_slope) * sqrt(t_seq); the placement of the
    sqrt(t_seq) factor is pinned by the reference arithmetic
    (89.4 uV, 320000 V/T, 1.47 ms -> 10.7 pT/rtHz).
    """
    if delta_s <= 0 or t_seq <= 0:
        raise ValueError("delta_s and t_seq must be > 0")
    if max_slope <= 0:
        raise ValueError("max_slope must be > 0 (zero slope rejected)")
    eta = (delta_s / max_slope) * math.sqrt(t_seq)
    return SensitivityReport(eta, delta_s, max_slope, t_seq)


@dataclass(frozen=True)
class AcMagnetometryResult:
    amplitudes_t: np.ndarray
    signal_mean_v: np.ndarray
    signal_std_v: np.ndarray
    fit: CurveFitResult
    max_slope_v_per_t: float
    delta_s_v: float
    report: SensitivityReport
    signal_norm: np.ndarray


def run_ac_magnetometry(
    seq: PulseSequence,
    f_ac: float,
    amplitudes,
    spins: EnsembleSample | QuasiStaticSpread,
    bath: OUBath,
    readout: ReadoutModel,
    shots: int,
    t_seq: float,
    *,
    ac_phase: float = DEFAULT_AC_PHASE,
    shot_seed: int = 1,
) -> AcMagnetometryResult:
    """Two-branch signal vs AC amplitude, sine fit, and sensitivity report.

    The branches come from one ensemble.ideal_populations over all
    amplitudes, which averages the bath and the static spread (of std
    spins.sigma_delta) exactly: only the shots (shot_seed) are random.
    Nothing here checks that seq's spacing matches 1/(2 f_ac) or that its
    readout is the quadrature one: config.validate_config warns about an
    unsynchronized tau_s, and the CLI always builds seq with
    readout_phase = pi/2.
    delta_s is the measured shot-to-shot std at the amplitude closest to
    zero; max_slope is |a k| from the sine fit of the mean curve.  FitError
    if either is not positive (delta_s is 0 without shot noise and laser noise),
    or if the slope is within 5 of its std errors (from fit.cov) of 0: the
    sweep shows no signal.  A fit without a covariance is not converged.
    The shots are drawn as readout.TWO_BRANCH, the two-branch difference,
    which rejects the common-mode laser noise; readout.SINGLE_BRANCH is
    the arm without the branch pair.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    if shots < 2:
        raise ValueError("shots must be >= 2 to estimate delta_s")
    mean_v = np.empty_like(amplitudes)
    std_v = np.empty_like(amplitudes)
    norm = np.empty_like(amplitudes)
    branches = ideal_populations(seq, bath, spins.sigma_delta, amplitudes, f_ac, ac_phase)
    rng = np.random.default_rng(shot_seed)
    for i, (p_plus, p_minus) in enumerate(branches):
        vals = shot_stream(p_plus, p_minus, readout, shots, rng, [TWO_BRANCH])[0]
        mean_v[i] = float(np.mean(vals))
        std_v[i] = float(np.std(vals, ddof=1))
        norm[i] = p_plus - p_minus
    fit = fit_sine(amplitudes, mean_v)
    max_slope = abs(float(fit.params[0] * fit.params[1]))
    i0 = int(np.argmin(np.abs(amplitudes)))
    delta_s = float(std_v[i0])  # the shot-to-shot std
    if not (max_slope > 0 and delta_s > 0):
        raise FitError(f"the sine fit's slope |a k| = {max_slope!r} and delta_s = {delta_s!r}: no sensitivity")
    # the slope's std error by the delta method: a and k alone are ill-determined
    # (anti-correlated) when the sweep sees only the linear part of the sine
    grad = np.array([fit.params[1], fit.params[0]])
    var_slope = float(grad @ fit.cov[:2, :2] @ grad)
    if var_slope >= 0.0 and max_slope <= 5.0 * math.sqrt(var_slope):
        raise FitError(
            f"the sine fit's slope |a k| = {max_slope!r} is within 5 std errors "
            f"({math.sqrt(var_slope)!r}) of 0: no signal"
        )
    report = sensitivity_from_slope(delta_s, max_slope, t_seq)
    return AcMagnetometryResult(amplitudes, mean_v, std_v, fit, max_slope, delta_s, report, norm)


def synchronized_phase(b0: float, total_free_time: float) -> float:
    """Ideal accumulated phase magnitude for a synchronized pi-train."""
    return (2.0 / math.pi) * GAMMA_E * b0 * total_free_time


# ---------------------------------------------------------------- resolution

@dataclass(frozen=True)
class ResolutionResult:
    n_avg: np.ndarray
    elapsed_s: np.ndarray
    min_field_t: np.ndarray
    ideal_min_field_t: np.ndarray
    loglog_slope: float
    min_field_stderr_t: np.ndarray  # standard error of min_field_t from its k block means


def resolution_vs_time(single_shot_std: float, max_slope: float, t_seq: float, n_avg) -> tuple[np.ndarray, np.ndarray]:
    """Ideal averaging curve: min-field(M) = (std/sqrt(M))/slope at M t_seq."""
    n_avg = np.asarray(n_avg, dtype=float)
    if np.any(n_avg < 1):
        raise ValueError("n_avg must be >= 1")
    elapsed = n_avg * t_seq
    min_field = (single_shot_std / np.sqrt(n_avg)) / max_slope
    return elapsed, min_field


# smallest-M blocks per piece of _cut_block_means: about 2^14 cuts, under 1 MB of work arrays
PIECE_BLOCKS = 2**14


def _cut_block_means(sigma: float, sizes, counts, rng, piece: int) -> list[np.ndarray]:
    """Means of the first counts[i] consecutive sizes[i]-shot blocks of an i.i.d. N(0, sigma^2) shot stream.

    The stream is cut at the union of the blocks' edges.  The L shots
    between two cuts sum to one N(0, L sigma^2) draw, so one normal is
    drawn per cut, in cut order, and each block mean is a difference of
    prefix sums at its edges over its size.  The cuts are taken piece
    shots at a time; the prefix sum carries into each piece's first cut
    and each size keeps its prefix at its last edge so far, so a block
    that straddles pieces needs no buffer and the bits do not depend on
    piece.  rng only needs standard_normal(n).
    """
    ends = [m * q for m, q in zip(sizes, counts)]
    means = [np.empty(q) for q in counts]
    last = [0.0] * len(sizes)  # prefix sum at each size's last edge so far
    cut, prefix = 0, 0.0  # the last cut and the prefix sum there
    for lo in range(0, max(ends), piece):
        edges = [np.arange((lo // m + 1) * m, min(lo + piece, end) + 1, m) for m, end in zip(sizes, ends)]
        cuts = np.sort(np.concatenate(edges))
        if not len(cuts):
            continue
        # np.unique, without its hashing pass: keep the first of each run of equal edges
        cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
        sums = np.sqrt(np.diff(cuts, prepend=cut)) * sigma * rng.standard_normal(len(cuts))
        # the carry joins the piece's first sum, so the prefix is summed in one order
        sums[0] += prefix
        np.cumsum(sums, out=sums)
        for i, (m, e) in enumerate(zip(sizes, edges)):
            if len(e):
                at = sums[np.searchsorted(cuts, e)]
                means[i][e[0] // m - 1 : e[-1] // m] = np.diff(at, prepend=last[i]) / m
                last[i] = at[-1]
        cut, prefix = cuts[-1], sums[-1]
    return means


def run_resolution(
    readout: ReadoutModel,
    max_slope: float,
    t_seq: float,
    n_avg_list,
    *,
    blocks_per_point: int = 20,
    seed: int = 0,
) -> ResolutionResult:
    """Measured field resolution vs averaging from a simulated shot stream
    at zero signal (p0 = 0.5 in both branches).

    For each averaging count M the std of non-overlapping M-shot block
    means estimates the averaged-signal noise; at least blocks_per_point
    blocks are simulated for the largest M.  A std from k Gaussian block
    means has relative standard error 1/sqrt(2 (k - 1)).  At zero signal
    the processed shots are i.i.d. N(0, sigma^2) and the drift walk adds
    nothing (shot_law's mean is exactly 0.0), so the block means are drawn
    from their exact law by _cut_block_means, one normal per block-edge
    cut instead of one per shot, in pieces of PIECE_BLOCKS smallest-M
    blocks (at least the largest M).  FitError before any draw if sigma is 0
    (no shot noise, and the slow laser term cancels at zero signal): no std to take a log of.
    """
    n_avg = np.asarray(sorted(int(m) for m in n_avg_list))
    m_max = int(n_avg[-1])
    k = m_max * blocks_per_point // n_avg
    _mean, factor = shot_law(0.5, 0.5, readout, [TWO_BRANCH])
    sigma = abs(float(factor[0, 0]))
    if not sigma > 0:
        raise FitError(f"the zero-signal shot std sigma = {sigma!r}: every block-mean std is 0, no log-log slope")
    rng = np.random.default_rng(seed)
    piece = max(m_max, PIECE_BLOCKS * int(n_avg[0]))
    means = _cut_block_means(sigma, n_avg.tolist(), k.tolist(), rng, piece)
    min_field = np.array([np.std(x, ddof=1) / max_slope for x in means])
    elapsed, ideal = resolution_vs_time(readout_shot_std(readout), max_slope, t_seq, n_avg)
    slope = float(np.polyfit(np.log(elapsed), np.log(min_field), 1)[0])
    return ResolutionResult(n_avg, elapsed, min_field, ideal, slope, min_field / np.sqrt(2.0 * (k - 1.0)))


# ---------------------------------------------------------------- CSV output

def _cell(v) -> str:
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def _column_cells(column) -> list[str]:
    """A column's cells, converted once: a column of Python floats (a float
    array's tolist()) by repr alone, any other cell by _cell."""
    values = column.tolist() if isinstance(column, np.ndarray) else column
    if all(type(v) is float for v in values):
        return list(map(repr, values))
    return list(map(_cell, values))


def write_table(path, header: list[str], columns) -> None:
    """One CSV: the header line, then one row per index of the equal-length columns.

    A float cell is written as repr(float(v)), which round-trips; any
    other cell (an int, a name) as str(v).
    """
    cells = [_column_cells(c) for c in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))


def fit_table(fit: CurveFitResult, extra: dict[str, float]):
    """fit.csv: each parameter and its std error, then residual_rms, converged
    (0 or 1) and the derived quantities in extra, each with std error 0.0."""
    rows = ["residual_rms", "converged", *extra]
    values = [*map(float, fit.params), float(fit.residual_rms), int(fit.converged), *map(float, extra.values())]
    errors = [*map(float, fit.stderr)] + [0.0] * len(rows)
    return "fit.csv", ["parameter", "value", "std_error"], [[*fit.param_names, *rows], values, errors]


def report_table(report: SensitivityReport):
    """report.csv: the sensitivity arithmetic, one row."""
    header = ["delta_s_V", "max_slope_V_per_T", "t_seq_s", "eta_T_per_sqrtHz"]
    values = (report.delta_s_v, report.max_slope_v_per_t, report.t_seq_s, report.eta_t_per_sqrt_hz)
    return "report.csv", header, [[v] for v in values]


def shots_table(windows: np.ndarray):
    """shots.csv: the (4, n) windows s1, r1, s2, r2 of readout.shot_stream(..., WINDOWS),
    one row per shot, and their two-branch output S = (s1 - r1) - (s2 - r2)."""
    s1, r1, s2, r2 = windows
    columns = [range(len(s1)), s1, r1, s2, r2, (s1 - r1) - (s2 - r2)]
    return "shots.csv", ["shot_index", "s1_V", "r1_V", "s2_V", "r2_V", "S_V"], columns
