"""Config-driven command line: `simulate run|validate|fieldmap <config>`.

Exit codes: 0 success, 2 config error, 3 numerical failure
(non-convergent primary fit, a coherence curve with no positive value
to fit, an AC sine fit with zero slope, a zero noise floor, bath
calibration failure, an overflow or invalid value during the run).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import fields
from functools import cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import (ConfigError, RunConfig, averaging_counts, config_items, format_manifest, frequency_sweep,
                     parse_config, validate_config)
from .ensemble import (DetectionVolume, NoiseModel, ensemble_rabi_curve, ideal_populations, run_two_branch,
                       sample_ensemble)
from .experiments import (PIECE_BLOCKS, _cut_block_means, fit_table, odmr_dip_frequencies, report_table,
                          resolution_vs_time, sensitivity_from_slope, shots_table, write_table)
from .fields import ResonatorSpec, compute_field_map
from .fitting import CurveFitResult, FitError, fit_damped_sine, fit_lorentzian, fit_sine, fit_stretched_exp
from .noise import AmplitudeErrorModel, OUBath, QuasiStaticSpread, calibrate_bath, sigma_from_t2star
from .readout import SINGLE_BRANCH, TWO_BRANCH, WINDOWS, ReadoutModel, readout_shot_std, shot_law, shot_stream
from .sequences import SWEEP_FAMILIES, build_xy16


class NumericalFailure(RuntimeError):
    pass


def build_bath(cfg: RunConfig) -> OUBath:
    if cfg.bath_b_rad_s > 0:
        return OUBath(cfg.bath_b_rad_s, cfg.bath_tau_c_s)
    try:
        return calibrate_bath(cfg.t2_echo_target_s, cfg.bath_tau_c_s)
    except ValueError as exc:
        raise NumericalFailure(f"bath calibration: {exc}") from exc


def _from_config(model, cfg: RunConfig, **renamed):
    """model built from the config keys named like its fields, and the renamed ones."""
    return model(**{f.name: getattr(cfg, renamed.get(f.name, f.name)) for f in fields(model)})


def build_readout(cfg: RunConfig) -> ReadoutModel:
    return _from_config(ReadoutModel, cfg)


def build_resonator_spec(cfg: RunConfig) -> ResonatorSpec:
    return _from_config(ResonatorSpec, cfg, kind="resonator")


def build_spread(cfg: RunConfig) -> QuasiStaticSpread:
    return QuasiStaticSpread(sigma_from_t2star(cfg.t2_star_s))


def build_ensemble(cfg: RunConfig):
    """The cfg.n_spins spins that finite pulses and the Rabi curve evolve."""
    amp = AmplitudeErrorModel(cfg.amp_error_sigma, cfg.amp_error_systematic)
    volume, noise_model = _from_config(DetectionVolume, cfg), NoiseModel(build_spread(cfg), amplitude_error=amp)
    spec = None if cfg.resonator == "uniform" else build_resonator_spec(cfg)
    return sample_ensemble(volume, spec, noise_model, cfg.n_spins, cfg.seed, rabi_angular_freq=math.pi / cfg.pi_time_s)


class Outputs(NamedTuple):
    """A runner's tables (name, header, columns) in manifest order, its
    primary fit and that fit's name, and any more manifest entries."""

    tables: list
    fit: CurveFitResult | None = None
    fit_name: str = ""
    manifest: dict[str, str] | None = None


def _run_fieldmap(cfg):
    return Outputs([compute_field_map(build_resonator_spec(cfg)).table()])


def _run_odmr(cfg):
    """Steady-state CW spectrum with Lorentzian dips; fits the deepest dip.

    The three misaligned orientation classes are degenerate for a [111]
    field, so their per-orientation contrast adds threefold.
    """
    f = frequency_sweep(cfg)
    v0, c, c_mis = cfg.v0_v, cfg.contrast, cfg.odmr_contrast_misaligned
    signal = np.full_like(f, v0)
    hw = cfg.odmr_linewidth_hz / 2.0
    for f0, w in zip(odmr_dip_frequencies(cfg.bias_field_t), [c, c, 3 * c_mis, 3 * c_mis]):
        signal -= v0 * w * hw * hw / ((f - f0) ** 2 + hw * hw)
    # fit a window around the global minimum
    i0 = int(np.argmin(signal))
    mask = np.abs(f - f[i0]) <= 4.0 * cfg.odmr_linewidth_hz
    fit = fit_lorentzian(f[mask], signal[mask])
    curve = ("curve.csv", ["freq_hz", "signal_v"], [f, signal])
    return Outputs([curve, fit_table(fit, {"fitted_dip_hz": fit.params[0]})], fit, "ODMR dip fit")


def _run_rabi(cfg):
    """Ensemble-averaged drive curve plus damped-sine fit; t_pi = 1/(2 f).

    With shots > 1 each point is instead the mean of `shots` single-branch
    shots of the readout model (seed + 1), which adds detector noise.
    """
    durations = np.linspace(0.0, cfg.rabi_max_s, cfg.n_points)
    pop = ensemble_rabi_curve(build_ensemble(cfg), durations)
    if cfg.shots > 1:
        readout = build_readout(cfg)
        rng = np.random.default_rng(cfg.seed + 1)
        for i, p in enumerate(pop):
            vals = shot_stream(p, p, readout, cfg.shots, rng, [SINGLE_BRANCH])[0]
            pop[i] = 1.0 + float(np.mean(vals)) / (readout.v0_v * readout.contrast)
    fit = fit_damped_sine(durations, pop)
    f = float(fit.params[2])
    curve = ("curve.csv", ["duration_s", "population"], [durations, pop])
    return Outputs([curve, fit_table(fit, {"t_pi_s": 1.0 / (2.0 * f) if f > 0 else math.inf})], fit,
                   "Rabi damped-sine fit")


def _run_coherence(cfg):
    """Normalized two-branch signal vs total free time, stretched-exp fit.

    Finite pulses evolve n_spins sampled spins along fresh bath
    trajectories per point, keyed on (seed, seed + 2 + 7919 i); ideal
    pulses average the bath and the static spread exactly, from the
    spread's sigma_delta, and sample no spins.  A fit that did not converge, or
    whose T2 lands before the first point or beyond the last, is flagged
    censored.
    """
    bath = build_bath(cfg)
    spins = build_ensemble(cfg) if cfg.finite_pulses else build_spread(cfg)
    pulse_width = cfg.pi_time_s if cfg.finite_pulses else None
    t_sweep = np.linspace(cfg.t_min_s, cfg.t_max_s, cfg.n_points)
    signal = np.empty_like(t_sweep)
    for i, T in enumerate(t_sweep):
        seq = SWEEP_FAMILIES[cfg.experiment](cfg.n_repeats, T)
        p_plus, p_minus = run_two_branch(seq, spins, bath, noise_seed=cfg.seed + 2 + 7919 * i, pulse_width=pulse_width)
        signal[i] = p_plus - p_minus
    try:
        fit = fit_stretched_exp(t_sweep, signal)
    except FitError as exc:
        raise NumericalFailure(f"coherence fit: {exc}") from exc
    t2 = float(fit.params[1])
    censored = (not fit.converged) or not float(t_sweep[0]) <= t2 <= float(t_sweep[-1])
    curve = ("curve.csv", ["t_total_s", "signal_norm"], [t_sweep, signal])
    extra = {"t2_s": t2, "stretch_p": fit.params[2], "censored": float(censored)}
    return Outputs([curve, fit_table(fit, extra)], fit, "coherence fit")


def _ac_sweep(cfg: RunConfig):
    """Two-branch signal vs AC amplitude over an XY16 train, shared by
    ac_sense and resolution: its curve table, sine fit and sensitivity report.

    The train's spacing is tau_s, or 1/(2 f_ac_hz) when tau_s = 0, and its
    readout is the quadrature one (readout_phase = pi/2); validate_config
    warns about an unsynchronized tau_s.  The branches come from one
    ensemble.ideal_populations over all amplitudes, which averages the bath
    and the static spread exactly: only the shots (seed + 4) are random.
    They are drawn as readout.TWO_BRANCH, the two-branch difference, which
    rejects the common-mode laser noise; readout.SINGLE_BRANCH is the arm
    without the branch pair.
    delta_s is the measured shot-to-shot std at the amplitude closest to
    zero; max_slope is |a k| from the sine fit of the mean curve.  A
    NumericalFailure if either is not positive (delta_s is 0 without shot
    noise and laser noise), or if the slope is within 5 of its std errors
    (from fit.cov) of 0: the sweep shows no signal.  A fit without a
    covariance is not converged.
    """
    tau = cfg.tau_s if cfg.tau_s > 0 else 1.0 / (2.0 * cfg.f_ac_hz)
    seq = build_xy16(cfg.n_repeats, tau, readout_phase=math.pi / 2.0)
    amplitudes = np.linspace(-cfg.b_ac_max_t, cfg.b_ac_max_t, cfg.n_amplitudes)
    bath, readout = build_bath(cfg), build_readout(cfg)
    branches = ideal_populations(seq, bath, build_spread(cfg).sigma_delta, amplitudes, cfg.f_ac_hz, cfg.ac_phase_rad)
    mean_v, std_v, norm = (np.empty_like(amplitudes) for _ in range(3))
    rng = np.random.default_rng(cfg.seed + 4)
    for i, (p_plus, p_minus) in enumerate(branches):
        vals = shot_stream(p_plus, p_minus, readout, cfg.shots, rng, [TWO_BRANCH])[0]
        mean_v[i], std_v[i] = np.mean(vals), np.std(vals, ddof=1)
        norm[i] = p_plus - p_minus
    fit = fit_sine(amplitudes, mean_v)
    max_slope = abs(float(fit.params[0] * fit.params[1]))
    delta_s = float(std_v[int(np.argmin(np.abs(amplitudes)))])  # the shot-to-shot std
    if not (max_slope > 0 and delta_s > 0):
        raise NumericalFailure(
            f"AC sweep: the sine fit's slope |a k| = {max_slope!r} and delta_s = {delta_s!r}: no sensitivity"
        )
    # the slope's std error by the delta method: a and k alone are ill-determined
    # (anti-correlated) when the sweep sees only the linear part of the sine
    grad = np.array([fit.params[1], fit.params[0]])
    var_slope = float(grad @ fit.cov[:2, :2] @ grad)
    if var_slope >= 0.0 and max_slope <= 5.0 * math.sqrt(var_slope):
        raise NumericalFailure(
            f"AC sweep: the sine fit's slope |a k| = {max_slope!r} is within 5 std errors "
            f"({math.sqrt(var_slope)!r}) of 0: no signal"
        )
    curve = ("curve.csv", ["b_ac_t", "signal_v", "signal_std_v", "signal_norm"], [amplitudes, mean_v, std_v, norm])
    return curve, fit, sensitivity_from_slope(delta_s, max_slope, cfg.t_seq_s)


def _run_ac_sense(cfg):
    curve, fit, report = _ac_sweep(cfg)
    tables = [curve, fit_table(fit, {"max_slope_v_per_t": report.max_slope_v_per_t}), report_table(report)]
    if cfg.dump_shots:
        rng = np.random.default_rng(cfg.seed + 5)
        tables.append(shots_table(shot_stream(0.5, 0.5, build_readout(cfg), min(cfg.shots, 10000), rng, WINDOWS)))
    return Outputs(tables, fit, "AC sine fit")


def _run_resolution(cfg):
    """Measured field resolution vs averaging from a simulated shot stream
    at zero signal (p0 = 0.5 in both branches), over the AC sweep's slope.

    For each averaging count M the std of non-overlapping M-shot block
    means estimates the averaged-signal noise; at least blocks_per_point
    blocks are simulated for the largest M.  A std from k Gaussian block
    means has relative standard error 1/sqrt(2 (k - 1)), the
    min_field_stderr_t column.  At zero signal the processed shots are
    i.i.d. N(0, sigma^2) and the drift walk adds nothing (shot_law's mean
    is exactly 0.0), so the block means are drawn (seed + 6) from their
    exact law by _cut_block_means, one normal per block-edge cut instead
    of one per shot, in pieces of PIECE_BLOCKS smallest-M blocks (at least
    the largest M).  A NumericalFailure before any draw if sigma is 0 (no
    shot noise, and the slow laser term cancels at zero signal): no std to
    take a log of.
    """
    _curve, _fit, report = _ac_sweep(cfg)
    readout, max_slope = build_readout(cfg), report.max_slope_v_per_t
    n_avg = averaging_counts(cfg)
    m_max = int(n_avg[-1])
    k = m_max * cfg.blocks_per_point // n_avg
    sigma = abs(float(shot_law(0.5, 0.5, readout, [TWO_BRANCH])[1][0, 0]))
    if not sigma > 0:
        raise NumericalFailure(
            f"resolution: the zero-signal shot std sigma = {sigma!r}: every block-mean std is 0, no log-log slope"
        )
    rng = np.random.default_rng(cfg.seed + 6)
    piece = max(m_max, PIECE_BLOCKS * int(n_avg[0]))
    means = _cut_block_means(sigma, n_avg.tolist(), k.tolist(), rng, piece)
    min_field = np.array([np.std(x, ddof=1) / max_slope for x in means])
    elapsed, ideal = resolution_vs_time(readout_shot_std(readout), max_slope, cfg.t_seq_s, n_avg)
    slope = float(np.polyfit(np.log(elapsed), np.log(min_field), 1)[0])
    columns = [n_avg.astype(float), elapsed, min_field, ideal, min_field / np.sqrt(2.0 * (k - 1.0))]
    header = ["n_avg", "elapsed_s", "min_field_t", "ideal_min_field_t", "min_field_stderr_t"]
    table = ("resolution.csv", header, columns)
    return Outputs([table, report_table(report)], manifest={"loglog_slope": repr(slope)})


_RUNNERS = {
    "odmr": _run_odmr,
    "rabi": _run_rabi,
    **{family: _run_coherence for family in SWEEP_FAMILIES},
    "ac_sense": _run_ac_sense,
    "resolution": _run_resolution,
    "fieldmap": _run_fieldmap,
}


def run_experiment(cfg: RunConfig, out: Path) -> dict[str, str]:
    """Run one experiment and write its tables into out, made once they
    exist; returns their manifest entries.

    Every table, fit.csv included, is on disk before a non-converged
    primary fit raises.  An ArithmeticError gets the experiment's name.
    """
    try:
        res = _RUNNERS[cfg.experiment](cfg)
    except ArithmeticError as exc:
        raise NumericalFailure(f"{cfg.experiment}: {exc}") from exc
    out.mkdir(parents=True, exist_ok=True)
    entries: dict[str, str] = {}
    for name, header, columns in res.tables:
        write_table(out / name, header, columns)
        entries[f"output_{Path(name).stem}"] = str(out / name)
    entries.update(res.manifest or {})
    if res.fit is not None and not res.fit.converged:
        raise NumericalFailure(f"{res.fit_name} did not converge")
    return entries


def cmd_run(cfg: RunConfig, warnings: list[str]) -> int:
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    out = Path(cfg.out_dir)
    t0 = time.time()
    outputs = run_experiment(cfg, out)
    extra = {"version": __version__, "wall_time_s": f"{time.time() - t0:.3f}", **outputs}
    (out / "manifest.txt").write_text(format_manifest(cfg, extra))
    print(f"wrote {out}/manifest.txt")
    return 0


def cmd_validate(cfg: RunConfig, warnings: list[str]) -> int:
    for w in warnings:
        print(f"warning: {w}")
    print("ok")
    print("resolved configuration:")
    for k, v in config_items(cfg):
        print(f"  {k} = {v}")
    return 0


def cmd_fieldmap(cfg: RunConfig, warnings: list[str]) -> int:
    for path in run_experiment(cfg, Path(cfg.out_dir)).values():
        print(f"wrote {path}")
    return 0


@cache  # built on the first call of a process, not at import
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simulate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment described by the config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", dest="out_dir", default=None)
    p_run.add_argument("--threads", type=int, default=None, help="recorded in the manifest; has no effect")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="schema and physics sanity report, no run")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)

    p_map = sub.add_parser("fieldmap", help="export the resonator field map CSV")
    p_map.add_argument("config")
    p_map.add_argument("--out", dest="out_dir", default=None)
    p_map.set_defaults(func=cmd_fieldmap, experiment="fieldmap")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        # each flag's dest, and `fieldmap`'s experiment, is the config key it sets
        for key, value in vars(args).items():
            if value is not None and hasattr(cfg, key):
                setattr(cfg, key, value)
        warnings = validate_config(cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        # an overflow, a 0/0 or an inf - inf anywhere in the run is a numerical failure, not a NaN in a CSV
        with np.errstate(all="raise", under="ignore"):
            return args.func(cfg, warnings)
    except (NumericalFailure, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
