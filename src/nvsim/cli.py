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
from .ensemble import DetectionVolume, NoiseModel, sample_ensemble
from .experiments import (
    fit_table,
    report_table,
    run_ac_magnetometry,
    run_coherence,
    run_odmr,
    run_rabi,
    run_resolution,
    shots_table,
    write_table,
)
from .fields import ResonatorSpec, compute_field_map
from .fitting import CurveFitResult, FitError
from .noise import AmplitudeErrorModel, OUBath, QuasiStaticSpread, calibrate_bath, sigma_from_t2star
from .readout import WINDOWS, ReadoutModel, shot_stream
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
    freqs = frequency_sweep(cfg)
    res = run_odmr(
        freqs,
        cfg.bias_field_t,
        cfg.odmr_linewidth_hz,
        contrast_aligned=cfg.contrast,
        contrast_misaligned=cfg.odmr_contrast_misaligned,
        v0_v=cfg.v0_v,
    )
    curve = ("curve.csv", ["freq_hz", "signal_v"], [res.freqs_hz, res.signal])
    return Outputs([curve, fit_table(res.fit, {"fitted_dip_hz": res.fitted_dip_hz})], res.fit, "ODMR dip fit")


def _run_rabi(cfg):
    ens = build_ensemble(cfg)
    durations = np.linspace(0.0, cfg.rabi_max_s, cfg.n_points)
    res = run_rabi(durations, ens, build_readout(cfg) if cfg.shots > 1 else None, shots=cfg.shots, seed=cfg.seed + 1)
    curve = ("curve.csv", ["duration_s", "population"], [res.durations_s, res.population])
    return Outputs([curve, fit_table(res.fit, {"t_pi_s": res.t_pi_s})], res.fit, "Rabi damped-sine fit")


def _run_coherence(cfg):
    bath = build_bath(cfg)
    # ideal pulses average the static spread exactly: only finite pulses evolve sampled spins
    spins = build_ensemble(cfg) if cfg.finite_pulses else build_spread(cfg)
    t_sweep = np.linspace(cfg.t_min_s, cfg.t_max_s, cfg.n_points)
    try:
        res = run_coherence(
            cfg.experiment,
            cfg.n_repeats,
            t_sweep,
            spins,
            bath,
            pulse_width=cfg.pi_time_s if cfg.finite_pulses else None,
            noise_seed=cfg.seed + 2,
        )
    except FitError as exc:
        raise NumericalFailure(f"coherence fit: {exc}") from exc
    curve = ("curve.csv", ["t_total_s", "signal_norm"], [res.t_totals_s, res.signal_norm])
    extra = {"t2_s": res.t2_s, "stretch_p": res.stretch_p, "censored": float(res.censored)}
    return Outputs([curve, fit_table(res.fit, extra)], res.fit, "coherence fit")


def _ac_sweep(cfg: RunConfig):
    """XY16 AC-magnetometry sweep shared by ac_sense and resolution."""
    tau = cfg.tau_s if cfg.tau_s > 0 else 1.0 / (2.0 * cfg.f_ac_hz)
    seq = build_xy16(cfg.n_repeats, tau, readout_phase=math.pi / 2.0)
    amplitudes = np.linspace(-cfg.b_ac_max_t, cfg.b_ac_max_t, cfg.n_amplitudes)
    try:
        return run_ac_magnetometry(
            seq,
            cfg.f_ac_hz,
            amplitudes,
            build_spread(cfg),
            build_bath(cfg),
            build_readout(cfg),
            cfg.shots,
            cfg.t_seq_s,
            ac_phase=cfg.ac_phase_rad,
            shot_seed=cfg.seed + 4,
        )
    except FitError as exc:
        raise NumericalFailure(f"AC sweep: {exc}") from exc


def _run_ac_sense(cfg):
    res = _ac_sweep(cfg)
    curve = (
        "curve.csv",
        ["b_ac_t", "signal_v", "signal_std_v", "signal_norm"],
        [res.amplitudes_t, res.signal_mean_v, res.signal_std_v, res.signal_norm],
    )
    tables = [curve, fit_table(res.fit, {"max_slope_v_per_t": res.max_slope_v_per_t}), report_table(res.report)]
    if cfg.dump_shots:
        rng = np.random.default_rng(cfg.seed + 5)
        tables.append(shots_table(shot_stream(0.5, 0.5, build_readout(cfg), min(cfg.shots, 10000), rng, WINDOWS)))
    return Outputs(tables, res.fit, "AC sine fit")


def _run_resolution(cfg):
    ac = _ac_sweep(cfg)
    try:
        res = run_resolution(
            build_readout(cfg),
            ac.max_slope_v_per_t,
            cfg.t_seq_s,
            averaging_counts(cfg),
            blocks_per_point=cfg.blocks_per_point,
            seed=cfg.seed + 6,
        )
    except FitError as exc:
        raise NumericalFailure(f"resolution: {exc}") from exc
    table = (
        "resolution.csv",
        ["n_avg", "elapsed_s", "min_field_t", "ideal_min_field_t", "min_field_stderr_t"],
        [res.n_avg.astype(float), res.elapsed_s, res.min_field_t, res.ideal_min_field_t, res.min_field_stderr_t],
    )
    return Outputs([table, report_table(ac.report)], manifest={"loglog_slope": repr(res.loglog_slope)})


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
