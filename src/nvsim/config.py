"""Plain-text key=value run configuration with unit-suffixed keys.

Unknown keys are rejected by name, values are typed and range-checked,
and a run is fully reproducible from (config, seed): the manifest echoes
every resolved key.  Keys carry their unit in the suffix (_s, _hz, _t,
_v, _m, _w, _rad, _rel, _mm3, _cm3); counts and labels are bare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .noise import MAX_TAU_C_RATIO
from .sequences import SWEEP_FAMILIES, render_finite

RESONATORS = ("uniform", "cwr", "ring", "wire")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass
class RunConfig:
    # run
    experiment: str = "echo"
    seed: int = 20260809
    threads: int = 1  # checked and recorded in the manifest; nothing reads it
    shots: int = 2000
    out_dir: str = "out"
    dump_shots: bool = False
    # physics
    t2_star_s: float = 150e-9
    t2_echo_target_s: float = 9e-6
    bath_b_rad_s: float = 0.0          # 0 -> calibrate from t2_echo_target_s
    bath_tau_c_s: float = 10e-6
    pi_time_s: float = 48e-9
    contrast: float = 0.02
    v0_v: float = 0.5
    shot_noise_v: float = 5.77e-5
    laser_fluct_rel: float = 0.01
    laser_fluct_fast_rel: float = 0.0
    laser_drift_step_rel: float = 0.0
    amp_error_sigma: float = 0.0
    amp_error_systematic: float = 0.0
    finite_pulses: bool = False
    s_window_s: float = 10e-6
    r_window_s: float = 50e-6
    laser_pulse_s: float = 400e-6
    # sequence
    n_repeats: int = 16
    tau_s: float = 0.0                 # 0 -> derived (1/(2 f_ac) for the AC sweeps)
    t_min_s: float = 0.5e-6
    t_max_s: float = 20e-6
    n_points: int = 24
    f_ac_hz: float = 362e3
    ac_phase_rad: float = math.pi / 2.0
    b_ac_max_t: float = 40e-9
    n_amplitudes: int = 17
    t_seq_s: float = 1.47e-3
    # ensemble
    n_spins: int = 10000
    resonator: str = "uniform"
    beam_diameter_m: float = 30e-6
    depth_m: float = 0.3e-3
    standoff_m: float = 2.0e-4
    volume_mm3: float = 1.4e-3         # quoted detection volume (informational)
    nv_density_cm3: float = 5e18       # informational
    strip_width_m: float = 1.0e-3
    gap_m: float = 0.5e-3
    ground_width_m: float = 1.0e-3
    ring_radius_m: float = 2.0e-3
    wire_diameter_m: float = 20e-6
    f0_hz: float = 2.832e9  # checked and recorded in the manifest; nothing reads it
    q_factor: float = 27.0
    drive_power_w: float = 50.0
    # odmr
    bias_field_t: float = 2.0e-3
    odmr_linewidth_hz: float = 6e6
    odmr_contrast_misaligned: float = 0.005
    f_min_hz: float = 2.77e9
    f_max_hz: float = 2.97e9
    n_freq: int = 801
    # rabi
    rabi_max_s: float = 400e-9
    # resolution
    m_min: int = 100
    m_max: int = 100000
    m_points: int = 4
    blocks_per_point: int = 20


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}

# keys that must be strictly positive / non-negative / at least 1, in declaration order, so that
# a config with several out of range names the same key in every process
_POSITIVE = (
    "t2_star_s", "t2_echo_target_s", "bath_tau_c_s", "pi_time_s", "contrast", "v0_v", "s_window_s",
    "r_window_s", "laser_pulse_s", "t_min_s", "t_max_s", "f_ac_hz", "b_ac_max_t", "t_seq_s",
    "beam_diameter_m", "depth_m", "standoff_m", "volume_mm3", "nv_density_cm3", "strip_width_m", "gap_m",
    "ground_width_m", "ring_radius_m", "wire_diameter_m", "f0_hz", "q_factor", "drive_power_w",
    "bias_field_t", "odmr_linewidth_hz", "rabi_max_s",
)
_NONNEGATIVE = (
    "seed", "bath_b_rad_s", "shot_noise_v", "laser_fluct_rel", "laser_fluct_fast_rel",
    "laser_drift_step_rel", "amp_error_sigma", "tau_s",
)
_MIN_ONE = ("threads", "shots", "n_repeats", "n_points", "n_amplitudes", "n_spins",
            "n_freq", "m_min", "m_max", "m_points", "blocks_per_point")


class Builds(NamedTuple):
    """What an experiment's cli runner builds: validate_config applies a rule only where it builds what it guards."""

    least: dict[str, int]  # each count its fit or a noise estimate reads, with the fewest it needs (2 for a std)
    bounds: tuple[str, str] | None = None  # the keys its sweep runs between, which must increase
    bath: bool = False  # an OU bath, calibrated from t2_echo_target_s when bath_b_rad_s = 0
    spins: Callable[[RunConfig], bool] = lambda cfg: False  # whether it samples n_spins spins
    train: bool = False  # a pulse train of n_repeats repeats
    shots: Callable[[RunConfig], bool] = lambda cfg: False  # whether it draws `shots` shots at each point
    curve_per_spin: bool = False  # its curve holds every spin at every point
    counts: bool = False  # the averaging counts, m_points from m_min to m_max
    field_map: bool = False  # the resonator's field map


_AC_SWEEP = dict(bath=True, train=True, shots=lambda cfg: True)
BUILDS = {
    "odmr": Builds({"n_freq": 8}, ("f_min_hz", "f_max_hz")),
    "rabi": Builds({"n_points": 8}, spins=lambda cfg: True, shots=lambda cfg: cfg.shots > 1, curve_per_spin=True),
    **{family: Builds({"n_points": 6}, ("t_min_s", "t_max_s"), bath=True, spins=lambda cfg: cfg.finite_pulses,
                      train=family not in ("fid", "echo")) for family in SWEEP_FAMILIES},  # fid, echo: no n_repeats
    "ac_sense": Builds({"n_amplitudes": 6, "shots": 2}, **_AC_SWEEP),
    "resolution": Builds({"n_amplitudes": 6, "shots": 2, "blocks_per_point": 2}, **_AC_SWEEP, counts=True),
    "fieldmap": Builds({}, field_map=True),
}
EXPERIMENTS = tuple(BUILDS)
# each count's bytes in the largest array it sets under an experiment, 0 where the experiment builds none:
# validate_config rejects more than MAX_ARRAY_BYTES
MAX_ARRAY_BYTES = 2**25  # 32 MiB
_ARRAY_BYTES = {
    "n_spins": lambda cfg, b: 24 * cfg.n_spins * b.spins(cfg),  # sample_ensemble's (n_spins, 3) float64 positions
    "shots": lambda cfg, b: 8 * cfg.shots * b.shots(cfg),  # readout.shot_stream's (1, shots) float64 row at a point
    # the float64 sweep, or the Rabi curve's (n_points, n_spins) float64 populations
    "n_points": lambda cfg, b: 8 * cfg.n_points * (cfg.n_spins if b.curve_per_spin else 1) * ("n_points" in b.least),
    "n_amplitudes": lambda cfg, b: 8 * cfg.n_amplitudes * ("n_amplitudes" in b.least),  # the float64 amplitudes
    # not one array but a run's per-pulse arrays at their peak, 16 pulses of 129 bytes per XY16 repeat
    # (tracemalloc of an in-process xy16 run: 2,048-2,052 bytes per repeat with ideal pulses, whose
    # ou_chi_exact lists peak, and 1,808-1,814 with finite pulses, at 500 and 2,000 repeats)
    "n_repeats": lambda cfg, b: 16 * 129 * cfg.n_repeats * b.train,
    # the odmr runner's peak: 92.2-92.6 bytes per frequency (tracemalloc at 2**16 and 2**18 frequencies)
    "n_freq": lambda cfg, b: 93 * cfg.n_freq * ("n_freq" in b.least),
    # 32 bytes each caps the averaging counts, which validate_config builds, at 2**20 (tracemalloc: 22 per count)
    "m_points": lambda cfg, b: 32 * cfg.m_points * b.counts,
    # the smallest averaging count's block means, one float64 each
    "m_max": lambda cfg, b: 8 * (cfg.m_max * cfg.blocks_per_point // cfg.m_min) * b.counts,
}


def _parse_value(key: str, raw: str):
    typ = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if typ == "bool":
            return {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}[raw.lower()]
        if typ not in ("int", "float"):
            return raw
        value = int(raw) if typ == "int" else float(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"key '{key}': cannot parse {raw!r} as {typ}") from None
    # numpy computes with counts as int64: m_max = 10**19 broke np.geomspace
    if typ == "int" and not -(2**63) <= value < 2**63:
        raise ConfigError(f"key '{key}': {raw!r} does not fit in a 64-bit integer")
    # nan passes every range check (nan <= 0 is false), and inf or 1e400 reach the physics
    if typ == "float" and not math.isfinite(value):
        raise ConfigError(f"key '{key}': must be finite, got {raw!r}")
    return value


def parse_config_text(text: str) -> RunConfig:
    """Parse key = value text: ConfigError for an unknown key or a value not of its key's type
    (a float must be finite, an int must fit in int64).  cli.main runs validate_config once,
    after the command's flags."""
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key '{key}' (line {lineno})")
        setattr(cfg, key, _parse_value(key, raw))
    return cfg


def parse_config(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())


def validate_config(cfg: RunConfig) -> list[str]:
    """Range/consistency checks; raises ConfigError, returns warnings."""
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"key 'experiment': {cfg.experiment!r} not in {EXPERIMENTS}")
    if cfg.resonator not in RESONATORS:
        raise ConfigError(f"key 'resonator': {cfg.resonator!r} not in {RESONATORS}")
    for key in _POSITIVE:
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"key '{key}': must be > 0, got {getattr(cfg, key)}")
    for key in _NONNEGATIVE:
        if getattr(cfg, key) < 0:
            raise ConfigError(f"key '{key}': must be >= 0, got {getattr(cfg, key)}")
    for key in _MIN_ONE:
        if getattr(cfg, key) < 1:
            raise ConfigError(f"key '{key}': must be >= 1, got {getattr(cfg, key)}")
    built = BUILDS[cfg.experiment]
    # averaging_counts spaces the counts in float64, which holds every integer only up to 2**53
    if built.counts and cfg.m_max > 2**53:
        raise ConfigError(f"key 'm_max': must be <= 2**53, got {cfg.m_max}")
    for key, size in _ARRAY_BYTES.items():
        if size(cfg, built) > MAX_ARRAY_BYTES:
            raise ConfigError(f"key '{key}': {getattr(cfg, key)} sets {size(cfg, built)} bytes under "
                              f"{cfg.experiment}, over the limit of 2**25 (32 MiB)")
    if not (0.0 < cfg.contrast < 1.0):
        raise ConfigError(f"key 'contrast': must be in (0, 1), got {cfg.contrast}")
    if 1.0 + cfg.amp_error_systematic <= 0.0:
        raise ConfigError("key 'amp_error_systematic': 1 + value must be > 0")
    if cfg.s_window_s + cfg.r_window_s > cfg.laser_pulse_s:
        raise ConfigError("key 's_window_s': S and R windows exceed laser_pulse_s")
    if built.bounds and getattr(cfg, built.bounds[0]) >= getattr(cfg, built.bounds[1]):
        raise ConfigError("key '{}': must be < key '{}'".format(*built.bounds))
    for key, least in built.least.items():
        if getattr(cfg, key) < least:
            raise ConfigError(f"key '{key}': {cfg.experiment} needs >= {least}, got {getattr(cfg, key)}")
    if built.counts:
        if cfg.m_min > cfg.m_max:
            raise ConfigError("key 'm_min': must be <= m_max")
        # the log-log slope needs two points
        m_list = averaging_counts(cfg)
        if len(m_list) < 2:
            raise ConfigError(f"key 'm_points': resolution needs >= 2 distinct averaging counts, "
                              f"m_min..m_max gives {m_list.tolist()}")
    if cfg.resonator == "wire" and cfg.standoff_m <= cfg.wire_diameter_m / 2.0:
        raise ConfigError("key 'standoff_m': must exceed wire_diameter_m / 2, or spins sit inside the wire")
    if "n_freq" in built.least and (cfg.f_max_hz - cfg.f_min_hz) > (cfg.n_freq - 1) * cfg.odmr_linewidth_hz / 2:
        raise ConfigError("key 'n_freq': step exceeds odmr_linewidth_hz / 2, too few points to fit the dip")
    if "n_freq" in built.least and not np.all(np.diff(frequency_sweep(cfg)) > 0):
        raise ConfigError("key 'f_max_hz': f_min_hz..f_max_hz is too narrow for n_freq distinct frequencies")
    if built.field_map and cfg.resonator == "uniform":
        raise ConfigError("key 'resonator': fieldmap requires cwr, ring, or wire")
    if cfg.finite_pulses and cfg.experiment not in SWEEP_FAMILIES:
        raise ConfigError(
            f"key 'finite_pulses': only the coherence sweeps {tuple(SWEEP_FAMILIES)} "
            f"model finite pulses, not {cfg.experiment!r}"
        )
    if cfg.experiment in SWEEP_FAMILIES:
        # the gaps grow with T, so the sweep's shortest point decides
        seq = SWEEP_FAMILIES[cfg.experiment](cfg.n_repeats, cfg.t_min_s)
        try:
            n_pi = seq.n_pi_pulses
        except ValueError as exc:  # a T so small that its gaps round to 0
            raise ConfigError(f"key 't_min_s': {cfg.t_min_s:g} s: {exc}") from None
        if cfg.finite_pulses:
            try:
                render_finite(seq, cfg.pi_time_s)
            except ValueError as exc:
                raise ConfigError(
                    f"key 'pi_time_s': {cfg.pi_time_s:g} s pulses at t_min_s = {cfg.t_min_s:g} s "
                    f"({n_pi} pi pulses): {exc}"
                ) from None

    warnings = []
    if "n_amplitudes" in built.least and cfg.tau_s > 0:
        ideal = 1.0 / (2.0 * cfg.f_ac_hz)
        if abs(cfg.tau_s - ideal) > 0.01 * ideal:
            warnings.append(
                f"tau_s = {cfg.tau_s:g} s does not match 1/(2 f_ac_hz) = {ideal:g} s; "
                "the AC field is not synchronized"
            )
    if built.bath and cfg.bath_tau_c_s > MAX_TAU_C_RATIO * cfg.t2_echo_target_s and cfg.bath_b_rad_s == 0.0:
        raise ConfigError(
            f"key 'bath_tau_c_s': exceeds {MAX_TAU_C_RATIO:g} * t2_echo_target_s; "
            "echo calibration rejected (quasi-static bath)"
        )
    if cfg.pi_time_s > cfg.t2_star_s / 2.0:
        warnings.append(
            f"pi_time_s = {cfg.pi_time_s:g} s is not small vs t2_star_s = {cfg.t2_star_s:g} s; "
            "pulses overlap significant dephasing"
        )
    return warnings


def frequency_sweep(cfg: RunConfig) -> np.ndarray:
    """The ODMR frequencies: n_freq evenly spaced from f_min_hz to f_max_hz."""
    return np.linspace(cfg.f_min_hz, cfg.f_max_hz, cfg.n_freq)


def averaging_counts(cfg: RunConfig) -> np.ndarray:
    """The resolution block sizes M: m_points log-spaced from m_min to m_max, rounded, distinct."""
    return np.unique(np.round(np.geomspace(cfg.m_min, cfg.m_max, cfg.m_points)).astype(int))


def config_items(cfg: RunConfig) -> list[tuple[str, str]]:
    out = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            s = "true" if v else "false"
        elif isinstance(v, float):
            s = repr(v)
        else:
            s = str(v)
        out.append((f.name, s))
    return out


def format_manifest(cfg: RunConfig, extra: dict[str, str]) -> str:
    lines = [f"{k}={v}" for k, v in config_items(cfg)]
    lines += [f"{k}={v}" for k, v in extra.items()]
    return "\n".join(lines) + "\n"
