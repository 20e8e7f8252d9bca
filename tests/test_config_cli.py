"""Config schema, CLI exit codes, reproducibility, manifest completeness."""

import contextlib
import filecmp
import io
import math
import re
import tempfile
import tracemalloc
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvsim import cli, experiments
from nvsim.cli import main
from nvsim.config import (
    ConfigError,
    RunConfig,
    averaging_counts,
    config_items,
    format_manifest,
    parse_config_text,
    validate_config,
)
from nvsim.constants import GAMMA_E
from nvsim.noise import calibrate_bath, ou_chi_exact
from nvsim.sequences import build_xy16, pulse_times

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*argv) -> int:
    return main(list(argv))


def write_cfg(tmp_path, text, name="test.cfg") -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------- parsing

def test_defaults_parse_and_validate():
    cfg = parse_config_text("")
    assert cfg.experiment == "echo"
    assert validate_config(cfg) == []


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="tau_ms"):
        parse_config_text("tau_ms = 1.0\n")


def test_wrong_unit_suffix_is_unknown_key():
    # the schema only knows tau_s; a mis-suffixed key is named in the error
    with pytest.raises(ConfigError, match="'tau_ms'"):
        parse_config_text("experiment = echo\ntau_ms = 0.001\n")


def test_bad_value_type_names_key():
    with pytest.raises(ConfigError, match="'n_spins'"):
        parse_config_text("n_spins = many\n")


def test_negative_t2_star_rejected():
    with pytest.raises(ConfigError, match="t2_star_s"):
        validate_config(parse_config_text("t2_star_s = -150e-9\n"))


def test_unsynchronized_tau_warns_with_both_values():
    # both experiments that run the AC sweep
    for experiment in ("ac_sense", "resolution"):
        cfg = parse_config_text(f"experiment = {experiment}\ntau_s = 1.2e-6\nf_ac_hz = 362e3\n")
        warnings = validate_config(cfg)
        assert len(warnings) == 1
        assert "1.2e-06" in warnings[0] and "f_ac" in warnings[0]


def test_run_prints_the_unsynchronized_warning_once(tmp_path, capsys):
    # config owns the rule; a Python warning from the AC sweep would be a second copy
    cfg = write_cfg(tmp_path, "experiment = ac_sense\ntau_s = 1.5e-6\nn_spins = 500\nshots = 50\nn_repeats = 2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("run", cfg, "--out", str(tmp_path / "out")) == 0
    said = capsys.readouterr().err + "".join(str(w.message) for w in caught)
    assert said.count("not synchronized") == 1
    assert run_cli("validate", cfg) == 0
    assert capsys.readouterr().out.count("not synchronized") == 1


def test_quasistatic_tau_c_rejected_for_calibration():
    with pytest.raises(ConfigError, match="bath_tau_c_s"):
        validate_config(parse_config_text("bath_tau_c_s = 100e-3\nt2_echo_target_s = 9e-6\n"))


def test_comments_and_blank_lines_ok():
    cfg = parse_config_text("# comment\n\nseed = 7  # trailing\n")
    assert cfg.seed == 7


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("seed 7\n")


@given(st.integers(1, 2**31), st.integers(1, 64), st.floats(1e-9, 1e-3))
def test_config_roundtrip_through_manifest(seed, threads, tau):
    cfg = RunConfig(seed=seed, threads=threads, tau_s=tau)
    text = "\n".join(f"{k} = {v}" for k, v in config_items(cfg))
    again = parse_config_text(text)
    assert again == cfg


def test_shipped_configs_validate():
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        text = path.read_text()
        cfg = parse_config_text(text)
        validate_config(cfg)


# ---------------------------------------------------------------- CLI

def test_validate_command_ok(capsys):
    rc = run_cli("validate", str(CONFIG_DIR / "reference_device.cfg"))
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "t2_star_s = 1.5e-07" in out  # resolved defaults listed


def test_validate_command_bad_config(tmp_path, capsys):
    path = write_cfg(tmp_path, "tau_ms = 1.0\n")
    rc = run_cli("validate", path)
    assert rc == 2
    assert "tau_ms" in capsys.readouterr().err


@pytest.mark.parametrize("key", [f.name for f in fields(RunConfig) if f.type == "int"])
def test_validate_rejects_every_negative_count_by_name(tmp_path, capsys, key):
    # a negative seed used to pass validate and then crash the run in SeedSequence
    rc = run_cli("validate", write_cfg(tmp_path, f"{key} = -1\n"))
    assert rc == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_run_rejects_a_negative_seed_override(tmp_path, capsys):
    rc = run_cli("run", str(CONFIG_DIR / "echo.cfg"), "--seed", "-1", "--out", str(tmp_path / "out"))
    assert rc == 2
    assert "'seed'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SMALL_ECHO = "experiment = echo\nn_spins = 256\nn_points = 8\nt_min_s = 1e-6\nt_max_s = 12e-6\n"


@pytest.mark.parametrize("line, flag, value", [("seed = -1", "--seed", "5"), ("threads = 0", "--threads", "2")])
def test_run_flags_mend_what_the_file_gets_wrong(tmp_path, line, flag, value):
    # validation runs once, after the flags, so the file's own value is never checked
    path = write_cfg(tmp_path, SMALL_ECHO + line + "\n")
    assert run_cli("run", path, flag, value, "--out", str(tmp_path / "out")) == 0
    assert f"{flag[2:]}={value}" in (tmp_path / "out" / "manifest.txt").read_text().splitlines()


def test_fieldmap_checks_only_what_a_field_map_reads(tmp_path, capsys):
    # one block per point breaks a resolution run, and a field map never reads it
    path = write_cfg(tmp_path, "experiment = resolution\nblocks_per_point = 1\nresonator = cwr\n")
    assert run_cli("validate", path) == 2
    assert "'blocks_per_point'" in capsys.readouterr().err
    out = tmp_path / "fm"
    assert run_cli("fieldmap", path, "--out", str(out)) == 0
    assert capsys.readouterr().out == f"wrote {out}/fieldmap.csv\n"
    assert sorted(p.name for p in out.iterdir()) == ["fieldmap.csv"]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "line",
    ["t2_star_s = nan", "ac_phase_rad = nan", "b_ac_max_t = inf", "bath_b_rad_s = inf", "pi_time_s = inf",
     "t_seq_s = 1e400", "tau_s = -inf"],
)
def test_non_finite_value_rejected_by_name(tmp_path, capsys, command, line):
    # nan passes every range check (nan <= 0 is false); these ac_sense runs
    # used to exit 1 on NaN populations, and pi_time_s = inf exited 0
    path = write_cfg(tmp_path, f"experiment = ac_sense\n{line}\n")
    rc = run_cli(command, path, "--out", str(tmp_path / "out")) if command == "run" else run_cli(command, path)
    assert rc == 2
    assert f"key '{line.split()[0]}': must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, zero",
    [
        # every shot is the same: the shot-to-shot std delta_s is 0, so eta would be 0
        ("experiment = ac_sense\nshot_noise_v = 0\nlaser_fluct_rel = 0\n", "delta_s"),
        # the slow laser term cancels at zero signal: every block-mean std is 0, and log(0) has no
        # slope; an even n_amplitudes leaves out b = 0, so the AC sweep's delta_s stays > 0
        ("experiment = resolution\nshot_noise_v = 0\nm_min = 2\nm_max = 200\nn_amplitudes = 6\n", "sigma"),
    ],
    ids=["ac_sense", "resolution"],
)
def test_zero_noise_floor_is_numerical_exit(tmp_path, capsys, text, zero):
    path = write_cfg(tmp_path, text + "n_spins = 256\nshots = 20\nn_repeats = 2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("run", path, "--out", str(tmp_path / "out")) == 3
    assert not caught
    assert f"{zero} = 0.0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # no table, so no NaN in one


def test_run_missing_config_exits_2(tmp_path, capsys):
    rc = run_cli("run", str(tmp_path / "nope.cfg"))
    assert rc == 2


def test_run_rabi_pipeline_round_trip(tmp_path):
    path = write_cfg(
        tmp_path,
        "experiment = rabi\nseed = 5\nshots = 1\nn_spins = 256\nn_points = 81\n"
        "rabi_max_s = 400e-9\nt2_star_s = 1.0\n",  # effectively no detuning spread
    )
    rc = run_cli("run", path, "--out", str(tmp_path / "out"))
    assert rc == 0
    fit = (tmp_path / "out" / "fit.csv").read_text()
    t_pi = float([l for l in fit.splitlines() if l.startswith("t_pi_s")][0].split(",")[1])
    assert t_pi == pytest.approx(48e-9, abs=0.5e-9)
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "seed=5" in manifest and "version=" in manifest and "wall_time_s=" in manifest


def test_run_reproducible_and_thread_invariant(tmp_path):
    path = write_cfg(
        tmp_path,
        "experiment = echo\nseed = 9\nn_spins = 2048\nn_points = 8\n"
        "t_min_s = 1e-6\nt_max_s = 12e-6\n",
    )
    for outdir, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        rc = run_cli("run", path, "--out", str(tmp_path / outdir), "--threads", threads)
        assert rc == 0
    for name in ("curve.csv", "fit.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "c" / name, shallow=False)


def test_seed_override_changes_outputs(tmp_path):
    # the Rabi curve averages over sampled static detunings, so it depends on the seed
    path = write_cfg(
        tmp_path,
        "experiment = rabi\nseed = 9\nn_spins = 1024\nn_points = 41\nshots = 1\n",
    )
    assert run_cli("run", path, "--out", str(tmp_path / "a")) == 0
    assert run_cli("run", path, "--out", str(tmp_path / "b"), "--seed", "10") == 0
    assert run_cli("run", path, "--out", str(tmp_path / "c"), "--seed", "9") == 0
    assert not filecmp.cmp(tmp_path / "a" / "curve.csv", tmp_path / "b" / "curve.csv", shallow=False)
    assert filecmp.cmp(tmp_path / "a" / "curve.csv", tmp_path / "c" / "curve.csv", shallow=False)


@pytest.mark.parametrize("config", ["fid.cfg", "echo.cfg", "xy16.cfg", "reference_device.cfg"])
def test_ideal_pulse_outputs_do_not_depend_on_the_seed(tmp_path, config):
    # ideal pulses average the OU phase and the static spread in closed form and
    # sample no spins; ac_sense's shots stay seeded, so only its signal_norm column
    outs = [tmp_path / seed for seed in ("1", "2")]
    for out in outs:
        assert run_cli("run", str(CONFIG_DIR / config), "--seed", out.name, "--out", str(out)) == 0
    if config == "reference_device.cfg":
        columns = [[line.split(",")[3] for line in (out / "curve.csv").read_text().splitlines()] for out in outs]
        assert columns[0][0] == "signal_norm" and columns[0] == columns[1]
        return
    for name in ("curve.csv", "fit.csv"):
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name


@pytest.mark.parametrize("experiment", ["xy16", "ac_sense"])
def test_ideal_pulse_runs_sample_no_spins(tmp_path, monkeypatch, experiment):
    # a billion spins would be 8 GB per array: an ideal-pulse run reads only their spread.
    # Sampling fails at once rather than fill that memory
    def sample_ensemble(*args, **kwargs):
        raise AssertionError("an ideal-pulse run sampled spins")

    monkeypatch.setattr(cli, "sample_ensemble", sample_ensemble)
    path = write_cfg(tmp_path, f"experiment = {experiment}\nn_spins = 1000000000\nn_points = 6\nshots = 200\n")
    tracemalloc.start()
    try:
        got, err, caught = _cli("run", path, "--out", str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got, caught) == (0, []), err
    assert peak < 4 * 2**20


def test_manifest_reflects_every_config_key(tmp_path):
    # perturb each numeric/boolean key: the manifest must change
    base = RunConfig()
    base_manifest = format_manifest(base, {})
    for f in fields(RunConfig):
        v = getattr(base, f.name)
        if f.name == "experiment":
            new = "rabi"
        elif f.name == "resonator":
            new = "cwr"
        elif f.name == "out_dir":
            new = "elsewhere"
        elif isinstance(v, bool):
            new = not v
        elif isinstance(v, int):
            new = v + 1
        elif isinstance(v, float):
            new = v * 1.5 if v != 0.0 else 0.125
        else:
            continue
        changed = format_manifest(replace(base, **{f.name: new}), {})
        assert changed != base_manifest, f.name


def test_fieldmap_command(tmp_path):
    path = write_cfg(tmp_path, "experiment = fieldmap\nresonator = wire\n")
    rc = run_cli("fieldmap", path, "--out", str(tmp_path / "fm"))
    assert rc == 0
    head = (tmp_path / "fm" / "fieldmap.csv").read_text().splitlines()[0]
    assert head == "x_m,y_m,z_m,Bx_T,By_T,Bz_T,Babs_T"


def test_fieldmap_requires_geometry(tmp_path, capsys):
    path = write_cfg(tmp_path, "experiment = fieldmap\nresonator = uniform\n")
    assert run_cli("fieldmap", path) == 2


@pytest.mark.parametrize("command", ["validate", "run", "fieldmap"])
def test_fieldmap_uniform_rejected_by_every_command(tmp_path, capsys, command):
    path = write_cfg(tmp_path, "experiment = fieldmap\n")  # default resonator = uniform
    assert run_cli(command, path) == 2
    assert "key 'resonator': fieldmap requires cwr, ring, or wire" in capsys.readouterr().err


def test_fieldmap_command_needs_geometry_for_any_experiment(tmp_path, capsys):
    path = write_cfg(tmp_path, "experiment = echo\n")
    assert run_cli("fieldmap", path, "--out", str(tmp_path / "fm")) == 2
    assert "fieldmap requires" in capsys.readouterr().err
    path = write_cfg(tmp_path, "experiment = echo\nresonator = wire\n")
    assert run_cli("fieldmap", path, "--out", str(tmp_path / "fm")) == 0


def test_wire_fieldmap_is_nan_inside_the_conductor(tmp_path, capsys):
    # The grid starts at standoff_m / 2 = 7.5 um, inside the wire's 10 um
    # radius.  The field is not defined there, so those points are NaN (four
    # rows at x = 0) and every command still exits 0.
    path = write_cfg(tmp_path, "experiment = fieldmap\nresonator = wire\nstandoff_m = 15e-6\n")
    assert run_cli("validate", path) == 0
    assert run_cli("fieldmap", path, "--out", str(tmp_path / "cmd")) == 0
    assert run_cli("run", path, "--out", str(tmp_path / "run")) == 0
    for d in ("cmd", "run"):
        table = np.loadtxt(tmp_path / d / "fieldmap.csv", delimiter=",", skiprows=1)
        inside = np.hypot(table[:, 0], table[:, 2]) <= 20e-6 / 2
        assert inside.sum() == 4 and not table[inside, 0].any()
        nan_columns = np.array([False, False, False, True, False, True, True])  # Bx_T, Bz_T, Babs_T
        assert np.array_equal(np.isnan(table), inside[:, None] & nan_columns)
    # the one exemption of test_every_config_exits_0_2_or_3's finite-CSV check
    assert _non_finite_cells(tmp_path / "run", parse_config_text(Path(path).read_text())) == []


def test_fieldmap_run_and_command_write_identical_csv(tmp_path):
    cfg = str(CONFIG_DIR / "fieldmap_cwr.cfg")
    assert run_cli("run", cfg, "--out", str(tmp_path / "run")) == 0
    assert run_cli("fieldmap", cfg, "--out", str(tmp_path / "cmd")) == 0
    csv_run = tmp_path / "run" / "fieldmap.csv"
    assert filecmp.cmp(csv_run, tmp_path / "cmd" / "fieldmap.csv", shallow=False)
    rows = csv_run.read_text().splitlines()
    assert rows[0] == "x_m,y_m,z_m,Bx_T,By_T,Bz_T,Babs_T"
    for row in rows[1:]:
        [float(f) for f in row.split(",")]
    manifest = (tmp_path / "run" / "manifest.txt").read_text()
    assert f"output_fieldmap={csv_run}" in manifest


def test_runner_table_covers_every_experiment():
    import nvsim.cli as cli_mod
    from nvsim.config import EXPERIMENTS

    assert sorted(cli_mod._RUNNERS) == sorted(EXPERIMENTS)


def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    import nvsim.cli as cli_mod

    def boom(cfg, out):
        raise cli_mod.NumericalFailure("fit did not converge")

    monkeypatch.setattr(cli_mod, "run_experiment", boom)
    path = write_cfg(tmp_path, "experiment = echo\n")
    rc = run_cli("run", path, "--out", str(tmp_path / "out"))
    assert rc == 3
    assert "fit did not converge" in capsys.readouterr().err


OVERLAP_CFG = "experiment = xy16\nn_repeats = 16\nfinite_pulses = true\nt_min_s = 0.5e-6\n"


def test_validate_rejects_finite_pulse_overlap_in_sweep(tmp_path, capsys):
    # XY16-16 at t_min_s = 0.5 us spaces its 256 pi pulses 2 ns apart vs a 48 ns pi time
    rc = run_cli("validate", write_cfg(tmp_path, OVERLAP_CFG))
    assert rc == 2
    err = capsys.readouterr().err
    assert "pi_time_s" in err and "t_min_s" in err


def test_run_rejects_finite_pulse_overlap_in_sweep(tmp_path, capsys):
    rc = run_cli("run", write_cfg(tmp_path, OVERLAP_CFG), "--out", str(tmp_path / "out"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "pi_time_s" in err
    assert not (tmp_path / "out").exists()


# the closed form the renderer's overlap rule reduces to for the sweep families:
# t_min_s >= 1.5 pi_time_s n_pi (an edge gap tau/2 holds a pi/2 half and a pi half),
# or 0.5 pi_time_s for FID (its two pi/2 halves)
OLD_PI_COUNTS = {"fid": lambda n: 0, "echo": lambda n: 1, "cpmg": lambda n: n,
                 "xy4": lambda n: 4 * n, "xy8": lambda n: 8 * n, "xy16": lambda n: 16 * n}


@pytest.mark.parametrize("n_repeats", [1, 16])
@pytest.mark.parametrize("family", list(OLD_PI_COUNTS))
def test_finite_pulse_overlap_boundary_matches_closed_form(tmp_path, capsys, family, n_repeats):
    n_pi = OLD_PI_COUNTS[family](n_repeats)
    need = 1.5 * 48e-9 * n_pi if n_pi else 0.5 * 48e-9
    base = f"experiment = {family}\nn_repeats = {n_repeats}\nfinite_pulses = true\npi_time_s = 48e-9\n"
    assert run_cli("validate", write_cfg(tmp_path, base + f"t_min_s = {1.01 * need!r}\n")) == 0
    capsys.readouterr()
    assert run_cli("validate", write_cfg(tmp_path, base + f"t_min_s = {0.99 * need!r}\n")) == 2
    err = capsys.readouterr().err
    assert "'pi_time_s'" in err and "t_min_s" in err


def test_calibration_failure_is_numerical_exit(tmp_path, capsys):
    # tau_c = 1e-300 s passes the range checks, but the echo exponent at b = 1
    # underflows to 0, so no finite b calibrates the bath
    path = write_cfg(tmp_path, "experiment = echo\nbath_tau_c_s = 1e-300\nn_spins = 16\n")
    assert run_cli("run", path, "--out", str(tmp_path / "out")) == 3
    assert "bath calibration" in capsys.readouterr().err


def test_rabi_builds_no_bath(tmp_path, monkeypatch):
    # the Rabi curve reads no bath, so a tau_c that no calibration takes changes nothing
    text = (CONFIG_DIR / "rabi.cfg").read_text()
    plain = write_cfg(tmp_path, text, "plain.cfg")
    assert run_cli("run", plain, "--out", str(tmp_path / "plain")) == 0
    assert run_cli("run", write_cfg(tmp_path, text + "bath_tau_c_s = 1e-300\n"), "--out", str(tmp_path / "tau")) == 0
    for name in ("curve.csv", "fit.csv"):
        assert filecmp.cmp(tmp_path / "plain" / name, tmp_path / "tau" / name, shallow=False), name

    def calibrate_bath(*args):
        raise ValueError("a rabi run calibrated a bath")

    monkeypatch.setattr(cli, "calibrate_bath", calibrate_bath)
    assert run_cli("run", plain, "--out", str(tmp_path / "patched")) == 0


def test_coherence_curve_with_no_positive_value_is_numerical_exit(tmp_path, capsys):
    # at this seed every point of the 50-spin FID curve is <= 0: nothing to fit a decay to
    path = write_cfg(tmp_path, "experiment = fid\nt_min_s = 5e-6\nt_max_s = 20e-6\nn_points = 6\nn_spins = 50\n")
    assert run_cli("run", path, "--seed", "46", "--out", str(tmp_path / "out")) == 3
    assert "coherence fit" in capsys.readouterr().err


def test_fit_without_finite_error_bars_is_numerical_exit(tmp_path, capsys):
    # Deterministic: the echo refocuses the static detunings and the ideal engine averages
    # the OU phase exactly, so the curve is exp(-chi) at any seed.  Over 0.5-200 us it is
    # 0.9998 at the first point and at most 4e-16 from the second on: one point that
    # carries the decay for three parameters, so the fit's std errors are NaN
    path = write_cfg(tmp_path, "experiment = echo\nn_spins = 16\nn_points = 6\nt_max_s = 200e-6\n")
    assert run_cli("run", path, "--out", str(tmp_path / "out")) == 3
    assert "coherence fit did not converge" in capsys.readouterr().err
    fit = dict(line.split(",")[:2] for line in (tmp_path / "out" / "fit.csv").read_text().splitlines()[1:])
    assert fit["converged"] == "0"


def test_t2_before_the_first_point_is_censored(tmp_path, capsys):
    # Deterministic, as above: the echo curve exp(-chi) is 0.27 at 10 us and 0.0 from
    # 48 us on at any seed, and the fit puts t2 at 9.0 us, before the first point.
    # The model is 0.0 from the second point on, so J has one nonzero row for
    # three parameters: NaN std errors, converged 0, exit 3. The censoring of a
    # converged fit is test_experiments::test_converged_t2_before_the_first_point_is_censored
    path = write_cfg(
        tmp_path, "experiment = echo\nn_spins = 16\nn_points = 6\nt_min_s = 10e-6\nt_max_s = 200e-6\n"
    )
    assert run_cli("run", path, "--out", str(tmp_path / "out")) == 3
    assert "coherence fit did not converge" in capsys.readouterr().err
    rows = [line.split(",") for line in (tmp_path / "out" / "fit.csv").read_text().splitlines()[1:]]
    fit = {name: (value, err) for name, value, err in rows}
    assert float(fit["t2_s"][0]) < 10e-6
    assert fit["censored"][0] == "1.0"
    assert fit["converged"][0] == "0"
    assert all(fit[name][1] == "nan" for name in ("a", "t2", "p"))


@pytest.mark.parametrize("experiment", ["ac_sense", "resolution"])
def test_zero_ac_slope_is_numerical_exit(tmp_path, capsys, monkeypatch, experiment):
    # No curve makes the least-squares sine fit land on exactly |a k| = 0.0: on a
    # curve of zeros it stops near a = 1e-10.  So the fit's amplitude is set to 0.0
    # here, and with shot noise keeping delta_s > 0 the zero slope alone must exit 3.
    fit_sine = experiments.fit_sine

    def flat_fit(x, y):
        fit = fit_sine(x, y)
        return replace(fit, params=np.concatenate(([0.0], fit.params[1:])))

    monkeypatch.setattr(experiments, "fit_sine", flat_fit)
    path = write_cfg(
        tmp_path,
        f"experiment = {experiment}\nn_spins = 16\nshots = 2\nn_amplitudes = 6\nn_repeats = 2\n"
        "m_min = 2\nm_max = 20\n",
    )
    assert run_cli("run", path, "--out", str(tmp_path / "out")) == 3
    assert re.search(r"AC sweep: .*\|a k\| = 0\.0 and delta_s = [1-9]", capsys.readouterr().err)


def test_ac_sweep_without_signal_is_numerical_exit(tmp_path, capsys):
    # a bath of b = 1e9 rad/s leaves no coherence to sense with: the sine fit's slope
    # |a k| is 2.0 of its std errors from 0 (reference_device: 2,330).  Its amplitude a
    # alone is no test: on a sweep that sees only the sine's linear part, a and k are
    # ill-determined while a k is not (test_zero_noise_floor_is_numerical_exit's
    # resolution sweep has a at 3.2 std errors and a k at 304)
    path = write_cfg(
        tmp_path, "experiment = ac_sense\nbath_b_rad_s = 1e9\nn_spins = 64\nshots = 200\nn_repeats = 2\n"
    )
    assert run_cli("run", path, "--out", str(tmp_path / "out")) == 3
    assert re.search(r"AC sweep: .*within 5 std errors .*: no signal", capsys.readouterr().err)


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("f_max", ["2.77e9", "2.5e9"])
def test_odmr_sweep_must_increase(tmp_path, capsys, command, f_max):
    path = write_cfg(tmp_path, f"experiment = odmr\nf_min_hz = 2.77e9\nf_max_hz = {f_max}\n")
    rc = run_cli(command, path, "--out", str(tmp_path / "out")) if command == "run" else run_cli(command, path)
    assert rc == 2
    assert "'f_max_hz'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_wire_standoff_inside_conductor_rejected(tmp_path, capsys, command):
    # the 20 um wire's radius is 10 um: a 5 um standoff starts the volume inside it
    path = write_cfg(tmp_path, "experiment = rabi\nresonator = wire\nstandoff_m = 5e-6\ndepth_m = 10e-6\n")
    rc = run_cli(command, path, "--out", str(tmp_path / "out")) if command == "run" else run_cli(command, path)
    assert rc == 2
    assert "'standoff_m'" in capsys.readouterr().err


def test_rabi_with_a_resonator_reads_the_field_at_any_depth(tmp_path):
    # a 1 mm deep volume over the cwr: each spin reads its field in closed form
    path = write_cfg(tmp_path, "experiment = rabi\nresonator = cwr\ndepth_m = 1e-3\nn_spins = 2000\n")
    assert run_cli("run", path, "--out", str(tmp_path / "out")) == 0
    assert (tmp_path / "out" / "fit.csv").exists()


@pytest.mark.parametrize("experiment", ["ac_sense", "resolution"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_finite_pulses_rejected_outside_sweeps(tmp_path, capsys, command, experiment):
    # these experiments run ideal pulses only; the key must not be silently ignored
    path = write_cfg(tmp_path, f"experiment = {experiment}\nfinite_pulses = true\n")
    rc = run_cli(command, path, "--out", str(tmp_path / "out")) if command == "run" else run_cli(command, path)
    assert rc == 2
    assert "'finite_pulses'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, key",
    [
        ("experiment = echo\nn_points = 5\n", "n_points"),
        ("experiment = rabi\nn_points = 7\n", "n_points"),
        ("experiment = ac_sense\nn_amplitudes = 5\n", "n_amplitudes"),
        ("experiment = ac_sense\nshots = 1\n", "shots"),
        ("experiment = resolution\nn_amplitudes = 5\n", "n_amplitudes"),
        ("experiment = resolution\nshots = 1\n", "shots"),
        ("experiment = odmr\nn_freq = 20\n", "n_freq"),
    ],
)
def test_validate_rejects_too_few_points_to_fit(tmp_path, capsys, text, key):
    # caught before the run, so `run` never reaches the fit with them
    rc = run_cli("validate", write_cfg(tmp_path, text))
    assert rc == 2
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, key",
    [
        # one block per point: the last block-mean std has no degrees of freedom
        ("blocks_per_point = 1\n", "blocks_per_point"),
        # one distinct M: the log-log slope would be a fit through one point
        ("m_min = 100000\nm_max = 100000\n", "m_points"),
        ("m_points = 1\n", "m_points"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_resolution_needs_two_blocks_and_two_averaging_counts(tmp_path, capsys, command, text, key):
    path = write_cfg(tmp_path, "experiment = resolution\n" + text)
    rc = run_cli(command, path, "--out", str(tmp_path / "out")) if command == "run" else run_cli(command, path)
    assert rc == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_averaging_counts_are_rounded_and_distinct():
    # four log-spaced points between 100 and 101 round to two distinct M, which is enough
    cfg = parse_config_text("experiment = resolution\nm_min = 100\nm_max = 101\nblocks_per_point = 2\n")
    assert averaging_counts(cfg).tolist() == [100, 101]
    assert averaging_counts(parse_config_text("")).tolist() == [100, 1000, 10000, 100000]


def test_run_ac_sense_pipeline_with_shot_dump(tmp_path):
    path = write_cfg(
        tmp_path,
        "experiment = ac_sense\nseed = 3\nshots = 500\nn_spins = 512\n"
        "n_repeats = 1\nn_amplitudes = 9\nb_ac_max_t = 2e-7\ndump_shots = true\n",
    )
    rc = run_cli("run", path, "--out", str(tmp_path / "ac"))
    assert rc == 0
    report = (tmp_path / "ac" / "report.csv").read_text().splitlines()
    assert report[0] == "delta_s_V,max_slope_V_per_T,t_seq_s,eta_T_per_sqrtHz"
    vals = dict(zip(report[0].split(","), (float(x) for x in report[1].split(","))))
    assert vals["eta_T_per_sqrtHz"] > 0
    shots = (tmp_path / "ac" / "shots.csv").read_text().splitlines()
    assert shots[0] == "shot_index,s1_V,r1_V,s2_V,r2_V,S_V"
    assert len(shots) == 1 + 500
    # on every row, S is the window formula bit for bit: each cell is a repr, which round-trips
    for line in shots[1:]:
        s1, r1, s2, r2, s = map(float, line.split(",")[1:])
        assert (s1 - r1) - (s2 - r2) == s, line


def test_reference_device_slope_matches_its_closed_form(tmp_path):
    # The ideal engine is exact in the OU phase, so the mean curve is v0 C W sin(phi)
    # with phi = (2/pi) gamma B T, and its slope at 0 is v0 C (2/pi) gamma T W(T).  The
    # sine fit's relative std errors are 0.04% (a) and 0.08% (k), so 1% is over 10 of
    # them; the shipped config lands at -0.09%.
    assert run_cli("run", str(CONFIG_DIR / "reference_device.cfg"), "--out", str(tmp_path / "rd")) == 0
    report = (tmp_path / "rd" / "report.csv").read_text().splitlines()
    slope = dict(zip(report[0].split(","), map(float, report[1].split(","))))["max_slope_V_per_T"]
    cfg = parse_config_text((CONFIG_DIR / "reference_device.cfg").read_text())
    seq = build_xy16(cfg.n_repeats, 1.0 / (2.0 * cfg.f_ac_hz), readout_phase=math.pi / 2)
    times, total = pulse_times(seq)
    w = math.exp(-ou_chi_exact(times, total, calibrate_bath(cfg.t2_echo_target_s, cfg.bath_tau_c_s)))
    closed_form = cfg.v0_v * cfg.contrast * (2.0 / math.pi) * GAMMA_E * total * w
    assert slope == pytest.approx(closed_form, rel=0.01)


def test_run_resolution_pipeline(tmp_path):
    path = write_cfg(
        tmp_path,
        "experiment = resolution\nseed = 3\nshots = 400\nn_spins = 256\n"
        "n_repeats = 1\nm_min = 10\nm_max = 1000\nm_points = 3\nblocks_per_point = 10\n"
        "n_amplitudes = 9\nb_ac_max_t = 2e-7\n",
    )
    rc = run_cli("run", path, "--out", str(tmp_path / "res"))
    assert rc == 0
    lines = (tmp_path / "res" / "resolution.csv").read_text().splitlines()
    assert lines[0] == "n_avg,elapsed_s,min_field_t,ideal_min_field_t,min_field_stderr_t"
    manifest = (tmp_path / "res" / "manifest.txt").read_text()
    assert "loglog_slope=" in manifest


def test_run_odmr_pipeline(tmp_path):
    path = write_cfg(tmp_path, "experiment = odmr\nn_freq = 801\n")
    rc = run_cli("run", path, "--out", str(tmp_path / "odmr"))
    assert rc == 0
    fit = (tmp_path / "odmr" / "fit.csv").read_text()
    dip = float([l for l in fit.splitlines() if l.startswith("fitted_dip_hz")][0].split(",")[1])
    assert dip == pytest.approx(2.813952e9, abs=1e6)


# ---------------------------------------------------------------- exit-code property

# one small, valid config per experiment
BASES = {
    "odmr": "n_freq = 201\n",
    "rabi": "n_spins = 64\nn_points = 12\nshots = 1\n",
    **{family: "n_spins = 64\nn_points = 6\nn_repeats = 1\n" for family in ("fid", "echo", "cpmg", "xy4", "xy8", "xy16")},
    "ac_sense": "n_spins = 64\nshots = 20\nn_amplitudes = 6\nn_repeats = 1\n",
    "resolution": "n_spins = 64\nshots = 20\nn_amplitudes = 6\nn_repeats = 1\nm_min = 2\nm_max = 200\nblocks_per_point = 2\n",
    "fieldmap": "resonator = wire\n",
}
FLOAT_EDGES = ["0", "-1", "5e-324", "1e-300", "1e300", "nan", "inf", "-inf", "1e400"]
# an int beyond int64 exits 2 when parsed, and n_repeats one past its cap when validated
BEYOND_INT64 = [str(2**63), str(10**30)]
INT_EDGES = {"seed": ["-1", "0", str(2**63 - 1)], "n_repeats": ["-1", "0", "1", "2", "6809"]}
EDGES = {
    f.name: FLOAT_EDGES if f.type == "float" else INT_EDGES.get(f.name, ["-1", "0", "1", "2"]) + BEYOND_INT64
    for f in fields(RunConfig)
    if f.type in ("int", "float")
}
# the scale of an in-range value for the float keys whose default is 0: the calibrated
# bath's b, a synchronized tau_s, and small laser and amplitude errors
ZERO_DEFAULT_SCALES = {
    "bath_b_rad_s": 4.8e5,
    "tau_s": 1.0 / (2.0 * RunConfig.f_ac_hz),
    "laser_fluct_fast_rel": 0.01,
    "laser_drift_step_rel": 1e-4,
    "amp_error_sigma": 0.05,
    "amp_error_systematic": 0.05,
}
# each key drawn with an edge value, and with log2 of the factor on its in-range value
PERTURBATIONS = st.lists(st.sampled_from(sorted(EDGES)), max_size=3, unique=True).flatmap(
    lambda keys: st.tuples(*(
        st.tuples(st.just(key), st.sampled_from(EDGES[key]), st.floats(-1.0, 1.0)) for key in keys
    ))
)


def _in_range(base: RunConfig, key: str, log2_factor: float) -> str:
    """key's value in base, or its scale if that is 0, times 2**log2_factor; a count only grows,
    as the fits need their base's points.  That is in the key's own valid range, though not
    always in the range its pairing with another key allows (t_min_s < t_max_s)."""
    value = getattr(base, key) or ZERO_DEFAULT_SCALES[key]
    if isinstance(value, int):
        return str(round(value * 2.0 ** abs(log2_factor)))
    return repr(value * 2.0**log2_factor)


def _cli(*argv):
    """(exit code, stderr, Python warnings) of one in-process command."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        rc = main(list(argv))
    return rc, err.getvalue(), [f"{w.category.__name__}: {w.message}" for w in caught]


def _non_finite_cells(out: Path, cfg: RunConfig) -> list[str]:
    """Each numeric CSV cell under out that is not finite, as file:line:column=cell, except
    the wire field map's inside the conductor, where hypot(x, z) <= wire_diameter_m / 2."""
    bad = []
    for csv in sorted(out.glob("*.csv")):
        header, *rows = csv.read_text().splitlines()
        table = np.array([row.split(",") for row in rows])
        for j, name in enumerate(header.split(",")):
            try:
                column = table[:, j].astype(float)
            except ValueError:  # fit parameter names
                continue
            rows_bad = np.flatnonzero(~np.isfinite(column))
            if csv.name == "fieldmap.csv" and cfg.resonator == "wire":
                x, z = table[rows_bad][:, [0, 2]].astype(float).T
                rows_bad = rows_bad[np.hypot(x, z) > cfg.wire_diameter_m / 2.0]
            bad += [f"{csv.name}:{i + 2}:{name}={table[i, j]}" for i in rows_bad]
    return bad


def test_every_config_exits_0_2_or_3():
    # up to 3 keys of a small valid config set within their valid ranges, or, in about one
    # example in three, to 0, tiny, huge, negative or non-finite values; an exit 0 writes only
    # finite CSV values, but for the wire field map inside the conductor
    tally = Counter()  # examples per (edge values, exit 0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(BASES)), st.sampled_from((True, False, False)), PERTURBATIONS)
    @example("xy16", True, (("n_repeats", "6809", 0.0),))  # past the cap, which no drawn example reaches
    def check(experiment, edge, perturbed):
        base = f"experiment = {experiment}\n{BASES[experiment]}"
        if edge:
            values = [(key, value) for key, value, _ in perturbed]
        else:
            values = [(key, _in_range(parse_config_text(base), key, u)) for key, _, u in perturbed]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.cfg"
            path.write_text(f"{base}out_dir = {tmp}/out\n" + "".join(f"{key} = {value}\n" for key, value in values))
            ran = {command: _cli(command, str(path)) for command in ("validate", "run")}
            if ran["run"][0] == 0:
                assert not _non_finite_cells(Path(tmp) / "out", parse_config_text(path.read_text()))
        tally[edge, ran["run"][0] == 0] += 1
        for command, (rc, err, caught) in ran.items():
            assert rc in (0, 2, 3), (command, rc)
            assert not caught, (command, caught)
            if rc == 2:
                named = re.findall(r"key '(\w+)'", err)
                assert named and set(named) <= {f.name for f in fields(RunConfig)}, err
        assert not (ran["validate"][0] == 0 and ran["run"][0] == 2), ran["run"][1]

    check()
    # so that the check cannot go quiet: 117 of the 201 examples exit 0, and 96 take edge values
    assert tally[True, True] + tally[False, True] >= 100, tally
    assert tally[True, True] + tally[True, False] >= 30, tally


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("m_max", [str(10**19), str(10**30)])
def test_count_beyond_int64_names_its_key(tmp_path, command, m_max):
    # 10**19 used to leak a RuntimeWarning from numpy's int64 cast and print ok;
    # 10**30 exited 1 on a TypeError from np.geomspace
    path = write_cfg(tmp_path, f"experiment = resolution\nm_max = {m_max}\n")
    got, err, caught = _cli(command, path, *(["--out", str(tmp_path / "out")] if command == "run" else []))
    assert (got, caught) == (2, [])
    assert "key 'm_max'" in err and "64-bit" in err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("m_max", [str(2**53 + 1), str(2**63 - 1)])
def test_count_beyond_float64_integers_names_its_key(tmp_path, command, m_max):
    # 2**63 - 1 used to leak numpy's cast RuntimeWarning and print ok: past 2**53
    # float64 cannot hold each averaging count
    path = write_cfg(tmp_path, f"experiment = resolution\nm_max = {m_max}\n")
    got, err, caught = _cli(command, path, *(["--out", str(tmp_path / "out")] if command == "run" else []))
    assert (got, caught) == (2, [])
    assert "key 'm_max'" in err and "2**53" in err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_resolution_block_count_over_the_cap_names_m_max(tmp_path, command):
    # 2**53 * 20 // 100 smallest-M block means are 14 PB: validate printed ok, and run sampled
    # the ensemble, swept the AC field and then asked numpy for them.  10**9 frequencies or
    # averaging counts are 7.45 GiB, which validate itself asked numpy for.  Spins, shots, points,
    # amplitudes and repeats are capped one past the largest array each sets, within 32 MiB:
    # sample_ensemble's (n_spins, 3) positions, a point's shot row, the sweep, the Rabi curve's
    # (n_points, n_spins) and a finite run's per-pulse structures.  10**8 XY16 repeats were a MemoryError
    # from validate under a 2 GB address-space limit
    cases = [
        (f"experiment = resolution\nm_max = {2**53}\nm_min = 100\nblocks_per_point = 20\n", "m_max", "2**22"),
        ("experiment = odmr\nn_freq = 1000000000\n", "n_freq", "2**20"),
        ("experiment = resolution\nm_points = 1000000000\n", "m_points", "2**20"),
        ("experiment = echo\nfinite_pulses = true\nn_spins = 1398102\n", "n_spins", "<= 1398101"),
        ("experiment = rabi\nn_spins = 1398102\n", "n_spins", "<= 1398101"),
        ("experiment = ac_sense\nshots = 4194305\n", "shots", "<= 4194304"),
        ("experiment = xy16\nn_points = 4194305\n", "n_points", "<= 4194304"),
        ("experiment = ac_sense\nn_amplitudes = 4194305\n", "n_amplitudes", "<= 4194304"),
        ("experiment = rabi\nn_points = 4096\nn_spins = 1025\n", "n_points", "2**22"),
        ("experiment = xy16\nn_repeats = 6809\n", "n_repeats", "<= 6808"),
        ("experiment = xy16\nn_repeats = 100000000\n", "n_repeats", "<= 6808"),
    ]
    for text, key, cap in cases:
        path = write_cfg(tmp_path, text)
        tracemalloc.start()
        try:
            got, err, caught = _cli(command, path, *(["--out", str(tmp_path / "out")] if command == "run" else []))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got, caught) == (2, []), key
        assert f"key '{key}'" in err and cap in err, err
        assert peak < 2**20, key  # no ensemble, no sweep, no block means, no frequencies, no train
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "experiment, text, rc, said",
    [
        # found by the property above; each used to exit 1 or leak a RuntimeWarning
        # an exit 3 names the experiment that was running, as numpy names only the operation
        ("ac_sense", "shot_noise_v = 1e300\n", 3, "numerical failure: ac_sense: overflow"),
        ("rabi", "pi_time_s = 1e-300\n", 3, "numerical failure: rabi: overflow"),
        ("xy8", "t2_star_s = 5e-324\n", 3, "numerical failure: xy8: invalid value"),
        ("cpmg", "bath_b_rad_s = 5e-324\nbath_tau_c_s = 5e-324\n", 3,
         "numerical failure: cpmg: the OU exponent is nan"),
        ("xy16", "t_min_s = 5e-324\n", 2, "key 't_min_s'"),
        ("odmr", "f_min_hz = 0\nf_max_hz = 5e-324\n", 2, "key 'f_max_hz'"),
    ],
    ids=["overflow", "tiny_pi_time", "tiny_t2_star", "nan_ou_exponent", "tiny_t_min", "tiny_frequency_span"],
)
def test_extreme_values_keep_the_exit_code_contract(tmp_path, experiment, text, rc, said):
    path = write_cfg(tmp_path, f"experiment = {experiment}\n{BASES[experiment]}{text}")
    got, err, caught = _cli("run", path, "--out", str(tmp_path / "out"))
    assert (got, caught) == (rc, [])
    assert said in err
