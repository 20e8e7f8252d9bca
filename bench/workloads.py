"""The four benchmark workloads, their inputs and their output checks.

Each workload is built from the seed (input generation happens in the
constructor), `run()` is the measured work, and `check()` compares the
outputs with the package's analytic oracles.  Tolerances are Z standard
errors of the Monte Carlo or sampling estimate, or the acceptance-test
tolerance where one applies; none is fitted to a seed.

Every call into nvsim goes through a module attribute (`ensemble.run_two_branch`,
not a name imported here), so a traced run sees it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from nvsim import cli, config, ensemble, experiments, filters, noise, readout, sequences
from nvsim.sequences import Pulse, pulse_times as _pulse_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Tolerance in standard errors: over the few thousand checks of many benchmark
# runs a 5-sigma two-sided bound gives ~1e-3 expected false failures.
Z = 5.0


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _fit_values(out: Path) -> dict[str, float]:
    return {row["parameter"]: float(row["value"]) for row in _read_csv(out / "fit.csv")}


def _manifest(out: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines())


def _chi_exact(seq, bath) -> float:
    return noise.ou_chi_exact(*sequences.pulse_times(seq), bath)


def _chi_rel_err(seq, bath) -> float:
    """|chi_FF - chi_exact| / chi_exact: filter-function quadrature against the time-domain oracle."""
    chi_ff = -math.log(filters.coherence_analytic(seq, bath))
    chi_ex = _chi_exact(seq, bath)
    return abs(chi_ff - chi_ex) / chi_ex


def _check(name: str, ok: bool, detail: str) -> tuple[str, bool, str]:
    return (name, bool(ok), detail)


# ------------------------------------------------------------- CLI workloads


class _CliWorkload:
    """`simulate run CONFIG --seed S --out OUT` in-process, checked from its CSVs."""

    config_path: Path

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.rc = None

    def run(self) -> None:
        argv = ["run", str(self.config_path), "--seed", str(self.seed), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            self.rc = cli.main(argv)

    def check(self, with_chi: bool):
        checks = [_check("exit_code", self.rc == 0, f"rc={self.rc}")]
        if self.rc != 0:
            return checks, None
        cfg = config.parse_config(str(self.config_path))
        cfg.seed = self.seed
        return self._check_outputs(cfg, checks, with_chi)


class AcSense(_CliWorkload):
    """The paper's headline eta run: reference_device.cfg unchanged."""

    config_path = ROOT / "configs" / "reference_device.cfg"

    def _check_outputs(self, cfg, checks, with_chi):
        fit = _fit_values(self.out)
        checks.append(_check("fit_converged", fit["converged"] == 1.0, f"converged={fit['converged']}"))

        bath = cli.build_bath(cfg)
        tau = cfg.tau_s if cfg.tau_s > 0 else 1.0 / (2.0 * cfg.f_ac_hz)
        seq = sequences.build_xy16(cfg.n_repeats, tau, readout_phase=math.pi / 2.0)
        T = sequences.pulse_times(seq)[1]
        w = math.exp(-_chi_exact(seq, bath))
        a = cfg.v0_v * cfg.contrast * w
        k = experiments.synchronized_phase(1.0, T)
        slope_th = abs(a * k)
        ds_th = readout.readout_shot_std(cli.build_readout(cfg))
        # Standard error of the fitted slope |a k|.  Each curve point is v0 C times
        # a mean over n_spins of cos(xi) with Gaussian xi, whose variance is at
        # most (1 + W^4) / 2, plus the shot noise of the point's mean.
        sigma_spin = math.sqrt((1.0 + w**4) / 2.0 / cfg.n_spins)
        sigma_v = math.hypot(cfg.v0_v * cfg.contrast * sigma_spin, ds_th / math.sqrt(cfg.shots))
        b = np.linspace(-cfg.b_ac_max_t, cfg.b_ac_max_t, cfg.n_amplitudes)
        jac = np.column_stack((np.sin(k * b), a * b * np.cos(k * b)))
        cov = sigma_v**2 * np.linalg.inv(jac.T @ jac)
        g = np.array([k, a])
        se_slope = math.sqrt(float(g @ cov @ g))
        slope = fit["max_slope_v_per_t"]
        checks.append(_check(
            "max_slope",
            abs(slope - slope_th) <= Z * se_slope,
            f"{slope:.6g} V/T vs analytic {slope_th:.6g} +- {Z * se_slope:.3g}",
        ))

        ds = float(_read_csv(self.out / "report.csv")[0]["delta_s_V"])
        tol = Z / math.sqrt(2.0 * (cfg.shots - 1))  # relative standard error of a sample std
        checks.append(_check(
            "delta_s",
            abs(ds / ds_th - 1.0) <= tol,
            f"{ds:.6g} V vs readout_shot_std {ds_th:.6g} (rel tol {tol:.3g})",
        ))
        return checks, (_chi_rel_err(seq, bath) if with_chi else None)


class FiniteXy16(_CliWorkload):
    """XY16-4 coherence sweep with finite rectangular pulses and 2 threads."""

    config_path = HERE / "finite_xy16.cfg"

    def _check_outputs(self, cfg, checks, with_chi):
        fit = _fit_values(self.out)
        checks.append(_check("fit_converged", fit["converged"] == 1.0, f"converged={fit['converged']}"))

        bath = cli.build_bath(cfg)
        builder, n_pi = experiments.make_coherence_builder("xy16", cfg.n_repeats)

        def w_ideal(T):
            return math.exp(-_chi_exact(builder(T), bath))

        # The ideal-pulse oracle puts every pulse at an instant; the finite
        # train spends t_pulse (n_pi pi pulses plus two pi/2 halves) driven, so
        # the oracle is uncertain by the change of W over t_pulse.  Each point
        # is a mean over n_spins values in [-1, 1], so its std error is <= 1/sqrt(n).
        t_pulse = cfg.pi_time_s * (n_pi + 1)
        se = 1.0 / math.sqrt(cfg.n_spins)
        worst = 0.0
        ok = True
        for row in _read_csv(self.out / "curve.csv"):
            T, s = float(row["t_total_s"]), float(row["signal_norm"])
            w = w_ideal(T)
            allowance = max(abs(w_ideal(T + t_pulse) - w), abs(w_ideal(max(T - t_pulse, 0.0)) - w))
            dev = abs(s - w)
            ok = ok and dev <= Z * se + allowance
            worst = max(worst, dev)
        checks.append(_check(
            "signal_vs_ideal_w", ok, f"max |signal - W| = {worst:.4f} (tol {Z * se:.3g} + pulse allowance)"
        ))
        if not with_chi:
            return checks, None
        return checks, _chi_rel_err(builder(cfg.t_max_s), bath)


class Resolution(_CliWorkload):
    """resolution.cfg unchanged: a 2 M-shot stream after a 4000-spin AC sweep."""

    config_path = ROOT / "configs" / "resolution.cfg"

    def _check_outputs(self, cfg, checks, with_chi):
        rows = _read_csv(self.out / "resolution.csv")
        n_avg = np.array([float(r["n_avg"]) for r in rows])
        x = np.log([float(r["elapsed_s"]) for r in rows])
        ratio = np.array([float(r["min_field_t"]) / float(r["ideal_min_field_t"]) for r in rows])
        # Each min-field point is the std of k = total // M block means; its log
        # has variance 1 / (2 (k - 1)).  The slope is an unweighted LS fit in x.
        k = (n_avg.max() * cfg.blocks_per_point) // n_avg
        var = 1.0 / (2.0 * (k - 1.0))
        dx = x - x.mean()
        se_slope = math.sqrt(float(np.sum(dx**2 * var))) / float(np.sum(dx**2))
        slope = float(_manifest(self.out)["loglog_slope"])
        checks.append(_check(
            "loglog_slope", abs(slope + 0.5) <= Z * se_slope, f"{slope:.4f} vs -0.5 +- {Z * se_slope:.3g}"
        ))
        tol = Z * math.sqrt(var[-1])
        checks.append(_check(
            "endpoint_vs_ideal",
            abs(math.log(ratio[-1])) <= tol,
            f"min_field / ideal = {ratio[-1]:.4f} (|log| tol {tol:.3g})",
        ))
        if not with_chi:
            return checks, None
        tau = cfg.tau_s if cfg.tau_s > 0 else 1.0 / (2.0 * cfg.f_ac_hz)
        seq = sequences.build_xy16(cfg.n_repeats, tau, readout_phase=math.pi / 2.0)
        return checks, _chi_rel_err(seq, cli.build_bath(cfg))


# ------------------------------------------------------------- oracle_chi


class OracleChi:
    """Acceptance-6 cases: Monte Carlo vs filter-function vs exact chi.

    XY16-16 at 2 T2 stays in: there the filter-function chi misses its
    promised rtol by ~300x, and chi_rel_err records it.
    """

    CASES = (("echo", 1), ("xy16", 1), ("xy16", 4), ("xy16", 16))
    T_OVER_T2 = (0.15, 1.075, 2.0)
    N_SPINS = 10000
    RMS_TOL = 0.02  # acceptance 6

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.bath = noise.calibrate_bath(9e-6, 10e-6)
        self.points = []
        for family, n_rep in self.CASES:
            builder, _ = experiments.make_coherence_builder(family, n_rep)
            t2 = brentq(lambda T: self._chi(builder(T)) - 1.0, 1e-7, 5e-3, rtol=1e-9)
            self.points += [(family, n_rep, i, f * t2) for i, f in enumerate(self.T_OVER_T2)]
        self.results = []

    def _chi(self, seq) -> float:
        return noise.ou_chi_exact(*sequences.pulse_times(seq), self.bath)

    def run(self) -> None:
        model = ensemble.NoiseModel(noise.QuasiStaticSpread(0.0), self.bath)
        ens = ensemble.sample_ensemble(
            ensemble.DetectionVolume(), None, model, self.N_SPINS, self.seed, rabi_angular_freq=math.pi / 48e-9
        )
        for family, n_rep, i, T in self.points:
            seq = experiments.make_coherence_builder(family, n_rep)[0](T)
            p_plus, p_minus = ensemble.run_two_branch(seq, ens, self.bath, noise_seed=61 + 13 * i)
            w_ff = filters.coherence_analytic(seq, self.bath)
            chi_ex = self._chi(seq)
            self.results.append((family, n_rep, p_plus - p_minus, w_ff, chi_ex))

    def check(self, with_chi: bool):
        checks = []
        for family, n_rep in self.CASES:
            diffs = [mc - ff for f, n, mc, ff, _ in self.results if (f, n) == (family, n_rep)]
            rms = math.sqrt(sum(d * d for d in diffs) / len(diffs))
            checks.append(_check(f"rms_mc_vs_ff_{family}{n_rep}", rms <= self.RMS_TOL, f"RMS {rms:.4f}"))
        chi_err = max(abs(-math.log(ff) - ex) / ex for *_, ff, ex in self.results)
        return checks, chi_err


WORKLOADS = {
    "ac_sense": AcSense,
    "finite_xy16": FiniteXy16,
    "oracle_chi": OracleChi,
    "resolution": Resolution,
}


# ------------------------------------------------------------- counters


def _two_branch_work(seq, ensemble, bath, b_ac=None, *, pulse_width=None, **_):
    """Ideal pulses: spin x segment count.  Finite pulses: per-spin rotation ops."""
    n = ensemble.n_spins
    if pulse_width is None:
        return "ensemble.spin_segments", n * (len(_pulse_times(seq)[0]) + 1)
    pulses = runs = 0
    in_delay = False
    for e in seq.elements:
        if isinstance(e, Pulse):
            pulses += 1
            in_delay = False
        elif not in_delay:
            runs += 1
            in_delay = True
    # the final readout pulse is applied once per branch
    return "ensemble.spin_ops", n * (pulses + runs + 1)


def _shot_work(p0_plus, p0_minus, model, n_shots, rng):
    return "readout.shots", int(n_shots)


WORK_HOOKS = {
    "ensemble.run_two_branch": _two_branch_work,
    "readout.simulate_shot_stream": _shot_work,
}
