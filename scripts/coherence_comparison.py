#!/usr/bin/env python3
"""Decay curves for echo and XY16-N under the calibrated bath: the ideal-pulse
engine's signal, which averages the OU phase exactly (exp(-chi) with
noise.ou_chi_exact, no draw and no sampled spin), next to the
filter-function quadrature, one CSV per sequence (columns t_total_s,
signal_mc for the engine, signal_analytic)."""

import argparse
from pathlib import Path

import numpy as np

from nvsim.ensemble import run_two_branch
from nvsim.experiments import make_coherence_builder, write_table
from nvsim.filters import coherence_analytic
from nvsim.noise import QuasiStaticSpread, calibrate_bath


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t2-echo", type=float, default=9e-6)
    ap.add_argument("--tau-c", type=float, default=10e-6)
    ap.add_argument("--out", default="out/coherence")
    args = ap.parse_args()

    bath = calibrate_bath(args.t2_echo, args.tau_c)
    no_spread = QuasiStaticSpread(0.0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cases = [("echo", 1, 20e-6), ("xy16", 1, 120e-6), ("xy16", 4, 300e-6), ("xy16", 16, 700e-6)]
    for family, n_rep, t_max in cases:
        builder, n_pi = make_coherence_builder(family, n_rep)
        sweep = np.linspace(t_max / 30, t_max, 24)
        mc = np.empty_like(sweep)
        an = np.empty_like(sweep)
        for i, T in enumerate(sweep):
            seq = builder(float(T))
            p_plus, p_minus = run_two_branch(seq, no_spread, bath)
            mc[i] = p_plus - p_minus
            an[i] = coherence_analytic(seq, bath)
        label = f"{family}-{n_rep}" if family != "echo" else "echo"
        path = out / f"{label}.csv"
        write_table(path, ["t_total_s", "signal_mc", "signal_analytic"], [sweep, mc, an])
        print(f"wrote {path} ({n_pi} pi pulses)")


if __name__ == "__main__":
    main()
