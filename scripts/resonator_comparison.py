#!/usr/bin/env python3
"""Lateral drive-field profiles of the three resonator geometries at the
sample standoff, per sqrt(W) of drive power (columns x_m then one column
per geometry)."""

import argparse
from pathlib import Path

import numpy as np

from nvsim.experiments import write_table
from nvsim.fields import ResonatorSpec, drive_field


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--standoff", type=float, default=2e-4)
    ap.add_argument("--extent", type=float, default=1.5e-3)
    ap.add_argument("--out", default="out/resonator_profiles.csv")
    args = ap.parse_args()

    xs = np.linspace(-args.extent, args.extent, 241)
    cols = {"x_m": xs}
    for kind in ("cwr", "ring", "wire"):
        bx, by, bz = drive_field(ResonatorSpec(kind), xs, 0.0, args.standoff)
        cols[f"b_{kind}_t_per_sqrt_w"] = np.hypot(np.hypot(bx, by), bz)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_table(out, list(cols.keys()), list(cols.values()))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
