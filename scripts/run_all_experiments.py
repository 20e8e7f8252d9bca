#!/usr/bin/env python3
"""Run every shipped experiment config through the CLI.

Outputs go where each config's out_dir says, or with --out DIR into
DIR/<config name>/ (DIR/resolution/ for resolution.cfg).
"""

import argparse
import subprocess
import sys
from pathlib import Path

CONFIGS = [
    "odmr.cfg",
    "rabi.cfg",
    "fid.cfg",
    "echo.cfg",
    "xy16.cfg",
    "reference_device.cfg",
    "resolution.cfg",
    "fieldmap_cwr.cfg",
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--configs", default=None, help="configs directory (default: repo configs/)")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--out", default=None, help="write each config's outputs into OUT/<config name>/")
    args = ap.parse_args()

    cfg_dir = Path(args.configs) if args.configs else Path(__file__).resolve().parent.parent / "configs"
    failures = 0
    for name in CONFIGS:
        cmd = [sys.executable, "-m", "nvsim.cli", "run", str(cfg_dir / name)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.threads is not None:
            cmd += ["--threads", str(args.threads)]
        if args.out is not None:
            cmd += ["--out", str(Path(args.out) / Path(name).stem)]
        print(f">>> {name}")
        rc = subprocess.call(cmd)
        if rc != 0:
            print(f"    exited {rc}")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
