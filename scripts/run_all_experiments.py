#!/usr/bin/env python3
"""Run every shipped experiment config through the CLI.

Outputs go where each config's out_dir says, or with --out DIR into
DIR/<config name>/ (DIR/resolution/ for resolution.cfg).  With
--compare REF_DIR, every CSV under --out is then compared byte for byte
with the same path under REF_DIR (an earlier --out); the script lists
each CSV that differs or is missing on either side and exits 1 if there
is any.  Manifests are not compared: they hold wall times.

    python scripts/run_all_experiments.py --threads 1 --out ref
    python scripts/run_all_experiments.py --threads 2 --out new --compare ref
"""

import argparse
import filecmp
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


def compare_csvs(out: Path, ref: Path) -> list[str]:
    """Problems found comparing the CSVs under out with those under ref, one line each."""
    got = {p.relative_to(out) for p in out.rglob("*.csv")}
    want = {p.relative_to(ref) for p in ref.rglob("*.csv")}
    if not got | want:
        return [f"no CSV under {out} or {ref}"]
    problems = [f"missing from {out}: {p}" for p in sorted(want - got)]
    problems += [f"missing from {ref}: {p}" for p in sorted(got - want)]
    problems += [f"differs: {p}" for p in sorted(got & want) if not filecmp.cmp(out / p, ref / p, shallow=False)]
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--configs", default=None, help="configs directory (default: repo configs/)")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--out", default=None, help="write each config's outputs into OUT/<config name>/")
    ap.add_argument("--compare", default=None, metavar="REF_DIR", help="then cmp every CSV under OUT with REF_DIR")
    args = ap.parse_args()
    if args.compare is not None and args.out is None:
        ap.error("--compare needs --out")

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
    if args.compare is not None:
        problems = compare_csvs(Path(args.out), Path(args.compare))
        for line in problems:
            print(line)
        if not problems:
            n = len(list(Path(args.out).rglob("*.csv")))
            print(f"{n} CSVs identical to {args.compare}")
        failures += len(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
