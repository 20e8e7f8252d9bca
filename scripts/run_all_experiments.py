#!/usr/bin/env python3
"""Run every shipped experiment config through the CLI.

Outputs go where each config's out_dir says, or with --out DIR into
DIR/<config name>/ (DIR/resolution/ for resolution.cfg).  With
--compare REF_DIR, the outputs under --out are then compared with the
same paths under REF_DIR (an earlier --out): every CSV byte for byte,
and every manifest.txt line by line without the lines that differ
between runs of the same outputs (wall_time_s, threads, out_dir and the
output_* paths), so a result that lives only in a manifest, such as
resolution's loglog_slope, is compared too.  The script lists each file
that differs or is missing on either side and exits 1 if there is any.

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


# manifest lines that differ between runs of the same outputs
RUN_LINES = ("wall_time_s=", "threads=", "out_dir=", "output_")


def _outputs(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.suffix == ".csv" or p.name == "manifest.txt"}


def _same(a: Path, b: Path) -> bool:
    if a.suffix == ".csv":
        return filecmp.cmp(a, b, shallow=False)
    kept = [[line for line in p.read_text().splitlines() if not line.startswith(RUN_LINES)] for p in (a, b)]
    return kept[0] == kept[1]


def compare_outputs(out: Path, ref: Path) -> list[str]:
    """Problems found comparing the CSVs and manifests under out with those under ref, one line each."""
    got, want = _outputs(out), _outputs(ref)
    if not any(p.suffix == ".csv" for p in got | want):
        return [f"no CSV under {out} or {ref}"]
    problems = [f"missing from {out}: {p}" for p in sorted(want - got)]
    problems += [f"missing from {ref}: {p}" for p in sorted(got - want)]
    problems += [f"differs: {p}" for p in sorted(got & want) if not _same(out / p, ref / p)]
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--configs", default=None, help="configs directory (default: repo configs/)")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--out", default=None, help="write each config's outputs into OUT/<config name>/")
    ap.add_argument("--compare", default=None, metavar="REF_DIR", help="then compare the CSVs and manifests under OUT with REF_DIR")
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
        problems = compare_outputs(Path(args.out), Path(args.compare))
        for line in problems:
            print(line)
        if not problems:
            print(f"{len(_outputs(Path(args.out)))} CSVs and manifests identical to {args.compare}")
        failures += len(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
