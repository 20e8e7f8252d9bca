#!/usr/bin/env python3
"""Run every shipped experiment config through the CLI, in one process.

The script imports nvsim.cli once and calls cli.main(["run", config,
...]) for each config in turn, so the package is imported once rather
than once per config.  A run that returns non-zero prints "exited N";
an exception that cli.main does not map to an exit code is printed with
its traceback and counted as "exited 1", and the next config still runs.

Outputs go where each config's out_dir says, or with --out DIR into
DIR/<config name>/ (DIR/resolution/ for resolution.cfg).  With
--compare REF_DIR, the outputs under --out are then compared with the
same paths under REF_DIR (an earlier --out): every CSV byte for byte,
and every manifest.txt line by line without the lines that differ
between runs of the same outputs (wall_time_s, threads, out_dir and the
output_* paths), so a result that lives only in a manifest, such as
resolution's loglog_slope, is compared too.  The script lists each file
that differs or is missing on either side and exits 1 if there is any;
for a CSV that differs it also gives the largest relative difference
over its numeric cells, |a - b| over the largest magnitude in the
column, and the cell where it occurs, so a change in the last digits
reads apart from a real one.

    python scripts/run_all_experiments.py --out ref
    python scripts/run_all_experiments.py --out new --compare ref

--threads is passed on to `simulate run`, which only records it in the manifest.
"""

import argparse
import filecmp
import math
import sys
import traceback
from pathlib import Path

from nvsim import cli

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


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def largest_difference(a: Path, b: Path) -> str:
    """Where two CSVs of the same shape differ most: the largest difference of
    two numeric cells relative to the largest magnitude in their column (so a
    value near 0 that moves by a rounding error reads as one), with its line,
    column and both cells."""
    tables = [[line.split(",") for line in p.read_text().splitlines()] for p in (a, b)]
    if len(tables[0]) != len(tables[1]) or tables[0][:1] != tables[1][:1]:
        return "header or line count differs"
    if any(len(x) != len(y) for x, y in zip(*tables)):
        return "cell count differs"
    header, scale = tables[0][0], {}
    for row in tables[0][1:] + tables[1][1:]:
        for column, cell in zip(header, row):
            if (x := _number(cell)) is not None and math.isfinite(x):
                scale[column] = max(scale.get(column, 0.0), abs(x))
    worst, where = -1.0, ""
    for line, (row_a, row_b) in enumerate(zip(tables[0][1:], tables[1][1:]), start=2):
        for column, x, y in zip(header, row_a, row_b):
            if x == y:
                continue
            fx, fy = _number(x), _number(y)
            if fx is None or fy is None:
                return f"non-numeric cell differs at line {line}, column {column}: {x} vs {y}"
            top = scale.get(column, 0.0)
            rel = abs(fx - fy) / top if math.isfinite(fx - fy) and top > 0 else math.inf
            if rel > worst:
                worst, where = rel, f"at line {line}, column {column}: {x} vs {y}"
    return f"largest relative difference {worst:.3g} {where}"


def compare_outputs(out: Path, ref: Path) -> list[str]:
    """Problems found comparing the CSVs and manifests under out with those under ref, one line each."""
    got, want = _outputs(out), _outputs(ref)
    if not any(p.suffix == ".csv" for p in got | want):
        return [f"no CSV under {out} or {ref}"]
    problems = [f"missing from {out}: {p}" for p in sorted(want - got)]
    problems += [f"missing from {ref}: {p}" for p in sorted(got - want)]
    for p in sorted(got & want):
        if not _same(out / p, ref / p):
            detail = f" ({largest_difference(out / p, ref / p)})" if p.suffix == ".csv" else ""
            problems.append(f"differs: {p}{detail}")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--configs", default=None, help="configs directory (default: repo configs/)")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--out", default=None, help="write each config's outputs into OUT/<config name>/")
    ap.add_argument("--compare", default=None, metavar="REF_DIR", help="then compare the CSVs and manifests under OUT with REF_DIR")
    args = ap.parse_args(argv)
    if args.compare is not None and args.out is None:
        ap.error("--compare needs --out")

    cfg_dir = Path(args.configs) if args.configs else Path(__file__).resolve().parent.parent / "configs"
    failures = 0
    for name in CONFIGS:
        run_argv = ["run", str(cfg_dir / name)]
        if args.seed is not None:
            run_argv += ["--seed", str(args.seed)]
        if args.threads is not None:
            run_argv += ["--threads", str(args.threads)]
        if args.out is not None:
            run_argv += ["--out", str(Path(args.out) / Path(name).stem)]
        print(f">>> {name}", flush=True)
        try:
            rc = cli.main(run_argv)
        except Exception:  # a crash of one run, as a fresh process would exit 1 on it
            traceback.print_exc()
            rc = 1
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
