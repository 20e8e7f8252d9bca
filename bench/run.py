"""nvsim benchmark: one workload per invocation, every run in a fresh child.

    python3 bench/run.py --workload NAME [--seed S] [--seconds N] [--trace 0|1]

Closed loop, one child at a time, all launched from this process:

1. one unmeasured import (fills the bytecode cache), then SETUP_PROBES
   import-only children for setup_s;
2. workload children until --seconds have passed (at least one); the
   first also reports chi_rel_err;
3. with --trace 1, an `-X importtime` probe and TRACED_RUNS traced
   children whose spans give the per-layer metrics.

Every child checks its outputs against the package's analytic oracles;
a failed check or a nonzero exit counts as failed.  The last stdout line
is one JSON object: correct, attempted, failed and the metrics (the
end-to-end set without tracing, the per-layer set with it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import LAYERS, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED = 20260809
SETUP_PROBES = 2
TRACED_RUNS = 2
DEADLINE_S = 170.0
PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# counts that must repeat exactly across runs at a fixed seed
STABLE_COUNTS = (
    "ensemble.spin_segments",
    "ensemble.spin_ops",
    "readout.shots",
    "filters.chi_calls",
    "filters.filter_weight_calls",
    "fitting.calls",
)


class ChildFailed(Exception):
    pass


class Launcher:
    """Launches children with a pinned environment under one deadline."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.update({k: "1" for k in PINNED_ENV})
        self.launched = 0

    def child(self, *args: str, py_flags: tuple[str, ...] = ()) -> tuple[dict, str]:
        """Run child.py to completion; returns (its JSON result, its stderr)."""
        self.launched += 1
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("no time left before the deadline")
        cmd = [sys.executable, *py_flags, str(HERE / "child.py"), "--launch", repr(time.monotonic()), *args]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise ChildFailed("timed out") from None
        if proc.returncode != 0:
            raise ChildFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr
        except (IndexError, ValueError):
            raise ChildFailed(f"no result line in output: {proc.stdout[-500:]!r}") from None

    def workload(self, name: str, seed: int, chi: bool = False, spans: Path | None = None) -> dict:
        out = self.tmp / f"out{self.launched}"
        args = ["--workload", name, "--seed", str(seed), "--out", str(out)]
        if chi:
            args.append("--chi")
        if spans is not None:
            args += ["--spans", str(spans)]
        try:
            return self.child(*args)[0]
        finally:
            shutil.rmtree(out, ignore_errors=True)


class Tally:
    """Output checks attempted and failed across every child of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, result: dict | None, error: str = "") -> None:
        if result is None:
            self.attempted += 1
            self.failed += 1
            print(f"bench: child failed: {error}", file=sys.stderr)
            return
        for name, ok, detail in result["checks"]:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"bench: check {name} failed: {detail}", file=sys.stderr)


def machine_block() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the scipy packages not nested in another scipy import."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _self_us, cum_us, name = line.split(":", 1)[1].split("|")
        entries.append((len(name) - len(name.lstrip()), int(cum_us), name.strip()))
    total_us = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside scipy) from the root down
    for depth, cum_us, name in reversed(entries):  # the log lists children before parents
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cum_us
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6


def layer_metrics(result: dict, spans_file: Path) -> dict[str, float]:
    """Per-layer numbers of one traced child."""
    s = summarize(spans_file)
    total, calls = s["total_s"], s["calls"]
    counts, busy = result["counts"], result["busy_s"]

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def t_prefix(prefix: str) -> float:
        return sum(v for k, v in total.items() if k.startswith(prefix))

    def per_unit(counter: str, scale: float) -> float:
        return busy.get(counter, 0.0) / counts[counter] * scale if counts.get(counter) else 0.0

    chi_calls = calls.get("filters.chi_from_spectrum", 0)
    m = {
        "ensemble.run_two_branch_s": t("ensemble.run_two_branch"),
        "ensemble.run_two_branch_calls": calls.get("ensemble.run_two_branch", 0),
        "ensemble.spin_segments": counts.get("ensemble.spin_segments", 0),
        "ensemble.ns_per_spin_segment": per_unit("ensemble.spin_segments", 1e9),
        "ensemble.spin_ops": counts.get("ensemble.spin_ops", 0),
        "ensemble.ns_per_spin_op": per_unit("ensemble.spin_ops", 1e9),
        "ensemble.sample_ensemble_s": t("ensemble.sample_ensemble"),
        "noise.calibrate_bath_s": t("noise.calibrate_bath"),
        "cli.build_ensemble_s": t("cli.build_ensemble"),
        "noise.ou_chi_exact_s": t("noise.ou_chi_exact"),
        "noise.ou_chi_exact_calls": calls.get("noise.ou_chi_exact", 0),
        "filters.coherence_analytic_s": t("filters.coherence_analytic"),
        "filters.chi_calls": chi_calls,
        "filters.filter_weight_calls": calls.get("filters.filter_weight", 0),
        "filters.s_per_chi": t("filters.chi_from_spectrum") / chi_calls if chi_calls else 0.0,
        "readout.shot_stream_s": t("readout.simulate_shot_stream"),
        "readout.shots": counts.get("readout.shots", 0),
        "readout.ns_per_shot": per_unit("readout.shots", 1e9),
        "readout.process_s": t_prefix("readout.process_"),
        "fitting.s": s["entry_s"].get("fitting", 0.0),
        "fitting.calls": s["entry_calls"].get("fitting", 0),
        "sequences.build_s": t_prefix("sequences.build_"),
        "config.parse_s": t("config.parse_config"),
        "experiments.write_csv_s": t_prefix("experiments.write_"),
    }
    for layer in LAYERS:
        self_s = s["self_s"].get(layer, 0.0)
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.self_share"] = self_s / result["run_s"]
    return m


def measure(launcher: Launcher, workload: str, seed: int, seconds: float, trace: bool):
    tally = Tally()
    launcher.child("--setup-only")  # unmeasured: fills the bytecode cache
    setup = [launcher.child("--setup-only")[0]["setup_s"] for _ in range(SETUP_PROBES)]
    runs, chi_rel_err = [], None
    t0 = time.monotonic()
    while time.monotonic() - t0 < seconds or tally.attempted == 0:
        try:
            res = launcher.workload(workload, seed, chi=chi_rel_err is None)
        except ChildFailed as exc:
            tally.add(None, str(exc))
            continue
        tally.add(res)
        runs.append(res)
        if res["chi_rel_err"] is not None:
            chi_rel_err = res["chi_rel_err"]
    if not runs or chi_rel_err is None:
        raise ChildFailed("no workload run completed")
    setup += [r["setup_s"] for r in runs]
    run_s = statistics.median(r["run_s"] for r in runs)
    metrics = {
        "run_s": run_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "chi_rel_err": chi_rel_err,
    }
    print(f"bench: {workload} seed={seed}: run_s samples {[round(r['run_s'], 4) for r in runs]}")
    print(f"bench: setup_s samples {[round(x, 4) for x in setup]}")
    if not trace:
        return tally, metrics

    _, log = launcher.child("--setup-only", py_flags=("-X", "importtime"))
    traced = []
    for i in range(TRACED_RUNS):
        spans_file = launcher.tmp / f"spans{i}.json"
        res = launcher.workload(workload, seed, spans=spans_file)
        tally.add(res)
        traced.append((res, layer_metrics(res, spans_file)))
    first = traced[0][1]
    unstable = [k for k in STABLE_COUNTS if any(m[k] != first[k] for _, m in traced)]
    for k in unstable:
        print(f"bench: count {k} differs across runs at seed {seed}: {[m[k] for _, m in traced]}", file=sys.stderr)
    traced_run_s = statistics.median(r["run_s"] for r, _ in traced)
    layers = dict(first)
    layers.update({
        "setup.scipy_import_s": scipy_import_s(log),
        "trace.run_s": traced_run_s,
        "trace.overhead_s": traced_run_s - run_s,
        "trace.unstable_counts": len(unstable),
        "fail_share": tally.failed / tally.attempted,
    })
    return tally, layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "nvsim" / "__init__.py").is_file():
        print(f"bench: the nvsim sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp_base = ROOT / ".bench_tmp"
    tmp = tmp_base / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        tally, metrics = measure(Launcher(tmp), args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_base.rmdir()
        except OSError:
            pass
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if metrics.keys() != units.keys():
        print(f"bench: metrics do not match BENCHMARK.json: {sorted(metrics.keys() ^ units.keys())}", file=sys.stderr)
        return 1
    print("machine: " + json.dumps(machine_block()))
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
