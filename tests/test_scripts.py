"""Repository scripts: run_all_experiments' in-process runs and its output comparison."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import nvsim

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_all_experiments.py"
spec = importlib.util.spec_from_file_location("run_all_experiments", SCRIPT)
run_all = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_all)


def write(root, rel, text):
    p = root / rel
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text)


def test_compare_lists_every_difference(tmp_path):
    out, ref = tmp_path / "out", tmp_path / "ref"
    for root in (out, ref):
        write(root, "echo/curve.csv", "t,s\n1,2\n")
        # the lines that differ between runs of the same outputs are dropped
        write(root, "echo/manifest.txt", f"seed=1\nthreads={1 if root is out else 2}\nout_dir={root}\nwall_time_s={root.name}\n"
              f"output_curve={root}/echo/curve.csv\n")
    assert run_all.compare_outputs(out, ref) == []
    write(out, "echo/fit.csv", "a\n")
    write(ref, "rabi/curve.csv", "b\n")
    write(ref, "echo/curve.csv", "t,s\n1,3\n")
    assert run_all.compare_outputs(out, ref) == [
        f"missing from {out}: rabi/curve.csv",
        f"missing from {ref}: echo/fit.csv",
        "differs: echo/curve.csv (largest relative difference 0.333 at line 2, column s: 2 vs 3)",
    ]


def test_compare_reads_results_that_live_only_in_a_manifest(tmp_path):
    out, ref = tmp_path / "out", tmp_path / "ref"
    for root, slope in ((out, "-0.5384752134633399"), (ref, "-0.5384752134633398")):
        write(root, "resolution/resolution.csv", "n_avg\n100.0\n")
        write(root, "resolution/manifest.txt", f"seed=1\nwall_time_s=0.04\nloglog_slope={slope}\n")
    write(out, "rabi/manifest.txt", "seed=1\n")
    assert run_all.compare_outputs(out, ref) == [
        f"missing from {ref}: rabi/manifest.txt",
        "differs: resolution/manifest.txt",
    ]


def test_compare_of_empty_directories_fails(tmp_path):
    assert run_all.compare_outputs(tmp_path, tmp_path) == [f"no CSV under {tmp_path} or {tmp_path}"]


def test_compare_reports_the_largest_relative_difference_and_its_cell(tmp_path):
    out, ref = tmp_path / "out", tmp_path / "ref"
    write(out, "fid/curve.csv", "t,s,name\n1.0,0.5,a\n2.0,-0.25,b\n3.0,1e-300,c\n")
    write(ref, "fid/curve.csv", "t,s,name\n1.0,0.5000000000000001,a\n2.0,-0.5,b\n3.0,1e-300,c\n")
    assert run_all.largest_difference(out / "fid/curve.csv", ref / "fid/curve.csv") == (
        "largest relative difference 0.5 at line 3, column s: -0.25 vs -0.5"
    )
    # a last-digit change reads as such
    write(ref, "fid/curve.csv", "t,s,name\n1.0,0.5000000000000001,a\n2.0,-0.25,b\n3.0,1e-300,c\n")
    assert run_all.compare_outputs(out, ref) == [
        "differs: fid/curve.csv (largest relative difference 2.22e-16 at line 2, column s: 0.5 vs 0.5000000000000001)"
    ]
    # cells that are not numbers, or a table of another shape, are named instead
    write(ref, "fid/curve.csv", "t,s,name\n1.0,0.5,a\n2.0,-0.25,x\n3.0,1e-300,c\n")
    assert run_all.largest_difference(out / "fid/curve.csv", ref / "fid/curve.csv") == (
        "non-numeric cell differs at line 3, column name: b vs x"
    )
    write(ref, "fid/curve.csv", "t,s,name\n1.0,0.5,a\n")
    assert run_all.largest_difference(out / "fid/curve.csv", ref / "fid/curve.csv") == "header or line count differs"


def test_configs_run_in_one_process_write_what_fresh_processes_write(tmp_path, monkeypatch):
    # both configs draw readout shots; run one after the other in one process, in either
    # order, each writes what one fresh `python -m nvsim.cli run` of it writes, so no
    # state of one run reaches the next
    pair = ["reference_device.cfg", "resolution.cfg"]
    src = str(Path(nvsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = [
        subprocess.Popen([sys.executable, "-m", "nvsim.cli", "run", str(ROOT / "configs" / name),
                          "--out", str(tmp_path / "fresh" / Path(name).stem)], env=env, stdout=subprocess.DEVNULL)
        for name in pair
    ]
    assert [p.wait(timeout=120) for p in fresh] == [0, 0]
    for order in (pair, pair[::-1]):
        monkeypatch.setattr(run_all, "CONFIGS", order)
        out = tmp_path / "-".join(Path(name).stem for name in order)
        assert run_all.main(["--out", str(out)]) == 0
        assert run_all.compare_outputs(out, tmp_path / "fresh") == []


def test_an_unmapped_exception_is_exit_1_and_the_next_config_still_runs(monkeypatch, capsys):
    ran = []

    def main(argv):
        ran.append(Path(argv[1]).name)
        if ran[-1] == "rabi.cfg":
            raise RuntimeError("a crash cli.main does not map")
        return 3 if ran[-1] == "xy16.cfg" else 0

    monkeypatch.setattr(run_all.cli, "main", main)
    assert run_all.main([]) == 1
    out, err = capsys.readouterr()
    assert ran == run_all.CONFIGS
    assert ">>> rabi.cfg\n    exited 1\n>>> fid.cfg\n" in out
    assert ">>> xy16.cfg\n    exited 3\n" in out and out.count("exited") == 2
    assert "Traceback" in err and "RuntimeError: a crash cli.main does not map" in err
