"""Repository scripts: the output comparison of run_all_experiments."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_all_experiments.py"
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
