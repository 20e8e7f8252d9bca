"""Repository scripts: the byte-identity comparison of run_all_experiments."""

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
        write(root, "echo/manifest.txt", f"wall_time_s={root.name}\n")  # not a CSV: ignored
    assert run_all.compare_csvs(out, ref) == []
    write(out, "echo/fit.csv", "a\n")
    write(ref, "rabi/curve.csv", "b\n")
    write(ref, "echo/curve.csv", "t,s\n1,3\n")
    assert run_all.compare_csvs(out, ref) == [
        f"missing from {out}: rabi/curve.csv",
        f"missing from {ref}: echo/fit.csv",
        "differs: echo/curve.csv",
    ]


def test_compare_of_empty_directories_fails(tmp_path):
    assert run_all.compare_csvs(tmp_path, tmp_path) == [f"no CSV under {tmp_path} or {tmp_path}"]
