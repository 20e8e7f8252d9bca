"""The output contract: for every experiment, the files a run writes, in
manifest order, with their exact headers and fit.csv's row names.

README's "Outputs" table lists the same files and headers; a change to a
CSV format is a change to OUTPUTS here and to that table.
"""

import contextlib
import io

import pytest

from nvsim.cli import main
from nvsim.config import EXPERIMENTS
from nvsim.sequences import SWEEP_FAMILIES

FIT = "parameter,value,std_error"
REPORT = "delta_s_V,max_slope_V_per_T,t_seq_s,eta_T_per_sqrtHz"
COHERENCE = [("curve.csv", "t_total_s,signal_norm"), ("fit.csv", FIT)]

# experiment -> [(file name, header)] in manifest order
OUTPUTS = {
    "odmr": [("curve.csv", "freq_hz,signal_v"), ("fit.csv", FIT)],
    "rabi": [("curve.csv", "duration_s,population"), ("fit.csv", FIT)],
    **{family: COHERENCE for family in SWEEP_FAMILIES},
    "ac_sense": [
        ("curve.csv", "b_ac_t,signal_v,signal_std_v,signal_norm"),
        ("fit.csv", FIT),
        ("report.csv", REPORT),
        ("shots.csv", "shot_index,s1_V,r1_V,s2_V,r2_V,S_V"),  # with dump_shots = true
    ],
    "resolution": [
        ("resolution.csv", "n_avg,elapsed_s,min_field_t,ideal_min_field_t,min_field_stderr_t"),
        ("report.csv", REPORT),
    ],
    "fieldmap": [("fieldmap.csv", "x_m,y_m,z_m,Bx_T,By_T,Bz_T,Babs_T")],
}

# experiment -> fit.csv's first column: the fit parameters, then its fixed rows
FIT_ROWS = {
    "odmr": "x0 fwhm depth baseline residual_rms converged fitted_dip_hz",
    "rabi": "a tau_d f c residual_rms converged t_pi_s",
    **{family: "a t2 p residual_rms converged t2_s stretch_p censored" for family in SWEEP_FAMILIES},
    "ac_sense": "a k residual_rms converged max_slope_v_per_t",
}

SMALL = "n_spins = 300\nshots = 200\nn_points = 12\n"
EXTRA = {
    "odmr": "n_freq = 201\n",
    "fid": "t_min_s = 10e-9\nt_max_s = 450e-9\n",
    **{family: "n_repeats = 1\nt_max_s = 40e-6\n" for family in ("cpmg", "xy4", "xy8", "xy16")},
    "ac_sense": "n_amplitudes = 9\ndump_shots = true\n",
    "resolution": "n_amplitudes = 9\nm_max = 10000\nm_points = 3\nblocks_per_point = 4\n",
    "fieldmap": "resonator = wire\n",
}


def test_every_experiment_has_a_pinned_output_list():
    assert sorted(OUTPUTS) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_output_files_and_headers(tmp_path, experiment):
    cfg = tmp_path / f"{experiment}.cfg"
    cfg.write_text(f"experiment = {experiment}\n" + SMALL + EXTRA.get(experiment, ""))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(cfg), "--out", str(out)]) == 0
    manifest = [line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines()]
    written = [(key, value) for key, value in manifest if key.startswith("output_")]
    want = OUTPUTS[experiment]
    assert written == [(f"output_{name.split('.')[0]}", str(out / name)) for name, _ in want]
    assert sorted(p.name for p in out.iterdir()) == sorted([name for name, _ in want] + ["manifest.txt"])
    for name, header in want:
        assert (out / name).read_text().split("\n", 1)[0] == header, name
    if experiment in FIT_ROWS:
        rows = (out / "fit.csv").read_text().splitlines()[1:]
        assert " ".join(row.split(",", 1)[0] for row in rows) == FIT_ROWS[experiment]
