"""The oracles stay off the run path: `simulate run` never loads
nvsim.oracles, and no run-path module keeps a name that moved there."""

import os
import subprocess
import sys
from pathlib import Path

import nvsim
from nvsim import bloch, ensemble, fields, noise, readout

ROOT = Path(__file__).resolve().parent.parent

MOVED = {
    bloch: ("NORM_TOL", "BlochState", "BRIGHT", "DriveParams", "rotate_ideal", "evolve_free",
            "evolve_driven", "population_ms0"),
    noise: ("ou_step", "sample_ou_segment_integrals", "_ECHO_SERIES", "chi_fid_ou", "chi_echo_ou"),
    noise.OUTransition: ("apply",),
    readout: ("expected_two_branch_mean",),
    fields: ("field_of_wire", "resonance_enhancement"),
    ensemble.DetectionVolume: ("volume_ratio_vs_quoted", "quoted_volume_m3", "geometric_volume_m3"),
}


def test_cli_run_never_loads_the_oracles(tmp_path):
    code = (
        "import sys\n"
        "import nvsim.cli\n"
        f"rc = nvsim.cli.main(['run', {str(ROOT / 'configs' / 'echo.cfg')!r}, '--out', {str(tmp_path)!r}])\n"
        "print(rc, 'nvsim.oracles' in sys.modules)\n"
    )
    src = str(Path(nvsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "curve.csv").is_file()

    for owner, names in MOVED.items():
        assert [n for n in names if hasattr(owner, n)] == [], owner
