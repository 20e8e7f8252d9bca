"""The experiments' physics and tables: the coherence sweeps' builders,
the ODMR dip positions, the sensitivity and resolution arithmetic, the
resolution's block-mean draw, and the output tables.

The experiments themselves are the runners of `nvsim.cli`, one function
from the validated config to its tables each.  Every output file is a
table `(name, header, columns)` written by `write_table`, so the CLI and
the scripts share one format.

AC synchronization: for symmetric pi-train timing (pulses at the
half-integer multiples of the spacing tau) the test field must have its
zero crossings at the pulse centers, i.e. a cosine at the initial pi/2
pulse.  The default AC phase is therefore +pi/2; the accumulated phase
magnitude for an ideal synchronized train is (2/pi) gamma B0 T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import COS_MISALIGNED, GAMMA_E, GAMMA_E_HZ_PER_T, ZERO_FIELD_SPLITTING_HZ
from .fitting import CurveFitResult
from .sequences import SWEEP_FAMILIES

DEFAULT_AC_PHASE = math.pi / 2.0


def make_coherence_builder(family: str, n_repeats: int = 1):
    """(builder, pi_count) for a total-free-time parametrized sequence."""
    if family not in SWEEP_FAMILIES:
        raise ValueError(f"unknown sequence family {family!r}")
    build = SWEEP_FAMILIES[family]
    builder = lambda T: build(n_repeats, T)
    return builder, builder(1.0).n_pi_pulses  # the count does not depend on T


# ---------------------------------------------------------------- ODMR

def odmr_dip_frequencies(bias_field_t: float) -> np.ndarray:
    """Resonances of the four <111> classes under a field along [111].

    The aligned class shifts by +-gamma B; the three other classes share
    the projection cos = 1/3, so their splitting is one third.
    """
    d = ZERO_FIELD_SPLITTING_HZ
    shift = GAMMA_E_HZ_PER_T * bias_field_t
    return np.array(
        [d - shift, d + shift, d - COS_MISALIGNED * shift, d + COS_MISALIGNED * shift]
    )


# ---------------------------------------------------------------- sensitivity

@dataclass(frozen=True)
class SensitivityReport:
    eta_t_per_sqrt_hz: float
    delta_s_v: float
    max_slope_v_per_t: float
    t_seq_s: float


def sensitivity_from_slope(delta_s: float, max_slope: float, t_seq: float) -> SensitivityReport:
    """Minimum detectable field per root bandwidth from one-shot statistics.

    eta = (delta_s / max_slope) * sqrt(t_seq); the placement of the
    sqrt(t_seq) factor is pinned by the reference arithmetic
    (89.4 uV, 320000 V/T, 1.47 ms -> 10.7 pT/rtHz).
    """
    if delta_s <= 0 or t_seq <= 0:
        raise ValueError("delta_s and t_seq must be > 0")
    if max_slope <= 0:
        raise ValueError("max_slope must be > 0 (zero slope rejected)")
    eta = (delta_s / max_slope) * math.sqrt(t_seq)
    return SensitivityReport(eta, delta_s, max_slope, t_seq)


def synchronized_phase(b0: float, total_free_time: float) -> float:
    """Ideal accumulated phase magnitude for a synchronized pi-train."""
    return (2.0 / math.pi) * GAMMA_E * b0 * total_free_time


# ---------------------------------------------------------------- resolution

def resolution_vs_time(single_shot_std: float, max_slope: float, t_seq: float, n_avg) -> tuple[np.ndarray, np.ndarray]:
    """Ideal averaging curve: min-field(M) = (std/sqrt(M))/slope at M t_seq."""
    n_avg = np.asarray(n_avg, dtype=float)
    if np.any(n_avg < 1):
        raise ValueError("n_avg must be >= 1")
    elapsed = n_avg * t_seq
    min_field = (single_shot_std / np.sqrt(n_avg)) / max_slope
    return elapsed, min_field


# smallest-M blocks per piece of _cut_block_means: about 2^14 cuts, under 1 MB of work arrays
PIECE_BLOCKS = 2**14


def _cut_block_means(sigma: float, sizes, counts, rng, piece: int) -> list[np.ndarray]:
    """Means of the first counts[i] consecutive sizes[i]-shot blocks of an i.i.d. N(0, sigma^2) shot stream.

    The stream is cut at the union of the blocks' edges.  The L shots
    between two cuts sum to one N(0, L sigma^2) draw, so one normal is
    drawn per cut, in cut order, and each block mean is a difference of
    prefix sums at its edges over its size.  The cuts are taken piece
    shots at a time; the prefix sum carries into each piece's first cut
    and each size keeps its prefix at its last edge so far, so a block
    that straddles pieces needs no buffer and the bits do not depend on
    piece.  rng only needs standard_normal(n).
    """
    ends = [m * q for m, q in zip(sizes, counts)]
    means = [np.empty(q) for q in counts]
    last = [0.0] * len(sizes)  # prefix sum at each size's last edge so far
    cut, prefix = 0, 0.0  # the last cut and the prefix sum there
    for lo in range(0, max(ends), piece):
        edges = [np.arange((lo // m + 1) * m, min(lo + piece, end) + 1, m) for m, end in zip(sizes, ends)]
        cuts = np.sort(np.concatenate(edges))
        if not len(cuts):
            continue
        # np.unique, without its hashing pass: keep the first of each run of equal edges
        cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
        sums = np.sqrt(np.diff(cuts, prepend=cut)) * sigma * rng.standard_normal(len(cuts))
        # the carry joins the piece's first sum, so the prefix is summed in one order
        sums[0] += prefix
        np.cumsum(sums, out=sums)
        for i, (m, e) in enumerate(zip(sizes, edges)):
            if len(e):
                at = sums[np.searchsorted(cuts, e)]
                means[i][e[0] // m - 1 : e[-1] // m] = np.diff(at, prepend=last[i]) / m
                last[i] = at[-1]
        cut, prefix = cuts[-1], sums[-1]
    return means


# ---------------------------------------------------------------- CSV output

def _cell(v) -> str:
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def _column_cells(column) -> list[str]:
    """A column's cells, converted once: a column of Python floats (a float
    array's tolist()) by repr alone, any other cell by _cell."""
    values = column.tolist() if isinstance(column, np.ndarray) else column
    if all(type(v) is float for v in values):
        return list(map(repr, values))
    return list(map(_cell, values))


def write_table(path, header: list[str], columns) -> None:
    """One CSV: the header line, then one row per index of the equal-length columns.

    A float cell is written as repr(float(v)), which round-trips; any
    other cell (an int, a name) as str(v).
    """
    cells = [_column_cells(c) for c in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))


def fit_table(fit: CurveFitResult, extra: dict[str, float]):
    """fit.csv: each parameter and its std error, then residual_rms, converged
    (0 or 1) and the derived quantities in extra, each with std error 0.0."""
    rows = ["residual_rms", "converged", *extra]
    values = [*map(float, fit.params), float(fit.residual_rms), int(fit.converged), *map(float, extra.values())]
    errors = [*map(float, fit.stderr)] + [0.0] * len(rows)
    return "fit.csv", ["parameter", "value", "std_error"], [[*fit.param_names, *rows], values, errors]


def report_table(report: SensitivityReport):
    """report.csv: the sensitivity arithmetic, one row."""
    header = ["delta_s_V", "max_slope_V_per_T", "t_seq_s", "eta_T_per_sqrtHz"]
    values = (report.delta_s_v, report.max_slope_v_per_t, report.t_seq_s, report.eta_t_per_sqrt_hz)
    return "report.csv", header, [[v] for v in values]


def shots_table(windows: np.ndarray):
    """shots.csv: the (4, n) windows s1, r1, s2, r2 of readout.shot_stream(..., WINDOWS),
    one row per shot, and their two-branch output S = (s1 - r1) - (s2 - r2)."""
    s1, r1, s2, r2 = windows
    columns = [range(len(s1)), s1, r1, s2, r2, (s1 - r1) - (s2 - r2)]
    return "shots.csv", ["shot_index", "s1_V", "r1_V", "s2_V", "r2_V", "S_V"], columns
