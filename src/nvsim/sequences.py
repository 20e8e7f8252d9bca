"""Pulse-sequence representation and decoupling-sequence builders.

A sequence is a train of pulses (phase, angle) with a free-evolution gap
between each consecutive pair, held as three arrays; its `elements` render
them as Pulse and Delay objects, one Delay per gap.  Builders produce Hahn
echo, CPMG-n, XY4/XY8/XY16-N and free induction decay with symmetric
timing: tau/2 before the first pi pulse, tau between pi pulses, tau/2
after the last one.

Readout convention (locked by golden tests): the first pulse is
(pi/2, phase 0).  The final pulse has angle pi/2, and readout_angle is
the one rule for its phase: readout_phase + pi in the +1 branch,
readout_phase in the -1 branch.  A built sequence ends with the +1
branch's pulse; the engine applies either branch's angle itself.
With readout_phase = 0 the +1 branch of a noiseless sequence returns
the bright state (p0 = 1); readout_phase = pi/2 selects the quadrature
used for AC sensing, where the branch difference is odd in the
accumulated phase.

Only this module reads a sequence's timing: pi_train takes the
ideal-pulse view, its pi times the running sum of the gaps, and
render_finite the finite pulses, by the one overlap rule;
toggling_segments gives segment bounds and toggling signs, and
toggling_moment their static coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

PH_X = 0.0
PH_Y = math.pi / 2.0

# XY-16 pattern: the eight-pulse XY block followed by its phase-inverted copy.
XY8_PHASES = (PH_X, PH_Y, PH_X, PH_Y, PH_Y, PH_X, PH_Y, PH_X)
XY4_PHASES = XY8_PHASES[:4]
XY16_PHASES = XY8_PHASES + tuple((p + math.pi) % (2.0 * math.pi) for p in XY8_PHASES)


@dataclass(frozen=True)
class Pulse:
    phase: float
    angle: float

    def __post_init__(self):
        if not (0.0 < self.angle <= 2.0 * math.pi):
            raise ValueError(f"pulse angle {self.angle} outside (0, 2*pi]")


@dataclass(frozen=True)
class Delay:
    tau: float

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("delay must be >= 0")


@dataclass(frozen=True, eq=False)
class PulseSequence:
    """Immutable pulse train ending with its +1 readout branch's pulse: pulse k has phase phases[k]
    and nominal angle angles[k], and gaps[k] is the free time before pulse k + 1, in read-only float64
    copies.  ValueError unless there is one gap per pair, each angle is in (0, 2 pi] and no gap < 0."""

    phases: np.ndarray
    angles: np.ndarray
    gaps: np.ndarray
    label: str
    readout_phase: float = 0.0

    def __post_init__(self):
        phases, angles, gaps = arrays = [np.array(a, dtype=float) for a in (self.phases, self.angles, self.gaps)]
        if not (phases.ndim == angles.ndim == gaps.ndim == 1 and phases.size == angles.size == gaps.size + 1):
            raise ValueError("the sequence must start with a pulse and must end with its readout pulse, not a delay")
        outside = ~((angles > 0.0) & (angles <= 2.0 * math.pi))
        if outside.any():
            raise ValueError(f"pulse angle {angles[outside][0]} outside (0, 2*pi]")
        if np.any(gaps < 0):
            raise ValueError("delay must be >= 0")
        for name, a in zip(("phases", "angles", "gaps"), arrays):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_pi_pulses(self) -> int:
        return len(pi_train(self).times)

    @property
    def elements(self) -> tuple:
        """The train as Pulse and Delay objects, one Delay per gap, rendered from the arrays."""
        out = [None] * (2 * self.phases.size - 1)
        out[::2] = map(Pulse, self.phases.tolist(), self.angles.tolist())
        out[1::2] = map(Delay, self.gaps.tolist())
        return tuple(out)


def readout_angle(readout_phase: float, sign: int) -> float:
    """Phase of the final pi/2 pulse in readout branch sign (+1 or -1),
    not reduced mod 2 pi: readout_phase + pi for +1, readout_phase for -1."""
    return readout_phase + (math.pi if sign > 0 else 0.0)


def _final_phase(readout_phase: float) -> float:
    return readout_angle(readout_phase, +1) % (2.0 * math.pi)


def _assemble(pi_phases, tau, label, readout_phase) -> PulseSequence:
    # (pi/2)_x, tau/2, the pi pulses tau apart, tau/2, the readout pulse
    phases = np.concatenate(([PH_X], pi_phases, [_final_phase(readout_phase)]))
    angles = np.full(phases.size, math.pi)
    angles[[0, -1]] = math.pi / 2.0
    gaps = np.full(phases.size - 1, tau, dtype=float)
    gaps[[0, -1]] = tau / 2.0
    return PulseSequence(phases, angles, gaps, label, readout_phase)


def build_fid(tau_total: float, *, readout_phase: float = 0.0) -> PulseSequence:
    """Free induction decay: (pi/2) - tau - (pi/2), no refocusing pulses."""
    if tau_total < 0:
        raise ValueError("tau_total must be >= 0")
    return PulseSequence((PH_X, _final_phase(readout_phase)), (math.pi / 2.0,) * 2, (tau_total,), "fid", readout_phase)


def build_hahn_echo(tau_total: float, *, readout_phase: float = 0.0) -> PulseSequence:
    """Spin echo: (pi/2)x - tau/2 - (pi)y - tau/2 - (pi/2), tau_total total free time."""
    if tau_total <= 0:
        raise ValueError("tau_total must be > 0")
    return _assemble((PH_Y,), tau_total, "echo", readout_phase)


def build_cpmg(n: int, tau: float, *, readout_phase: float = 0.0) -> PulseSequence:
    """CPMG-n: n pi pulses, all phase y, symmetric timing with spacing tau."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _assemble(np.full(n, PH_Y), tau, f"cpmg-{n}", readout_phase)


def _build_xy(phases, n_repeats, tau, label, readout_phase):
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    return _assemble(np.tile(phases, n_repeats), tau, label, readout_phase)


def build_xy4(n_repeats: int, tau: float, *, readout_phase: float = 0.0):
    return _build_xy(XY4_PHASES, n_repeats, tau, f"xy4-{n_repeats}", readout_phase)


def build_xy8(n_repeats: int, tau: float, *, readout_phase: float = 0.0):
    return _build_xy(XY8_PHASES, n_repeats, tau, f"xy8-{n_repeats}", readout_phase)


def build_xy16(n_repeats: int, tau: float, *, readout_phase: float = 0.0):
    return _build_xy(XY16_PHASES, n_repeats, tau, f"xy16-{n_repeats}", readout_phase)


# Coherence-sweep families, parametrized by the total free time T:
# family -> build(n_repeats, T)
SWEEP_FAMILIES = {
    "fid": lambda n, T: build_fid(T),
    "echo": lambda n, T: build_hahn_echo(T),
    "cpmg": lambda n, T: build_cpmg(n, T / n),
    "xy4": lambda n, T: build_xy4(n, T / (4 * n)),
    "xy8": lambda n, T: build_xy8(n, T / (8 * n)),
    "xy16": lambda n, T: build_xy16(n, T / (16 * n)),
}


class PiTrain(NamedTuple):
    """Ideal-pulse view of a sequence: pi-pulse center times and phases, total free time."""

    times: np.ndarray
    phases: np.ndarray
    total_t: float


def pi_train(seq: PulseSequence) -> PiTrain:
    """Parse seq into its pi pulses, each at the instant the gaps reach.

    The ideal view reads the first pulse as the (pi/2)_x preparation, the
    last as the +1 branch's readout pulse, and every pulse in
    between as an instantaneous pi toggle.  Raises ValueError for any pulse
    it would drop or misread, and for pi times not strictly increasing.
    The instants are np.cumsum of the gaps, a running sum in order.
    """
    phases, angles = seq.phases, seq.angles
    first, last = (phases[0], angles[0]), (phases[-1], angles[-1])
    if phases.size < 2 or first != (PH_X, math.pi / 2.0) or last != (_final_phase(seq.readout_phase), math.pi / 2.0):
        raise ValueError(f"{seq.label}: the ideal-pulse view needs (pi/2)_x first and the readout pulse last")
    misread = np.flatnonzero(~(np.abs(angles[1:-1] - math.pi) < 1e-12))
    if misread.size:
        k = misread[0] + 1
        raise ValueError(f"{seq.label}: interior pulse {Pulse(phases[k].item(), angles[k].item())} is not a pi pulse")
    instants = np.cumsum(seq.gaps)
    times = instants[:-1]
    if np.any(np.diff(times) <= 0):
        raise ValueError("pi-pulse times are not strictly increasing")
    return PiTrain(times, phases[1:-1], instants[-1].item())


def pulse_times(seq: PulseSequence):
    """Center times of all pi pulses plus the total free-evolution duration."""
    train = pi_train(seq)
    return train.times, train.total_t


def toggling_segments(pi_times, total_t: float) -> tuple[np.ndarray, np.ndarray]:
    """Segment bounds (0, t_1, ..., t_n, T) and toggling signs y_k = (-1)^k of
    the segments [bounds[k], bounds[k + 1]] (Cywinski et al., PRB 77, 174509
    (2008)).  Raises ValueError unless the times lie in [0, total_t] in order.
    """
    bounds = np.concatenate(([0.0], np.asarray(pi_times, dtype=float), [total_t]))
    if np.any(np.diff(bounds) < 0):
        raise ValueError("pulse times must lie within [0, total_t] in order")
    return bounds, (-1.0) ** np.arange(bounds.size - 1)


def toggling_moment(pi_times, total_t: float) -> float:
    """The static coefficient sum_k y_k L_k: the integral of the toggling sign
    over [0, T], which multiplies a static detuning in the accumulated phase.
    Zero for balanced sequences (echo, CPMG, XY*) up to rounding, T for the FID."""
    bounds, y = toggling_segments(pi_times, total_t)
    return float(np.sum(np.diff(bounds) * y))


def render_finite(seq: PulseSequence, pulse_width: float):
    """The train rendered with rectangular pulses centered on their ideal
    instants.

    Returns (phases, widths, free): pulse k has phase phases[k] and lasts
    widths[k], and free[k] is the free interval between pulses k and k + 1.
    A pulse of nominal angle theta lasts theta/pi * pulse_width, so the
    pi/2 pulses are half-width.  Gaps are shortened by the half-widths of
    the adjacent pulses (center-to-center timing); raises ValueError if
    neighboring pulses would overlap: the one overlap rule, also for
    config validation.
    """
    widths = seq.angles / math.pi * pulse_width
    free = seq.gaps - widths[:-1] / 2.0 - widths[1:] / 2.0
    if np.any(free < -1e-15):
        raise ValueError("finite pulses overlap: reduce pulse width or increase tau")
    return seq.phases, widths, np.maximum(free, 0.0)
