"""Pulse-sequence representation and decoupling-sequence builders.

A sequence is an ordered list of pulses (phase, angle) and free-evolution
delays.  Builders produce Hahn echo, CPMG-n, XY4/XY8/XY16-N and free
induction decay with symmetric timing: tau/2 before the first pi pulse,
tau between pi pulses, tau/2 after the last one.

Readout convention (locked by golden tests): the first pulse is
(pi/2, phase 0).  The final pulse has angle pi/2, and readout_angle is
the one rule for its phase: readout_phase + pi in the +1 branch,
readout_phase in the -1 branch.  A built sequence ends with the +1
branch's pulse; the engine applies either branch's angle itself.
With readout_phase = 0 the +1 branch of a noiseless sequence returns
the bright state (p0 = 1); readout_phase = pi/2 selects the quadrature
used for AC sensing, where the branch difference is odd in the
accumulated phase.

Only this module reads a sequence's timing, by one walk of its elements:
pi_train takes the ideal-pulse view from it and render_finite the finite
pulses, by the one overlap rule; toggling_segments gives segment bounds
and toggling signs, and toggling_moment their static coefficient.
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


@dataclass(frozen=True)
class PulseSequence:
    """Immutable pulse/delay program ending with its +1 readout branch's pulse."""

    elements: tuple
    label: str
    readout_phase: float = 0.0

    @property
    def n_pi_pulses(self) -> int:
        return len(pi_train(self).times)


def readout_angle(readout_phase: float, sign: int) -> float:
    """Phase of the final pi/2 pulse in readout branch sign (+1 or -1),
    not reduced mod 2 pi: readout_phase + pi for +1, readout_phase for -1."""
    return readout_phase + (math.pi if sign > 0 else 0.0)


def _final_pulse(readout_phase: float) -> Pulse:
    return Pulse(readout_angle(readout_phase, +1) % (2.0 * math.pi), math.pi / 2.0)


def _assemble(pi_phases, tau, label, readout_phase) -> PulseSequence:
    # frozen elements: one Pulse per phase and one Delay per length (which rejects tau < 0)
    pulses = {ph: Pulse(ph, math.pi) for ph in set(pi_phases)}
    half, full = Delay(tau / 2.0), Delay(tau)
    elems = [Pulse(PH_X, math.pi / 2.0), half]
    for ph in pi_phases:
        elems += (pulses[ph], full)
    elems[-1] = half
    elems.append(_final_pulse(readout_phase))
    return PulseSequence(tuple(elems), label, readout_phase)


def build_fid(tau_total: float, *, readout_phase: float = 0.0) -> PulseSequence:
    """Free induction decay: (pi/2) - tau - (pi/2), no refocusing pulses."""
    if tau_total < 0:
        raise ValueError("tau_total must be >= 0")
    elems = (Pulse(PH_X, math.pi / 2.0), Delay(tau_total), _final_pulse(readout_phase))
    return PulseSequence(elems, "fid", readout_phase)


def build_hahn_echo(tau_total: float, *, readout_phase: float = 0.0) -> PulseSequence:
    """Spin echo: (pi/2)x - tau/2 - (pi)y - tau/2 - (pi/2), tau_total total free time."""
    if tau_total <= 0:
        raise ValueError("tau_total must be > 0")
    return _assemble((PH_Y,), tau_total, "echo", readout_phase)


def build_cpmg(n: int, tau: float, *, readout_phase: float = 0.0) -> PulseSequence:
    """CPMG-n: n pi pulses, all phase y, symmetric timing with spacing tau."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _assemble((PH_Y,) * n, tau, f"cpmg-{n}", readout_phase)


def _build_xy(phases, n_repeats, tau, label, readout_phase):
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    return _assemble(phases * n_repeats, tau, label, readout_phase)


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


def _walk(elements):
    """The one walk of a sequence's elements: its pulses in order, the
    instant each later pulse sits at (the delays added one by one), and the
    delay summed between each consecutive pair.  Raises ValueError unless
    the train starts and ends with a pulse."""
    if not elements or isinstance(elements[0], Delay) or isinstance(elements[-1], Delay):
        raise ValueError("the sequence must start with a pulse and must end with its readout pulse, not a delay")
    pulses, instants, gaps = [elements[0]], [], []
    t = pending = 0.0
    for e in elements[1:]:
        if isinstance(e, Delay):
            t += e.tau
            pending += e.tau
        else:
            pulses.append(e)
            instants.append(t)
            gaps.append(pending)
            pending = 0.0
    return pulses, instants, gaps


def pi_train(seq: PulseSequence) -> PiTrain:
    """Parse seq into its pi pulses, each at the instant the delays reach.

    The ideal view reads the first pulse as the (pi/2)_x preparation, the
    last as the +1 branch's readout pulse, and every pulse in
    between as an instantaneous pi toggle.  Raises ValueError for any pulse
    it would drop or misread, and for pi times not strictly increasing.
    """
    elems = seq.elements
    ends = (Pulse(PH_X, math.pi / 2.0), _final_pulse(seq.readout_phase))
    if len(elems) < 2 or (elems[0], elems[-1]) != ends:
        raise ValueError(f"{seq.label}: the ideal-pulse view needs (pi/2)_x first and the readout pulse last")
    pulses, instants, _ = _walk(elems)
    inner = pulses[1:-1]
    for p in inner:
        if not abs(p.angle - math.pi) < 1e-12:
            raise ValueError(f"{seq.label}: interior pulse {p} is not a pi pulse")
    times = np.array(instants[:-1])
    if np.any(np.diff(times) <= 0):
        raise ValueError("pi-pulse times are not strictly increasing")
    return PiTrain(times, np.array([p.phase for p in inner]), instants[-1])


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


def render_finite(elements, pulse_width: float):
    """Pulse+gap steps of the train rendered with rectangular pulses
    centered on their ideal instants.

    Returns (steps, last): each step is (pulse, L), a pulse (phase, width)
    followed by a free interval of length L, and last is the final pulse.
    A pulse of nominal angle theta lasts theta/pi * pulse_width, so the
    pi/2 pulses are half-width.  Delays are shortened by the half-widths
    of the adjacent pulses (center-to-center timing); raises ValueError if
    neighboring pulses would overlap: the one overlap rule, also for
    config validation.  Raises ValueError too unless the train starts and
    ends with a pulse, since a leading delay has no pulse to pair with.
    """
    pulses, _, gaps = _walk(elements)
    widths = [p.angle / math.pi * pulse_width for p in pulses]
    steps = []
    for p, w, w_next, pending in zip(pulses, widths, widths[1:], gaps):
        gap = pending - w / 2.0 - w_next / 2.0
        if gap < -1e-15:
            raise ValueError("finite pulses overlap: reduce pulse width or increase tau")
        steps.append(((p.phase, w), max(gap, 0.0)))
    return steps, (pulses[-1].phase, widths[-1])
