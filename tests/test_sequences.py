"""Sequence builders: structure, timing, phase pattern, readout branches."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvsim.oracles import BRIGHT, evolve_free, population_ms0, rotate_ideal
from nvsim.sequences import (
    PH_Y,
    XY16_PHASES,
    Delay,
    Pulse,
    PulseSequence,
    build_cpmg,
    build_fid,
    build_hahn_echo,
    build_xy4,
    build_xy8,
    build_xy16,
    pi_train,
    pulse_times,
    readout_angle,
    render_finite,
)

taus = st.floats(1e-8, 1e-4)


def compose_ideal(seq: PulseSequence, detuning: float, sign: int = +1) -> float:
    """Direct unitary composition with the single-spin primitives, read
    out in branch sign: the final pulse at readout_angle's phase.

    Independent oracle for the ensemble phase-algebra engine.
    """
    final = Pulse(readout_angle(seq.readout_phase, sign) % (2 * math.pi), math.pi / 2)
    s = BRIGHT
    for e in seq.elements[:-1] + (final,):
        if isinstance(e, Delay):
            s = evolve_free(s, e.tau, detuning)
        else:
            s = rotate_ideal(s, e.phase, e.angle)
    return population_ms0(s)


def test_hahn_echo_structure():
    seq = build_hahn_echo(2e-6)
    assert seq.n_pi_pulses == 1
    assert pulse_times(seq)[1] == pytest.approx(2e-6)
    first, last = seq.elements[0], seq.elements[-1]
    assert abs(first.angle - math.pi / 2) < 1e-15 and abs(last.angle - math.pi / 2) < 1e-15
    # interior pulse is a pi about y
    mid = [e for e in seq.elements if isinstance(e, Pulse)][1]
    assert abs(mid.angle - math.pi) < 1e-15 and abs(mid.phase - math.pi / 2) < 1e-15


def test_echo_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        build_hahn_echo(0.0)
    with pytest.raises(ValueError):
        build_hahn_echo(-1e-6)


def test_fid_degenerate_zero_time_allowed():
    seq = build_fid(0.0)
    assert seq.n_pi_pulses == 0
    assert compose_ideal(seq, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_cpmg_structure_and_delays():
    seq = build_cpmg(2, 1e-6)
    delays = [e.tau for e in seq.elements if isinstance(e, Delay)]
    assert delays == pytest.approx([0.5e-6, 1e-6, 0.5e-6])
    assert all(
        abs(e.phase - math.pi / 2) < 1e-15
        for e in seq.elements
        if isinstance(e, Pulse) and abs(e.angle - math.pi) < 1e-15
    )


def test_cpmg1_matches_echo_elements():
    assert build_cpmg(1, 2e-6).elements == build_hahn_echo(2e-6).elements


def test_cpmg_rejects_zero_pulses():
    with pytest.raises(ValueError):
        build_cpmg(0, 1e-6)


@pytest.mark.parametrize("build", [build_cpmg, build_xy4, build_xy8, build_xy16])
def test_builders_reject_negative_tau(build):
    for n in (1, 3):
        with pytest.raises(ValueError):
            build(n, -1e-9)


def test_xy16_pulse_counts():
    assert build_xy16(1, 1e-6).n_pi_pulses == 16
    assert build_xy16(16, 1e-6).n_pi_pulses == 256
    with pytest.raises(ValueError):
        build_xy16(0, 1e-6)


def test_xy_prefix_rule():
    p16 = list(pi_train(build_xy16(1, 1e-6)).phases)
    assert list(pi_train(build_xy4(1, 1e-6)).phases) == p16[:4]
    assert list(pi_train(build_xy8(1, 1e-6)).phases) == p16[:8]


def test_xy16_phase_multiset_checksum():
    phases = pi_train(build_xy16(1, 1e-6)).phases
    counts = Counter(round(p, 9) for p in phases)
    expected = {
        round(0.0, 9): 4,
        round(math.pi / 2, 9): 4,
        round(math.pi, 9): 4,
        round(3 * math.pi / 2, 9): 4,
    }
    assert dict(counts) == expected


def test_xy16_second_half_is_phase_inverted_first_half():
    p = list(pi_train(build_xy16(1, 1e-6)).phases)
    for a, b in zip(p[:8], p[8:]):
        assert (b - a) % (2 * math.pi) == pytest.approx(math.pi)


def test_pi_train_parses_times_phases_and_total():
    train = pi_train(build_xy16(2, 1e-6))
    assert list(train.phases) == list(XY16_PHASES) * 2
    assert train.times == pytest.approx([(k - 0.5) * 1e-6 for k in range(1, 33)])
    assert train.total_t == pytest.approx(32e-6)
    fid = pi_train(build_fid(3e-6))
    assert fid.times.size == 0 and fid.phases.size == 0 and fid.total_t == 3e-6


def _element_walk(seq):
    """pi times, phases and total free time by one running sum over the interior elements, in order."""
    t, times, phases = 0.0, [], []
    for e in seq.elements[1:-1]:
        if isinstance(e, Delay):
            t += e.tau
        else:
            times.append(t)
            phases.append(e.phase)
    return times, phases, t


def test_pi_train_equals_the_element_walk_bit_for_bit():
    # every builder at a tau whose running sums round, and irregular gaps that a
    # pairwise or regrouped sum would add in another order
    tau = 0.1e-6 / 3
    irregular = PulseSequence(
        (0.0, PH_Y, 0.0, PH_Y, 0.0, math.pi), (math.pi / 2,) + (math.pi,) * 4 + (math.pi / 2,),
        (0.1e-6, 0.2e-6, 0.3e-6, 0.7e-6, 1e-7), "irregular-gaps",
    )
    seqs = [build_fid(7 * tau), build_hahn_echo(7 * tau), build_cpmg(5, tau), irregular]
    seqs += [build(n, tau) for build in (build_xy4, build_xy8, build_xy16) for n in (1, 3, 16)]
    for seq in seqs:
        times, phases, total = _element_walk(seq)
        train = pi_train(seq)
        assert train.times.tolist() == times and train.phases.tolist() == phases, seq.label
        assert train.total_t == total, seq.label


# a gap, zero-length ones included, then a pulse: a pi pulse, or one time in eight a pi/2
_GAP = st.one_of(st.just(0.0), st.sampled_from((0.1e-6 / 3, 0.7e-6, 1e-7)), taus)
_GAPS_AND_PULSES = st.lists(
    st.tuples(_GAP, st.sampled_from(XY16_PHASES), st.sampled_from((math.pi,) * 7 + (math.pi / 2,))), max_size=8
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_GAPS_AND_PULSES, _GAP, st.sampled_from((0.0, PH_Y)))
def test_both_views_read_one_walk(inner, last_gap, readout_phase):
    # a train from (pi/2)_x to the readout pulse: its elements are its pulses with one
    # delay per gap, render_finite at zero width returns its gaps, and whenever pi_train
    # accepts it, the cumulative sum of those gaps is its pi times and total free time,
    # bit for bit, as is the running sum over its elements
    last = readout_angle(readout_phase, +1) % (2 * math.pi)
    phases = [0.0] + [phase for _, phase, _ in inner] + [last]
    angles = [math.pi / 2] + [angle for *_, angle in inner] + [math.pi / 2]
    gaps = [gap for gap, *_ in inner] + [last_gap]
    seq = PulseSequence(phases, angles, gaps, "walk", readout_phase)
    pulses = [Pulse(phase, angle) for phase, angle in zip(phases, angles)]
    assert seq.elements[::2] == tuple(pulses) and seq.elements[1::2] == tuple(map(Delay, gaps))
    rendered, widths, free = render_finite(seq, 0.0)
    assert rendered.tolist() == phases and not widths.any() and free.tolist() == gaps
    # a delay after the readout pulse or before the first: the train rejects it
    with pytest.raises(ValueError, match="must start with a pulse"):
        replace(seq, gaps=gaps + [1e-6])
    try:
        train = pi_train(seq)
    except ValueError:
        return
    times, _, total = _element_walk(seq)
    assert train.times.tolist() == times and train.total_t == total
    reached = np.cumsum(free)
    assert reached[:-1].tolist() == times and reached[-1] == total


def test_pi_train_rejects_pulses_the_ideal_view_would_drop_or_misread():
    echo = build_hahn_echo(2e-6)
    bad = {
        "interior pi/2": lambda: PulseSequence((0.0, 0.0, math.pi), (math.pi / 2,) * 3, (1e-6, 1e-6), "pi2"),
        "(pi/2)_y preparation": lambda: replace(echo, phases=(PH_Y, *echo.phases[1:])),
        "a delay after the readout pulse or before the first": lambda: replace(echo, gaps=(*echo.gaps, 1e-6)),
        "no readout pulse": lambda: PulseSequence((0.0,), (math.pi / 2,), (), "pi2"),
        # the last pulse must be the +1 branch's pulse for the sequence's readout phase
        "another readout phase": lambda: replace(echo, readout_phase=PH_Y),
        "the -1 branch's pulse": lambda: replace(echo, phases=(*echo.phases[:-1], 0.0)),
    }
    for name, make in bad.items():
        with pytest.raises(ValueError):
            pi_train(make())


def test_pulse_times_echo():
    times, total = pulse_times(build_hahn_echo(2e-6))
    assert times == pytest.approx([1e-6])
    assert total == pytest.approx(2e-6)


def test_pulse_times_cpmg2():
    times, total = pulse_times(build_cpmg(2, 1e-6))
    assert times == pytest.approx([0.5e-6, 1.5e-6])
    assert total == pytest.approx(2e-6)


def test_pulse_times_xy16():
    times, total = pulse_times(build_xy16(1, 1e-6))
    assert times == pytest.approx([(k - 0.5) * 1e-6 for k in range(1, 17)])
    assert total == pytest.approx(16e-6)


@given(st.integers(1, 12), taus)
def test_symmetric_timing_spacing(n, tau):
    times, total = pulse_times(build_cpmg(n, tau))
    gaps = np.diff(np.concatenate(([0.0], times, [total])))
    assert gaps[0] == pytest.approx(tau / 2, rel=1e-12)
    assert gaps[-1] == pytest.approx(tau / 2, rel=1e-12)
    if n > 1:
        assert np.allclose(gaps[1:-1], tau, rtol=1e-12)


@given(st.sampled_from(["echo", "cpmg8", "xy4", "xy8", "xy16"]), taus)
def test_ideal_zero_noise_identity(family, tau):
    # Every builder composes to the identity absent noise: branch +1 ends bright.
    seq = {
        "echo": lambda: build_hahn_echo(tau),
        "cpmg8": lambda: build_cpmg(8, tau),
        "xy4": lambda: build_xy4(1, tau),
        "xy8": lambda: build_xy8(1, tau),
        "xy16": lambda: build_xy16(1, tau),
    }[family]()
    assert compose_ideal(seq, 0.0) == pytest.approx(1.0, abs=1e-9)
    assert compose_ideal(seq, 0.0, -1) == pytest.approx(0.0, abs=1e-9)


@given(st.floats(-2 * math.pi * 1e6, 2 * math.pi * 1e6))
def test_echo_refocuses_static_detuning(delta):
    seq = build_hahn_echo(2e-6)
    p_plus = compose_ideal(seq, delta)
    p_minus = compose_ideal(seq, delta, -1)
    assert (p_plus - p_minus) == pytest.approx(1.0, abs=1e-9)


def test_cpmg8_full_revival():
    seq = build_cpmg(8, 1e-6)
    assert compose_ideal(seq, 2 * math.pi * 0.7e6) == pytest.approx(1.0, abs=1e-9)


def test_xy16_population_independent_of_tau():
    ref = compose_ideal(build_xy16(1, 1e-9), 0.0)
    for tau in (1e-8, 1e-6, 5e-5):
        assert compose_ideal(build_xy16(1, tau), 0.0) == pytest.approx(ref, abs=1e-12)


def test_echo_elements_golden():
    # the readout convention: (pi/2)_x first, the +1 branch's (pi/2) at readout_phase + pi last
    assert build_hahn_echo(2e-6).elements == (
        Pulse(0.0, math.pi / 2),
        Delay(1e-6),
        Pulse(PH_Y, math.pi),
        Delay(1e-6),
        Pulse(math.pi, math.pi / 2),
    )
    assert build_hahn_echo(2e-6, readout_phase=PH_Y).elements[-1] == Pulse(3 * math.pi / 2, math.pi / 2)


def test_readout_branches_differ_by_pi():
    for phase in (0.0, PH_Y, math.pi, 1.5 * math.pi):
        assert readout_angle(phase, +1) - readout_angle(phase, -1) == pytest.approx(math.pi, abs=1e-15)
        final = build_xy16(1, 1e-6, readout_phase=phase).elements[-1]
        assert final == Pulse(readout_angle(phase, +1) % (2 * math.pi), math.pi / 2)


def test_builders_take_the_readout_phase_by_keyword_only():
    # a positional readout sign, as builders once took, fails instead of being read as a phase
    builds = {build_fid: (1e-6,), build_hahn_echo: (1e-6,), build_cpmg: (2, 1e-6)}
    builds.update({build: (1, 1e-6) for build in (build_xy4, build_xy8, build_xy16)})
    for build, args in builds.items():
        with pytest.raises(TypeError):
            build(*args, -1)


def test_element_validation():
    with pytest.raises(ValueError):
        Pulse(0.0, 0.0)
    with pytest.raises(ValueError):
        Pulse(0.0, 2 * math.pi + 0.1)
    with pytest.raises(ValueError):
        Delay(-1e-9)
    # the train's arrays take the same checks, with the same messages, and are read-only
    echo = build_hahn_echo(2e-6)
    for angle in (0.0, 2 * math.pi + 0.1, math.nan):
        with pytest.raises(ValueError, match=r"pulse angle .* outside \(0, 2\*pi\]"):
            replace(echo, angles=(math.pi / 2, angle, math.pi / 2))
    with pytest.raises(ValueError, match="delay must be >= 0"):
        replace(echo, gaps=(1e-6, -1e-9))
    with pytest.raises(ValueError):
        echo.gaps[0] = 2e-6
