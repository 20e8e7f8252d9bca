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
    # every builder at a tau whose running sums round, and adjacent delays that a
    # pairwise or regrouped sum would add in another order
    tau = 0.1e-6 / 3
    first, *_, last = build_hahn_echo(1e-6).elements
    adjacent = PulseSequence(
        (first, Delay(0.1e-6), Delay(0.2e-6), Pulse(PH_Y, math.pi), Delay(0.3e-6), Delay(0.7e-6), Delay(1e-7),
         Pulse(0.0, math.pi), Delay(0.3e-6), last),
        "adjacent-delays",
    )
    seqs = [build_fid(7 * tau), build_hahn_echo(7 * tau), build_cpmg(5, tau), adjacent]
    seqs += [build(n, tau) for build in (build_xy4, build_xy8, build_xy16) for n in (1, 3, 16)]
    for seq in seqs:
        times, phases, total = _element_walk(seq)
        train = pi_train(seq)
        assert train.times.tolist() == times and train.phases.tolist() == phases, seq.label
        assert train.total_t == total, seq.label


# one to three delays, zero-length ones included, then a pulse: a pi pulse, or one time in eight a pi/2
_DELAYS = st.lists(st.one_of(st.just(0.0), st.sampled_from((0.1e-6 / 3, 0.7e-6, 1e-7)), taus), min_size=1, max_size=3)
_GAPS_AND_PULSES = st.lists(
    st.tuples(_DELAYS, st.sampled_from(XY16_PHASES), st.sampled_from((math.pi,) * 7 + (math.pi / 2,))), max_size=8
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_GAPS_AND_PULSES, _DELAYS, st.sampled_from((0.0, PH_Y)))
def test_both_views_read_one_walk(inner, last_delays, readout_phase):
    # a train from (pi/2)_x to the readout pulse; whenever pi_train accepts it, the
    # cumulative sum of render_finite's gaps at zero width is its pi times and total
    # free time, bit for bit where no gap holds two nonzero delays (else a few ulps
    # apart, as pi_train adds the delays one by one and render_finite per gap)
    first, last = Pulse(0.0, math.pi / 2), Pulse(readout_angle(readout_phase, +1) % (2 * math.pi), math.pi / 2)
    gaps = [(delays, Pulse(phase, angle)) for delays, phase, angle in inner] + [(last_delays, last)]
    elements = [first]
    for delays, pulse in gaps:
        elements += [Delay(d) for d in delays] + [pulse]
    seq = PulseSequence(tuple(elements), "walk", readout_phase)
    steps, final = render_finite(seq.elements, 0.0)
    assert [pulse for pulse, _ in steps] + [final] == [(e.phase, 0.0) for e in elements if isinstance(e, Pulse)]
    for (_, gap), (delays, _) in zip(steps, gaps):
        pending = 0.0
        for d in delays:
            pending += d
        assert gap == pending
    # a leading or a trailing delay: each view rejects it with its own message
    for bad in ((Delay(1e-6), *elements), (*elements, Delay(1e-6))):
        with pytest.raises(ValueError, match="the ideal-pulse view needs"):
            pi_train(replace(seq, elements=bad))
        with pytest.raises(ValueError, match="must start with a pulse"):
            render_finite(bad, 0.0)
    try:
        train = pi_train(seq)
    except ValueError:
        return
    times, _, total = _element_walk(seq)
    assert train.times.tolist() == times and train.total_t == total
    reached = np.cumsum([gap for _, gap in steps])
    if all(sum(d > 0 for d in delays) <= 1 for delays, _ in gaps):
        assert reached[:-1].tolist() == times and reached[-1] == total
    else:
        np.testing.assert_allclose(reached, [*times, total], rtol=1e-14, atol=0.0)  # 27 delays regrouped


def test_pi_train_rejects_pulses_the_ideal_view_would_drop_or_misread():
    echo = build_hahn_echo(2e-6)
    first, *middle, last = echo.elements
    bad = {
        "interior pi/2": (first, Delay(1e-6), Pulse(0.0, math.pi / 2), Delay(1e-6), last),
        "(pi/2)_y preparation": (Pulse(PH_Y, math.pi / 2), *middle, last),
        "leading delay": (Delay(1e-6), first, *middle, last),
        "trailing delay": (first, *middle, last, Delay(1e-6)),
        "no readout pulse": (first, Delay(1e-6)),
    }
    for name, elements in bad.items():
        with pytest.raises(ValueError):
            pi_train(replace(echo, elements=elements))
    # the last pulse must be the +1 branch's pulse for the sequence's readout phase
    with pytest.raises(ValueError):
        pi_train(replace(echo, readout_phase=PH_Y))
    with pytest.raises(ValueError):
        pi_train(replace(echo, elements=(*echo.elements[:-1], Pulse(0.0, math.pi / 2))))


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
