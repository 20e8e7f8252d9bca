"""Ensemble sampling and the two-branch Monte Carlo evolution engine.

Spins are sampled over the optical detection volume with spatially
varying Rabi frequency, per-spin static detuning and amplitude error;
only the finite engine and the Rabi curve read them.  The OU bath is
averaged exactly or drawn as one trajectory per spin.

Two evolution paths share the noise model:

* ideal pulses: pi rotations are perfect togglers, so each trajectory
  reduces to an accumulated phase.  Composing a z-rotation by theta and
  an ideal pi pulse at phase phi acts on the equatorial coherence
  c = x + iy as c -> e^(i theta) c and c -> e^(2 i phi) conj(c); folding
  the whole train gives c_final = e^(i Xi) c0 with
  Xi = theta_pattern + pi*(n mod 2) + (-1)^n sum_k y_k theta_k, with the
  toggling signs y_k of sequences.toggling_segments and theta_pattern =
  2 (-1)^n sum_k y_k phi_k over the pi pulses of sequences.pi_train.
  Xi is offset + m delta + phi_ac + phi_OU, linear in the spin's static
  detuning and in its OU path, and phi_OU = (-1)^n sum_k y_k int_k x(t) dt
  is a fixed linear functional of a Gaussian process.  It is therefore
  exactly N(0, 2 chi) with chi = noise.ou_chi_exact of the same toggling
  function, and E cos(a + phi_OU) = exp(-chi) cos(a).  For a Gaussian
  static detuning delta ~ N(0, sigma^2), E cos(a + m delta) =
  exp(-(m sigma)^2 / 2) cos(a) with m = +-sequences.toggling_moment
  (Cywinski et al., PRB 77, 174509 (2008)).  ideal_populations takes both
  averages exactly, so it draws nothing and samples no spins (the device
  averages ~7e12 NVs: a sampled mean's scatter would be an artifact).
  The oracles independent of the OU identity are
  oracles.sample_ou_segment_integrals and filters' chi, each against
  ou_chi_exact.  Only phi_ac depends on the AC amplitude: it is gamma B0
  times a per-unit-amplitude integral, so an AC sweep (ideal_populations,
  the one way an AC field enters the engine) folds its train once.

* finite rectangular pulses (rendered by sequences.render_finite):
  piecewise-constant fields are exact rotations (bloch.rotate_drive),
  composed per spin with the pulse axis tilted by the detuning at the
  pulse's start and the angle scaled by Omega_i (1 + eps_i).  Each pulse
  is paired with the free interval after it: the detuning needs only the
  OU value x at the pulse's start, and noise.ou_transition(width, L)
  gives the OU integral over the gap (the free-precession phase) as
  int_x x + a21 z1 + a22 z2 and the value at its end as end_x x + a11 z1.
  Only z1 is drawn, so a spin takes 1 + 1 normal per pulse+gap step
  (1 + 65 for XY16-4, whose readout pulse has no gap).  Averaging over z2
  is exact (Rao-Blackwellisation; Casella & Robert, Biometrika 83, 81
  (1996)): the OU process is Gauss-Markov, so given the values at both
  ends of the gap, a22 z2 is independent of everything else.  It enters
  only this gap's z-rotation, every later rotation is linear in the
  Bloch vector, and the readout population is affine in it, so no
  output's expectation changes when that rotation is replaced by its
  mean: E[R_z(a22 z2)] scales (x, y) by d = exp(-a22^2 / 2).  Only the
  spread over noise seeds shrinks.
  The state is a (3, n) array, one contiguous row per Bloch component,
  held in the frame of the next pulse's phase, so every pulse rotates
  about an axis (Omega, 0, delta) in the x-z plane; the change of frame
  is a scalar added to the gap's z angle.  The state starts at +z, which
  no turn about z moves, so it starts in its first pulse's frame.  The
  free precession turns and scales the x and y rows in place.  The last
  gap turns the state back to the lab frame, and each readout branch
  turns a copy into its own pulse's frame.  This path runs without an
  AC field.

Both paths read each branch out at the final pulse phase that
sequences.readout_angle gives it: the +1 branch's is the sequence's own
last pulse, and the -1 branch's differs from it by pi.

The finite engine builds its step schedule (each gap's OU law and the
turns between the pulses' frames) once per run, then loops over the
spins cut into near-equal blocks of at most SPIN_BLOCK.  Each block is
evolved as one array on the calling thread and draws its noise from its
own PCG64 substream (O'Neill, HMC-CS-2014-0905) keyed on (seed, NOISE_KEY,
noise_seed, block), as rows of one standard normal per spin; the blocks'
partial sums are added in block order.  _normal_rows makes each pair of
rows from one (2, n) fill of uniforms by Box & Muller (Ann. Math. Stat.
29, 610 (1958)), with the angle's cosine and sine taken from the tangent
of its half, as the free precession does; numpy's tan is cheaper than its
sin and cos.  The engine starts no thread.  The ideal engine draws
nothing, so it has no noise seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import rabi_population, rotate_drive
from .constants import GAMMA_E
from .fields import ResonatorSpec, drive_field, rabi_from_b_vectors
from .noise import (
    NO_AMPLITUDE_ERROR,
    AmplitudeErrorModel,
    OUBath,
    QuasiStaticSpread,
    ou_chi_exact,
    ou_transition,
)
from .sequences import PulseSequence, pi_train, readout_angle, render_finite, toggling_moment, toggling_segments

# spins evolved as one array, with one noise substream: few, long numpy calls in bounded memory
SPIN_BLOCK = 10240
# the finite engine's substreams: (seed, NOISE_KEY, noise_seed, block)
NOISE_KEY = 0xB0


@dataclass(frozen=True)
class NoiseModel:
    """Per-spin noise: static spread, OU bath, amplitude-error model."""

    spread: QuasiStaticSpread
    bath: OUBath | None = None  # nothing reads it: the bath is passed to each run
    amplitude_error: AmplitudeErrorModel = NO_AMPLITUDE_ERROR


def ac_phase_integrals(f_hz: float, phase_rad: float, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Integral of sin(2 pi f_hz t + phase_rad), the AC test field per unit
    amplitude along the sensing axis, over each interval [t0[k], t1[k]]."""
    w = 2.0 * math.pi * f_hz
    if w == 0.0:
        return math.sin(phase_rad) * (t1 - t0)
    return (np.cos(w * t0 + phase_rad) - np.cos(w * t1 + phase_rad)) / w


@dataclass(frozen=True)
class DetectionVolume:
    """Cylindrical optical detection region on the z axis, above the driver plane."""

    beam_diameter_m: float = 30.0e-6
    depth_m: float = 0.3e-3
    standoff_m: float = 2.0e-4

    def __post_init__(self):
        if self.beam_diameter_m <= 0 or self.depth_m <= 0:
            raise ValueError("beam_diameter_m and depth_m must be > 0")


@dataclass(frozen=True)
class EnsembleSample:
    """Monte Carlo representatives of the ensemble, deterministic per seed."""

    positions: np.ndarray      # (n, 3) m
    omega: np.ndarray          # (n,) rad/s nominal Rabi
    delta_static: np.ndarray   # (n,) rad/s
    epsilon: np.ndarray        # (n,) fractional amplitude error
    seed: int
    sigma_delta: float         # rad/s, the std delta_static was drawn with

    @property
    def n_spins(self) -> int:
        return len(self.omega)


def _rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=[seed, *key])))


def sample_ensemble(
    volume: DetectionVolume,
    spec: ResonatorSpec | None,
    noise: NoiseModel,
    n: int,
    seed: int,
    *,
    rabi_angular_freq: float | None = None,
) -> EnsembleSample:
    """Draw n spins: uniform positions in the cylinder on the z axis, local
    Rabi from the driver's field at each position and its drive power
    (or a uniform rabi_angular_freq without a driver), static detunings
    and amplitude errors from the noise model.  The NV axis is z.  Raises
    ValueError if a spin's Rabi frequency is not finite (a spin inside
    the wire's conductor)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng_pos = _rng_for(seed, 1)
    rng_delta = _rng_for(seed, 2)
    rng_eps = _rng_for(seed, 3)

    r = (volume.beam_diameter_m / 2.0) * np.sqrt(rng_pos.random(n))
    th = 2.0 * math.pi * rng_pos.random(n)
    z = volume.standoff_m + volume.depth_m * rng_pos.random(n)
    positions = np.column_stack((r * np.cos(th), r * np.sin(th), z))

    if spec is None:
        if rabi_angular_freq is None:
            raise ValueError("rabi_angular_freq is required without a resonator spec")
        omega = np.full(n, float(rabi_angular_freq))
    else:
        b = np.column_stack(drive_field(spec, *positions.T)) * math.sqrt(spec.drive_power_w)
        omega = rabi_from_b_vectors(b)
        if not np.all(np.isfinite(omega)):
            raise ValueError("a spin's Rabi frequency is not finite: the volume reaches into the conductor")

    delta = noise.spread.sigma_delta * rng_delta.standard_normal(n)
    eps = noise.amplitude_error.sample(rng_eps, n)
    return EnsembleSample(positions, omega, delta, eps, seed, noise.spread.sigma_delta)


def _normal_rows(rng: np.random.Generator, n: int, n_rows: int):
    """Yield n_rows rows of n standard normals from rng, as (n,) arrays that
    stay valid until the caller takes the next row.

    Rows 2k and 2k + 1 are one Box-Muller pair from the k-th (2, n) fill
    of uniforms (u1, u2): with r = sqrt(-2 log(1 - u1)), t = tan(pi u2)
    and c = 2 / (1 + t^2), row 2k is (c - 1) r and row 2k + 1 is (t c) r,
    r times the cosine and sine of 2 pi u2.  An odd n_rows drops the
    last sine row, so the first rows do not depend on n_rows.
    """
    u = np.empty((2, n))
    r, t = u
    c = np.empty_like(r)
    for k in range(0, n_rows, 2):
        rng.random(out=u)
        np.subtract(1.0, r, out=r)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        t *= math.pi
        np.tan(t, out=t)
        np.multiply(t, t, out=c)
        c += 1.0
        np.divide(2.0, c, out=c)
        t *= c
        t *= r
        c -= 1.0
        c *= r
        yield c
        if k + 1 < n_rows:
            yield t


def run_two_branch(
    seq: PulseSequence,
    spins: EnsembleSample | QuasiStaticSpread,
    bath: OUBath,
    *,
    noise_seed: int = 0,
    pulse_width: float | None = None,
) -> tuple[float, float]:
    """Ensemble-averaged ms=0 populations for the two readout branches,
    without an AC field (ideal_populations applies one).

    pulse_width = None uses ideal pulses, which read only spins.sigma_delta
    (ideal_populations), so spins may be a QuasiStaticSpread.  A finite width
    renders the sequence with rectangular pulses, delays center-to-center,
    and evolves each spin of the EnsembleSample along a fresh OU trajectory
    keyed on (spins.seed, noise_seed, block).  noise_seed only reaches the
    finite engine.
    """
    if pulse_width is not None:
        return _run_two_branch_finite(seq, spins, bath, noise_seed=noise_seed, pulse_width=pulse_width)
    return ideal_populations(seq, bath, spins.sigma_delta)[0]


def ideal_populations(
    seq: PulseSequence,
    bath: OUBath,
    sigma_delta: float,
    b0s=(0.0,),
    f_hz: float = 0.0,
    phase_rad: float = 0.0,
) -> list[tuple[float, float]]:
    """The two branch populations (1 -+ exp(-chi - (m sigma_delta)^2 / 2) cos(base)) / 2
    under ideal pulses and the AC field b0 sin(2 pi f_hz t + phase_rad), one
    pair per b0 in b0s, with seq's pi train (sequences.pi_train) folded once.
    Both averages are exact (see the module docstring): nothing is drawn."""
    train = pi_train(seq)
    # Xi = pattern + m delta + (GAMMA_E B0) ac_unit + phi_OU
    bounds, signs = toggling_segments(train.times, train.total_t)
    signs *= (-1.0) ** len(train.times)  # the sign each segment's phase ends with
    pattern = 2.0 * np.sum(train.phases * signs[1:])
    decay = math.exp(-ou_chi_exact(train.times, train.total_t, bath))  # E cos(phi_OU), phi_OU ~ N(0, 2 chi)
    # E cos(m delta) over delta ~ N(0, sigma^2); numpy, so that 0 * inf raises under the caller's errstate
    spread = np.exp(-0.5 * np.square(np.multiply(toggling_moment(train.times, train.total_t), sigma_delta)))
    ac_unit = float(signs @ ac_phase_integrals(f_hz, phase_rad, bounds[:-1], bounds[1:]))  # per GAMMA_E B0
    # Xi also carries pi * (n mod 2) from the pi/2 pulses
    shift = readout_angle(seq.readout_phase, +1) - math.pi * (len(train.times) % 2)
    base = pattern + GAMMA_E * np.asarray(b0s, dtype=float) * ac_unit - shift
    m = decay * spread * np.cos(base)  # the mean of cos(Xi - shift)
    # cos(xi - beta_minus) = -cos(xi - beta_plus) since the branches differ by pi
    return list(zip(((1.0 - m) / 2.0).tolist(), ((1.0 + m) / 2.0).tolist()))


def _schedule(steps, bath: OUBath) -> list:
    """Per pulse+gap step: the step, its gap's OU transition with the factor
    d = exp(-a22^2 / 2) its averaged a22 z2 leaves on (x, y), and the turn
    from the step's frame into the next's, halved."""
    # each gap's transition, computed once per distinct (width, L)
    laws, gaps = {}, []
    for (_, width), L in steps:
        if (width, L) not in laws:
            law = ou_transition(width, L, bath)
            laws[width, L] = law, math.exp(-0.5 * law.a22 * law.a22)
        gaps.append(laws[width, L])
    # each step's frame is its pulse's phase; each gap angle's common part, halved,
    # turns v into the next step's frame (the lab's after the last step)
    frames = [pulse[0] for pulse, _ in steps]
    turns = 0.5 * np.subtract(frames, frames[1:] + [0.0])
    return list(zip(steps, gaps, turns))


def _evolve_finite(schedule, omega_eff, delta_s, bath, rows):
    """Evolve one Bloch vector per spin from +z through the scheduled
    pulse+gap steps, along one fresh OU trajectory per spin drawn from the
    noise rows.  Returns the (3, n) vectors, in the lab frame, the OU
    values at the end, and rotate_drive's (8, n) scratch, for the readout.

    A pulse rotates with the detuning frozen at its start; one normal z1
    per step then gives the OU value at the gap's end and the gap's OU
    integral up to its a22 z2 term, which is averaged out (see the module
    docstring).  At b = 0 the rows are drawn too, and the law's zero a11
    and a21 leave x and every angle unchanged.  +z is in every frame, so
    the vectors start in the first pulse's.
    """
    n = len(delta_s)
    v = np.zeros((3, n))
    v[2] = 1.0
    work = np.empty((8, n))
    vx, vy, _ = v
    # the free precession reuses rotate_drive's scratch rows 0-2
    t, f, p = work[:3]
    delta = np.empty(n)
    x = next(rows) * bath.b
    for ((_, width), L), (law, d), turn in schedule:
        np.add(delta_s, x, out=delta)
        rotate_drive(v, omega_eff, delta, width, work)
        # free precession about z by phi = delta_s L + OU integral + the common part;
        # with t = tan(phi / 2) and f = 2 d / (1 + t^2), d cos = f - d, d sin = f t
        np.multiply(delta_s, 0.5 * L, out=t)
        z1 = next(rows)
        np.multiply(x, 0.5 * law.int_x, out=p)
        t += p
        np.multiply(z1, 0.5 * law.a21, out=p)
        t += p
        x *= law.end_x
        np.multiply(z1, law.a11, out=p)
        x += p
        if turn:
            t += turn
        np.tan(t, out=t)
        np.square(t, out=f)
        f += 1.0
        np.divide(2.0 * d, f, out=f)
        t *= f
        f -= d
        np.multiply(vy, t, out=p)
        t *= vx
        vx *= f
        vx -= p
        vy *= f
        vy += t
    return v, x, work


def _run_two_branch_finite(seq, ensemble, bath, *, noise_seed, pulse_width):
    steps, final = render_finite(seq.elements, pulse_width)
    schedule = _schedule(steps, bath)
    # k = ceil(n / SPIN_BLOCK) near-equal blocks [b n // k, (b + 1) n // k), each
    # with its own substream; each block's sums are added in block order
    n = ensemble.n_spins
    k = -(-n // SPIN_BLOCK)
    plus, minus = [], []
    for b in range(k):
        lo, hi = b * n // k, (b + 1) * n // k
        # the noise rows _evolve_finite takes: the start value, then one per step
        rows = _normal_rows(np.random.default_rng([ensemble.seed, NOISE_KEY, noise_seed, b]), hi - lo, 1 + len(steps))
        omega_eff = ensemble.omega[lo:hi] * (1.0 + ensemble.epsilon[lo:hi])
        delta_s = ensemble.delta_static[lo:hi]
        v, x, work = _evolve_finite(schedule, omega_eff, delta_s, bath, rows)
        delta = delta_s + x
        vx, vy, vz = v
        u = np.empty_like(v)
        for sign, sums in ((+1, plus), (-1, minus)):  # the final readout pulse, per branch
            # v turned into this branch's pulse frame; only z is read, so it is not turned back
            a = readout_angle(seq.readout_phase, sign)
            c, s = math.cos(a), math.sin(a)
            np.multiply(vx, c, out=u[0])
            u[0] += np.multiply(vy, s, out=work[0])
            np.multiply(vy, c, out=u[1])
            u[1] -= np.multiply(vx, s, out=work[0])
            u[2] = vz
            rotate_drive(u, omega_eff, delta, final[1], work)
            sums.append(float(np.sum((1.0 + u[2]) / 2.0)))
    return sum(plus) / n, sum(minus) / n


def ensemble_rabi_curve(ensemble: EnsembleSample, durations) -> np.ndarray:
    """Ensemble-averaged ms=0 population vs resonant drive duration."""
    durations = np.asarray(durations, dtype=float)
    omega_eff = ensemble.omega * (1.0 + ensemble.epsilon)
    pop = rabi_population(
        omega_eff[None, :], ensemble.delta_static[None, :], durations[:, None]
    )
    return pop.mean(axis=1)
