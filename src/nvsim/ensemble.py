"""Ensemble sampling and the two-branch Monte Carlo evolution engine.

Spins are sampled over the optical detection volume with spatially
varying Rabi frequency, per-spin static detuning and amplitude error,
and an independent OU bath trajectory per spin.

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
  function, so one standard normal per spin samples it without error.
  The branch populations follow in closed form.

* finite rectangular pulses (rendered by sequences.render_finite):
  piecewise-constant fields are exact rotations (bloch.rotate_drive),
  composed per spin with the pulse axis tilted by the detuning at the
  pulse's start and the angle scaled by Omega_i (1 + eps_i).  Each pulse
  is paired with the free interval after it: the detuning needs only the
  OU value at the pulse's start, and one exact draw pair from
  noise.ou_transition(width, L) gives the OU integral over the gap (the
  free-precession phase) and the value at its end, so a spin takes
  1 + 2 normals per pulse+gap step (1 + 2 * 65 for XY16-4, whose readout
  pulse has no gap).  The state is a (3, n) array, one contiguous row per
  Bloch component, and the free precession rotates its x and y rows in
  place.

Noise is drawn in fixed-size spin blocks, each from its own
counter-based substream keyed on (seed, key, noise_seed, block).
Contiguous runs of whole blocks, at most RUN_BLOCKS each and at least
one per thread, are each evolved as one array on min(threads, runs)
threads; each block draws into its own slice of its run, and
per-block partial sums are added in block order, so results are
bit-identical for any worker-thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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
from .sequences import PiTrain, PulseSequence, pi_train, render_finite, toggling_segments

SPIN_BLOCK = 2048
# blocks evolved as one array: bounds a run's memory and keeps its arrays in cache
RUN_BLOCKS = 4


@dataclass(frozen=True)
class NoiseModel:
    """Per-spin noise: static spread, OU bath, amplitude-error model."""

    spread: QuasiStaticSpread
    bath: OUBath
    amplitude_error: AmplitudeErrorModel = NO_AMPLITUDE_ERROR


@dataclass(frozen=True)
class ACField:
    """Applied AC test field along the sensing axis."""

    amplitude_t: float
    freq_hz: float
    phase_rad: float = 0.0

    def phase_integrals(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Integral of sin(2 pi f t + phase) over each interval [t0[k], t1[k]]."""
        w = 2.0 * math.pi * self.freq_hz
        if w == 0.0:
            return math.sin(self.phase_rad) * (t1 - t0)
        return (np.cos(w * t0 + self.phase_rad) - np.cos(w * t1 + self.phase_rad)) / w


@dataclass(frozen=True)
class DetectionVolume:
    """Cylindrical optical detection region on the z axis, above the driver plane."""

    beam_diameter_m: float = 30.0e-6
    depth_m: float = 0.3e-3
    standoff_m: float = 2.0e-4
    quoted_volume_m3: float | None = None

    def __post_init__(self):
        if self.beam_diameter_m <= 0 or self.depth_m <= 0:
            raise ValueError("beam_diameter_m and depth_m must be > 0")

    def geometric_volume_m3(self) -> float:
        return math.pi * (self.beam_diameter_m / 2.0) ** 2 * self.depth_m

    def volume_ratio_vs_quoted(self) -> float | None:
        """Quoted / geometric volume; the mismatch is documented, not resolved."""
        if self.quoted_volume_m3 is None:
            return None
        return self.quoted_volume_m3 / self.geometric_volume_m3()


@dataclass(frozen=True)
class EnsembleSample:
    """Monte Carlo representatives of the ensemble, deterministic per seed."""

    positions: np.ndarray      # (n, 3) m
    omega: np.ndarray          # (n,) rad/s nominal Rabi
    delta_static: np.ndarray   # (n,) rad/s
    epsilon: np.ndarray        # (n,) fractional amplitude error
    seed: int

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
        omega = rabi_from_b_vectors(b, (0.0, 0.0, 1.0))
        if not np.all(np.isfinite(omega)):
            raise ValueError("a spin's Rabi frequency is not finite: the volume reaches into the conductor")

    delta = noise.spread.sigma_delta * rng_delta.standard_normal(n)
    eps = noise.amplitude_error.sample(rng_eps, n)
    return EnsembleSample(positions, omega, delta, eps, seed)


class _BlockRun:
    """A contiguous run of whole spin blocks [lo, hi), evolved as one array.

    Each block draws from its own (seed, key, noise_seed, block) substream
    into its slice, so a spin's draws do not depend on how blocks are
    grouped into runs.
    """

    def __init__(self, blocks, seed: int, key: int, noise_seed: int):
        self.lo, self.hi = blocks[0][1], blocks[-1][2]
        self._streams = [
            (_rng_for(seed, key, noise_seed, bi), slice(lo - self.lo, hi - self.lo))
            for bi, lo, hi in blocks
        ]

    def normals(self, out: np.ndarray) -> np.ndarray:
        """Fill out with one standard normal per spin, block by block."""
        for rng, s in self._streams:
            rng.standard_normal(out=out[s])
        return out

    def block_sums(self, values: np.ndarray) -> list[float]:
        return [float(np.sum(values[s])) for _, s in self._streams]


def _map_blocks(fn, ensemble: EnsembleSample, key: int, noise_seed: int, threads: int) -> list:
    """Run fn(run) on contiguous runs of whole SPIN_BLOCK blocks, at most
    RUN_BLOCKS each and at least one per thread, with min(threads, runs)
    threads; fn returns one result per block of its run.  Returns every
    block's result in block order, so sums over them are bit-identical for
    any thread count.
    """
    n = ensemble.n_spins
    blocks = [(i, lo, min(lo + SPIN_BLOCK, n)) for i, lo in enumerate(range(0, n, SPIN_BLOCK))]
    k = min(len(blocks), max(threads, -(-len(blocks) // RUN_BLOCKS)))
    runs = [
        _BlockRun(blocks[g * len(blocks) // k : (g + 1) * len(blocks) // k], ensemble.seed, key, noise_seed)
        for g in range(k)
    ]
    workers = min(threads, k)
    if workers <= 1:
        return [r for run in runs for r in fn(run)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [r for part in pool.map(fn, runs) for r in part]


def _readout_angle(seq: PulseSequence, sign: int) -> float:
    return seq.readout_phase + (math.pi if sign > 0 else 0.0)


def _mean_cos_ideal(train: PiTrain, ensemble, bath, b_ac, shift, *, key, noise_seed, threads) -> float:
    """Ensemble mean of cos(Xi - shift) under the ideal pi train.

    Xi = pattern + m delta_i + phi_ac + sigma z_i with sigma = sqrt(2 chi)
    and one standard normal z_i per spin from the (seed, key, noise_seed,
    block) substream.
    """
    bounds, signs = toggling_segments(train.times, train.total_t)
    signs *= (-1.0) ** len(train.times)  # the sign each segment's phase ends with
    pattern = 2.0 * np.sum(train.phases * signs[1:])
    static_coeff = float(np.sum(signs * np.diff(bounds)))
    phi_ac = 0.0
    if b_ac is not None:
        phi_ac = GAMMA_E * b_ac.amplitude_t * float(signs @ b_ac.phase_integrals(bounds[:-1], bounds[1:]))
    sigma = math.sqrt(2.0 * ou_chi_exact(train.times, train.total_t, bath))
    base = pattern + phi_ac - shift

    def run(blocks: _BlockRun):
        z = blocks.normals(np.empty(blocks.hi - blocks.lo))
        xi = base + static_coeff * ensemble.delta_static[blocks.lo : blocks.hi] + sigma * z
        return blocks.block_sums(np.cos(xi))

    return sum(_map_blocks(run, ensemble, key, noise_seed, threads)) / ensemble.n_spins


def run_two_branch(
    seq: PulseSequence,
    ensemble: EnsembleSample,
    bath: OUBath,
    b_ac: ACField | None = None,
    *,
    noise_seed: int = 0,
    pulse_width: float | None = None,
    threads: int = 1,
) -> tuple[float, float]:
    """Ensemble-averaged ms=0 populations for the two readout branches.

    Each spin carries its own static detuning, amplitude error, and a
    fresh OU phase (ideal pulses) or trajectory (finite pulses) keyed on
    (ensemble.seed, noise_seed, block).  pulse_width = None uses ideal
    pulses; a finite width renders the sequence with rectangular pulses,
    delays center-to-center.
    """
    if pulse_width is not None:
        return _run_two_branch_finite(
            seq, ensemble, bath, b_ac, noise_seed=noise_seed, pulse_width=pulse_width, threads=threads
        )
    train = pi_train(seq)
    # Xi also carries pi * (n mod 2) from the pi/2 pulses
    shift = _readout_angle(seq, +1) - math.pi * (len(train.times) % 2)
    m = _mean_cos_ideal(
        train, ensemble, bath, b_ac, shift, key=0xB0, noise_seed=noise_seed, threads=threads
    )
    # cos(xi - beta_minus) = -cos(xi - beta_plus) since the branches differ by pi
    return (1.0 - m) / 2.0, (1.0 + m) / 2.0


def _evolve_finite(v, steps, omega_eff, delta_s, bath, blocks: _BlockRun, b_ac=None) -> np.ndarray:
    """Apply the pulse+gap steps to the (3, n) Bloch vectors v in place,
    along one fresh OU trajectory per spin; returns the OU values at the end.

    A pulse rotates with the detuning frozen at its start; one exact
    noise.ou_transition draw pair per step then gives the OU integral over
    the gap and the value at its end, the pulse being the transition's lead.
    """
    n = v.shape[1]
    vx, vy, _ = v
    work = np.empty((9, n))  # rotate_drive scratch, reused by the free precession
    t, f, p = work[:3]
    z1, z2, delta = np.empty((3, n))
    x = np.zeros(n)
    noisy = bath.b > 0
    if noisy:
        x = blocks.normals(x) * bath.b
    if b_ac is not None:
        starts = np.array([t0 for _, _, t0 in steps])
        ends = starts + np.array([L for _, L, _ in steps])
        phi_ac = GAMMA_E * b_ac.amplitude_t * b_ac.phase_integrals(starts, ends)
    for k, (pulse, L, _) in enumerate(steps):
        lead = 0.0
        if pulse is not None:
            phase, lead = pulse
            np.add(delta_s, x, out=delta)
            rotate_drive(v, omega_eff, delta, phase, lead, work)
        # free precession about z by phi = delta_s L + OU integral + AC phase:
        # with t = tan(phi / 2) and f = 2 / (1 + t^2), cos = f - 1, sin = f t
        np.multiply(delta_s, L, out=t)
        if noisy:
            integral, x = ou_transition(lead, L, bath).apply(x, blocks.normals(z1), blocks.normals(z2))
            t += integral
        if b_ac is not None:
            t += phi_ac[k]
        t *= 0.5
        np.tan(t, out=t)
        np.multiply(t, t, out=f)
        f += 1.0
        np.divide(2.0, f, out=f)
        t *= f
        f -= 1.0
        np.multiply(vy, t, out=p)
        t *= vx
        vx *= f
        vx -= p
        vy *= f
        vy += t
    return x


def _run_two_branch_finite(seq, ensemble, bath, b_ac, *, noise_seed, pulse_width, threads):
    steps, final = render_finite(seq.elements, pulse_width)
    if final is None:
        raise ValueError("the sequence must end with its readout pulse, not a delay")

    def run(blocks: _BlockRun):
        lo, hi = blocks.lo, blocks.hi
        omega_eff = ensemble.omega[lo:hi] * (1.0 + ensemble.epsilon[lo:hi])
        delta_s = ensemble.delta_static[lo:hi]
        v = np.zeros((3, hi - lo))
        v[2] = 1.0
        delta = delta_s + _evolve_finite(v, steps, omega_eff, delta_s, bath, blocks, b_ac)
        sums = []
        for sign in (+1, -1):  # the final readout pulse, per branch
            vb = v.copy()
            rotate_drive(vb, omega_eff, delta, _readout_angle(seq, sign), final[1])
            sums.append(blocks.block_sums((1.0 + vb[2]) / 2.0))
        return list(zip(*sums))

    parts = _map_blocks(run, ensemble, 0xB0, noise_seed, threads)
    n = ensemble.n_spins
    return sum(p for p, _ in parts) / n, sum(m for _, m in parts) / n


def equatorial_survival(
    seq: PulseSequence,
    ensemble: EnsembleSample,
    bath: OUBath,
    initial_phase: float,
    *,
    pulse_width: float | None = None,
    noise_seed: int = 0,
    threads: int = 1,
) -> float:
    """Coherence of an equatorial state under only the pi-pulse train.

    Prepares v0 = (cos a, sin a, 0), runs the interior pi pulses and
    delays of `seq` (the pi/2 pulses are skipped), and returns the
    ensemble mean of v_final . v0: the surviving projection on the
    prepared axis.  Used for pulse-error robustness comparisons.  Raises
    ValueError where sequences.pi_train does.
    """
    train = pi_train(seq)
    n = ensemble.n_spins

    if pulse_width is None:
        # c_final = e^(i Xi) conj^n(c0), so v_final . v0 = cos(Xi - 2 a (n mod 2))
        shift = 2.0 * initial_phase * (len(train.times) % 2)
        return _mean_cos_ideal(
            train, ensemble, bath, None, shift, key=0xE0, noise_seed=noise_seed, threads=threads
        )

    # pi_train has checked that everything between the pi/2 pulses is the train
    steps, _ = render_finite(seq.elements[1:-1], pulse_width)
    ca, sa = math.cos(initial_phase), math.sin(initial_phase)

    def run(blocks: _BlockRun):
        lo, hi = blocks.lo, blocks.hi
        omega_eff = ensemble.omega[lo:hi] * (1.0 + ensemble.epsilon[lo:hi])
        v = np.zeros((3, hi - lo))
        v[0], v[1] = ca, sa
        _evolve_finite(v, steps, omega_eff, ensemble.delta_static[lo:hi], bath, blocks)
        return blocks.block_sums(v[0] * ca + v[1] * sa)

    return sum(_map_blocks(run, ensemble, 0xE0, noise_seed, threads)) / n


def ensemble_rabi_curve(ensemble: EnsembleSample, durations) -> np.ndarray:
    """Ensemble-averaged ms=0 population vs resonant drive duration."""
    durations = np.asarray(durations, dtype=float)
    omega_eff = ensemble.omega * (1.0 + ensemble.epsilon)
    pop = rabi_population(
        omega_eff[None, :], ensemble.delta_static[None, :], durations[:, None]
    )
    return pop.mean(axis=1)
