"""Filter-function route to coherence decay under Gaussian dephasing noise.

For a sequence with n ideal pi pulses at times t_k inside (0, T), put
t_0 = 0 and t_(n+1) = T.  The spectral weight of the toggling sign
function y(t) is

    F(w) = |sum_k c_k e^(iwt_k)|^2,   c = (1, -2, 2, ..., (-1)^n 2, (-1)^(n+1))

and the decoherence exponent is

    chi = (1/2pi) * integral_0^inf S(w) F(w) / w^2 dw

for a two-sided PSD S (Cywinski et al., PRB 77, 174509 (2008)).  The
normalization is anchored by the exact quasi-static Gaussian identity
W_fid(t) = exp(-sigma^2 t^2 / 2), which this convention reproduces (see
tests).  Static spreads are averaged analytically rather than pushed
through the integral.

The integral is a trapezoid sum on the uniform grid w_m = m dw, summed in
fixed-size blocks of nodes with the phase recurrence
e^(i(w + j dw)t) = e^(iwt) e^(ij dw t): one matrix product per block, no
per-node Python call.  Only evaluations of S enter, so an OUBath and its
`psd` callable give the same float.  Two errors are controlled, each to
rtol * chi / 10:

* Aliasing.  F/w^2 = |y^(w)|^2 is the transform of the autocorrelation of
  y, which vanishes outside [-T, T].  By Poisson summation the full-line
  trapezoid sum of period L = 2pi/dw is off from the integral only by the
  noise correlation function beyond L - T, which decays with L (Trefethen
  and Weideman, SIAM Rev. 56, 385 (2014)).  L starts at 2T and doubles
  until the sum agrees with its own every-other-node sum (period L/2).
  When L doubles after a sum longer than one block, the nodes already
  summed are the even nodes of the new grid; only the odd ones are new.
* Truncation at the last node W.  With h = S/w^2 and Fbar = sum c_k^2,
  F = Fbar + sum_{j!=k} c_j c_k cos(w (t_j - t_k)).  The mean part of
  the tail, Fbar * integral_W^inf h dw, is added: Gauss-Legendre in
  u = 1/w, one panel checked against two.  For h falling beyond W, Abel
  summation bounds the rest by dw h(W) sum_{j!=k} |c_j c_k| (1/2 + 1/sin(pi lag/L)),
  lag = |t_j - t_k| <= T <= L/2; by Jordan's sin(pi lag/L) >= 2 lag/L that is at most
  h(W) (dw P + 2pi Q), P = sum_{j<k} |c_j c_k|, Q = sum_{j<k} |c_j c_k|/lag, taken once
  per call in O(n) memory (looser by at most pi/2).  The sum stops at the first block
  end W where that bound is below the tolerance.

The search is capped at W T = _MAX_BAND and _MAX_NODES nodes in all; a
spectrum that does not certify within the caps, such as a non-integrable
one, raises ValueError.
"""

from __future__ import annotations

import numpy as np

from .noise import OUBath
from .sequences import PulseSequence, pulse_times, toggling_moment, toggling_segments

_ROWS, _COLS = 128, 8  # a block is _COLS runs of _ROWS grid nodes, one _ROWS x (n + 2) phase table
_NODES = _ROWS * _COLS
_OFFSETS = np.arange(1, _ROWS + 1)[:, None] + _ROWS * np.arange(_COLS)  # node j of a block at [row, col]
_MAX_NODES = 1 << 26  # grid nodes summed over all periods before a spectrum is rejected
_MAX_BAND = np.pi * (1 << 20)  # largest W T the tail search may reach (2^20 nodes of the first grid)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _toggling_coefficients(pi_times, total_t: float) -> tuple[np.ndarray, np.ndarray]:
    """Edge times (0, t_1, ..., t_n, T) and weights c with F(w) = |sum c_k e^(iwt_k)|^2,
    the steps of the toggling sign (zero outside [0, T]) at the edges."""
    edges, y = toggling_segments(pi_times, total_t)
    if y.size > 1 and np.any(np.diff(edges) <= 0):
        raise ValueError("pulse times must be strictly increasing within (0, total_t)")
    return edges, np.diff(np.concatenate(([0.0], y, [0.0])))


def filter_weight(pi_times, total_t: float, omega) -> np.ndarray | float:
    """Spectral weight F of the toggling function; vectorized over omega.

    `pi_times` must be strictly increasing and lie inside (0, total_t).
    With no pulses this reduces to the free-induction 4 sin^2(wT/2).
    """
    edges, c = _toggling_coefficients(pi_times, total_t)
    w = np.asarray(omega, dtype=float)
    F = np.abs(np.exp(1j * np.multiply.outer(w, edges)) @ c) ** 2
    return float(F) if w.ndim == 0 else F


def _pair_sums(edges: np.ndarray, c: np.ndarray) -> tuple[float, float]:
    """sum_{j<k} |c_j c_k| and sum_{j<k} |c_j c_k|/(t_k - t_j), the second one lag at a time."""
    a = np.abs(c)
    weighted = sum(float((a[d:] * a[:-d]) @ (1.0 / (edges[d:] - edges[:-d]))) for d in range(1, edges.size))
    return 0.5 * float(a.sum() ** 2 - a @ a), weighted


def _envelope_tail(spectrum, w: float, tol: float) -> float | None:
    """integral_w^inf S(x)/x^2 dx = integral_0^(1/w) S(1/u) du, or None if not certified.

    Gauss-Legendre on one panel and on two halves must agree within tol,
    and S/x^2 must not rise beyond w at the nodes (the Abel bound needs it).
    """
    a = 1.0 / w
    k = _GL_X.size
    u = 0.5 * a * (1.0 + _GL_X)
    halves = np.concatenate((0.5 * u, 0.5 * (u + a), [a]))  # both halves' nodes, then u = a
    one = 0.5 * a * float(_GL_W @ np.broadcast_to(spectrum(1.0 / u), u.shape))
    s = np.broadcast_to(spectrum(1.0 / halves), halves.shape)
    two = 0.25 * a * float(_GL_W @ (s[:k] + s[k:-1]))
    h = s * halves**2  # S(x)/x^2 at x = 1/u, u increasing
    if not abs(one - two) <= tol or np.any(np.diff(h) < 0.0):
        return None
    return two


class _Grid:
    """Phase tables of the grid w_j = j dw for the edge times t_k.

    A block is _COLS runs of _ROWS nodes.  `table` holds e^(i r dw t_k) for r = 1.._ROWS
    (one (_ROWS, n) exp; a halved table is products of the last with one n-length exp)
    and `runs` e^(i q _ROWS dw t_k) for q < _COLS (powers of the last row), so the
    amplitudes sum_k c_k e^(iwt_k) of a whole block are one matrix product."""

    def __init__(self, edges, c, dw: float, table=None):
        self.edges, self.c, self.dw = edges, c, dw
        self.table = np.exp(1j * dw * np.outer(np.arange(1, _ROWS + 1), edges)) if table is None else table
        self.runs = (self.table[-1] ** np.arange(_COLS)[:, None]).T

    def halved(self) -> "_Grid":
        """Grid of step dw/2: even rows are this grid's first half, odd rows those times e^(-i dw t_k/2)."""
        head = self.table[: _ROWS // 2]
        odd = head * np.exp(-0.5j * self.dw * self.edges)
        return _Grid(self.edges, self.c, 0.5 * self.dw, np.stack((odd, head), axis=1).reshape(self.table.shape))

    def block(self, spectrum, first: float):
        """S(w) F(w)/w^2 and S(w) at w = (first + j) dw, j = 1.._NODES, shaped (_ROWS, _COLS)."""
        start = self.c * np.exp(1j * (first * self.dw) * self.edges)
        amp = self.table @ (start[:, None] * self.runs)
        w = (first + _OFFSETS) * self.dw
        s = np.broadcast_to(spectrum(w), w.shape)
        return s * (amp.real**2 + amp.imag**2) / w**2, s


def chi_from_spectrum(pi_times, total_t: float, spectrum, rtol: float = 1e-6) -> float:
    """Decoherence exponent: trapezoid sum of S(w) F(w)/w^2 with certified errors.

    `spectrum` is a two-sided PSD callable, evaluated on arrays of w.
    Aliasing and the truncated tail are each held below rtol * chi / 10
    (see the module docstring).  Raises ValueError if they do not certify
    within the node caps (a non-integrable spectrum) or chi is not finite.
    """
    edges, c = _toggling_coefficients(pi_times, total_t)
    f_bar = float(c @ c)
    moment = toggling_moment(pi_times, total_t)
    f_zero = float(spectrum(0.0)) * moment**2 if moment else 0.0  # S F / w^2 at w -> 0
    pairs, weighted = _pair_sums(edges, c)
    grid = _Grid(edges, c, np.pi / total_t)  # grid period L = 2 pi / dw = 2T
    m = nodes = 0  # nodes 1..m of the current grid are summed; W = m dw
    sum_all = sum_even = f_last = h_last = 0.0  # S F / w^2 summed over nodes 1..m and over even m
    while True:
        dw = grid.dw
        abel = dw * pairs + 2.0 * np.pi * weighted  # bounds the Abel sum at L = 2 pi / dw
        while True:  # extend the grid until the tail beyond W certifies
            fine = dw * (0.5 * f_zero + sum_all - 0.5 * f_last)  # trapezoid on [0, W]
            tol = rtol * fine / 10.0
            if m and abel * h_last <= tol:
                tail = _envelope_tail(spectrum, m * dw, tol / f_bar)
                if tail is not None:
                    break
            if nodes >= _MAX_NODES or m * dw * total_t >= _MAX_BAND:
                raise ValueError("spectrum tail did not converge: non-integrable spectrum rejected")
            f, s = grid.block(spectrum, m)
            sum_all += float(f.sum())
            sum_even += float(f[1::2].sum())  # rows r odd are the even nodes
            m += _NODES
            nodes += _NODES
            f_last = float(f[-1, -1])
            h_last = float(s[-1, -1]) / (m * dw) ** 2  # S/w^2 at W
        fine += f_bar * tail
        if not np.isfinite(fine):  # e.g. S(0) = inf under a nonzero toggling moment
            raise ValueError("spectrum makes chi infinite or undefined")
        coarse = 2.0 * dw * (0.5 * f_zero + sum_even - 0.5 * f_last) + f_bar * tail
        if abs(fine - coarse) <= rtol * fine / 10.0:
            return fine / (2.0 * np.pi)
        # Double L.  A one-block sum is redone, since W may shrink; a longer
        # one keeps W, its nodes become the even nodes of the new grid, and
        # the odd ones, at (j - 1/2) dw, are added with the same tables.
        if m > _NODES:
            sum_even = sum_all
            for first in range(0, m, _NODES):
                sum_all += float(grid.block(spectrum, first - 0.5)[0].sum())
            nodes += m
            m *= 2
        else:
            m = 0
            sum_all = sum_even = f_last = h_last = 0.0
        grid = grid.halved()


def coherence_analytic(
    seq: PulseSequence,
    spectrum=None,
    sigma_static: float = 0.0,
    rtol: float = 1e-6,
) -> float:
    """Coherence W in [0, 1] for a pulse sequence under Gaussian noise.

    The pi-pulse times and total free time come from
    sequences.pulse_times(seq); for raw times call chi_from_spectrum.
    `spectrum` is a two-sided PSD callable or an OUBath.  A quasi-static
    Gaussian detuning spread of std sigma_static is averaged exactly:
    chi_qs = (sigma * moment)^2 / 2.
    """
    times, T = pulse_times(seq)
    chi = 0.5 * (sigma_static * toggling_moment(times, T)) ** 2
    if spectrum is not None and T > 0.0:
        S = spectrum.psd if isinstance(spectrum, OUBath) else spectrum
        chi += chi_from_spectrum(times, T, S, rtol=rtol)
    return float(np.exp(-chi))
