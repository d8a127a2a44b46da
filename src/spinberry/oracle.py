"""Independent numerical ground truth: fixed-step RK4 for both frames.

Two structurally independent integrations are provided:

* ``integrate_coefficients`` advances the instantaneous-basis coefficients
  (C1, C2) under their coupled linear equations;
* ``integrate_lab_frame`` advances the fixed-basis spinor under
  i dpsi/dt = H(t) psi and projects it back onto the gauged eigenstates.

Both are classic fixed-step RK4.  Because the right-hand side is linear,
each RK4 step is the exact linear map

    y_{n+1} = [I + h/6 (K1 + 2 K2 + 2 K3 + K4)] y_n

with the stage matrices built from M(t_n), M(t_n + h/2), M(t_n + h).  The
coefficient generator is constant, so its step map is one 2x2 matrix built
once; the lab-frame maps are built per step, a chunk of steps at a time.

The maps are chained by a two-level blocked scan (Blelloch 1990) that
streams over the chunks.  A chunk's maps are laid out as (position in block,
block); the running products inside each block are formed sequentially in
the position and vectorized across blocks; the state is carried through the
block totals to give each block's start state, and on into the next chunk;
each kept state is its block's running product applied to its block's start
state.  Memory is O(chunk + records), not O(steps), and the step count is
checked against a budget before anything is allocated.  No renormalization
is applied mid-run: norm drift is a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepBudgetError
from .model import (TWO_PI, ModelParams, Spinor, derived_scales,
                    eigenbasis_components, hamiltonian_elements)

_NORM_TOL = 1e-9
#: steps chained one after another inside a block, each link one
#: vectorized pass over all blocks of a chunk
_BLOCK = 32
#: steps whose maps are held at once, 8192: small enough that the lab
#: frame's temporaries stay in cache (chunks of 65 536 steps ran 1.5-2x
#: slower per step), large enough that each vectorized row spans 256 blocks
_CHUNK = 256 * _BLOCK
#: most RK4 steps one frame may take.  A verify run at the budget
#: (omega'/omega = 0.05 over 256 field periods) takes 13 s and 860 MB on a
#: 2-vCPU x86 VM, up to twice as long when the host is slow: tens of
#: seconds, under 1 GB.  Larger counts come from horizons far beyond the
#: step (t_max / h reaches 1e12 when lambda is tiny) and would take hours
#: and TBs.
_STEP_BUDGET = 50_000_000


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step grid specification.

    The step is min(T', T'') / step_count_per_period; when neither period is
    defined (omega_prime = 0 or lambda = 0) the reference period 2 pi / omega
    is used instead.
    """

    t_max: float
    step_count_per_period: int = 10_000
    record_stride: int = 1

    def __post_init__(self):
        if self.step_count_per_period < 100:
            raise ValueError("step_count_per_period must be >= 100")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if not self.t_max > 0.0:
            raise ValueError("t_max must be > 0")


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one integration.

    coefficients[k] = (C1, C2) in the instantaneous basis,
    spinors[k] = (up, down) in the fixed basis, at times[k].
    """

    times: np.ndarray
    coefficients: np.ndarray
    spinors: np.ndarray

    def norm_drift(self) -> float:
        norms = np.abs(self.coefficients[:, 0]) ** 2 \
            + np.abs(self.coefficients[:, 1]) ** 2
        return float(np.max(np.abs(norms - 1.0)))


def step_size(p: ModelParams, cfg: IntegratorConfig) -> float:
    scales = derived_scales(p)
    base = min(scales.hamiltonian_period, scales.state_period)
    if not math.isfinite(base):
        base = TWO_PI / p.omega
    return base / cfg.step_count_per_period


def _bmm(a, b):
    """Batched 2x2 matrix product.

    Matrix stacks are kept as tuples of four component arrays
    (m00, m01, m10, m11), any of which may be a scalar shared by every
    step; written out by components this is far faster than numpy's batched
    gemm on long (n, 2, 2) stacks.
    """
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _shift(s, k):
    """I + s*K on a component tuple; s a scalar."""
    k00, k01, k10, k11 = k
    return (1.0 + s * k00, s * k01, s * k10, 1.0 + s * k11)


def _rk4_step_matrices(a, b, d, h):
    """RK4 transfer matrices for dy/dt = M(t) y over steps of length h.

    a, b and d are the component tuples of M(t), M(t + h/2) and M(t + h).
    """
    k2 = _bmm(b, _shift(0.5 * h, a))
    k3 = _bmm(b, _shift(0.5 * h, k2))
    k4 = _bmm(d, _shift(h, k3))
    return _shift(h / 6.0, tuple(x1 + 2.0 * (x2 + x3) + x4
                                 for x1, x2, x3, x4 in zip(a, k2, k3, k4)))


def _mm(a, b):
    """2x2 matrix products of stacks indexed (row, column, ...)."""
    return a[:, 0:1] * b[0:1] + a[:, 1:2] * b[1:2]


def _block_prefix(maps, width):
    """Running products G[j] = P[j] @ ... @ P[0] inside every block.

    maps holds the step maps laid out as (position in block, block), or
    scalars when every step has the same map; the products are then shared
    by all blocks and kept as one column.  Returns G as one array indexed
    (position in block, row, column, block).  Sequential in j, vectorized
    across blocks.
    """
    width = width if any(np.ndim(c) for c in maps) else 1
    g = np.empty((_BLOCK, 2, 2, width), dtype=complex)
    for out, c in zip((g[:, 0, 0], g[:, 0, 1], g[:, 1, 0], g[:, 1, 1]), maps):
        out[...] = c
    for j in range(1, _BLOCK):
        g[j] = _mm(g[j], g[j - 1])
    return g


def _running_products(t):
    """T[b] @ ... @ T[0] for every b of a (2, 2, blocks) stack, by doubling.

    Done in log2(blocks) vectorized passes, so carrying the state across a
    chunk's blocks creates no Python object per block.
    """
    t = np.array(t)
    stride = 1
    while stride < t.shape[-1]:
        t[..., stride:] = _mm(t[..., stride:], t[..., :-stride])
        stride *= 2
    return t


def _propagate(step_maps, y0, h, n_steps, record_stride):
    """Chain the RK4 step maps from y0 and keep every record_stride-th state.

    step_maps maps a (_BLOCK, blocks) grid of step indices k to the
    component tuple of the maps from h k to h (k + 1), or to scalars when
    the map is the same for every step.  Steps are taken _CHUNK at a time,
    so memory is O(_CHUNK + records) whatever n_steps.  Returns the record
    times h * keep and the states there.
    """
    keep = np.arange(0, n_steps + 1, record_stride)
    if keep[-1] != n_steps:
        keep = np.append(keep, n_steps)
    states = np.empty((len(keep), 2), dtype=complex)
    states[0] = y0
    state = np.asarray(y0, dtype=complex)
    for first in range(0, n_steps, _CHUNK):
        blocks = -(-min(_CHUNK, n_steps - first) // _BLOCK)
        grid = first + np.arange(_BLOCK)[:, None] + _BLOCK * np.arange(blocks)
        prefix = _block_prefix(step_maps(grid), blocks)
        # carry the state through the block totals: starts[:, b] enters
        # block b, and the state after the last block enters the next chunk
        through = _running_products(
            np.broadcast_to(prefix[-1], (2, 2, blocks)))
        entered = through[:, 0] * state[0] + through[:, 1] * state[1]
        starts = np.concatenate([state[:, None], entered[:, :-1]], axis=1)
        state = entered[:, -1]
        # states after step k = first + 1 + j + _BLOCK b, at the kept k
        lo, hi = np.searchsorted(keep, (first + 1, first + _CHUNK + 1))
        local = keep[lo:hi] - (first + 1)
        j, b = local % _BLOCK, local // _BLOCK
        g = np.broadcast_to(prefix, (_BLOCK, 2, 2, blocks))[j, :, :, b]
        states[lo:hi] = g[:, :, 0] * starts[0, b, None] \
            + g[:, :, 1] * starts[1, b, None]
    return h * keep, states


def _coefficient_generator(p: ModelParams):
    """M for the coefficient equations: constant under delta1 = delta2."""
    delta_dot = p.gauge_b * p.omega_prime
    drive = 1j * 0.5 * p.coupling
    # the phase factors exp(+-i(delta1 - delta2)) on the couplings are 1
    return (1j * (-0.5 * p.detuning + delta_dot), drive,
            drive, 1j * (0.5 * p.detuning + delta_dot))


def _schrodinger_generator(p: ModelParams):
    """-i H(t) for the fixed-basis Schroedinger equation; a scalar diagonal."""
    def matrix_fn(times):
        diag, off = hamiltonian_elements(p, times)
        return -1j * diag, -1j * off, -1j * np.conj(off), 1j * diag

    return matrix_fn


def _n_steps(cfg: IntegratorConfig, h: float) -> int:
    """Steps of length h to reach cfg.t_max, checked against the budget."""
    steps = cfg.t_max / h - 1e-9
    if not steps <= _STEP_BUDGET:
        raise StepBudgetError(
            f"the RK4 oracle would need {steps:.3g} steps per frame "
            f"(t_max = {cfg.t_max:.6g}, h = {h:.6g}), above its budget of "
            f"{_STEP_BUDGET:.0e}; shorten the horizon")
    return max(1, math.ceil(steps))


def integrate_coefficients(p: ModelParams, cfg: IntegratorConfig,
                           c_init=(1.0 + 0.0j, 0.0j)) -> Trajectory:
    """RK4 trajectory of the coefficient equations from c_init.

    c_init may be an AmplitudePair or any (c1, c2) pair.
    """
    if hasattr(c_init, "c1"):
        c_init = (c_init.c1, c_init.c2)
    c0 = np.asarray(c_init, dtype=complex)
    if abs(np.vdot(c0, c0).real - 1.0) > _NORM_TOL:
        raise ValueError("c_init must be normalized")
    h = step_size(p, cfg)
    n_steps = _n_steps(cfg, h)
    m = _coefficient_generator(p)
    step = _rk4_step_matrices(m, m, m, h)
    times, coeffs = _propagate(lambda grid: step, c0, h, n_steps,
                               cfg.record_stride)
    up1, down1, up2, down2 = eigenbasis_components(p, times)
    spinors = np.stack([coeffs[:, 0] * up1 + coeffs[:, 1] * up2,
                        coeffs[:, 0] * down1 + coeffs[:, 1] * down2], axis=1)
    return Trajectory(times=times, coefficients=coeffs, spinors=spinors)


def integrate_lab_frame(p: ModelParams, cfg: IntegratorConfig,
                        psi_init: Spinor) -> Trajectory:
    """RK4 trajectory of i dpsi/dt = H(t) psi, projected onto |1(t)>, |2(t)>."""
    psi0 = psi_init.as_array()
    if abs(np.vdot(psi0, psi0).real - 1.0) > _NORM_TOL:
        raise ValueError("psi_init must be normalized")
    h = step_size(p, cfg)
    n_steps = _n_steps(cfg, h)
    matrix_fn = _schrodinger_generator(p)

    def step_maps(grid):
        # M at both ends of every step: row j + 1 of a block is where step j
        # ends and step j + 1 begins
        ends = matrix_fn(h * np.vstack([grid, grid[-1] + 1]))
        return _rk4_step_matrices(
            tuple(c[:-1] if np.ndim(c) else c for c in ends),
            matrix_fn(h * grid + 0.5 * h),
            tuple(c[1:] if np.ndim(c) else c for c in ends), h)

    times, spinors = _propagate(step_maps, psi0, h, n_steps,
                                cfg.record_stride)
    up1, down1, up2, down2 = eigenbasis_components(p, times)
    coeffs = np.stack(
        [np.conj(up1) * spinors[:, 0] + np.conj(down1) * spinors[:, 1],
         np.conj(up2) * spinors[:, 0] + np.conj(down2) * spinors[:, 1]],
        axis=1)
    return Trajectory(times=times, coefficients=coeffs, spinors=spinors)


def max_deviation(a: Trajectory, b: Trajectory) -> float:
    """Largest coefficient mismatch between two trajectories on one grid."""
    if a.times.shape != b.times.shape or not np.allclose(
            a.times, b.times, rtol=0.0, atol=1e-12):
        raise ValueError("trajectories were recorded on different time grids")
    return float(np.max(np.abs(a.coefficients - b.coefficients)))


def closed_form_trajectory(p: ModelParams, times) -> Trajectory:
    """The closed-form solution sampled on an oracle time grid."""
    from .evolution import amplitude_components, state_components

    times = np.asarray(times, dtype=float)
    c1, c2 = amplitude_components(p, times)
    up, down = state_components(p, times)
    return Trajectory(times=times,
                      coefficients=np.stack([c1, c2], axis=1),
                      spinors=np.stack([up, down], axis=1))
