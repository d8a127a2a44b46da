"""Independent numerical ground truth: fixed-step RK4 for both frames.

* ``integrate_coefficients`` advances the instantaneous-basis coefficients
  (C1, C2) under their coupled linear equations;
* ``integrate_lab_frame`` advances the fixed-basis spinor under
  i dpsi/dt = H(t) psi and projects it back onto the gauged eigenstates.

Both are classic fixed-step RK4.  The right-hand side is linear, so a step is
the linear map P = I + h/6 (K1 + 2 K2 + 2 K3 + K4), its stages built from M
at t_n, t_n + h/2 and t_n + h; the constant coefficient generator has one P.

The lab frame's P is written out in closed form.  H = [[d, o], [o*, -d]], d
constant, squares to eps I, eps = d^2 + |o|^2 = (omega/2)^2.  With X = -iH
and A, B, C = X at the three nodes, B^2 = -eps I gives K2 = B + (h/2) BA,
K3 = B - (eps h/2) I - (eps h^2/4) A and
K4 = C + h CB - (eps h^2/2) C - (eps h^3/4) CA, so

    P = I + h/6 [(1 - eps h^2/2)(A + C) + 4B + h(BA + CB) - eps h I
                 - (eps h^3/4) CA].

X_u X_v = -H_u H_v, (H_u H_v)_00 = d^2 + o_u o_v* and (H_u H_v)_01 =
d (o_v - o_u), so P = [[p, q], [-q*, p*]]: p takes o_b o_a*, o_c o_b* and
o_c o_a*, and q is linear in o_a, o_b and o_c.  Each node's H comes from
``hamiltonian_elements`` at its own time; nothing uses how o(t) rotates,
the identity the closed-form solution rests on.

The maps are chained by a two-level blocked scan (Blelloch 1990) streamed
over chunks of steps: running products inside each block, sequential in the
position and vectorized across blocks, then the state carried through the
block totals.  A constant map's scan is built once for all chunks.  Memory
is O(chunk + records), and the step and record counts are checked against
budgets before anything is allocated.  No renormalization is applied
mid-run: norm drift is a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RecordBudgetError, StepBudgetError
from .evolution import _from_lab, _to_lab, amplitude_components
from .model import ModelParams, Spinor, derived_scales, hamiltonian_elements

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
#: most records one frame may keep.  At record_stride 1 a record costs 129 B
#: at peak in the coefficient frame and 161 B in the lab frame (the growth of
#: ru_maxrss over 2e6 steps), so 6e6 records stay under 1 GB in either.
_RECORD_BUDGET = 6_000_000


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step grid specification.

    The step is ``DerivedScales.shortest_period / step_count_per_period``:
    min(T', T''), or 2 pi / omega where neither period is defined.
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
    return derived_scales(p).shortest_period / cfg.step_count_per_period


def _bmm(a, b):
    """2x2 matrix products of component tuples (m00, m01, m10, m11), each an
    array or a scalar; by components this is far faster than numpy's batched
    gemm on long (n, 2, 2) stacks."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _shift(s, k):
    """I + s*K on a component tuple; s a scalar."""
    k00, k01, k10, k11 = k
    return (1.0 + s * k00, s * k01, s * k10, 1.0 + s * k11)


def _rk4_step_matrices(a, b, d, h):
    """RK4 step maps for dy/dt = M y; a, b, d are M at t, t + h/2, t + h."""
    k2 = _bmm(b, _shift(0.5 * h, a))
    k3 = _bmm(b, _shift(0.5 * h, k2))
    k4 = _bmm(d, _shift(h, k3))
    return _shift(h / 6.0, tuple(x1 + 2.0 * (x2 + x3) + x4
                                 for x1, x2, x3, x4 in zip(a, k2, k3, k4)))


def _chunk_scan(maps, blocks):
    """(G, T) for one chunk's component tuple of maps, laid out (position in
    block, block), or scalars if constant.  G[:, j] = P[j] @ ... @ P[0] in
    every block (one column for scalars), sequential in j and vectorized
    across blocks; T[:, b] chains the block totals up to block b, by
    doubling in log2(blocks) passes.  Both are indexed component first."""
    width = blocks if any(np.ndim(c) for c in maps) else 1
    g = np.empty((4, _BLOCK, width), dtype=complex)
    for out, c in zip(g, maps):
        out[...] = c
    for j in range(1, _BLOCK):
        g[:, j] = _bmm(g[:, j], g[:, j - 1])
    t = np.array(np.broadcast_to(g[:, -1], (4, blocks)))
    stride = 1
    while stride < blocks:
        t[:, stride:] = _bmm(t[:, stride:], t[:, :-stride])
        stride *= 2
    return g, t


def _propagate(step_maps, y0, h, n_steps, record_stride):
    """Chain the RK4 step maps from y0 and keep every record_stride-th state.

    step_maps is the component tuple of the one map every step takes, or
    maps (first, blocks) to the maps of steps k = first + j + _BLOCK b, from
    h k to h (k + 1), laid out (j, b).  Steps are taken _CHUNK at a time, so
    memory is O(_CHUNK + records) whatever n_steps.  Returns the record
    times h * keep and the states there.
    """
    keep = np.arange(0, n_steps + 1, record_stride)
    if keep[-1] != n_steps:
        keep = np.append(keep, n_steps)
    states = np.empty((len(keep), 2), dtype=complex)
    states[0] = y0
    state = np.asarray(y0, dtype=complex)
    fixed = not callable(step_maps) and _chunk_scan(step_maps,
                                                    _CHUNK // _BLOCK)
    for first in range(0, n_steps, _CHUNK):
        blocks = -(-min(_CHUNK, n_steps - first) // _BLOCK)
        # a short last chunk takes the first of the fixed block totals
        prefix, through = (fixed[0], fixed[1][:, :blocks]) if fixed \
            else _chunk_scan(step_maps(first, blocks), blocks)
        # carry the state through the block totals: starts[:, b] enters
        # block b, and the state after the last block enters the next chunk
        entered = through[0::2] * state[0] + through[1::2] * state[1]
        starts = np.concatenate([state[:, None], entered[:, :-1]], axis=1)
        state = entered[:, -1]
        # states after step k = first + 1 + j + _BLOCK b, at the kept k
        lo, hi = np.searchsorted(keep, (first + 1, first + _CHUNK + 1))
        local = keep[lo:hi] - (first + 1)
        j, b = local % _BLOCK, local // _BLOCK
        g = np.broadcast_to(prefix, (4, _BLOCK, blocks))[:, j, b]
        s0, s1 = starts[:, b]
        states[lo:hi] = (g[0::2] * s0 + g[1::2] * s1).T
    return h * keep, states


def _coefficient_generator(p: ModelParams):
    """M for the coefficient equations: constant under delta1 = delta2."""
    delta_dot = p.gauge_b * p.omega_prime
    drive = 1j * 0.5 * p.coupling
    # the phase factors exp(+-i(delta1 - delta2)) on the couplings are 1
    return (1j * (-0.5 * p.detuning + delta_dot), drive,
            drive, 1j * (0.5 * p.detuning + delta_dot))


def _lab_step_maps(p: ModelParams, h: float, first: int, blocks: int):
    """Closed-form RK4 maps (p, q, -q*, p*) of i dpsi/dt = H psi for
    ``_propagate`` (module docstring), with H at every node h k and
    h k + h/2 from one ``hamiltonian_elements`` call."""
    n = _BLOCK
    ends = h * (first + np.arange(n + 1)[:, None] + n * np.arange(blocks))
    d, off = hamiltonian_elements(p, np.vstack([ends, ends[:-1] + 0.5 * h]))
    # p in the dimensionless h o, h d and eps h^2; q summed in units of H and
    # scaled by h/6 last, like the stage sum: no omega over- or underflows
    u, hd, e = h * off, h * d, (0.5 * p.omega * h) ** 2
    (u_a, u_c, u_b), bar = (u[:n], u[1:n + 1], u[n + 1:]), np.conj(u)
    q = (off[:n] + off[1:n + 1]) * (-1j * (1.0 - e / 2.0))  # o_a + o_c
    q += (off[1:n + 1] - off[:n]) * (hd * (1.0 - e / 4.0))  # o_c - o_a
    q += off[n + 1:] * -4j  # o_b
    q *= h / 6.0
    pp = u_b * bar[:n]
    pp += u_c * bar[n + 1:]
    pp *= -1.0 / 6.0
    pp += (u_c * bar[:n]) * (e / 24.0)
    pp += complex(-(2.0 * hd * hd + e - e * hd * hd / 4.0) / 6.0,
                  -hd * (1.0 - e / 6.0))
    pp += 1.0  # the one rounding near 1, after every small term
    return pp, q, -np.conj(q), np.conj(pp)


def _n_steps(cfg: IntegratorConfig, h: float) -> int:
    """Steps of length h to reach cfg.t_max, checked against both budgets."""
    steps = cfg.t_max / h - 1e-9
    if not steps <= _STEP_BUDGET:
        raise StepBudgetError(
            f"the RK4 oracle would need {steps:.3g} steps per frame "
            f"(t_max = {cfg.t_max:.6g}, h = {h:.6g}), above its budget of "
            f"{_STEP_BUDGET:.0e}; shorten the horizon")
    n_steps = max(1, math.ceil(steps))
    if (records := -(-n_steps // cfg.record_stride) + 1) > _RECORD_BUDGET:
        raise RecordBudgetError(
            f"the RK4 oracle would keep {records} records per frame, above "
            f"its budget of {_RECORD_BUDGET:.0e}; raise record_stride")
    return n_steps


def integrate_coefficients(p: ModelParams, cfg: IntegratorConfig,
                           c_init=(1.0 + 0.0j, 0.0j)) -> Trajectory:
    """RK4 trajectory of the coefficient equations from the pair c_init."""
    c0 = np.asarray(c_init, dtype=complex)
    if abs(np.vdot(c0, c0).real - 1.0) > _NORM_TOL:
        raise ValueError("c_init must be normalized")
    h = step_size(p, cfg)
    n_steps = _n_steps(cfg, h)
    m = _coefficient_generator(p)
    times, coeffs = _propagate(_rk4_step_matrices(m, m, m, h), c0, h,
                               n_steps, cfg.record_stride)
    spinors = np.stack(_to_lab(p, times, coeffs[:, 0], coeffs[:, 1]), axis=1)
    return Trajectory(times=times, coefficients=coeffs, spinors=spinors)


def integrate_lab_frame(p: ModelParams, cfg: IntegratorConfig,
                        psi_init: Spinor) -> Trajectory:
    """RK4 trajectory of i dpsi/dt = H(t) psi, projected onto |1(t)>, |2(t)>."""
    psi0 = psi_init.as_array()
    if abs(np.vdot(psi0, psi0).real - 1.0) > _NORM_TOL:
        raise ValueError("psi_init must be normalized")
    h = step_size(p, cfg)
    n_steps = _n_steps(cfg, h)
    times, spinors = _propagate(lambda *chunk: _lab_step_maps(p, h, *chunk),
                                psi0, h, n_steps, cfg.record_stride)
    coeffs = np.stack(_from_lab(p, times, spinors[:, 0], spinors[:, 1]), axis=1)
    return Trajectory(times=times, coefficients=coeffs, spinors=spinors)


def max_deviation(a: Trajectory, b: Trajectory) -> float:
    """Largest coefficient mismatch between two trajectories on one grid."""
    if a.times.shape != b.times.shape or not np.allclose(
            a.times, b.times, rtol=0.0, atol=1e-12):
        raise ValueError("trajectories were recorded on different time grids")
    return float(np.max(np.abs(a.coefficients - b.coefficients)))


def closed_form_trajectory(p: ModelParams, times) -> Trajectory:
    """The closed-form solution sampled on an oracle time grid."""
    times = np.asarray(times, dtype=float)
    c1, c2 = amplitude_components(p, times)
    return Trajectory(times=times, coefficients=np.stack([c1, c2], axis=1),
                      spinors=np.stack(_to_lab(p, times, c1, c2), axis=1))
