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
the identity the closed-form solution rests on.  The form is closed under
products, (p1, q1)(p2, q2) = (p1 p2 - q1 q2*, p1 q2 + q1 p2*), so lab maps
are carried as pairs (p, q); the coefficient map is not of it where B != 0.

The maps are chained one record interval at a time, streamed over chunks of
steps: each interval's maps are reduced to one product by pairwise halving,
vectorized across intervals, the totals chained by doubling and the state
carried through them, so every state formed is a record.  Identity maps pad
the last interval; a constant map's totals are built once.  Memory is
O(chunk + records), and the step and record counts are checked against
budgets before any allocation.  Norm drift is a diagnostic: nothing
renormalizes mid-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RecordBudgetError, StepBudgetError
from .evolution import _from_lab, _to_lab, amplitude_components
from .model import ModelParams, Spinor, derived_scales, hamiltonian_elements

_NORM_TOL = 1e-9
#: steps whose maps are held at once, 8192: small enough that the lab
#: frame's temporaries stay in cache (chunks of 65 536 steps ran 1.5-2x
#: slower per step), large enough that each vectorized pass is long
_CHUNK = 8192
#: most RK4 steps one frame may take.  A verify run at the budget
#: (omega'/omega = 0.05 over 256 field periods) takes 6.6 s and 731 MB peak
#: RSS on a 2-vCPU x86 VM.  Larger counts come from horizons far beyond the
#: step (t_max / h reaches 1e12 when lambda is tiny): hours and TBs.
_STEP_BUDGET = 50_000_000
#: most records one frame may keep.  At record_stride 1 a record costs 120 B
#: at peak in the coefficient frame and 153 B in the lab frame (the growth of
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


def _pair_mul(a, b):
    """Products of maps [[p, q], [-q*, p*]] given as pairs (p, q)."""
    (p1, q1), (p2, q2) = a, b
    return p1 * p2 - q1 * np.conj(q2), p1 * q2 + q1 * np.conj(p2)


def _chained_totals(maps, length, count, pad):
    """T[:, i] = the product of the maps of intervals 0 .. i, last first.

    maps is a component tuple, four or a pair, of arrays over count
    intervals of length steps, or of scalars for a constant map; the last
    ``pad`` steps become identities.  Laid out (position in interval,
    interval), intervals are reduced by halving, the totals chained by
    doubling."""
    mul = _pair_mul if len(maps) == 2 else _bmm
    x = [np.ascontiguousarray(np.reshape(c, (count, length)).T) if np.ndim(c)
         else np.full((length, count if pad else 1), c) for c in maps]
    for c, one in zip(x, (1.0, 0.0, 0.0, 1.0)):
        c[length - pad:, -1] = one
    while len(x[0]) > 1:
        n = len(x[0]) // 2 * 2
        y = mul([c[1:n:2] for c in x], [c[0:n:2] for c in x])
        if len(x[0]) > n:  # odd: the last map joins the last pair
            for out, c in zip(y, mul([c[-1] for c in x], [c[-1] for c in y])):
                out[-1] = c
        x = y
    t = np.array([np.broadcast_to(c[0], count) for c in x])
    for step in (1 << k for k in range((count - 1).bit_length())):
        t[:, step:] = mul(t[:, step:], t[:, :-step])
    return t if len(t) == 4 else np.array(  # pairs as [[p, q], [-q*, p*]]
        [t[0], t[1], -np.conj(t[1]), np.conj(t[0])])


def _propagate(step_maps, y0, h, n_steps, record_stride):
    """Chain the RK4 step maps from y0 and keep every record_stride-th state.

    step_maps is the scalar map of every step, or maps (first, n) to the
    maps of steps first .. first + n - 1, from h k to h (k + 1).  Intervals
    are record_stride steps, or its largest divisor that fits a chunk, so
    every record ends one, and are taken a chunk at a time: memory is
    O(_CHUNK + records).  Returns the record times h * keep and the states.
    """
    keep = np.arange(0, n_steps + 1, record_stride)
    if keep[-1] != n_steps:
        keep = np.append(keep, n_steps)
    states = np.empty((len(keep), 2), dtype=complex)
    states[0] = y0
    state = np.asarray(y0, dtype=complex)
    length = next(d for d in range(min(record_stride, _CHUNK), 0, -1)
                  if record_stride % d == 0)
    span = _CHUNK // length * length
    fixed = None if callable(step_maps) else _chained_totals(
        step_maps, length, -(-min(span, n_steps) // length), 0)
    for first in range(0, n_steps, span):
        count = -(-min(span, n_steps - first) // length)
        pad = max(0, first + count * length - n_steps)
        maps = step_maps(first, count * length) if fixed is None \
            else step_maps  # a short unpadded chunk takes the first totals
        through = _chained_totals(maps, length, count, pad) \
            if fixed is None or pad else fixed[:, :count]
        # the states at the interval ends, and the records among them
        ends = through[0::2] * state[0] + through[1::2] * state[1]
        state = ends[:, -1]
        lo, hi = np.searchsorted(keep, (first + 1, first + span + 1))
        states[lo:hi] = ends[:, (keep[lo:hi] - first - 1) // length].T
    return h * keep, states


def _coefficient_generator(p: ModelParams):
    """M for the coefficient equations: constant under delta1 = delta2."""
    delta_dot = p.gauge_b * p.omega_prime
    drive = 1j * 0.5 * p.coupling
    # the phase factors exp(+-i(delta1 - delta2)) on the couplings are 1
    return (1j * (-0.5 * p.detuning + delta_dot), drive,
            drive, 1j * (0.5 * p.detuning + delta_dot))


def _lab_step_maps(p: ModelParams, h: float, first: int, n: int):
    """Closed-form RK4 maps of i dpsi/dt = H psi as pairs (p, q) for
    ``_propagate`` (module docstring), with H at every node h k and
    h k + h/2 from one ``hamiltonian_elements`` call."""
    ends = h * (first + np.arange(n + 1))
    d, off = hamiltonian_elements(
        p, np.concatenate([ends, ends[:-1] + 0.5 * h]))
    # p in the dimensionless h o, h d and eps h^2; q summed in units of H and
    # scaled by h/6 last, like the stage sum: no omega over- or underflows
    u, hd, e = h * off, h * d, (0.5 * p.omega * h) ** 2
    u_c, u_b, bar = u[1:n + 1], u[n + 1:], np.conj(u)
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
    return pp, q


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
