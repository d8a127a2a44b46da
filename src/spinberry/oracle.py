"""Independent numerical ground truth: fixed-step RK4 for both frames.

* ``integrate_coefficients`` advances the instantaneous-basis coefficients
  (C1, C2) under their coupled linear equations;
* ``integrate_lab_frame`` advances the fixed-basis spinor under
  i dpsi/dt = H(t) psi and projects it back onto the gauged eigenstates.

Both start at |1(0)>, the one start the closed form solves, and are classic
fixed-step RK4.  The right-hand side is linear, so a step is the linear map
P = I + h/6 (K1 + 2 K2 + 2 K3 + K4), its stages built from the generator at
t_n, t_n + h/2 and t_n + h.  In both frames P is written out in closed form
and is a pair form [[p, q], [-q*, p*]].

With delta1 = delta2 = A + B omega' t the coefficient equations are
dC/dt = (N + i B omega' I) C, N = (i/2)[[-d, k], [k, d]] constant, d the
detuning and k the coupling.  The scalar term's exact solution is the gauge
factor e^{i B omega' t}, so the oracle integrates dD/dt = N D and multiplies
each record by that factor.  N^2 = -(lambda/2)^2 I, so with s = lambda h/2
the one map of every step is P = (1 - s^2/2 + s^4/24) I + (1 - s^2/6) h N:
p = 1 - s^2/2 + s^4/24 - i (1 - s^2/6) h d/2, q = i (1 - s^2/6) h k/2.

In the lab frame H = [[d, o], [o*, -d]], d constant, squares to eps I,
eps = d^2 + |o|^2 = (omega/2)^2.  With X = -iH and A, B, C = X at the three
nodes, B^2 = -eps I gives K2 = B + (h/2) BA,
K3 = B - (eps h/2) I - (eps h^2/4) A and
K4 = C + h CB - (eps h^2/2) C - (eps h^3/4) CA, so

    P = I + h/6 [(1 - eps h^2/2)(A + C) + 4B + h(BA + CB) - eps h I
                 - (eps h^3/4) CA].

X_u X_v = -H_u H_v, (H_u H_v)_00 = d^2 + o_u o_v* and (H_u H_v)_01 =
d (o_v - o_u), so p takes o_b o_a*, o_c o_b* and o_c o_a*, and q is linear
in o_a, o_b and o_c.  Each node's H comes from ``hamiltonian_elements`` at
its own time; nothing uses how o(t) rotates, the identity the closed-form
solution rests on.  The pair form is closed under products,
(p1, q1)(p2, q2) = (p1 p2 - q1 q2*, p1 q2 + q1 p2*), so both frames' maps
are carried as pairs (p, q), and neither frame's step depends on B.

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
from .evolution import _from_lab, amplitude_components, state_components
from .model import (ModelParams, derived_scales, hamiltonian_elements,
                    unit_phasor)

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
    """Fixed-step grid specification; ``step_size`` sets the step."""

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

    coefficients[k] = (C1, C2) in the instantaneous basis at times[k];
    spinors[k] = (up, down) in the fixed basis, kept by the lab frame only.
    """

    times: np.ndarray
    coefficients: np.ndarray
    spinors: np.ndarray | None = None

    def norm_drift(self) -> float:
        norms = np.abs(self.coefficients[:, 0]) ** 2 \
            + np.abs(self.coefficients[:, 1]) ** 2
        return float(np.max(np.abs(norms - 1.0)))


def step_size(p: ModelParams, cfg: IntegratorConfig) -> float:
    """The shorter of T' and T'', or 2 pi / omega where neither is defined,
    over cfg.step_count_per_period."""
    return derived_scales(p).shortest_period / cfg.step_count_per_period


def _pair_mul(a, b):
    """Products of maps [[p, q], [-q*, p*]] given as pairs (p, q)."""
    (p1, q1), (p2, q2) = a, b
    return p1 * p2 - q1 * np.conj(q2), p1 * q2 + q1 * np.conj(p2)


def _chained_totals(maps, length, count, pad):
    """T[:, i] = the pair (p, q) of the product of the maps of intervals
    0 .. i, last first.

    maps is a pair of arrays over count intervals of length steps, or of
    scalars for a constant map; the last ``pad`` steps become identities.
    Laid out (position in interval, interval), intervals are reduced by
    halving, the totals chained by doubling."""
    x = [np.ascontiguousarray(np.reshape(c, (count, length)).T) if np.ndim(c)
         else np.full((length, count if pad else 1), c) for c in maps]
    for c, one in zip(x, (1.0, 0.0)):
        c[length - pad:, -1] = one
    while len(x[0]) > 1:
        n = len(x[0]) // 2 * 2
        y = _pair_mul([c[1:n:2] for c in x], [c[0:n:2] for c in x])
        if len(x[0]) > n:  # odd: the last map joins the last pair
            for out, c in zip(y, _pair_mul([c[-1] for c in x],
                                           [c[-1] for c in y])):
                out[-1] = c
        x = y
    t = np.array([np.broadcast_to(c[0], count) for c in x])
    for step in (1 << k for k in range((count - 1).bit_length())):
        t[:, step:] = _pair_mul(t[:, step:], t[:, :-step])
    return t


def _propagate(step_maps, y0, h, n_steps, record_stride):
    """Chain the RK4 step maps from y0 and keep every record_stride-th state.

    step_maps is the pair (p, q) of every step, or maps (first, n) to the
    pairs of steps first .. first + n - 1, from h k to h (k + 1).  Intervals
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
        tp, tq = through
        ends = np.array([tp, -np.conj(tq)]) * state[0] \
            + np.array([tq, np.conj(tp)]) * state[1]
        state = ends[:, -1]
        lo, hi = np.searchsorted(keep, (first + 1, first + span + 1))
        states[lo:hi] = ends[:, (keep[lo:hi] - first - 1) // length].T
    return h * keep, states


def _coefficient_step_map(p: ModelParams, h: float):
    """The RK4 map of dD/dt = N D as a pair (p, q) (module docstring)."""
    e = (0.5 * p.rabi_rate * h) ** 2  # s^2
    half = 0.5 * h * (1.0 - e / 6.0)
    return (complex(1.0 + e * (e / 24.0 - 0.5), -half * p.detuning),
            complex(0.0, half * p.coupling))


def _lab_step_maps(p: ModelParams, h: float, first: int, n: int):
    """Closed-form RK4 maps of i dpsi/dt = H psi as pairs (p, q) for
    ``_propagate`` (module docstring), with H at every node h k and
    h k + h/2 from one ``hamiltonian_elements`` call."""
    ends = h * (first + np.arange(n + 1))
    d, off = hamiltonian_elements(
        p, np.concatenate([ends, ends[:-1] + 0.5 * h]))
    # p and q in the dimensionless h o, h d and eps h^2, q scaled by 1/6
    # last, like the stage sum: no omega over- or underflows (in units of H,
    # q's 4 o_b overflows from omega ~ 8.9e307)
    u, hd, e = h * off, h * d, (0.5 * p.omega * h) ** 2
    u_a, u_c, u_b, bar = u[:n], u[1:n + 1], u[n + 1:], np.conj(u)
    q = (u_a + u_c) * (-1j * (1.0 - e / 2.0))
    q += (u_c - u_a) * (hd * (1.0 - e / 4.0))
    q += u_b * -4j
    q *= 1.0 / 6.0
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


def integrate_coefficients(p: ModelParams, cfg: IntegratorConfig) -> Trajectory:
    """RK4 trajectory of the coefficient equations from (C1, C2) = (1, 0):
    dD/dt = N D by RK4, each record times its gauge factor e^{i B omega' t}."""
    h = step_size(p, cfg)
    n_steps = _n_steps(cfg, h)
    times, coeffs = _propagate(_coefficient_step_map(p, h), (1.0, 0.0), h,
                               n_steps, cfg.record_stride)
    coeffs *= unit_phasor(p.gauge_b * p.omega_prime * times)[:, None]
    return Trajectory(times=times, coefficients=coeffs)


def integrate_lab_frame(p: ModelParams, cfg: IntegratorConfig) -> Trajectory:
    """RK4 trajectory of i dpsi/dt = H(t) psi from |1(0)>, in |1(t)>, |2(t)>."""
    h = step_size(p, cfg)
    n_steps = _n_steps(cfg, h)
    times, spinors = _propagate(lambda *chunk: _lab_step_maps(p, h, *chunk),
                                state_components(p, 0.0), h, n_steps,
                                cfg.record_stride)
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
    return Trajectory(times=times, coefficients=np.stack(
        amplitude_components(p, times), axis=1))
