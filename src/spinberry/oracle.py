"""Independent numerical ground truth: fixed-step RK4 for both frames.

* ``integrate_coefficients`` advances the instantaneous-basis coefficients
  (C1, C2) under their coupled linear equations;
* ``integrate_lab_frame`` advances the fixed-basis spinor under
  i dpsi/dt = H(t) psi and projects it back onto the eigenstates.

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

The lab-frame state has no B in it, and the gauged eigenstates are the
B = 0 ones of ``model.eigenbasis`` times e^{-i B omega' t}, so the lab frame
projects onto those and takes the same factor from ``_gauge_factor``.

In the lab frame H = [[d, o], [o*, -d]], d constant, squares to eps I,
eps = d^2 + |o|^2 = (omega/2)^2.  With X = -iH and A, B, C = X at the three
nodes, B^2 = -eps I gives K2 = B + (h/2) BA,
K3 = B - (eps h/2) I - (eps h^2/4) A and
K4 = C + h CB - (eps h^2/2) C - (eps h^3/4) CA, so

    P = I + h/6 [(1 - eps h^2/2)(A + C) + 4B + h(BA + CB) - eps h I
                 - (eps h^3/4) CA].

X_u X_v = -H_u H_v, (H_u H_v)_00 = d^2 + o_u o_v* and (H_u H_v)_01 =
d (o_v - o_u), so p takes o_b o_a*, o_c o_b* and o_c o_a*, and q is linear
in o_a, o_b and o_c.  o turns at a constant rate, o(t + s) = o(t)
e^{-i omega' s}, so each node's o is one product: a table built once per
run holds h o at the ends of a chunk's steps, counted from its first
(h o(0) from ``hamiltonian_elements``), and each chunk turns it by
e^{-i omega' h first}, or e^{-i omega' h (first + 1/2)} at the midpoints.
Every argument is ``model.field_azimuth``'s, as in ``hamiltonian_elements``,
and alpha enters once, unrounded, so a node's o differs from
``hamiltonian_elements`` at its time only by the rounding of the
arguments, about eps (|alpha| + omega' t) |o|.  The step maps take H at
the nodes alone.  The pair form is closed under products,
(p1, q1)(p2, q2) = (p1 p2 - q1 q2*, p1 q2 + q1 p2*), so both frames' maps
are carried as pairs (p, q), and neither frame's step depends on B.

The maps are chained one record interval at a time.  A chunk's nodes are
laid out (position in interval, interval), so its maps come out in that
layout and each interval's maps are reduced to one product by pairwise
halving, vectorized across intervals.  The interval totals of a batch of
chunks, about ``_BATCH`` intervals, are chained by doubling at once and the
state carried through them, so every state formed is a record.  Identity
maps pad the last interval; a constant map's chained batch is built once.
Every buffer is carved from one block per run and written in place, so no
chunk allocates: memory is O(chunk + batch + records), and the step and
record counts are checked against budgets before any allocation.  Norm
drift is a diagnostic: nothing renormalizes mid-run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import RecordBudgetError, StepBudgetError
from .evolution import amplitude_components, state_components
from .model import (ModelParams, derived_scales, hamiltonian_elements,
                    unit_phasor)

#: steps whose maps are held at once, 8192: small enough that the lab
#: frame's temporaries stay in cache (chunks of 65 536 steps ran 1.5-2x
#: slower per step), large enough that each vectorized pass is long
_CHUNK = 8192
#: interval totals chained at once, about 2000: one doubling per batch of
#: chunks, whose buffers stay in cache
_BATCH = 2048
#: most RK4 steps one frame may take.  A verify run at the budget
#: (omega'/omega = 0.05 over 256 field periods) takes 4.4 s and 532 MB peak
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


def _pair_mul(a, b, out, tmp):
    """out = the products a b of maps [[p, q], [-q*, p*]] given as pairs
    (p, q), with tmp as scratch the size of p; out overlaps neither a nor b."""
    (p1, q1), (p2, q2), (op, oq) = a, b, out
    np.multiply(p1, p2, out=op)
    np.multiply(q1, np.conjugate(q2, out=tmp), out=tmp)
    op -= tmp
    np.multiply(p1, q2, out=oq)
    np.multiply(q1, np.conjugate(p2, out=tmp), out=tmp)
    oq += tmp
    return out


def _carve(*shapes):
    """Complex arrays of the given shapes, laid end to end in one block."""
    sizes = [math.prod(shape) for shape in shapes]
    block = np.empty(sum(sizes), dtype=complex)
    return [block[end - size:end].reshape(shape) for shape, size, end
            in zip(shapes, sizes, itertools.accumulate(sizes))]


def _halve(a, b, rows, n, tmp, out):
    """out = the product of each column of the (rows, n) pair of maps at the
    head of a, last row first, by pairwise halving.  a and b, pairs of flat
    buffers used in turn, and tmp, as large, are overwritten."""
    while rows > 1:
        half = rows // 2
        x = a[:, :rows * n].reshape(2, rows, n)
        y = b[:, :half * n].reshape(2, half, n)
        _pair_mul(x[:, 1:2 * half:2], x[:, 0:2 * half:2], y,
                  tmp[:half * n].reshape(half, n))
        if rows % 2:  # odd: the last map joins the last pair
            y[:, -1] = _pair_mul(x[:, -1], y[:, -1],
                                 tmp[:2 * n].reshape(2, n), tmp[2 * n:3 * n])
        a, b, rows = b, a, half
    out[:] = a[:, :n]


def _chain(t, spare, tmp):
    """The running products t_i ... t_0 of a pair t of interval totals, by
    doubling; returns t or spare, whichever ends up holding them."""
    step = 1
    while step < t.shape[1]:
        spare[:, :step] = t[:, :step]
        _pair_mul(t[:, step:], t[:, :-step], spare[:, step:],
                  tmp[:t.shape[1] - step])
        t, spare, step = spare, t, 2 * step
    return t


def _propagate(step_maps, y0, h, n_steps, record_stride):
    """Chain the RK4 step maps from y0 and keep every record_stride-th state.

    step_maps is the pair (p, q) of every step, or, for maps that vary,
    step_maps(table) is called once with an (L + 1, count) complex scratch
    table, for intervals of L steps and count intervals a chunk, and
    returns write(first, maps, work), which writes the maps of steps
    first + i L + j at maps[:, j, i] (``_lab_frame``).
    Intervals are record_stride steps, or its largest divisor that fits a
    chunk, so every record ends one.  A chunk's maps are reduced to interval
    totals, a batch of chunks' totals chained and the state carried through
    them.  All buffers are carved from one block, so memory is O(_CHUNK +
    _BATCH + records).  Returns the record times h * keep and the states.
    """
    keep = np.arange(0, n_steps + 1, record_stride)
    if keep[-1] != n_steps:
        keep = np.append(keep, n_steps)
    states = np.empty((len(keep), 2), dtype=complex)
    states[0] = y0
    state = states[0].tolist()
    length = next(d for d in range(min(record_stride, _CHUNK), 0, -1)
                  if record_stride % d == 0)
    intervals = -(-n_steps // length)
    pad = intervals * length - n_steps  # identities that end the last one
    count = min(_CHUNK // length, intervals)  # intervals per chunk
    batch = min(max(1, _BATCH // count) * count, intervals)
    size = length * count
    lab = callable(step_maps)
    # one layout for both frames
    maps, tmp, totals, ends, constant, work, table = _carve(
        (2, size), (max(size, batch),), (2, batch), (2, batch), (2, 2),
        (max(4 * size + count, 2 * batch),), (length + 1, count))
    spare = work[:2 * size].reshape(2, size)
    if lab:
        step_maps = step_maps(table)
    else:  # the total of an interval, and of the padded last one
        for column in range(1 + bool(pad)):
            maps[:, :length] = np.reshape(step_maps, (2, 1))
            maps[:, length - column * pad:length] = [[1.0], [0.0]]
            _halve(maps, spare, length, 1, tmp,
                   constant[:, column:column + 1])
    through = None
    for b0 in range(0, intervals, batch):
        nb = min(batch, intervals - b0)
        padded = pad and b0 + nb == intervals
        if lab or through is None or padded:  # a constant map's chain is kept
            if lab:
                for c0 in range(b0, b0 + nb, count):
                    n = min(count, b0 + nb - c0)
                    x = maps[:, :length * n].reshape(2, length, n)
                    step_maps(c0 * length, x, work)
                    if padded and c0 + n == intervals:
                        x[:, length - pad:, -1] = [[1.0], [0.0]]
                    _halve(maps, spare, length, n, tmp,
                           totals[:, c0 - b0:c0 - b0 + n])
            else:
                totals[:, :nb] = constant[:, :1]
                if padded:
                    totals[:, nb - 1] = constant[:, 1]
            through = _chain(totals[:, :nb], work[:2 * nb].reshape(2, nb),
                             tmp)
        # the states at the interval ends, and the records among them
        (tp, tq), (up, down), w = through[:, :nb], ends[:, :nb], tmp[:nb]
        np.multiply(tp, state[0], out=up)
        up += np.multiply(tq, state[1], out=w)
        np.multiply(np.negative(np.conjugate(tq, out=w), out=w), state[0],
                    out=w)
        np.multiply(np.conjugate(tp, out=down), state[1], out=down)
        down += w
        state = ends[:, nb - 1].tolist()
        lo, hi = np.searchsorted(keep, (b0 * length + 1,
                                        (b0 + nb) * length + 1))
        states[lo:hi] = ends[:, (keep[lo:hi] - b0 * length - 1) // length].T
    return h * keep, states


def _coefficient_step_map(p: ModelParams, h: float):
    """The RK4 map of dD/dt = N D as a pair (p, q) (module docstring)."""
    e = (0.5 * p.rabi_rate * h) ** 2  # s^2
    half = 0.5 * h * (1.0 - e / 6.0)
    return (complex(1.0 + e * (e / 24.0 - 0.5), -half * p.detuning),
            complex(0.0, half * p.coupling))


def _lab_frame(p: ModelParams, h: float, table):
    """``_propagate``'s chunk writer for the lab frame, once the (L + 1, c)
    table holds h o(h m) = h o(0) e^{-i omega' h m} at m = i L + j at
    [j, i]: the ends of a chunk's steps, counted from its first.  Built in
    place, no temporary longer than a row or a column; H at t = 0 comes
    from ``hamiltonian_elements``."""
    length = table.shape[0] - 1
    np.add.outer(np.arange(length + 1.0),
                 np.arange(0.0, length * table.shape[1], length),
                 out=table.real)
    d, o = hamiltonian_elements(p, 0.0)
    unit_phasor(model.field_azimuth(p.omega_prime * h, table.real,
                                    out=table.real), out=table)
    table *= h * o

    def write(first, maps, work):
        rows, n = maps.shape[1:]
        size = rows * n
        nodes = (work[:size].reshape(rows, n),
                 work[size:2 * size + n].reshape(rows + 1, n))
        _lab_nodes(p, h, first, table, nodes)
        _lab_step_maps(p, h, d, nodes, maps, work[2 * size + n:])
    return write


def _lab_nodes(p: ModelParams, h: float, first, table, out):
    """h o at the nodes of steps first + m, written into the pair out =
    (mid, end), shaped (L, n) and (L + 1, n): the first n columns of the
    table (``_lab_frame``) times e^{-i omega' h first} at the ends and
    e^{-i omega' h (first + 1/2)} at the midpoints, one product a node."""
    mid, end = out
    n = mid.shape[1]
    for nodes, phasors, start in ((mid, table[:-1, :n], first + 0.5),
                                  (end, table[:, :n], first)):
        turn = unit_phasor(model.field_azimuth(p.omega_prime * h, start))
        np.multiply(phasors, turn, out=nodes)


def _lab_step_maps(p: ModelParams, h: float, d, nodes, maps, work):
    """Closed-form RK4 maps of i dpsi/dt = H psi (module docstring) as pairs
    (p, q), written into the pair of (L, n) arrays maps, from H at the nodes
    alone: its diagonal d and the pair nodes = (mid, end) of h o at the
    midpoints, (L, n), and ends, (L + 1, n), of the steps, [j, i] the step
    from end[j, i] to end[j + 1, i] (``_lab_nodes``).  work is complex
    scratch of 2 L n."""
    mid, end = nodes
    rows, n = mid.shape
    size = rows * n
    # p and q in the dimensionless h o, h d and eps h^2, q scaled by 1/6
    # last, like the stage sum: no omega over- or underflows (in units of H,
    # q's 4 o_b overflows from omega ~ 8.9e307)
    hd, e = h * d, (0.5 * p.omega * h) ** 2
    u_a, u_b, u_c = end[:-1], mid, end[1:]
    x, y = (work[k:k + size].reshape(rows, n) for k in (0, size))
    pp, q = maps
    np.multiply(np.add(u_a, u_c, out=q), -1j * (1.0 - e / 2.0), out=q)
    q += np.multiply(np.subtract(u_c, u_a, out=x), hd * (1.0 - e / 4.0),
                     out=x)
    q += np.multiply(u_b, -4j, out=x)
    q *= 1.0 / 6.0
    np.multiply(u_b, np.conjugate(u_a, out=x), out=pp)
    pp += np.multiply(u_c, np.conjugate(u_b, out=y), out=y)
    pp *= -1.0 / 6.0
    pp += np.multiply(np.multiply(u_c, x, out=x), e / 24.0, out=x)
    pp += complex(-(2.0 * hd * hd + e - e * hd * hd / 4.0) / 6.0,
                  -hd * (1.0 - e / 6.0))
    pp += 1.0  # the one rounding near 1, after every small term


def step_count(p: ModelParams, cfg: IntegratorConfig) -> int:
    """RK4 steps of one frame to reach cfg.t_max, checked against the step
    and record budgets before anything is allocated."""
    h = step_size(p, cfg)
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


def _gauge_factor(p: ModelParams, times):
    """e^{i B omega' t} at each record time, the column both frames' take."""
    return unit_phasor(p.gauge_b * p.omega_prime * times)[:, None]


def integrate_coefficients(p: ModelParams, cfg: IntegratorConfig) -> Trajectory:
    """RK4 trajectory of the coefficient equations from (C1, C2) = (1, 0):
    dD/dt = N D by RK4, each record times its gauge factor e^{i B omega' t}."""
    h, n_steps = step_size(p, cfg), step_count(p, cfg)
    times, coeffs = _propagate(_coefficient_step_map(p, h), (1.0, 0.0), h,
                               n_steps, cfg.record_stride)
    coeffs *= _gauge_factor(p, times)
    return Trajectory(times=times, coefficients=coeffs)


def integrate_lab_frame(p: ModelParams, cfg: IntegratorConfig) -> Trajectory:
    """RK4 trajectory of i dpsi/dt = H(t) psi from |1(0)>, in |1(t)>, |2(t)>:
    (<1|psi>, <2|psi>) at B = 0, the inverse of ``state_components``, times
    the gauge factor e^{i B omega' t}."""
    h, n_steps = step_size(p, cfg), step_count(p, cfg)
    times, spinors = _propagate(lambda table: _lab_frame(p, h, table),
                                state_components(p, 0.0), h, n_steps,
                                cfg.record_stride)
    e_up, e_down, c, s = model.eigenbasis(p, times)
    up, down = np.conj(e_up) * spinors[:, 0], np.conj(e_down) * spinors[:, 1]
    coeffs = np.stack((c * up + s * down, s * up - c * down), axis=1)
    coeffs *= _gauge_factor(p, times)
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
