"""Independent numerical ground truth: fixed-step RK4 for both frames.

* ``integrate_coefficients`` advances the instantaneous-basis coefficients
  (C1, C2) under their coupled linear equations;
* ``integrate_lab_frame`` advances the fixed-basis spinor under
  i dpsi/dt = H(t) psi and records its components on the eigenstates.

Both start at |1(0)>, the one start the closed form solves, and are classic
fixed-step RK4.  The right-hand side is linear, so a step is the linear map
P = I + h/6 (K1 + 2 K2 + 2 K3 + K4), its stages built from the generator at
t_n, t_n + h/2 and t_n + h.  In both frames P is written out in closed form
and is a pair form [[p, q], [-q*, p*]], and both frames take the powers of
one constant map from (1, 0).

With delta1 = delta2 = A + B omega' t the coefficient equations are
dC/dt = (N + i B omega' I) C, N = (i/2)[[-d, k], [k, d]] constant, d the
detuning and k the coupling.  The scalar term's exact solution is the gauge
factor e^{i B omega' t}, so the oracle integrates dD/dt = N D, and its
records take that factor.  N^2 = -(lambda/2)^2 I, so with s = lambda h/2
the one map of every step is P = (1 - s^2/2 + s^4/24) I + (1 - s^2/6) h N:
p = 1 - s^2/2 + s^4/24 - i (1 - s^2/6) h d/2, q = i (1 - s^2/6) h k/2.
At lambda = 0, s, d and k vanish and P is exactly I.

In the lab frame H = [[d, o], [o*, -d]], d constant, squares to eps I,
eps = d^2 + |o|^2 = (omega/2)^2.  With X = -iH and A, B, C = X at the three
nodes, B^2 = -eps I gives K2 = B + (h/2) BA,
K3 = B - (eps h/2) I - (eps h^2/4) A and
K4 = C + h CB - (eps h^2/2) C - (eps h^3/4) CA, so

    P = I + h/6 [(1 - eps h^2/2)(A + C) + 4B + h(BA + CB) - eps h I
                 - (eps h^3/4) CA].

X_u X_v = -H_u H_v, (H_u H_v)_00 = d^2 + o_u o_v* and (H_u H_v)_01 =
d (o_v - o_u), so p takes o_b o_a*, o_c o_b* and o_c o_a*, and q is linear
in o_a, o_b and o_c.

The field turns about z at a constant rate, o(t + s) = o(t) e^{i phi(s)},
phi(s) = -omega' s from ``model.field_azimuth``, so with
U(s) = diag(e^{i phi(s)/2}, e^{-i phi(s)/2}), H(t + s) = U(s) H(t) U(s)^H.
Step m's stages are polynomials in H at h m, h m + h/2 and h m + h, so its
map is P_m = U(h m) P_0 U(h m)^H, and n steps chain to

    P_{n-1} ... P_1 P_0 = U(h n) Q^n,    Q = U(-h) P_0.

P_0 takes h o(0) from ``hamiltonian_elements`` at t = 0, alpha in it once
and unrounded, times the phasors of phi at 0, h/2 and h.  U(-h) =
diag(u, u*), u = e^{ix}, enters as p u - 1 = (p - 1) u + (u - 1),
u - 1 = -2 sin^2(x/2) + i sin x.  Both maps are carried as (a, q),
a = p - 1, so p is never rounded near 1, and neither depends on B.

The eigenstates turn with the field: E(t) = U(t) E for E(t) = [|1(t)>,
|2(t)>] of ``model.eigenbasis`` (B = 0) and E = E(0), so the lab record
(<1(t)|psi>, <2(t)|psi>) at t = h k is (E^H Q E)^k (1, 0) times the gauge
factor (psi has no B in it), which ``integrate_lab_frame`` applies.
E = diag(e_up, e_down) R takes q to q~ = q e_up* e_down, then
R = s sigma_x + c sigma_z turns Re p I + i (Im p sigma_z + Im q~ sigma_x)
+ Re q~ i sigma_y about y by beta (cos beta = c^2 - s^2, sin beta = 2 c s):

    a' = a_r + i (cos beta a_i + sin beta Im q~),
    q' = -Re q~ + i (sin beta a_i - cos beta Im q~),

with a_r unrounded, as Re p is the trace.

Record k is Q^k (1, 0) in closed form.  Q = Re p I + M, M = [[i Im p, q],
[-q*, -i Im p]], and M^2 = -w^2 I, w = hypot(Im p, |q|), so J = M/w squares
to -I.  With r^2 = |p|^2 + |q|^2 and theta = atan2(w, Re p),
Q = r (cos theta I + sin theta J), so

    Q^k = r^k (cos k theta I + sin k theta J),

with the sine term dropped where w = 0 (M = 0).  r^k e^{i k theta} =
e^{k rate}, rate = log r + i theta, log r = log1p(r^2 - 1)/2, r^2 - 1 =
a_r (2 + a_r) + a_i^2 + |q|^2 from a = p - 1.  The records sit at k =
j stride, so at j = _FINE m + f, e^{k rate} is e^{(_FINE m stride) rate}
e^{(f stride) rate}, one complex product of two short tables' exps; only
a last k off the stride takes its own exp.  Each record's rounding is its
own: a few eps k theta from the rounding of theta and of the exps'
arguments, a few eps from the two exps and their product, and about
eps theta^2 a step from r^2 - 1's, with no rounded map reapplied step by
step.  J^H J = I, so a record's norm^2 is r^{2k}, and nothing
renormalizes.

There is one record grid: h = ``step_size``, the shortest period over
_STEPS_PER_PERIOD, every _STRIDE-th step and the last, its step count
checked against the budget first.  ``fold`` runs it for verify, both
frames and the closed form _BLOCK records at a time in O(_BLOCK) memory,
at B = 0, as each of its lines is a modulus or a difference of two records
with one gauge factor; the collectors ``integrate_*`` run the same grid and
keep its records, each times its gauge factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import evolution, model, phases
from .errors import StepBudgetError
from .evolution import _BLOCK, amplitude_components
from .model import (ModelParams, derived_scales, gauge_factor,
                    hamiltonian_elements, unit_phasor)

#: most RK4 steps one frame may take.  A verify run at the budget
#: (omega'/omega = 0.05 over 255 field periods) takes 0.17-0.21 s in-process
#: and 32 MB peak RSS on a 2-vCPU x86 VM.  t_max / h reaches 1e12 when lambda
#: is tiny: hours of records even at the stride.  At _STRIDE it caps a frame
#: at 2.0 M records, which the fold keeps a block of at a time.
_STEP_BUDGET = 50_000_000
#: RK4 steps per shortest period, and the steps per record: 400 records a
#: shortest period
_STEPS_PER_PERIOD = 10_000
_STRIDE = 25
#: fine steps of ``propagate``'s power table, a divisor of _BLOCK so that no
#: block forms a row of the table twice
_FINE = 64


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one integration: coefficients[k] = (C1, C2) in
    the instantaneous basis at times[k]."""

    times: np.ndarray
    coefficients: np.ndarray

    def norm_drift(self) -> float:
        return float(np.max([drift(self.coefficients[block].T)
                             for block in _blocks(len(self.times))]))


def step_size(p: ModelParams) -> float:
    """The shorter of T' and T'', or 2 pi / omega where neither is defined,
    over _STEPS_PER_PERIOD."""
    return derived_scales(p).shortest_period / _STEPS_PER_PERIOD


def _blocks(n):
    """Slices of at most _BLOCK of n records, in turn."""
    return (slice(start, start + _BLOCK) for start in range(0, n, _BLOCK))


def _record_count(n_steps: int, stride: int) -> int:
    """Records of a grid of n_steps: every stride-th step and the last."""
    return -(-n_steps // stride) + 1


def record_blocks(h: float, n_steps: int, stride: int):
    """(rows, k, h k) of the record grid, k every stride-th step and the
    last, n_steps (h and n_steps from ``steps``), a slice rows of at most
    _BLOCK records at a time.  B enters no line folded over them."""
    records = _record_count(n_steps, stride)
    for rows in _blocks(records):
        keep = np.arange(rows.start, min(rows.stop, records)) * float(stride)
        if rows.stop >= records:  # the last block ends at n_steps
            keep[-1] = n_steps
        yield rows, keep, keep * h


def frame_maps(p: ModelParams, h: float):
    """Both frames' constant RK4 step maps at step h, coefficient then lab
    (on the t = 0 eigenbasis), as (p - 1, q) (module docstring)."""
    return _coefficient_step_map(p, h), _on_eigenbasis(p, _lab_step_map(p, h))


def propagate(step_map, keep, stride):
    """Q^k (1, 0) at B = 0, which no fold line reads, at the step indices k
    of keep, a block of ``record_blocks``, as columns (C1, C2).
    Q = [[p, q], [-q*, p*]] is a constant RK4 step map given as (p - 1, q):
    r^k (cos k theta (1, 0) + sin k theta J (1, 0)) (module docstring),
    J (1, 0) = (i Im p, -q*)/w, or 0 where w = 0.  A record's rounding is
    a few eps k theta plus the few eps of one product of two exps
    (``_powers``): its own, never compounded over the steps."""
    a, q = step_map
    w = math.hypot(a.imag, abs(q))
    r2_less_1 = a.real * (2.0 + a.real) + a.imag ** 2 + abs(q) ** 2
    power = _powers(complex(0.5 * math.log1p(r2_less_1),
                            math.atan2(w, 1.0 + a.real)), keep, stride)
    # the real part times (1, 0) and the imaginary J (1, 0), as real
    # products into the halves of the columns
    j1, j2 = (0.0, 0j) if w == 0.0 else (a.imag / w, -q.conjugate() / w)
    c1, c2 = np.empty((2, len(keep)), dtype=complex)
    c1.real = power.real
    np.multiply(power.imag, j1, out=c1.imag)
    np.multiply(power.imag, j2.real, out=c2.real)
    np.multiply(power.imag, j2.imag, out=c2.imag)
    return c1, c2


def _powers(rate, keep, stride):
    """e^{k rate} = r^k e^{i k theta} at the k of keep, k = j stride at
    consecutive j, the last k perhaps off the stride.  At j = _FINE m + f it
    is e^{(_FINE m stride) rate} e^{(f stride) rate}, one complex product of
    two short tables' exps; a k off the stride takes its own exp.  The
    products are formed a whole row of _FINE at a time, so a record's bits
    depend on its k alone, whatever block holds it."""
    on = len(keep) - bool(keep[-1] % stride)  # records on the stride
    first = int(keep[0]) // stride if on else 0  # the j of keep[0]
    m = np.arange(first // _FINE, -(-(first + on) // _FINE))
    coarse = np.exp(np.multiply(m * float(_FINE * stride), rate))
    fine = np.exp(np.multiply(np.arange(_FINE) * float(stride), rate))
    power = np.empty(m.size * _FINE + 1, dtype=complex)
    np.multiply(coarse[:, None], fine, out=power[:-1].reshape(m.size, _FINE))
    power = power[first % _FINE:][:len(keep)]
    if on < len(keep):
        power[-1] = np.exp(keep[-1] * rate)
    return power


def deviation(a, b):
    """max |a - b| over two pairs of columns (C1, C2), nan if any is."""
    return np.maximum(*(np.max(np.abs(x - y)) for x, y in zip(a, b)))


def drift(columns):
    """max |n - 1| over n = |C1|^2 + |C2|^2 of the columns (C1, C2), from
    n's least and greatest as fl(n - 1) is monotone in n; nan if any n is."""
    c1, c2 = columns
    norms = np.abs(c1) ** 2
    norms += np.abs(c2) ** 2
    return np.maximum(norms.max() - 1.0, 1.0 - norms.min())


def fold(p: ModelParams, h: float, n_steps: int):
    """verify's five oracle lines over the one record grid of n_steps at
    step h (both from ``steps``), the grid the collectors run too, and
    whether it holds a Simpson panel.  The lines are the largest |closed
    form - coefficient records| and |closed form - lab records|, both
    ``drift``s and the Simpson phi_D error (``_dynamical_phase_error``),
    reduced _BLOCK records at a time, each block dropped once reduced.  The
    fold runs at B = 0: each line is a modulus or a difference of two
    records with one gauge factor."""
    frames = frame_maps(p, h)
    last = 2 * (n_steps // _STRIDE // 2)  # the last Simpson panel's end
    scale, carry, lines = -(p.omega * h) * _STRIDE / 6.0, (0.0, []), []
    for rows, keep, times in record_blocks(h, n_steps, _STRIDE):
        # amplitude_components' body at B = 0: no block driver, copy or gauge
        closed = evolution._ungauged(p, *evolution._core(p, times))
        coeff, lab = (propagate(frame, keep, _STRIDE) for frame in frames)
        panel = slice(max(0, last + 1 - rows.start))
        error, carry = _dynamical_phase_error(
            p, scale, times[panel], [c[panel] for c in lab], carry)
        lines.append((deviation(closed, coeff), deviation(closed, lab),
                      drift(coeff), drift(closed), error))
    return np.max(lines, axis=0).tolist(), last > 0


def _dynamical_phase_error(p: ModelParams, scale, times, lab, carry):
    """(max |phi_D - S| / (1 + |phi_D|) over the Simpson panels ending in a
    block, -inf if none, and the carry).  The lab records are (C1, C2) where
    H = diag(omega/2, -omega/2), so S is -(omega/2) times Simpson's running
    integral of f = |C1|^2 - |C2|^2, scale = -(omega h) _STRIDE / 6 times
    its sum.  times and lab end at the last panel's end, never at the last
    record, n_steps, which may be off the stride grid.  carry, (0, none) at
    first, is the running sum, which starts the next block's cumsum, and f
    of the panel left open, which starts its f: so S is the one cumsum of
    (f[2j] + 4 f[2j+1]) + f[2j+2], bit for bit.

    Simpson's error is (D^4/180)(f'''(t) - f'''(0)) to leading order, D =
    _STRIDE h, and |f'''| <= (k/lambda)^2 lambda^3, k the coupling: S is
    off by at most (omega / 2 lambda)(lambda D)^4 / 180.  The shortest
    period 2 pi / max(omega', lambda) holds 400 records, so lambda D <=
    (2 pi / 400) lambda / max(omega', lambda), and max(omega', lambda) >=
    omega/2: the error is at most (2 pi / 400)^4 / 180 = 3.4e-10.  h <=
    4 pi / omega, so omega h, taken first, overflows at no omega."""
    total, opened = carry
    f = np.concatenate((opened, np.abs(lab[0]) ** 2 - np.abs(lab[1]) ** 2))
    end = 2 * ((len(f) - 1) // 2)  # of the block's last whole panel
    sums = f[:end:2] + 4.0 * f[1:end:2] + f[2:end + 1:2]
    running = np.cumsum(np.append(total, sums))
    exact = phases._dynamical_phase(p, times[2 - len(opened)::2][:len(sums)])
    worst = np.max(np.abs(exact - running[1:] * scale)
                   / (1.0 + np.abs(exact)), initial=-np.inf)
    return worst, (running[-1], f[end:])


def _coefficient_step_map(p: ModelParams, h: float):
    """The RK4 map [[p, q], [-q*, p*]] of dD/dt = N D as (p - 1, q) (module
    docstring)."""
    e = (0.5 * p.rabi_rate * h) ** 2  # s^2
    half = 0.5 * (1.0 - e / 6.0)  # h d and h k first: h may be subnormal
    return (complex(e * (e / 24.0 - 0.5), -half * (h * p.detuning)),
            complex(0.0, half * (h * p.coupling)))


def _lab_step_map(p: ModelParams, h: float):
    """Q = U(-h) P_0 = [[p, q], [-q*, p*]] as (p - 1, q), P_0 the closed-form
    RK4 map of i dpsi/dt = H psi over [0, h] from H at its three nodes alone
    (module docstring)."""
    d, o = hamiltonian_elements(p, 0.0)
    u_a, u_b, u_c = (h * o * unit_phasor(model.field_azimuth(
        p.omega_prime, np.array([0.0, 0.5, 1.0]) * h))).tolist()
    # p - 1 and q in the dimensionless h o, h d and eps h^2, q scaled by
    # 1/6 last, like the stage sum: no omega over- or underflows (in units
    # of H, q's 4 o_b overflows from omega ~ 8.9e307)
    hd, e = h * d, (0.5 * p.omega * h) ** 2
    q = (-1j * (1.0 - e / 2.0) * (u_a + u_c)
         + hd * (1.0 - e / 4.0) * (u_c - u_a) - 4j * u_b) / 6.0
    p_less_1 = (-(u_b * u_a.conjugate() + u_c * u_b.conjugate()) / 6.0
                + e / 24.0 * (u_c * u_a.conjugate())
                + complex(-(2.0 * hd * hd + e - e * hd * hd / 4.0) / 6.0,
                          -hd * (1.0 - e / 6.0)))
    x = -0.5 * model.field_azimuth(p.omega_prime, h)  # U(-h) = diag(u, u*)
    u = complex(unit_phasor(x))
    u_less_1 = complex(-2.0 * math.sin(0.5 * x) ** 2, math.sin(x))
    return p_less_1 * u + u_less_1, q * u


def steps(p: ModelParams, t_max: float):
    """(h, n_steps): ``step_size`` and the RK4 steps of one frame to reach
    t_max, checked against the step budget before anything is formed.  A
    t_max that is not > 0 (nan too) is refused first; at a tiny omega the
    periods, and so h, overflow, and h is refused next."""
    if not t_max > 0.0:
        raise ValueError("t_max must be > 0")
    h = step_size(p)
    if not math.isfinite(h):
        raise StepBudgetError(
            f"the RK4 oracle's step h = {h} is not finite at omega = "
            f"{p.omega:.6g}, where the shortest period overflows; raise omega")
    n_steps = t_max / h - 1e-9
    if not n_steps <= _STEP_BUDGET:
        raise StepBudgetError(
            f"the RK4 oracle would need {n_steps:.3g} steps per frame "
            f"(t_max = {t_max:.6g}, h = {h:.6g}), above its budget of "
            f"{_STEP_BUDGET:.0e}; shorten the horizon")
    return h, max(1, math.ceil(n_steps))


def _on_eigenbasis(p: ModelParams, step_map):
    """E^H Q E, Q = [[p, q], [-q*, p*]], both as (p - 1, q), E = [|1(0)>,
    |2(0)>] from ``model.eigenbasis`` at t = 0 (module docstring)."""
    a, q = step_map
    e_up, e_down, c, s = model.eigenbasis(p, 0.0)
    q = complex(q * (e_up.conjugate() * e_down))
    cos_beta, sin_beta = c * c - s * s, 2.0 * c * s
    return (complex(a.real, cos_beta * a.imag + sin_beta * q.imag),
            complex(-q.real, sin_beta * a.imag - cos_beta * q.imag))


def _integrate(p: ModelParams, h: float, n_steps: int, stride: int, frame):
    """RK4 records from (1, 0) under ``frame_maps``[frame] at step h, every
    stride-th of n_steps and the last: the gauged ``propagate`` columns of
    the ``record_blocks``, collected."""
    step_map = frame_maps(p, h)[frame]
    records = _record_count(n_steps, stride)
    times, coeffs = np.empty(records), np.empty((records, 2), dtype=complex)
    for rows, keep, times[rows] in record_blocks(h, n_steps, stride):
        # out of place: numpy takes one complex point in place without an FMA
        gauge = gauge_factor(p, times[rows])
        coeffs[rows].T[:] = [c * gauge
                             for c in propagate(step_map, keep, stride)]
    return Trajectory(times=times, coefficients=coeffs)


def integrate_coefficients(p: ModelParams, t_max: float):
    """RK4 trajectory of the coefficient equations from (C1, C2) = (1, 0) to
    t_max on the one record grid: dD/dt = N D by RK4, each record times its
    gauge factor e^{i B omega' t}."""
    return _integrate(p, *steps(p, t_max), _STRIDE, 0)


def integrate_lab_frame(p: ModelParams, t_max: float):
    """RK4 trajectory of i dpsi/dt = H(t) psi from |1(0)> to t_max on the one
    record grid, as (<1|psi>, <2|psi>) at B = 0 times the gauge factor
    (module docstring)."""
    return _integrate(p, *steps(p, t_max), _STRIDE, 1)


def max_deviation(a: Trajectory, b: Trajectory) -> float:
    """Largest coefficient mismatch between two trajectories on one grid."""
    if a.times is not b.times and not np.array_equal(a.times, b.times):
        raise ValueError("trajectories were recorded on different time grids")
    return float(np.max([deviation(a.coefficients[block].T,
                                   b.coefficients[block].T)
                         for block in _blocks(len(a.times))]))


def closed_form_trajectory(p: ModelParams, times) -> Trajectory:
    """The closed-form solution on the times of a record grid."""
    times = np.asarray(times, dtype=float)
    coefficients = np.empty(times.shape + (2,), dtype=complex)
    amplitude_components(p, times, out=coefficients)
    return Trajectory(times=times, coefficients=coefficients)
