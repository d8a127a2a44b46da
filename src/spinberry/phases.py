"""Complex total phase, dynamical phase, and the generalized geometric phase.

Writing C1(t) = exp(i theta) with complex theta = theta_r + i theta_i gives

    theta_i = -ln|C1(t)|,
    theta_r = B w' t + arg[lam cos(lam t/2) - i (w - w' cos b) sin(lam t/2)],

where the argument is tracked continuously from theta_r(0) = 0 rather than
reduced to a principal branch.  The geometric part is

    phi_B(t) = (theta_r + i theta_i) - phi_D(t),

with the dynamical phase phi_D = -integral of the instantaneous energy
expectation.  phi_B is reported unwrapped; ``principal_branch`` reduces a
real phase into (-pi, pi].  ``evaluate`` gives them all over a grid at once.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (AmplitudeVanishedError, ExtrapolationError,
                     NonFiniteTimeError)
from .evolution import _half_sinc, amplitude_components, state_components
from .model import TWO_PI, ModelParams, derived_scales, hamiltonian_elements

#: |C1| at or below this is treated as a vanished amplitude (log diverges).
EPS_AMPLITUDE = 1e-12
_VANISHED = "|C1(t)| <= %.1e; the complex phase diverges" % EPS_AMPLITUDE

#: fixed column order of one output record
COLUMNS = ("t", "re_c1", "im_c1", "re_c2", "im_c2", "p1",
           "theta_r", "theta_i", "phi_d", "re_phi_b", "im_phi_b")
#: columns that are nan where |C1| vanishes
PHASE_COLUMNS = ("theta_r", "theta_i", "re_phi_b", "im_phi_b")


@dataclass(frozen=True)
class PhaseDecomposition:
    """All phase quantities at one time; phi_b == (theta_r + i theta_i) - phi_d."""

    t: float
    theta_r: float
    theta_i: float
    phi_d: float
    phi_b: complex


def principal_branch(phase: float) -> float:
    """Reduce a real phase into (-pi, pi]."""
    reduced = math.remainder(phase, TWO_PI)
    if reduced <= -math.pi:
        reduced += TWO_PI
    return reduced


def _unwrapped_core_argument(p: ModelParams, t):
    """Continuous arg of lam*cos(lam t/2) - i*detuning*sin(lam t/2), zero at t=0.

    The curve is an ellipse traversed at constant angular half-period, so the
    branch is resolved exactly: each half-turn of u = lam*t/2 advances the
    argument by -pi*sign(detuning).  Vectorized over t.
    """
    u = 0.5 * p.rabi_rate * t
    k = np.floor(u / math.pi + 0.5)
    v = u - k * math.pi
    sign = np.sign(p.detuning)
    return (-k * math.pi * sign
            + np.arctan2(-p.detuning * np.sin(v), p.rabi_rate * np.cos(v)))


def _theta(p: ModelParams, t):
    """(theta_r, theta_i, |C1|) over array t, |C1| via the normalized closed form."""
    lam = p.rabi_rate
    magnitude = np.hypot(np.cos(0.5 * lam * t), p.detuning * _half_sinc(lam, t))
    with np.errstate(divide="ignore"):  # |C1| = 0: theta_i = inf
        theta_i = -np.log(magnitude)
    theta_r = p.gauge_b * p.omega_prime * t + _unwrapped_core_argument(p, t)
    return theta_r, theta_i, magnitude


def total_phase_components(p: ModelParams, t):
    """Vectorized (theta_r, theta_i); raises when |C1| vanishes anywhere."""
    theta_r, theta_i, magnitude = _theta(p, np.asarray(t, dtype=float))
    if np.any(magnitude <= EPS_AMPLITUDE):
        raise AmplitudeVanishedError(_VANISHED)
    return theta_r, theta_i


def total_phase(p: ModelParams, t: float):
    """(theta_r, theta_i) at one time, theta_r continuous with theta_r(0) = 0."""
    return tuple(map(float, total_phase_components(p, float(t))))


def dynamical_phase(p: ModelParams, t):
    """Closed-form phi_D(t) = -(w/2)[t(1 - S/lam^2) + (S/lam^3) sin(lam t)].

    S = (w' sin b)^2.  Equals minus the time integral of the energy
    expectation (E1 |C1|^2 + E2 |C2|^2).  Vectorized over t.
    """
    t = np.asarray(t, dtype=float)
    lam = p.rabi_rate
    s_sq = p.coupling ** 2
    with np.errstate(invalid="ignore"):  # 0/0 at lam = 0, where S = 0
        frac = np.where(s_sq > 0.0, np.divide(s_sq, lam * lam), 0.0)
    # sin(lam t)/lam is twice the half sinc at 2 lam; rounds as the docstring
    out = _half_sinc(2.0 * lam, t)
    out *= 2.0 * frac
    out += t * (1.0 - frac)
    out *= -0.5 * p.omega
    return float(out) if np.ndim(out) == 0 else out


def dynamical_phase_quadrature(p: ModelParams, t: float,
                               n_points: int = 4096) -> float:
    """phi_D(t) by composite Simpson quadrature of -<psi|H|psi>.

    The integrand is assembled from the lab-frame state and the Hamiltonian
    matrix elements, independently of the closed-form antiderivative, and
    summed by (h/3)(f_0 + 4 sum f_odd + 2 sum f_even + f_n) on an even
    number of intervals.
    """
    if n_points < 16:
        raise ValueError("n_points must be >= 16")
    if t == 0.0:
        return 0.0
    n_intervals = n_points + (n_points % 2)
    grid = np.linspace(0.0, t, n_intervals + 1)
    up, down = state_components(p, grid)
    diag, off = hamiltonian_elements(p, grid)
    f = -(diag * (np.abs(up) ** 2 - np.abs(down) ** 2)
          + 2.0 * np.real(np.conj(up) * off * down))
    return float(t / n_intervals / 3.0 * (f[0] + 4.0 * f[1::2].sum()
                                          + 2.0 * f[2:-1:2].sum() + f[-1]))


def evaluate(p: ModelParams, t, strict: bool = False):
    """(columns, vanished): each of COLUMNS over times t, one pass per kernel.

    p may be ``ModelParams.over`` an omega_prime grid of t's shape.  vanished
    marks |C1| <= EPS_AMPLITUDE, where the PHASE_COLUMNS are nan, or where
    strict raises AmplitudeVanishedError.  Non-finite t: NonFiniteTimeError.
    """
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise NonFiniteTimeError(
            f"time must be finite, got t = {t[~np.isfinite(t)].flat[0]}")
    theta_r, theta_i, magnitude = _theta(p, t)
    vanished = magnitude <= EPS_AMPLITUDE
    if strict and vanished.any():
        raise AmplitudeVanishedError(_VANISHED)
    c1, c2 = amplitude_components(p, t)
    phi_d = np.asarray(dynamical_phase(p, t))
    columns = {"t": t, "re_c1": c1.real, "im_c1": c1.imag,
               "re_c2": c2.real, "im_c2": c2.imag, "p1": np.abs(c1) ** 2,
               "theta_r": theta_r, "theta_i": theta_i, "phi_d": phi_d,
               "re_phi_b": theta_r - phi_d, "im_phi_b": theta_i}
    for name in PHASE_COLUMNS:
        columns[name] = np.where(vanished, np.nan, columns[name])
    return columns, vanished


def decompose(p: ModelParams, t: float) -> PhaseDecomposition:
    """Full phase decomposition at one time."""
    c = {k: float(v) for k, v in evaluate(p, t, strict=True)[0].items()}
    return PhaseDecomposition(c["t"], c["theta_r"], c["theta_i"], c["phi_d"],
                              complex(c["re_phi_b"], c["im_phi_b"]))


def berry_phase(p: ModelParams, t: float) -> complex:
    """Generalized geometric phase (theta_r + i theta_i) - phi_D, unwrapped."""
    return decompose(p, t).phi_b


def _real_phase_at_period(p_base: ModelParams, ratio: float) -> float:
    p = dataclasses.replace(p_base, omega_prime=ratio * p_base.omega)
    return berry_phase(p, derived_scales(p).defined("hamiltonian_period")).real


def adiabatic_limit_check(p_base: ModelParams, ratio: float) -> float:
    """Re phi_B(T') at omega_prime = ratio*omega for small ratio.

    With gauge_b = -1/2 this tends to pi*cos(beta) - pi as ratio -> 0, with
    error O(ratio).
    """
    if not 0.0 < ratio <= 1e-2:
        raise ValueError("ratio must lie in (0, 1e-2]")
    return _real_phase_at_period(p_base, ratio)


def nonadiabatic_limit_check(p_base: ModelParams, ratio: float) -> float:
    """Re phi_B(T') mod 2 pi at omega_prime = ratio*omega for large ratio.

    Tends to 0 (the state cannot follow the field) as ratio -> infinity.
    """
    if ratio < 1e2:
        raise ValueError("ratio must be >= 1e2")
    return principal_branch(_real_phase_at_period(p_base, ratio))


#: ratios used for the Richardson extrapolation in gauge_b_fix; each is half
#: the previous, so successive differences cancel the O(r) then O(r^2) errors.
_FIX_RATIOS = (4e-4, 2e-4, 1e-4)
_FIX_CONVERGENCE_TOL = 1e-4


def gauge_b_fix(p_base: ModelParams) -> float:
    """Recover the gauge slope B that matches the adiabatic geometric phase.

    Evaluates Re phi_B(T') with B = 0 at a shrinking sequence of omega'/omega,
    Richardson-extrapolates to the adiabatic limit L0, and solves
    2 pi B + L0 = pi cos(beta) - pi.  Returns B, which should be -1/2 for
    every beta.
    """
    p0 = dataclasses.replace(p_base, gauge_b=0.0)
    raw = [adiabatic_limit_check(p0, r) for r in _FIX_RATIOS]
    first = [2.0 * raw[i + 1] - raw[i] for i in range(len(raw) - 1)]
    if abs(first[1] - first[0]) > _FIX_CONVERGENCE_TOL:
        raise ExtrapolationError(
            "adiabatic extrapolation did not converge: "
            f"successive estimates {first[0]:.3e}, {first[1]:.3e}")
    limit = (4.0 * first[1] - first[0]) / 3.0
    target = math.pi * math.cos(p_base.beta) - math.pi
    return (target - limit) / TWO_PI
