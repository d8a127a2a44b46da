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

import numpy as np

from .errors import (AmplitudeVanishedError, ExtrapolationError,
                     NonFiniteTimeError, PhaseOverflowError)
from .evolution import _blockwise, _core, _gauged, _half_sinc, state_components
from .model import (TWO_PI, ModelParams, gauge_factor, gauge_phase,
                    hamiltonian_elements)

#: |C1| at or below this is treated as a vanished amplitude (log diverges).
EPS_AMPLITUDE = 1e-12
_VANISHED = "|C1(t)| <= %.1e; the complex phase diverges" % EPS_AMPLITUDE

#: fixed column order of one output record
COLUMNS = ("t", "re_c1", "im_c1", "re_c2", "im_c2", "p1",
           "theta_r", "theta_i", "phi_d", "re_phi_b", "im_phi_b")
#: columns that are nan where |C1| vanishes
PHASE_COLUMNS = ("theta_r", "theta_i", "re_phi_b", "im_phi_b")


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


def _theta(p: ModelParams, t, x, half_sinc):
    """(theta_r, theta_i, vanished) over array t from ``evolution._core``'s
    (x, h) there: |C1| = hypot(x, d h), and vanished marks
    |C1| <= EPS_AMPLITUDE."""
    magnitude = np.hypot(x, p.detuning * half_sinc)
    with np.errstate(divide="ignore"):  # |C1| = 0: theta_i = inf
        theta_i = -np.log(magnitude)
    theta_r = gauge_phase(p, t) + _unwrapped_core_argument(p, t)
    return theta_r, theta_i, magnitude <= EPS_AMPLITUDE


@_blockwise
def total_phase_components(p: ModelParams, t):
    """Vectorized (theta_r, theta_i); raises when |C1| vanishes anywhere."""
    theta_r, theta_i, vanished = _theta(p, t, *_core(p, t))
    if vanished.any():
        raise AmplitudeVanishedError(_VANISHED)
    return theta_r, theta_i


def total_phase(p: ModelParams, t: float):
    """(theta_r, theta_i) at one time, theta_r continuous with theta_r(0) = 0."""
    return tuple(map(float, total_phase_components(p, float(t))))


def dynamical_phase(p: ModelParams, t):
    """Closed-form phi_D(t) = -(w/2)[t(1 - S/lam^2) + (S/lam^3) sin(lam t)].

    S = (w' sin b)^2.  Equals minus the time integral of the energy
    expectation (E1 |C1|^2 + E2 |C2|^2).  Vectorized over t; a float at a
    scalar t.
    """
    (out,) = _dynamical_phase_blocks(p, t)
    return float(out) if np.ndim(out) == 0 else out


def _dynamical_phase(p: ModelParams, t):
    """phi_D over array t, for dynamical_phase and evaluate."""
    lam = p.rabi_rate
    # S/lam^2 as (coupling/lam)^2: coupling <= lam, so neither over- nor
    # underflows at any omega; 0 at lam = 0, where S = 0, and 0/0 is not
    # taken
    if np.ndim(lam):
        frac = np.divide(p.coupling, lam, out=np.zeros_like(lam),
                         where=lam > 0.0) ** 2
    else:
        frac = np.divide(p.coupling, lam) ** 2 if lam > 0.0 else 0.0
    # sin(lam t)/lam is twice the half sinc at 2 lam; rounds as the docstring
    phi_d = -0.5 * p.omega * (
        2.0 * frac * _half_sinc(2.0 * lam, t) + t * (1.0 - frac))
    return phi_d


#: _dynamical_phase over any t, for dynamical_phase
_dynamical_phase_blocks = _blockwise(lambda p, t: (_dynamical_phase(p, t),))


def dynamical_phase_quadrature(p: ModelParams, t: float,
                               n_points: int = 4096) -> float:
    """phi_D(t) by composite Simpson quadrature of -<psi|H|psi> over an even
    number n >= n_points of intervals of [0, t], from the lab-frame state
    and the Hamiltonian's matrix elements, independently of the closed
    form.  f ~ omega/2 is summed in units of a power of two near omega,
    exactly, so the sum does not overflow at any omega."""
    if n_points < 16:
        raise ValueError("n_points must be >= 16")
    if t == 0.0:
        return 0.0
    n = n_points + (n_points % 2)
    grid = np.linspace(0.0, t, n + 1)
    up, down = state_components(p, grid)
    diag, off = hamiltonian_elements(p, grid)
    f = -(diag * (np.abs(up) ** 2 - np.abs(down) ** 2)
          + 2.0 * np.real(np.conj(up) * off * down))
    np.ldexp(f, -(unit := math.frexp(p.omega)[1]), out=f)
    return math.ldexp(grid[n] / n / 3.0 * (
        f[0] + 4.0 * f[1:n:2].sum() + 2.0 * f[2:n - 1:2].sum() + f[n]), unit)


@_blockwise
def _evaluate_blocks(p: ModelParams, t):
    """evaluate's columns from one ``evolution._core`` per block:
    (c1, c2, p1, theta_r, theta_i, vanished, phi_d, re_phi_b)."""
    x, half_sinc = _core(p, t)
    c1, c2 = _gauged(p, x, half_sinc, gauge_factor(p, t))
    theta_r, theta_i, vanished = _theta(p, t, x, half_sinc)
    phi_d = _dynamical_phase(p, t)
    return (c1, c2, np.abs(c1) ** 2, theta_r, theta_i, vanished, phi_d,
            theta_r - phi_d)


def evaluate(p: ModelParams, t, strict: bool = False):
    """(columns, vanished): each of COLUMNS over times t, in one blocked pass.

    p may be ``ModelParams.over`` a grid of t's shape.  vanished
    marks |C1| <= EPS_AMPLITUDE, where the PHASE_COLUMNS are nan, or where
    strict raises AmplitudeVanishedError; im_phi_b is theta_i's array.
    Non-finite t: NonFiniteTimeError; a t at which a phase overflows:
    PhaseOverflowError.
    """
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise NonFiniteTimeError(
            f"time must be finite, got t = {t[~np.isfinite(t)].flat[0]}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        finite = np.isfinite(p.omega_prime * t)  # the field's azimuth
        (c1, c2, p1, theta_r, theta_i, vanished, phi_d,
         re_phi_b) = _evaluate_blocks(p, t)
    gone = vanished.any()
    if strict and gone:
        raise AmplitudeVanishedError(_VANISHED)
    # an overflow in lambda t/2, B omega' t or phi_D makes theta_r or phi_D,
    # and so re_phi_b, inf or nan; omega' t, the field's azimuth, is in none
    finite &= np.isfinite(re_phi_b)
    if not finite.all():
        raise PhaseOverflowError(
            f"a phase overflows at t = {t[~finite].flat[0]:.17g}: lambda t / 2, "
            "omega' t, B omega' t, phi_D or a sum of them; take a shorter time")
    if gone:
        theta_r, theta_i, re_phi_b = (np.where(vanished, np.nan, column) for
                                      column in (theta_r, theta_i, re_phi_b))
    # Im phi_B is theta_i: one array, so a writer formats it once
    return {"t": t, "re_c1": c1.real, "im_c1": c1.imag,
            "re_c2": c2.real, "im_c2": c2.imag, "p1": p1,
            "theta_r": theta_r, "theta_i": theta_i, "phi_d": phi_d,
            "re_phi_b": re_phi_b, "im_phi_b": theta_i}, vanished


def decompose(p: ModelParams, t: float) -> dict:
    """``evaluate``'s row at one time, each of COLUMNS a float."""
    return {k: float(v) for k, v in evaluate(p, t, strict=True)[0].items()}


def berry_phase(p: ModelParams, t: float) -> complex:
    """Generalized geometric phase (theta_r + i theta_i) - phi_D, unwrapped."""
    return complex(*map(decompose(p, t).get, ("re_phi_b", "im_phi_b")))


def _real_phase_at_period(p_base: ModelParams, ratios) -> np.ndarray:
    """Re phi_B(T') at each omega'/omega of ratios, in one ``evaluate`` over
    ``ModelParams.over`` them.  It depends on omega only through that
    ratio, so it is taken at omega = 1: no omega' overflows."""
    p = p_base.over(omega=1.0, omega_prime=ratios)
    return evaluate(p, TWO_PI / p.omega_prime, strict=True)[0]["re_phi_b"]


def adiabatic_limit_check(p_base: ModelParams, ratio: float) -> float:
    """Re phi_B(T') at omega_prime = ratio*omega for small ratio.

    Tends to pi*cos(beta) - pi + 2 pi (B + 1/2) as ratio -> 0, with error
    O(ratio): Berry's phase at the adiabatic gauge B = -1/2.
    """
    if not 0.0 < ratio <= 1e-2:
        raise ValueError("ratio must lie in (0, 1e-2]")
    return float(_real_phase_at_period(p_base, [ratio])[0])


def nonadiabatic_limit_check(p_base: ModelParams, ratio: float) -> float:
    """Re phi_B(T') mod 2 pi at omega_prime = ratio*omega for large ratio.

    Tends to 2 pi (B + 1/2) mod 2 pi as ratio -> infinity: 0 at B = -1/2,
    where the state cannot follow the field and gains no geometric phase.
    """
    if ratio < 1e2:
        raise ValueError("ratio must be >= 1e2")
    return principal_branch(float(_real_phase_at_period(p_base, [ratio])[0]))


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
    raw = _real_phase_at_period(p0, _FIX_RATIOS).tolist()
    first = [2.0 * raw[i + 1] - raw[i] for i in range(len(raw) - 1)]
    if abs(first[1] - first[0]) > _FIX_CONVERGENCE_TOL:
        raise ExtrapolationError(
            "adiabatic extrapolation did not converge: "
            f"successive estimates {first[0]:.3e}, {first[1]:.3e}")
    limit = (4.0 * first[1] - first[0]) / 3.0
    target = math.pi * math.cos(p_base.beta) - math.pi
    return (target - limit) / TWO_PI
