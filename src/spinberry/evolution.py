"""Closed-form time evolution of the instantaneous-basis amplitudes.

The initial state is the upper instantaneous eigenstate |1(0)>.  With
delta1 = delta2 = A + B*omega_prime*t the coefficient equations have the
exact solution

    C1(t) = e^{i B w' t} [lam cos(lam t/2) - i (w - w' cos b) sin(lam t/2)] / lam
    C2(t) = e^{i B w' t} i (w' sin b / lam) sin(lam t/2)

where lam is the effective Rabi rate.  The lam t -> 0 limit is removable and
is evaluated by series.  The kernels also run over ``ModelParams.over``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .model import (ModelParams, Spinor, derived_scales, eigenbasis,
                    eigenstate, unit_phasor)

#: |lam t / 2| below which _half_sinc takes its series, ~4.0e-4
SERIES_BELOW = (120.0 * sys.float_info.epsilon) ** 0.25


@dataclass(frozen=True)
class AmplitudePair:
    """Instantaneous-basis coefficients (C1, C2) at time t."""

    t: float
    c1: complex
    c2: complex

    def norm_sq(self) -> float:
        return abs(self.c1) ** 2 + abs(self.c2) ** 2


def _half_sinc(lam, t):
    """sin(x)/lam, x = lam t/2, elementwise; lam = 0 gives t/2.

    Where |x| < SERIES_BELOW it is the series (t/2)(1 - x^2/6), whose first
    omitted term makes a relative error of x^4/120: under eps for
    |x| < (120 eps)^(1/4).  Above it sin(x)/lam is good to a few eps, so the
    switch is on x, the quantity that sets the error, not on lam alone.
    """
    x = np.asarray(0.5 * lam * t)
    out = np.abs(x, out=np.empty_like(x))
    small = out < SERIES_BELOW
    n_small = np.count_nonzero(small)
    if n_small == x.size:  # (t/2)(1 - x^2/6), in place
        np.multiply(x, x, out=out)
        out *= -1.0 / 12.0
        out += 0.5
        out *= t
        return out
    np.sin(x, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):  # lam = 0: series
        np.divide(out, lam, out=out)
    if n_small:
        k = np.flatnonzero(small)
        t_k, x_k = np.broadcast_to(t, x.shape).flat[k], x.flat[k]
        out.flat[k] = t_k * (0.5 - x_k * x_k / 12.0)
    return out


def amplitude_components(p: ModelParams, t):
    """Vectorized (c1, c2) at time(s) t.  t may be a scalar or ndarray."""
    t = np.asarray(t, dtype=float)
    lam = p.rabi_rate
    half_sinc = _half_sinc(lam, t)
    gauge_rotation = unit_phasor(p.gauge_b * p.omega_prime * t)
    c1 = gauge_rotation * (np.cos(0.5 * lam * t) - 1j * p.detuning * half_sinc)
    c2 = gauge_rotation * (1j * p.coupling * half_sinc)
    return c1, c2


def amplitudes(p: ModelParams, t: float) -> AmplitudePair:
    """Closed-form amplitudes at a single time; amplitudes(p, 0) == (1, 0) exactly."""
    c1, c2 = amplitude_components(p, t)
    return AmplitudePair(t=float(t), c1=complex(c1), c2=complex(c2))


def _from_lab(p: ModelParams, t, up, down):
    """(<1(t)|psi>, <2(t)|psi>) for psi = (up, down), the inverse of
    ``state_components``."""
    e_up, e_down, c, s = eigenbasis(p, t)
    bra_up, bra_down = np.conj(e_up), np.conj(e_down)
    return (c * bra_up * up + s * bra_down * down,
            s * bra_up * up - c * bra_down * down)


def state_components(p: ModelParams, t):
    """Vectorized lab-frame components (up, down) of C1|1(t)> + C2|2(t)>.

    down is formed in C1's buffer, with C2's as scratch, so the only new
    full-size arrays are up and one product.
    """
    t = np.asarray(t, dtype=float)
    c1, c2 = amplitude_components(p, t)
    e_up, e_down, c, s = eigenbasis(p, t)
    up = c1 * c
    up += c2 * s
    up *= e_up
    c1 *= s
    c2 *= c
    c1 -= c2
    c1 *= e_down
    return up, c1


def state(p: ModelParams, t: float) -> Spinor:
    """Lab-frame state C1(t)|1(t)> + C2(t)|2(t)>; unit norm."""
    up, down = state_components(p, t)
    return Spinor(up=complex(up), down=complex(down))


def return_probability_at_period(p: ModelParams) -> float:
    """|C1(T')|^2 after one full field rotation T' = 2 pi / omega_prime."""
    c1, _ = amplitude_components(
        p, derived_scales(p).defined("hamiltonian_period"))
    return float(abs(c1) ** 2)


def initial_state(p: ModelParams) -> Spinor:
    """The fixed initial condition |1(0)>."""
    return eigenstate(p, 0.0, 1)
