"""Spin-1/2 in a uniformly rotating magnetic field: parameters and static quantities.

Conventions: hbar = 1, the field magnitude is absorbed into the Larmor
frequency ``omega`` so the field direction is a unit vector.  The field
rotates about the z axis at ``omega_prime``, tilted by the polar angle
``beta``, starting at azimuth ``alpha``.  Each instantaneous eigenstate
carries the gauge phase delta(t) = A + B*omega_prime*t (the same delta on
both states).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateLambdaError, UndefinedPeriodError

TWO_PI = 2.0 * math.pi


def beta_from_cos(cos_beta: float) -> float:
    """The tilt beta = acos(cos_beta) in [0, pi], for the --cos-beta knob.

    cos_beta must lie in [-1, 1]; the error names the flag it comes from.
    """
    if not -1.0 <= cos_beta <= 1.0:
        raise ValueError(f"--cos-beta must lie in [-1, 1], got {cos_beta}")
    return math.acos(cos_beta)


@dataclass(frozen=True)
class ModelParams:
    """Physical and gauge parameters of one experiment.

    omega : energy splitting (rad/time), > 0
    omega_prime : field rotation rate (rad/time), >= 0
    beta : polar tilt of the field, in [0, pi]
    alpha : initial azimuth of the field
    gauge_a : constant part A of the eigenstate gauge phase
    gauge_b : linear part B; -1/2 reproduces the adiabatic geometric phase
    """

    omega: float
    omega_prime: float
    beta: float
    alpha: float = 0.0
    gauge_a: float = 0.0
    gauge_b: float = -0.5

    def __post_init__(self):
        for name in ("omega", "omega_prime", "alpha", "gauge_a", "gauge_b"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.omega > 0.0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.omega_prime < 0.0:
            raise ValueError(f"omega_prime must be >= 0, got {self.omega_prime}")
        if not 0.0 <= self.beta <= math.pi:
            raise ValueError(f"beta must lie in [0, pi], got {self.beta}")
        if not math.isfinite(2.0 * self.rabi_rate):
            raise ValueError(
                f"lambda = hypot(detuning {self.detuning:.6g}, coupling "
                f"{self.coupling:.6g}) = {self.rabi_rate:.6g}: phi_D's "
                "2 lambda overflows")

    @classmethod
    def from_dimensionless(cls, omega_ratio, cos_beta, *, omega=1.0, alpha=0.0,
                           gauge_a=0.0, gauge_b=-0.5):
        """Build parameters from the dimensionless knobs omega'/omega and cos(beta)."""
        return cls(omega, omega_ratio * omega, beta_from_cos(cos_beta), alpha,
                   gauge_a, gauge_b)

    def over(self, **fields) -> "ModelParams":
        """These parameters with each named field an array, broadcast together,
        for the elementwise kernels; ModelParams refuses the first bad row."""
        values = {name: getattr(self, name) for name in self.__dataclass_fields__}
        values |= dict(zip(fields, np.broadcast_arrays(
            *(np.asarray(value, dtype=float) for value in fields.values()))))
        grid = _Grid(**values)
        with np.errstate(invalid="ignore", over="ignore"):  # refused below
            ok = (np.isfinite([values[name] for name in fields]).all(0)
                  & (grid.omega > 0.0) & (grid.omega_prime >= 0.0)
                  & (grid.beta >= 0.0) & (grid.beta <= math.pi))
            if ok.all():  # then lambda: math.cos refuses an infinite beta
                ok = np.isfinite(2.0 * grid.rabi_rate)
        if not ok.all():
            ModelParams(**{name: float(np.broadcast_to(value, ok.shape).flat[
                np.argmin(ok)]) for name, value in values.items()})
        return grid

    @cached_property
    def detuning(self) -> float:
        """omega - omega_prime*cos(beta), the z component of the effective rotation."""
        return self.omega - self.omega_prime * _each(math.cos, self.beta)

    @cached_property
    def coupling(self) -> float:
        """omega_prime*sin(beta), the transverse coupling between the two levels."""
        return self.omega_prime * _each(math.sin, self.beta)

    @cached_property
    def rabi_rate(self) -> float:
        """Effective Rabi rate lambda = sqrt(omega^2 + omega'^2 - 2 omega omega' cos(beta)).

        Computed as hypot(detuning, coupling), which is algebraically identical
        and makes the normalization identity detuning^2 + coupling^2 = lambda^2
        exact in floating point.
        """
        return _each(math.hypot, self.detuning, self.coupling)


def _each(f, *xs):
    """math's f per value of xs, broadcast: ModelParams' rounding, not numpy's."""
    if np.ndarray not in map(type, xs):
        return f(*xs)
    return np.asarray(_UFUNCS[f](*xs), dtype=float)


#: math's functions that ``_each`` takes, as object ufuncs built once
_UFUNCS = {f: np.frompyfunc(f, nin, 1)
           for f, nin in ((math.cos, 1), (math.sin, 1), (math.hypot, 2))}


class _Grid(ModelParams):
    """ModelParams with array fields of one shape, made and checked by ``over``."""

    __post_init__ = lambda self: None  # over checks every row

    # taken per access: of the rates only lambda is held, 8 B a grid row
    detuning = property(ModelParams.detuning.func)
    coupling = property(ModelParams.coupling.func)

    def __getitem__(self, index):
        """The grid at .flat[index] of each array, lambda read from this
        one's, for one kernel body: a ModelParams, so it holds each rate
        once formed."""
        part = object.__new__(ModelParams)
        vars(part).update((name, value.reshape(-1)[index] if isinstance(
            value, np.ndarray) else value) for name, value in vars(self).items())
        return part


@dataclass(frozen=True)
class DerivedScales:
    """The periods T' = 2 pi / omega_prime and T'' = 2 pi / lambda.

    Each is inf where undefined (omega_prime == 0, lambda == 0), where
    ``defined`` raises instead.  The shortest and longest defined period
    fall back to 2 pi / omega when neither is defined.
    """

    hamiltonian_period: float
    state_period: float
    shortest_period: float
    longest_period: float

    def defined(self, name: str) -> float:
        """The period ``name`` ("hamiltonian_period" or "state_period"), or
        UndefinedPeriodError (T') or DegenerateLambdaError (T'') where inf."""
        value = getattr(self, name)
        if value < math.inf:
            return value
        if name == "hamiltonian_period":
            raise UndefinedPeriodError(
                "the field period T' = 2 pi / omega_prime is infinite")
        raise DegenerateLambdaError(
            "the state period T'' = 2 pi / lambda is infinite: lambda = 0 "
            "(the state never leaves |1(t)>) or 2 pi / lambda overflows")


def derived_scales(p: ModelParams) -> DerivedScales:
    lam = p.rabi_rate
    t_prime = TWO_PI / p.omega_prime if p.omega_prime > 0.0 else math.inf
    t_second = TWO_PI / lam if lam > 0.0 else math.inf
    finite = [x for x in (t_prime, t_second) if x < math.inf] \
        or [TWO_PI / p.omega]
    return DerivedScales(t_prime, t_second, min(finite), max(finite))


def field_vector(p: ModelParams, t) -> np.ndarray:
    """Unit direction of the rotating field at time t."""
    azimuth = -field_azimuth(p.omega_prime, t, p.alpha)
    sb = math.sin(p.beta)
    return np.array([sb * math.cos(azimuth), sb * math.sin(azimuth),
                     math.cos(p.beta)])


def unit_phasor(x, scale=1.0):
    """scale e^{ix} for real x, elementwise, a complex scalar for a scalar x:
    cos x and sin x scaled into the halves of one array, no complex exp."""
    out = np.empty(np.shape(x), dtype=complex)
    np.sin(x, out=out.imag)
    np.cos(x, out=out.real)
    if scale != 1.0:  # a product with 1 is exact
        np.multiply(out.real, scale, out=out.real)
        np.multiply(out.imag, scale, out=out.imag)
    return out[()]


def gauge_phase(p: ModelParams, t):
    """B omega' t at time(s) t, formed as B (omega' t): finite wherever
    B omega' t and omega' t are, where (B omega') t would overflow once
    |B omega'| > 1.8e308.  At B = -1/2 both orders give the same bits, as
    halving is exact."""
    return p.gauge_b * (p.omega_prime * t)


def gauge_factor(p: ModelParams, t):
    """e^{i B omega' t}, the gauge factor of C1 and C2 at time(s) t."""
    return unit_phasor(gauge_phase(p, t))


def field_azimuth(rate, t, alpha=0.0):
    """-(alpha + rate t), elementwise in t: at rate omega' and alpha the
    argument of H(t)'s off-diagonal."""
    return np.subtract(-alpha, np.multiply(rate, t))


def hamiltonian_elements(p: ModelParams, t):
    """(diag, off) with H(t) = [[diag, off], [conj(off), -diag]], elementwise
    in t."""
    half = 0.5 * p.omega
    return half * math.cos(p.beta), unit_phasor(
        field_azimuth(p.omega_prime, t, p.alpha), half * math.sin(p.beta))


def hamiltonian(p: ModelParams, t) -> np.ndarray:
    """2x2 Hamiltonian matrix at time t (hbar = 1); Hermitian, traceless."""
    diag, off = hamiltonian_elements(p, t)
    return np.array([[diag, off], [np.conj(off), -diag]])


def eigenbasis(p: ModelParams, t):
    """(e_up, e_down, c, s): |1(t)> = (c e_up, s e_down), |2(t)> = (s e_up, -c e_down).

    The instantaneous eigenstates at B = 0, delta = A, elementwise in t (the
    gauged ones times e^{i B omega' t}); |1> has energy +omega/2, aligned with
    the field, |2> -omega/2.  e_down = conj(e_up) e^{-2iA} by the ufunc, which
    rounds a scalar t as in a grid; numpy's scalar product does not."""
    half_azimuth = -0.5 * field_azimuth(p.omega_prime, t, p.alpha)
    e_up = unit_phasor(-(half_azimuth + p.gauge_a))
    e_down = np.multiply(np.conj(e_up), unit_phasor(-2.0 * p.gauge_a))
    return e_up, e_down, math.cos(0.5 * p.beta), math.sin(0.5 * p.beta)


def eigenstate(p: ModelParams, t, index: int) -> np.ndarray:
    """Gauged instantaneous eigenstate |1(t)> or |2(t)>, as (up, down):
    ``eigenbasis``' state times e^{-i B omega' t}."""
    if index not in (1, 2):
        raise ValueError(f"eigenstate index must be 1 or 2, got {index}")
    e_up, e_down, c, s = eigenbasis(p, t)
    gauge = np.conj(gauge_factor(p, t))
    if index == 1:
        return np.array([gauge * (c * e_up), gauge * (s * e_down)])
    return np.array([gauge * (s * e_up), gauge * (-c * e_down)])
