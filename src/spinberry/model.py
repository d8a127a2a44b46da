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

    @classmethod
    def from_dimensionless(cls, omega_ratio, cos_beta, *, omega=1.0, alpha=0.0,
                           gauge_a=0.0, gauge_b=-0.5):
        """Build parameters from the dimensionless knobs omega'/omega and cos(beta)."""
        return cls(omega, omega_ratio * omega, beta_from_cos(cos_beta), alpha,
                   gauge_a, gauge_b)

    def over(self, omega_prime) -> "ModelParams":
        """These parameters at every omega_prime of an array, for the kernels,
        which are elementwise; ModelParams' checks run on its first bad value."""
        omega_prime = np.asarray(omega_prime, dtype=float)
        bad = ~(np.isfinite(omega_prime) & (omega_prime >= 0.0))
        if bad.any():
            dataclasses.replace(self, omega_prime=float(omega_prime[bad][0]))
        return _Grid(self.omega, omega_prime, self.beta, self.alpha,
                     self.gauge_a, self.gauge_b)

    @property
    def detuning(self) -> float:
        """omega - omega_prime*cos(beta), the z component of the effective rotation."""
        return self.omega - self.omega_prime * math.cos(self.beta)

    @property
    def coupling(self) -> float:
        """omega_prime*sin(beta), the transverse coupling between the two levels."""
        return self.omega_prime * math.sin(self.beta)

    @property
    def rabi_rate(self) -> float:
        """Effective Rabi rate lambda = sqrt(omega^2 + omega'^2 - 2 omega omega' cos(beta)).

        Computed as hypot(detuning, coupling), which is algebraically identical
        and makes the normalization identity detuning^2 + coupling^2 = lambda^2
        exact in floating point.
        """
        return math.hypot(self.detuning, self.coupling)


class _Grid(ModelParams):
    """ModelParams with an omega_prime array, made and checked by ``over``."""

    def __post_init__(self):
        pass

    @cached_property
    def rabi_rate(self):
        # ModelParams' math.hypot per value; np.hypot can differ by an ulp
        return np.array(list(map(math.hypot, self.detuning.tolist(),
                                 self.coupling.tolist())))


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
            "the state period T'' = 2 pi / lambda is infinite (lambda = 0 at "
            "omega = omega_prime, beta = 0: the state never leaves |1(t)>)")


def derived_scales(p: ModelParams) -> DerivedScales:
    lam = p.rabi_rate
    t_prime = TWO_PI / p.omega_prime if p.omega_prime > 0.0 else math.inf
    t_second = TWO_PI / lam if lam > 0.0 else math.inf
    finite = [x for x in (t_prime, t_second) if x < math.inf] \
        or [TWO_PI / p.omega]
    return DerivedScales(t_prime, t_second, min(finite), max(finite))


@dataclass(frozen=True)
class Spinor:
    """State vector components in the fixed |+>, |-> basis."""

    up: complex
    down: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.up, self.down], dtype=complex)

    def norm(self) -> float:
        return math.sqrt(abs(self.up) ** 2 + abs(self.down) ** 2)

    def inner(self, other: "Spinor") -> complex:
        """<self|other> with the conjugate on self."""
        return (self.up.conjugate() * other.up
                + self.down.conjugate() * other.down)


def field_vector(p: ModelParams, t) -> np.ndarray:
    """Unit direction of the rotating field at time t."""
    azimuth = p.alpha + p.omega_prime * t
    sb = math.sin(p.beta)
    return np.array([sb * math.cos(azimuth), sb * math.sin(azimuth),
                     math.cos(p.beta)])


def hamiltonian_elements(p: ModelParams, t):
    """(diag, off) with H(t) = [[diag, off], [conj(off), -diag]], elementwise in t."""
    half = 0.5 * p.omega
    return (half * math.cos(p.beta), half * math.sin(p.beta)
            * np.exp(-1j * (p.alpha + p.omega_prime * t)))


def hamiltonian(p: ModelParams, t) -> np.ndarray:
    """2x2 Hamiltonian matrix at time t (hbar = 1); Hermitian, traceless."""
    diag, off = hamiltonian_elements(p, t)
    return np.array([[diag, off], [np.conj(off), -diag]])


def eigenbasis(p: ModelParams, t):
    """(e_up, e_down, c, s): |1(t)> = (c e_up, s e_down), |2(t)> = (s e_up, -c e_down).

    The gauged instantaneous eigenstates, elementwise in t; |1> has energy
    +omega/2 (aligned with the field), |2> has -omega/2."""
    half_azimuth = 0.5 * (p.alpha + p.omega_prime * t)
    gauge = p.gauge_a + p.gauge_b * p.omega_prime * t  # delta(t)
    return (np.exp(-1j * (half_azimuth + gauge)),
            np.exp(1j * (half_azimuth - gauge)),
            math.cos(0.5 * p.beta), math.sin(0.5 * p.beta))


def eigenstate(p: ModelParams, t, index: int) -> Spinor:
    """Gauged instantaneous eigenstate |1(t)> or |2(t)>."""
    if index not in (1, 2):
        raise ValueError(f"eigenstate index must be 1 or 2, got {index}")
    e_up, e_down, c, s = eigenbasis(p, t)
    if index == 1:
        return Spinor(c * e_up, s * e_down)
    return Spinor(s * e_up, -c * e_down)
