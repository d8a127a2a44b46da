"""Periods of the state and the field, and when the two cycles align.

The state returns to |1(t)> (up to a phase) every T'' = 2 pi / lam, while
the field period is T' = 2 pi / omega_prime.  Both close simultaneously
after n state cycles and m field cycles when n/m = lam/omega_prime, which
is a quadratic condition on the dimensionless period x = omega T':

    x = 2 pi [cos(beta) +- sqrt((n/m)^2 - sin^2(beta))].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import NoPositiveRootError, NoSolutionError, SpinberryError
from .evolution import amplitude_components
from .model import TWO_PI, ModelParams, derived_scales

_EPS = sys.float_info.epsilon

#: roots of the commensurability quadratic at or below this are treated as 0
_ROOT_EPS = 1e-12
#: roundings, each worth up to n pi eps of phase, allowed in a root's residual
_RESIDUAL_ROUNDINGS = 16
#: the largest n/m whose square is a float, ~1.3e154
_MAX_RATIO = math.sqrt(sys.float_info.max)
#: the largest count n or m, ~3.6e306: a root's bound 16 n pi eps is then a
#: float, and as omega T' <= 2 pi (1 + n/m), so are its time m T' and turn
#: omega' m T' at omega = 1, both under 2 pi (n + m) <= float max / 4
_MAX_N = int(sys.float_info.max / (_RESIDUAL_ROUNDINGS * math.pi))
#: the largest n whose bound 16 n pi eps is under 1, 89 596 267 800 354:
#: from there on |C2| <= 1 meets the bound, and no root could fail it
_MAX_CHECKED_N = int(1.0 / (_RESIDUAL_ROUNDINGS * math.pi * _EPS))


@dataclass(frozen=True)
class CommensurateSolution:
    """A dimensionless period omega*T' at which n state cycles = m field cycles."""

    n: int
    m: int
    omega_t_prime: float
    branch: str  # "plus" or "minus"


def state_period(p: ModelParams) -> float:
    """T'' = 2 pi / lam, the time after which C2 vanishes again."""
    return derived_scales(p).defined("state_period")


def commensurate_ratio(p: ModelParams) -> float:
    """n/m = lam/omega_prime, the state cycles completed per field cycle."""
    derived_scales(p).defined("hamiltonian_period")  # raises at omega' = 0
    return p.rabi_rate / p.omega_prime


def solve_commensurate(n: int, m: int, beta: float) -> list[CommensurateSolution]:
    """All positive omega*T' at which n state cycles equal m field cycles.

    n and m are taken as given (not reduced to lowest terms).  Each returned
    root is verified against the closed form: |C2(m T')| must stay within
    what rounding the root leaves, 16 n pi eps.

    The bound: |C2(t)| = (w' sin(beta) / lam) |sin(lam t / 2)| and
    w' sin(beta) <= lam, so |C2| <= |sin(lam t / 2)|.  At an exact root
    lam m T' / 2 = n pi and the sine vanishes.  In floating point the root
    is rounded, and so are w' = 2 pi / (w T'), lam, t = m T' and the product
    lam t / 2; each rounding moves the phase n pi by a relative eps/2 to eps
    times a conditioning factor of order one, that is by up to about
    n pi eps.  The residual is therefore a small multiple of n pi eps, and
    a fixed bound fails for large n (n = 10^7 leaves 5e-9).  Sixteen such
    roundings leave a wide margin over the worst seen, 1.9 n pi eps over
    20 000 random (n, m, beta); a root beyond it is not a rounding artefact
    and raises SpinberryError.  Counts for which a float formed here would
    overflow raise ValueError before it is formed, and so, once a positive
    root exists, does an n whose bound is >= 1, which |C2| <= 1 always meets.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive integers")
    if n // m > _MAX_RATIO:
        raise ValueError(f"n/m must be <= {_MAX_RATIO:.4g}: (n/m)^2 "
                         "overflows a float")
    ratio = n / m
    sin_sq = math.sin(beta) ** 2
    discriminant = ratio * ratio - sin_sq
    if discriminant < 0.0:
        raise NoSolutionError(
            f"(n/m)^2 = {ratio * ratio:.6g} < sin^2(beta) = {sin_sq:.6g}: "
            "no real commensurate period exists")
    half_width = math.sqrt(discriminant)
    cos_beta = math.cos(beta)
    roots = [(branch, root) for branch, root in (
        ("plus", TWO_PI * (cos_beta + half_width)),
        ("minus", TWO_PI * (cos_beta - half_width))) if root > _ROOT_EPS]
    if roots and max(n, m) > _MAX_N:
        raise ValueError(f"n and m must be <= {_MAX_N:.4g}: 16 n pi eps and "
                         "m T' overflow a float")
    if roots and n > _MAX_CHECKED_N:
        raise ValueError(f"n must be <= {_MAX_CHECKED_N}: from there the "
                         "cyclicity bound 16 n pi eps is >= 1 >= |C2|, and "
                         "no root could fail it")
    solutions = []
    for branch, root in roots:
        sol = CommensurateSolution(n=n, m=m, omega_t_prime=root, branch=branch)
        residual = commensurate_residual(sol, beta)
        bound = _RESIDUAL_ROUNDINGS * n * math.pi * _EPS
        if not residual <= bound:
            raise SpinberryError(
                f"root {root:.12g} fails cyclicity: |C2| = {residual:.3e} "
                f"> {bound:.3e}")
        solutions.append(sol)
    if not solutions:
        raise NoPositiveRootError(
            f"no positive commensurate period for n={n}, m={m}, "
            f"cos(beta)={cos_beta:.6g}")
    return solutions


def commensurate_residual(sol: CommensurateSolution, beta: float) -> float:
    """|C2(m T')| at omega = 1, m T' = 2 pi m / omega': a cyclicity residual."""
    p = ModelParams(omega=1.0, omega_prime=TWO_PI / sol.omega_t_prime,
                    beta=beta)
    _, c2 = amplitude_components(p, sol.m * TWO_PI / p.omega_prime)
    return float(abs(c2))
