"""Acceptance gate: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the report lines.
"""

import math

import numpy as np
import pytest

from spinberry.cyclicity import solve_commensurate
from spinberry.evolution import amplitudes, return_probability_at_period
from spinberry import oracle
from spinberry.model import ModelParams, derived_scales
from spinberry.oracle import (closed_form_trajectory, integrate_coefficients,
                              integrate_lab_frame, max_deviation)
from spinberry.phases import (adiabatic_limit_check, berry_phase,
                              dynamical_phase, dynamical_phase_quadrature,
                              gauge_b_fix, nonadiabatic_limit_check,
                              principal_branch, total_phase)

from conftest import random_params

TWO_PI = 2.0 * math.pi


def report(name, measured, tol):
    status = "PASS" if measured <= tol else "FAIL"
    print(f"{status}  {name}: measured={measured:.3e} tol={tol:.1e}")
    assert measured <= tol, f"{name}: {measured:.3e} > {tol:.1e}"


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        p = random_params(rng)
        scales = derived_scales(p)
        t_max = 10.0 * max(scales.hamiltonian_period, scales.state_period)
        coeff = integrate_coefficients(p, t_max)
        lab = integrate_lab_frame(p, t_max)
        closed = closed_form_trajectory(p, coeff.times)
        worst = max(worst, max_deviation(closed, coeff),
                    max_deviation(closed, lab))
    report("1. closed form vs both RK4 oracles, 50 random sets", worst, 1e-8)


def test_criterion_2_adiabatic_limit():
    p = ModelParams.from_dimensionless(1.0, 0.5)
    value = adiabatic_limit_check(p, 1e-4)
    report("2a. adiabatic limit Re phi_B(T') vs -pi/2",
           abs(value - (-math.pi / 2.0)), 1e-3)
    report("2b. gauge slope recovered as -1/2",
           abs(gauge_b_fix(p) - (-0.5)), 1e-6)


def test_criterion_3_nonadiabatic_limit():
    p = ModelParams.from_dimensionless(1.0, 0.5)
    value = nonadiabatic_limit_check(p, 1e4)
    report("3a. non-adiabatic limit Re phi_B(T') mod 2pi", abs(value), 1e-3)
    fast = ModelParams.from_dimensionless(1e4, 0.5)
    t_prime = derived_scales(fast).hamiltonian_period
    report("3b. non-adiabatic limit Im phi_B(T')",
           abs(berry_phase(fast, t_prime).imag), 1e-6)


def test_criterion_4_cyclic_point_reality():
    p = ModelParams.from_dimensionless(1.0, 0.5)
    t_second = derived_scales(p).state_period
    worst_imag = 0.0
    worst_c2 = 0.0
    for n in range(1, 6):
        worst_imag = max(worst_imag, abs(berry_phase(p, n * t_second).imag))
        worst_c2 = max(worst_c2, abs(amplitudes(p, n * t_second)[1]))
    report("4a. Im phi_B at state periods n=1..5", worst_imag, 1e-10)
    report("4b. |C2| at state periods n=1..5", worst_c2, 1e-12)


def test_criterion_5_figure_shape():
    # p1(T') over omega'/omega at cos(beta) = 1/2: 1 at both ends and on resonance
    edges = max(
        abs(return_probability_at_period(
            ModelParams.from_dimensionless(r, 0.5)) - 1.0)
        for r in (1e-6, 1.0, 1e6))
    report("5a. p1(T') reaches 1 at both extremes and resonance", edges, 1e-9)

    beta = math.acos(0.5)
    worst = 0.0
    for n in range(1, 6):
        for sol in solve_commensurate(n, 1, beta):
            p = ModelParams(omega=1.0, omega_prime=TWO_PI / sol.omega_t_prime,
                            beta=beta)
            worst = max(worst, abs(return_probability_at_period(p) - 1.0))
    report("5b. commensurate roots sit on the p1 = 1 maxima", worst, 1e-8)


def test_criterion_6_dynamical_phase_cross_check():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        p = random_params(rng, omega_ratio=(0.4, 1.6), cos_beta=(-0.8, 0.8))
        t_prime = derived_scales(p).hamiltonian_period
        for fraction in (0.2, 0.5, 1.0):
            t = 5.0 * t_prime * fraction
            exact = dynamical_phase(p, t)
            quad = dynamical_phase_quadrature(p, t, n_points=8192)
            worst = max(worst, abs(exact - quad) / (1.0 + abs(exact)))
    report("6. dynamical phase closed form vs Simpson, 20 random sets",
           worst, 1e-9)


def test_criterion_7_point_values():
    p = ModelParams.from_dimensionless(1.0, 0.5)
    expected = {
        "C1(pi)": (amplitudes(p, math.pi)[0], -0.5 + 0.0j),
        "phi_D(pi)": (dynamical_phase(p, math.pi), -math.pi / 8.0),
        "phi_B(pi)": (berry_phase(p, math.pi),
                      complex(-7.0 * math.pi / 8.0, math.log(2.0))),
        "phi_B(2pi)": (berry_phase(p, 2.0 * math.pi),
                       complex(-7.0 * math.pi / 4.0, 0.0)),
    }
    worst_closed = max(abs(got - want) for got, want in expected.values())
    report("7a. point values vs analytic references", worst_closed, 1e-9)

    # independent integration: RK4 the coefficients and rebuild each quantity
    # 10 000 steps to 2 pi, a record every 2 500
    traj = oracle._integrate(p, oracle.step_size(p), 10_000, 2500, 0)
    idx_half = np.argmin(np.abs(traj.times - math.pi))
    assert traj.times[idx_half] == pytest.approx(math.pi, abs=1e-12)
    c1_half = traj.coefficients[idx_half, 0]
    quad_half = dynamical_phase_quadrature(p, math.pi, n_points=8192)
    theta_r, theta_i = total_phase(p, math.pi)
    worst_oracle = max(
        abs(c1_half - (-0.5)),
        abs(quad_half - (-math.pi / 8.0)),
        abs(complex(theta_r - quad_half, -math.log(abs(c1_half)))
            - complex(-7.0 * math.pi / 8.0, math.log(2.0))),
        abs(traj.coefficients[-1, 0] - amplitudes(p, 2.0 * math.pi)[0]),
    )
    report("7b. point values vs independent integration", worst_oracle, 1e-9)


def test_criterion_8_property_suite():
    rng = np.random.default_rng(808)

    worst_norm = 0.0
    for _ in range(1000):
        p = random_params(rng)
        c1, c2 = amplitudes(p, rng.uniform(0.0, 50.0))
        worst_norm = max(worst_norm, abs(abs(c1) ** 2 + abs(c2) ** 2 - 1.0))
    report("8a. normalization over 1000 random samples", worst_norm, 1e-12)

    p = random_params(rng)
    t = rng.uniform(1.0, 20.0)
    moved = ModelParams(omega=p.omega, omega_prime=p.omega_prime, beta=p.beta,
                        alpha=p.alpha, gauge_a=p.gauge_a + 1.3,
                        gauge_b=p.gauge_b)
    report("8b. gauge-A invariance of phi_B",
           abs(berry_phase(moved, t) - berry_phase(p, t)), 1e-12)

    shifted = ModelParams(omega=p.omega, omega_prime=p.omega_prime,
                          beta=p.beta, alpha=p.alpha, gauge_a=p.gauge_a,
                          gauge_b=p.gauge_b + 0.4)
    difference = berry_phase(shifted, t) - berry_phase(p, t)
    expected = 0.4 * p.omega_prime * t
    report("8c. gauge-B shift law (B - B') w' t",
           abs(difference - expected), 1e-11)

    turned = ModelParams(omega=p.omega, omega_prime=p.omega_prime, beta=p.beta,
                         alpha=p.alpha + 2.0, gauge_a=p.gauge_a,
                         gauge_b=p.gauge_b)
    c1_a, c2_a = amplitudes(p, t)
    c1_b, c2_b = amplitudes(turned, t)
    report("8d. alpha independence of the amplitudes",
           max(abs(c1_a - c1_b), abs(c2_a - c2_b)), 1e-14)

    degenerate = ModelParams(omega=1.0, omega_prime=1.0, beta=0.0)
    c1, c2 = amplitudes(degenerate, 13.7)
    report("8e. lambda -> 0 series path stays normalized",
           abs(abs(c1) ** 2 + abs(c2) ** 2 - 1.0), 1e-12)

    resonant = ModelParams.from_dimensionless(1.0, 0.5)
    scales = derived_scales(resonant)

    def error_at_period(count):
        # count steps of T''/count, one record a period
        traj = oracle._integrate(resonant, scales.shortest_period / count,
                                 count, count, 0)
        return max_deviation(closed_form_trajectory(resonant, traj.times),
                             traj)

    ratio = error_at_period(200) / error_at_period(400)
    report("8f. RK4 fourth-order convergence (ratio - 16)",
           abs(ratio - 16.0), 4.0)
