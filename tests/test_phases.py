import cmath
import dataclasses
import json
import math

import numpy as np
import pytest

from spinberry import cli, phases
from spinberry.errors import (AmplitudeVanishedError, ExtrapolationError,
                              PhaseOverflowError)
from spinberry.evolution import amplitudes
from spinberry.model import ModelParams, derived_scales
from spinberry.phases import (adiabatic_limit_check, berry_phase, decompose,
                              dynamical_phase, dynamical_phase_quadrature,
                              evaluate, gauge_b_fix, nonadiabatic_limit_check,
                              principal_branch, total_phase)

from conftest import random_params


class TestPrincipalBranch:
    def test_interval(self):
        for x in np.linspace(-30.0, 30.0, 201):
            reduced = principal_branch(x)
            assert -math.pi < reduced <= math.pi
            assert cmath.exp(1j * reduced) == pytest.approx(cmath.exp(1j * x),
                                                            abs=1e-12)


class TestTotalPhase:
    def test_zero_at_start(self, rng):
        for _ in range(10):
            assert total_phase(random_params(rng), 0.0) == (0.0, 0.0)

    def test_half_period_branch(self, resonant):
        theta_r, theta_i = total_phase(resonant, math.pi)
        assert theta_r == pytest.approx(-math.pi, abs=1e-13)
        assert theta_i == pytest.approx(math.log(2.0), abs=1e-13)

    def test_full_period_branch(self, resonant):
        theta_r, theta_i = total_phase(resonant, 2.0 * math.pi)
        assert theta_r == pytest.approx(-2.0 * math.pi, abs=1e-13)
        assert theta_i == pytest.approx(0.0, abs=1e-13)

    def test_reconstruction(self, rng):
        checked = 0
        while checked < 1000:
            p = random_params(rng)
            t = rng.uniform(0.0, 40.0)
            c1, _ = amplitudes(p, t)
            if abs(c1) <= 1e-6:
                continue
            theta_r, theta_i = total_phase(p, t)
            rebuilt = cmath.exp(complex(-theta_i, theta_r))
            assert abs(rebuilt - c1) <= 1e-10
            checked += 1

    def test_continuity(self, resonant):
        # 1000 samples per (common) period: adjacent jumps stay below pi/2
        times = np.linspace(0.0, 3.0 * 2.0 * math.pi, 3001)
        theta = np.array([total_phase(resonant, t)[0] for t in times])
        assert np.max(np.abs(np.diff(theta))) < math.pi / 2.0

    def test_amplitude_vanished(self):
        # omega = omega' cos(beta): |C1| = |cos(lam t / 2)| hits zero
        p = ModelParams.from_dimensionless(2.0, 0.5)
        t_zero = math.pi / p.rabi_rate
        with pytest.raises(AmplitudeVanishedError):
            total_phase(p, t_zero)


class TestDynamicalPhase:
    def test_zero_at_start(self, resonant):
        assert dynamical_phase(resonant, 0.0) == 0.0

    def test_half_period_value(self, resonant):
        assert dynamical_phase(resonant, math.pi) == pytest.approx(
            -math.pi / 8.0, abs=1e-14)

    def test_static_field(self):
        p = ModelParams(omega=1.0, omega_prime=0.0, beta=0.6)
        for t in (0.0, 1.0, 12.5):
            assert dynamical_phase(p, t) == pytest.approx(-0.5 * t, abs=1e-14)

    def test_quadrature_half_period(self, resonant):
        quad = dynamical_phase_quadrature(resonant, math.pi, n_points=2000)
        assert quad == pytest.approx(-math.pi / 8.0, abs=1e-9)

    def test_quadrature_static_field(self):
        p = ModelParams(omega=1.0, omega_prime=0.0, beta=0.6)
        quad = dynamical_phase_quadrature(p, 4.0, n_points=64)
        assert quad == pytest.approx(-2.0, abs=1e-12)

    def test_quadrature_rejects_few_points(self, resonant):
        with pytest.raises(ValueError):
            dynamical_phase_quadrature(resonant, 1.0, n_points=8)

    def test_quadrature_agreement_over_five_periods(self, rng):
        for _ in range(5):
            p = random_params(rng, omega_ratio=(0.4, 1.6), cos_beta=(-0.8, 0.8))
            t_prime = 2.0 * math.pi / p.omega_prime
            for fraction in (0.25, 0.6, 1.0):
                t = 5.0 * t_prime * fraction
                exact = dynamical_phase(p, t)
                quad = dynamical_phase_quadrature(p, t, n_points=4096)
                assert abs(exact - quad) <= 1e-9 * (1.0 + abs(exact))

    def test_independent_of_gauge_b(self, resonant):
        shifted = ModelParams(omega=1.0, omega_prime=1.0, beta=resonant.beta,
                              gauge_b=0.3)
        for t in (1.0, 4.0, 9.0):
            assert dynamical_phase(resonant, t) == dynamical_phase(shifted, t)


class TestBerryPhase:
    def test_zero_at_start(self, resonant):
        assert berry_phase(resonant, 0.0) == 0.0

    def test_half_period_value(self, resonant):
        value = berry_phase(resonant, math.pi)
        assert value.real == pytest.approx(-7.0 * math.pi / 8.0, abs=1e-13)
        assert value.imag == pytest.approx(math.log(2.0), abs=1e-13)

    def test_full_period_value(self, resonant):
        value = berry_phase(resonant, 2.0 * math.pi)
        assert value.real == pytest.approx(-7.0 * math.pi / 4.0, abs=1e-13)
        assert value.imag == pytest.approx(0.0, abs=1e-13)

    def test_real_at_state_periods(self, rng):
        for _ in range(10):
            p = random_params(rng)
            t_second = 2.0 * math.pi / p.rabi_rate
            for n in range(1, 6):
                assert abs(berry_phase(p, n * t_second).imag) <= 1e-10

    def test_imaginary_part_nonnegative(self, rng):
        for _ in range(200):
            p = random_params(rng)
            t = rng.uniform(0.0, 40.0)
            try:
                value = berry_phase(p, t)
            except AmplitudeVanishedError:
                continue
            assert value.imag >= -1e-15

    def test_gauge_b_shift_law(self, rng):
        for _ in range(20):
            p = random_params(rng)
            other_b = p.gauge_b + 0.77
            shifted = ModelParams(omega=p.omega, omega_prime=p.omega_prime,
                                  beta=p.beta, alpha=p.alpha,
                                  gauge_a=p.gauge_a, gauge_b=other_b)
            t = rng.uniform(0.0, 20.0)
            try:
                difference = berry_phase(shifted, t) - berry_phase(p, t)
            except AmplitudeVanishedError:
                continue
            expected = 0.77 * p.omega_prime * t
            assert abs(difference.real - expected) <= 1e-12 * (1.0 + abs(expected))
            assert abs(difference.imag) <= 1e-12

    def test_gauge_a_invariance(self, rng):
        for _ in range(20):
            p = random_params(rng)
            moved = ModelParams(omega=p.omega, omega_prime=p.omega_prime,
                                beta=p.beta, alpha=p.alpha,
                                gauge_a=p.gauge_a + 2.1, gauge_b=p.gauge_b)
            t = rng.uniform(0.0, 20.0)
            try:
                assert abs(berry_phase(moved, t) - berry_phase(p, t)) <= 1e-12
            except AmplitudeVanishedError:
                continue

    def test_decompose_consistency(self, resonant):
        row = decompose(resonant, 2.5)
        assert berry_phase(resonant, 2.5) == complex(
            row["theta_r"] - row["phi_d"], row["theta_i"])


class TestLimits:
    def test_adiabatic_limit_half(self, resonant):
        value = adiabatic_limit_check(resonant, 1e-4)
        assert value == pytest.approx(-math.pi / 2.0, abs=1e-3)

    def test_adiabatic_limit_negative_tilt(self):
        p = ModelParams.from_dimensionless(1.0, -0.5)
        value = adiabatic_limit_check(p, 1e-4)
        assert value == pytest.approx(-1.5 * math.pi, abs=1e-3)

    def test_adiabatic_limit_polar(self):
        p = ModelParams.from_dimensionless(1.0, 1.0)
        assert adiabatic_limit_check(p, 1e-3) == pytest.approx(0.0, abs=1e-6)

    def test_adiabatic_ratio_validation(self, resonant):
        with pytest.raises(ValueError):
            adiabatic_limit_check(resonant, 0.5)

    def test_nonadiabatic_limit(self, resonant):
        assert nonadiabatic_limit_check(resonant, 1e4) == pytest.approx(
            0.0, abs=1e-3)

    def test_nonadiabatic_monotone_approach(self, resonant):
        coarse = abs(nonadiabatic_limit_check(resonant, 1e2))
        fine = abs(nonadiabatic_limit_check(resonant, 1e3))
        assert fine < coarse

    def test_nonadiabatic_ratio_validation(self, resonant):
        with pytest.raises(ValueError):
            nonadiabatic_limit_check(resonant, 5.0)

    def test_one_evaluate_gives_both_limits_bit_for_bit(self, monkeypatch,
                                                        rng):
        # verify takes its gauge and limit lines from one evaluate over five
        # rows: phi_B at t_probe = 0.37 t_max at (B, A), (B + 1/4, A) and
        # (B, A + 1.3), then Re phi_B(T') at omega'/omega = 1e-4 and 1e4.
        # Each row is the same bits as its separate call, and the limits as
        # each scalar view and as berry_phase at T'.  At omega = omega' =
        # 1.7e308, beta = 0 lambda is 0, but 1.7e308 at omega = 1 would
        # overflow 2 lambda
        grids = []

        def spy(p, t, strict=False):
            grids.append(evaluate(p, t, strict))
            return grids[-1]

        monkeypatch.setattr(cli, "evaluate", spy)
        cases = [ModelParams(1.7e308, 1.7e308, 0.0)]
        for _ in range(200):
            p = random_params(rng, omega_ratio=(1e-3, 1e3),
                              cos_beta=(-1.0, 1.0))
            cases.append(dataclasses.replace(
                p, omega=10.0 ** rng.uniform(-300, 300),
                gauge_b=rng.uniform(-1e3, 1e3)))
        for p in cases:
            # a horizon of up to one shortest period keeps the oracles short
            t_max = rng.uniform(0.05, 1.0) * derived_scales(p).shortest_period
            grids.clear()
            list(cli._verify_checks(p, t_max))
            ((columns, vanished),) = grids
            assert not vanished.any()
            re, im = columns["re_phi_b"].tolist(), columns["im_phi_b"].tolist()
            t_probe = 0.37 * t_max
            rows = [p, dataclasses.replace(p, gauge_b=p.gauge_b + 0.25),
                    dataclasses.replace(p, gauge_a=p.gauge_a + 1.3)]
            for row, value in zip(rows, map(complex, re, im)):
                assert value == berry_phase(row, t_probe)
            slow, fast = phases._real_phase_at_period(p, [1e-4, 1e4]).tolist()
            assert re[3:] == [slow, fast]
            # gauge_b_fix's three ratios, also from one evaluate
            assert phases._real_phase_at_period(p, phases._FIX_RATIOS).tolist(
                ) == [adiabatic_limit_check(p, r) for r in phases._FIX_RATIOS]
            assert slow == adiabatic_limit_check(p, 1e-4)
            assert principal_branch(fast) == nonadiabatic_limit_check(p, 1e4)
            for ratio, value in ((1e-4, slow), (1e4, fast)):
                at = dataclasses.replace(p, omega=1.0, omega_prime=ratio)
                assert value == berry_phase(at, 2.0 * math.pi / ratio).real

    def test_vanished_limit_row_raises(self, monkeypatch, capsys):
        # a limit row whose |C1| vanished is refused by name after the gauge
        # lines, as the strict limit evaluate refused it
        theta = phases._theta

        def vanish_at_the_limits(p, t, x, half_sinc):
            theta_r, theta_i, vanished = theta(p, t, x, half_sinc)
            return theta_r, theta_i, vanished | np.isin(p.omega_prime,
                                                        [1e-4, 1e4])

        monkeypatch.setattr(phases, "_theta", vanish_at_the_limits)
        code = cli.main(["verify"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out.splitlines()[-1].startswith("PASS  gauge-A invariance")
        assert json.loads(err)["error"] == {
            "code": "AmplitudeVanishedError", "message": phases._VANISHED}
        with pytest.raises(AmplitudeVanishedError):
            adiabatic_limit_check(ModelParams.from_dimensionless(1.0, 0.5),
                                  1e-4)

    @pytest.mark.parametrize("cos_beta", [0.5, 0.9, -0.3])
    def test_gauge_b_fix(self, cos_beta):
        p = ModelParams.from_dimensionless(1.0, cos_beta)
        assert gauge_b_fix(p) == pytest.approx(-0.5, abs=1e-6)

    def test_gauge_b_fix_names_an_unconverged_extrapolation(self,
                                                            monkeypatch):
        # the two first-order estimates differ by 1.77e-7 at cos(beta) = 0.5
        monkeypatch.setattr(phases, "_FIX_CONVERGENCE_TOL", 1e-7)
        with pytest.raises(ExtrapolationError, match="did not converge"):
            gauge_b_fix(ModelParams.from_dimensionless(1.0, 0.5))


@pytest.mark.parametrize("params, t", [
    # lambda t/2 = 2e308: cos and sin of inf
    ((8e307, 1e300, 1.0, 0.0, 0.0, -0.5), 5.0),
    # omega = omega', beta = 0: lambda = 0.  omega' t = 2e308, the field's
    # azimuth, which is in no column
    ((1e308, 1e308, 0.0, 0.0, 0.0, 0.0), 2.0),
    # B omega' t = 2.25e308 while omega' t is finite
    ((1e308, 1e308, 0.0, 0.0, 0.0, 1.5), 1.5),
    # lambda t/2, omega' t and B omega' t finite, their sum theta_r is not
    ((8e307, 8e307, math.acos(0.5), 0.0, 0.0, -1.0), 2.0),
    # lambda = d and the coupling is 0, so phi_D = -omega t / 2 = -2e308
    ((8e307, 1e307, 0.0, 0.0, 0.0, 0.0), 5.0),
])
def test_evaluate_refuses_an_overflowing_time(params, t):
    with pytest.raises(PhaseOverflowError,
                       match=f"^a phase overflows at t = {t:.17g}: "):
        evaluate(ModelParams(*params), [0.5, t])


def test_im_phi_b_is_theta_i_bit_for_bit(rng):
    # Im phi_B = theta_i, one array: its bits are theta_i's, nan exactly
    # where a row vanished
    cases = [(random_params(rng), rng.uniform(0.0, 40.0, 300))
             for _ in range(20)]
    # omega = omega' cos(beta): |C1| vanishes at odd multiples of T''/2
    p = ModelParams.from_dimensionless(2.0, 0.5)
    cases.append((p, np.arange(12) * derived_scales(p).state_period / 2.0))
    for p, t in cases:
        columns, vanished = evaluate(p, t)
        assert columns["im_phi_b"].tobytes() == columns["theta_i"].tobytes()
        assert np.array_equal(np.isnan(columns["im_phi_b"]), vanished)
    assert vanished[1::2].all() and not vanished[::2].any()
