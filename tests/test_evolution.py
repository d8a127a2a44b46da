import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinberry import (ModelParams, UndefinedPeriodError, amplitudes,
                       dynamical_phase, eigenstate,
                       return_probability_at_period, state)
from spinberry.evolution import (SERIES_BELOW, _half_sinc, amplitude_components,
                                 state_components)
from spinberry.model import eigenbasis

EPS = sys.float_info.epsilon

from conftest import random_params


class TestAmplitudes:
    def test_initial_condition_exact(self, rng):
        for _ in range(10):
            amp = amplitudes(random_params(rng), 0.0)
            assert amp.c1 == 1.0 + 0.0j
            assert amp.c2 == 0.0j

    def test_half_period_point(self, resonant):
        # lambda = omega' = 1, so t = pi is half a state cycle
        amp = amplitudes(resonant, math.pi)
        assert amp.c1 == pytest.approx(-0.5, abs=1e-14)
        assert abs(amp.c2) ** 2 == pytest.approx(0.75, abs=1e-14)

    def test_full_period_point(self, resonant):
        amp = amplitudes(resonant, 2.0 * math.pi)
        assert amp.c1 == pytest.approx(1.0, abs=1e-14)
        assert abs(amp.c2) <= 1e-14

    @given(omega_ratio=st.floats(0.05, 20.0), cos_beta=st.floats(-1.0, 1.0),
           gauge_b=st.floats(-1.0, 1.0), t=st.floats(0.0, 100.0))
    def test_normalization(self, omega_ratio, cos_beta, gauge_b, t):
        p = ModelParams.from_dimensionless(omega_ratio, cos_beta,
                                           gauge_b=gauge_b)
        assert amplitudes(p, t).norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_cyclicity_at_state_period(self, rng):
        for _ in range(10):
            p = random_params(rng)
            t_second = 2.0 * math.pi / p.rabi_rate
            for n in range(1, 6):
                amp = amplitudes(p, n * t_second)
                assert abs(abs(amp.c1) - 1.0) <= 1e-12
                assert abs(amp.c2) <= 1e-12

    def test_polar_field_never_leaves_upper_state(self):
        p = ModelParams(omega=1.0, omega_prime=0.8, beta=0.0, gauge_b=-0.5)
        for t in np.linspace(0.0, 40.0, 17):
            amp = amplitudes(p, t)
            assert abs(amp.c2) == 0.0
            assert abs(amp.c1) == pytest.approx(1.0, abs=1e-14)

    def test_alpha_independence(self, rng):
        for _ in range(10):
            base = random_params(rng)
            t = rng.uniform(0.0, 30.0)
            reference = amplitudes(
                ModelParams(omega=base.omega, omega_prime=base.omega_prime,
                            beta=base.beta, alpha=0.0, gauge_a=base.gauge_a,
                            gauge_b=base.gauge_b), t)
            moved = amplitudes(base, t)
            assert abs(moved.c1 - reference.c1) <= 1e-14
            assert abs(moved.c2 - reference.c2) <= 1e-14

    def test_degenerate_lambda_series_path(self):
        # omega = omega', beta = 0: lambda = 0 exactly, removable singularity
        p = ModelParams(omega=1.0, omega_prime=1.0, beta=0.0, gauge_b=-0.5)
        assert p.rabi_rate == 0.0
        amp = amplitudes(p, 7.3)
        assert abs(amp.c1) == pytest.approx(1.0, abs=1e-13)
        assert abs(amp.c2) == 0.0

    def test_vectorized_matches_scalar(self, resonant):
        times = np.linspace(0.0, 9.0, 11)
        c1, c2 = amplitude_components(resonant, times)
        for k, t in enumerate(times):
            amp = amplitudes(resonant, t)
            assert abs(c1[k] - amp.c1) <= 1e-15
            assert abs(c2[k] - amp.c2) <= 1e-15


class TestState:
    def test_initial_state_is_upper_eigenstate(self, rng):
        for _ in range(5):
            p = random_params(rng)
            psi = state(p, 0.0)
            ref = eigenstate(p, 0.0, 1)
            assert abs(psi.up - ref.up) <= 1e-15
            assert abs(psi.down - ref.down) <= 1e-15

    def test_polar_field_pure_phase(self):
        p = ModelParams(omega=1.0, omega_prime=0.8, beta=0.0)
        for t in (0.5, 2.0, 11.0):
            psi = state(p, t)
            assert abs(psi.down) == 0.0
            assert abs(psi.up) == pytest.approx(1.0, abs=1e-14)

    def test_norm_and_overlap_at_half_period(self, resonant):
        psi = state(resonant, math.pi)
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)
        overlap = eigenstate(resonant, math.pi, 1).inner(psi)
        assert abs(overlap) == pytest.approx(0.5, abs=1e-13)

    def test_state_components_in_place(self, rng):
        # the output is two complex128 columns, 32 B/point; forming each as
        # (c1 * c + c2 * s) * e_up held full-size temporaries, 112 B/point
        p = random_params(rng)
        t = np.linspace(0.0, 50.0, 1_000_000)
        tracemalloc.start()
        try:
            up, down = state_components(p, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / t.size < 100
        c1, c2 = amplitude_components(p, t)
        e_up, e_down, c, s = eigenbasis(p, t)
        assert up.tobytes() == ((c1 * c + c2 * s) * e_up).tobytes()
        assert down.tobytes() == ((c1 * s - c2 * c) * e_down).tobytes()


class TestReturnProbability:
    def test_resonant_maximum(self, resonant):
        assert return_probability_at_period(resonant) == pytest.approx(1.0, abs=1e-13)

    def test_known_value(self):
        # frozen from the closed form, confirmed against the RK4 oracle
        p = ModelParams.from_dimensionless(0.5, 0.5)
        assert return_probability_at_period(p) == pytest.approx(
            0.8609326018448893, abs=1e-12)

    def test_closed_form_identity(self, rng):
        for _ in range(20):
            p = random_params(rng)
            lam = p.rabi_rate
            expected = 1.0 - (p.coupling / lam) ** 2 \
                * math.sin(math.pi * lam / p.omega_prime) ** 2
            assert return_probability_at_period(p) == pytest.approx(
                expected, abs=1e-12)

    def test_both_limits_tend_to_one(self):
        slow = ModelParams.from_dimensionless(1e-6, 0.5)
        fast = ModelParams.from_dimensionless(1e6, 0.5)
        assert return_probability_at_period(slow) == pytest.approx(1.0, abs=1e-9)
        assert return_probability_at_period(fast) == pytest.approx(1.0, abs=1e-9)

    def test_static_field_error(self):
        p = ModelParams(omega=1.0, omega_prime=0.0, beta=0.4)
        with pytest.raises(UndefinedPeriodError):
            return_probability_at_period(p)


class TestSmallLambdaTimesT:
    """The small-lambda series is taken on |lam t|, not on lam/omega."""

    # lambda ~ 2.2e-9 < 1e-8 omega, yet lambda t reaches 2.2 at t = 1e9
    SLOW = ModelParams(omega=1.0, omega_prime=1.0 - 2e-9, beta=1e-9)

    def test_long_time_normalization(self):
        t = np.array([1e8, 1e9, 1e10])
        c1, c2 = amplitude_components(self.SLOW, t)
        assert np.all(np.abs(np.abs(c1) ** 2 + np.abs(c2) ** 2 - 1.0)
                      <= 8 * EPS)

    def test_long_time_dynamical_phase(self):
        p, t = self.SLOW, 1e9
        lam = p.rabi_rate
        frac = p.coupling ** 2 / lam ** 2
        expected = -0.5 * p.omega * (t * (1.0 - frac)
                                     + frac * math.sin(lam * t) / lam)
        assert dynamical_phase(p, t) == pytest.approx(expected, rel=1e-12)

    @given(x=st.floats(1e-12, 1e-2), lam=st.floats(1e-12, 10.0))
    def test_half_sinc_on_both_sides_of_the_switch(self, x, lam):
        # sin(x)/lam is good to a few eps for x > 0, so it checks the series
        t = 2.0 * x / lam
        reference = math.sin(0.5 * lam * t) / lam
        assert abs(float(_half_sinc(lam, t)) - reference) \
            <= 4 * EPS * reference

    def test_half_sinc_at_zero_rate(self):
        t = np.array([0.0, 1.0, 1e9])
        assert np.array_equal(_half_sinc(0.0, t), 0.5 * t)
        assert SERIES_BELOW == pytest.approx(4.04e-4, rel=1e-3)

    @given(log_detuning=st.floats(-12.0, -1.0), log_beta=st.floats(-12.0, -1.0),
           log_lam_t=st.floats(-12.0, 4.0))
    def test_normalization_over_lambda_t_decades(self, log_detuning, log_beta,
                                                 log_lam_t):
        p = ModelParams(omega=1.0, omega_prime=1.0 - 10.0 ** log_detuning,
                        beta=10.0 ** log_beta)
        t = 10.0 ** log_lam_t / p.rabi_rate
        c1, c2 = amplitude_components(p, t)
        assert abs(abs(c1) ** 2 + abs(c2) ** 2 - 1.0) <= 8 * EPS
