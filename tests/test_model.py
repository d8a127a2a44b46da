import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinberry import model
from spinberry.model import (ModelParams, derived_scales, eigenstate,
                             field_vector, hamiltonian, unit_phasor)
from spinberry.phases import COLUMNS, evaluate

from conftest import random_params

omega_st = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
omega_prime_st = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
cos_beta_st = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


class TestModelParams:
    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            ModelParams(omega=0.0, omega_prime=1.0, beta=0.5)

    def test_rejects_negative_rotation_rate(self):
        with pytest.raises(ValueError):
            ModelParams(omega=1.0, omega_prime=-0.1, beta=0.5)

    def test_rejects_beta_outside_range(self):
        with pytest.raises(ValueError):
            ModelParams(omega=1.0, omega_prime=1.0, beta=3.5)

    @pytest.mark.parametrize("field", ["omega", "omega_prime", "alpha",
                                       "gauge_a", "gauge_b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(omega=1.0, omega_prime=1.0, beta=0.5)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("cos_beta", [1.5, -1.0000001, math.nan])
    def test_from_dimensionless_rejects_cos_beta_out_of_range(self, cos_beta):
        with pytest.raises(ValueError, match="--cos-beta"):
            ModelParams.from_dimensionless(1.0, cos_beta)

    def test_default_gauge_b(self):
        p = ModelParams(omega=1.0, omega_prime=1.0, beta=0.5)
        assert p.gauge_b == -0.5

    @given(omega=omega_st, omega_prime=omega_prime_st, cos_beta=cos_beta_st)
    def test_rabi_rate_squared_identity(self, omega, omega_prime, cos_beta):
        p = ModelParams(omega=omega, omega_prime=omega_prime,
                        beta=math.acos(cos_beta))
        expected_sq = omega**2 + omega_prime**2 - 2.0 * omega * omega_prime * cos_beta
        assert abs(p.rabi_rate**2 - expected_sq) <= 1e-14 * omega**2 + 1e-13 * expected_sq

    def test_rabi_rate_vanishes_only_at_degeneracy(self):
        assert ModelParams(omega=1.0, omega_prime=1.0, beta=0.0).rabi_rate == 0.0
        assert ModelParams(omega=1.0, omega_prime=1.0, beta=1e-3).rabi_rate > 0.0
        assert ModelParams(omega=1.0, omega_prime=0.999, beta=0.0).rabi_rate > 0.0

    def test_derived_scales(self):
        p = ModelParams.from_dimensionless(2.0, 0.5)
        scales = derived_scales(p)
        assert scales.hamiltonian_period == pytest.approx(math.pi)
        assert scales.state_period == pytest.approx(2.0 * math.pi / math.sqrt(3.0))
        assert derived_scales(
            ModelParams(omega=1.0, omega_prime=0.0, beta=0.3)
        ).hamiltonian_period == math.inf


class TestOver:
    """``ModelParams.over``: named fields as arrays, broadcast together."""

    BASE = ModelParams(omega=1.3, omega_prime=0.7, beta=1.1, alpha=0.4,
                       gauge_a=0.3, gauge_b=-0.2)

    def test_fields_broadcast_together(self):
        # omega and beta across, gauge_b down: each row is ModelParams at
        # its values, bit for bit through evaluate; the other fields stay
        omega, beta = np.array([0.5, 1.0, 2.0]), np.array([0.3, 1.1, 2.9])
        gauge_b = np.array([[-0.5], [0.25]])
        grid = self.BASE.over(omega=omega, beta=beta, gauge_b=gauge_b)
        assert grid.omega.shape == grid.beta.shape == grid.gauge_b.shape \
            == grid.rabi_rate.shape == (2, 3)
        assert (grid.omega_prime, grid.alpha) == (0.7, 0.4)
        t = np.linspace(0.5, 4.0, 6).reshape(2, 3)
        columns, vanished = evaluate(grid, t)
        assert not vanished.any()
        for i, j in np.ndindex(2, 3):
            row = dataclasses.replace(self.BASE, omega=omega[j], beta=beta[j],
                                      gauge_b=gauge_b[i, 0])
            assert grid.rabi_rate[i, j] == row.rabi_rate
            scalar, _ = evaluate(row, t[i, j])
            for name in COLUMNS:
                assert columns[name][i, j] == scalar[name], (i, j, name)

    @pytest.mark.parametrize("base, field, values, first", [
        ({}, "omega", [1.0, 0.0, -2.0], 1),
        ({}, "omega_prime", [0.5, -0.25, -1.0], 1),
        ({}, "gauge_a", [0.1, math.inf, math.nan], 1),
        ({}, "gauge_b", [math.nan, 1.0, math.inf], 0),
        ({}, "alpha", [0.0, 1.0, -math.inf], 2),
        ({}, "beta", [0.5, -0.1, 4.0], 1),
        # math.cos would refuse an infinite beta before lambda could
        ({}, "beta", [0.5, math.inf, 1.0], 1),
        # lambda = hypot(omega, 8e307) at beta = pi/2: 2 lambda overflows
        ({"omega_prime": 8e307, "beta": math.pi / 2}, "omega",
         [1.0, 8e307, 1.7e308], 1),
    ])
    def test_refuses_the_first_bad_row(self, base, field, values, first):
        p = dataclasses.replace(self.BASE, **base)
        with pytest.raises(ValueError) as row:
            dataclasses.replace(p, **{field: values[first]})
        with pytest.raises(ValueError) as grid:
            p.over(**{field: values})
        assert str(grid.value) == str(row.value)
        assert field in str(row.value) or "lambda" in str(row.value)

    def test_unknown_field_is_refused(self):
        with pytest.raises(TypeError, match="omega_ratio"):
            self.BASE.over(omega_ratio=[1.0, 2.0])


class TestFieldVector:
    def test_polar_axis(self):
        p = ModelParams(omega=1.0, omega_prime=2.0, beta=0.0, alpha=1.1)
        np.testing.assert_allclose(field_vector(p, 3.7), [0.0, 0.0, 1.0], atol=1e-15)

    def test_quarter_turn(self):
        p = ModelParams(omega=1.0, omega_prime=1.0, beta=math.pi / 2, alpha=0.0)
        np.testing.assert_allclose(field_vector(p, math.pi / 2), [0.0, 1.0, 0.0],
                                   atol=1e-15)

    def test_direct_substitution(self):
        p = ModelParams(omega=1.0, omega_prime=1.0, beta=math.acos(0.5), alpha=0.0)
        np.testing.assert_allclose(field_vector(p, 0.0),
                                   [math.sqrt(3.0) / 2.0, 0.0, 0.5], atol=1e-15)

    def test_unit_norm(self, rng):
        for _ in range(20):
            p = random_params(rng)
            t = rng.uniform(0.0, 50.0)
            assert np.linalg.norm(field_vector(p, t)) == pytest.approx(1.0, abs=1e-14)


class TestHamiltonian:
    def test_diagonal_on_axis(self):
        p = ModelParams(omega=2.0, omega_prime=1.0, beta=0.0)
        np.testing.assert_allclose(hamiltonian(p, 0.0), np.diag([1.0, -1.0]),
                                   atol=1e-15)

    def test_direct_substitution(self):
        p = ModelParams(omega=1.0, omega_prime=1.0, beta=math.acos(0.5), alpha=0.0)
        r3 = math.sqrt(3.0)
        np.testing.assert_allclose(hamiltonian(p, 0.0),
                                   [[0.25, r3 / 4.0], [r3 / 4.0, -0.25]],
                                   atol=1e-15)

    def test_hermitian_traceless_with_fixed_eigenvalues(self, rng):
        for _ in range(50):
            p = random_params(rng)
            t = rng.uniform(0.0, 30.0)
            h = hamiltonian(p, t)
            np.testing.assert_array_equal(h, h.conj().T)
            assert abs(np.trace(h)) <= 1e-15
            np.testing.assert_allclose(np.linalg.eigvalsh(h),
                                       [-0.5 * p.omega, 0.5 * p.omega],
                                       atol=1e-12)


class TestUnitPhasor:
    def test_matches_complex_exp_within_an_ulp(self, rng):
        x = np.concatenate([rng.uniform(-1e6, 1e6, 4000),
                            rng.uniform(-10.0, 10.0, 4000), [0.0, -0.0]])
        scalars = x[::97]
        for got, want in ((unit_phasor(x), np.exp(1j * x)),
                          (np.array([unit_phasor(v) for v in scalars]),
                           np.exp(1j * scalars))):
            for part in (np.real, np.imag):
                assert np.all(np.abs(part(got) - part(want))
                              <= np.spacing(np.abs(part(want))))

    def test_scalar_in_scalar_out_and_scale(self, rng):
        value = unit_phasor(0.3)
        assert isinstance(value, complex) and np.ndim(value) == 0
        x = rng.uniform(-50.0, 50.0, 100)
        np.testing.assert_array_equal(unit_phasor(x, 0.7), 0.7 * unit_phasor(x))


class TestEigenstate:
    def test_spin_up_along_z(self):
        p = ModelParams(omega=1.0, omega_prime=1.0, beta=0.0, alpha=0.0,
                        gauge_a=0.0, gauge_b=0.7)
        up, down = eigenstate(p, 0.0, 1)
        assert up == pytest.approx(1.0)
        assert down == pytest.approx(0.0)

    def test_direct_substitution_lower_state(self):
        p = ModelParams(omega=1.0, omega_prime=1.0, beta=math.acos(0.5),
                        alpha=0.0, gauge_a=0.0)
        up, down = eigenstate(p, 0.0, 2)
        assert up == pytest.approx(0.5, abs=1e-15)
        assert down == pytest.approx(-math.sqrt(3.0) / 2.0, abs=1e-15)

    def test_invalid_index(self, resonant):
        with pytest.raises(ValueError):
            eigenstate(resonant, 0.0, 3)

    def test_eigen_residual_and_orthogonality(self, rng):
        for _ in range(100):
            p = random_params(rng)
            t = rng.uniform(0.0, 30.0)
            h = hamiltonian(p, t)
            s1 = eigenstate(p, t, 1)
            s2 = eigenstate(p, t, 2)
            assert np.linalg.norm(h @ s1 - 0.5 * p.omega * s1) <= 1e-12
            assert np.linalg.norm(h @ s2 + 0.5 * p.omega * s2) <= 1e-12
            assert abs(np.vdot(s1, s2)) <= 1e-14
            assert abs(np.vdot(s1, s1) - 1.0) <= 1e-14

    def test_gauge_completeness(self, rng):
        for _ in range(20):
            base = random_params(rng)
            p0 = ModelParams(omega=base.omega, omega_prime=base.omega_prime,
                             beta=base.beta, alpha=base.alpha,
                             gauge_a=0.0, gauge_b=0.0)
            t = rng.uniform(0.0, 20.0)
            factor = np.exp(-1j * (base.gauge_a
                                   + base.gauge_b * base.omega_prime * t))
            for index in (1, 2):
                gauged = eigenstate(base, t, index)
                plain = eigenstate(p0, t, index)
                np.testing.assert_allclose(gauged, factor * plain, atol=1e-14)

    def test_eigenstates_follow_a_reversed_field(self, monkeypatch, rng):
        # H and the eigenbasis read the one azimuth formula: a field turning
        # the other way there turns the eigenstates with it
        azimuth = model.field_azimuth
        monkeypatch.setattr(
            model, "field_azimuth",
            lambda rate, t, alpha=0.0: azimuth(-rate, t, alpha))
        for _ in range(100):
            p = random_params(rng)
            t = rng.uniform(0.0, 30.0)
            h = hamiltonian(p, t)
            # H's scale omega/2 times the rounding of the eigenstates' phase
            # angles phi/2 + delta and phi/2 - delta, eps of each at most,
            # plus 8 eps of cos, sin and product roundings
            tol = 0.5 * sys.float_info.epsilon * p.omega * (
                0.5 * abs(p.alpha + p.omega_prime * t)
                + abs(p.gauge_a + p.gauge_b * p.omega_prime * t) + 8.0)
            for index, energy in ((1, 0.5), (2, -0.5)):
                s = eigenstate(p, t, index)
                assert np.linalg.norm(h @ s - energy * p.omega * s) <= tol
