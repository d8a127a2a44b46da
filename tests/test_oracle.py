import math
import tracemalloc

import numpy as np
import pytest

from spinberry import (IntegratorConfig, ModelParams, RecordBudgetError,
                       SpinberryError, closed_form_trajectory, derived_scales,
                       eigenstate, hamiltonian, initial_state,
                       integrate_coefficients, integrate_lab_frame,
                       max_deviation, oracle)
from spinberry.model import hamiltonian_elements, unit_phasor

from conftest import random_params


def _default_cfg(p, periods=10.0, stride=25):
    scales = derived_scales(p)
    horizon = [x for x in (scales.hamiltonian_period, scales.state_period)
               if math.isfinite(x)]
    t_max = periods * (max(horizon) if horizon else 2.0 * math.pi / p.omega)
    return IntegratorConfig(t_max=t_max, record_stride=stride)


class TestIntegratorConfig:
    def test_rejects_coarse_step_count(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=1.0, step_count_per_period=50)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=1.0, record_stride=0)


class TestCoefficientIntegration:
    def test_polar_field_stays_decoupled(self):
        p = ModelParams(omega=1.0, omega_prime=0.7, beta=0.0)
        traj = integrate_coefficients(p, _default_cfg(p, periods=3.0))
        assert np.max(np.abs(traj.coefficients[:, 1])) <= 1e-14

    def test_agrees_with_closed_form(self, resonant):
        traj = integrate_coefficients(resonant, _default_cfg(resonant))
        closed = closed_form_trajectory(resonant, traj.times)
        assert max_deviation(closed, traj) <= 1e-8
        # only the lab frame keeps spinors: its propagated states
        assert traj.spinors is None and closed.spinors is None

    def test_half_period_value(self, resonant):
        cfg = IntegratorConfig(t_max=math.pi, record_stride=5000)
        traj = integrate_coefficients(resonant, cfg)
        assert traj.times[-1] == pytest.approx(math.pi, abs=1e-12)
        assert traj.coefficients[-1, 0] == pytest.approx(-0.5 + 0.0j, abs=1e-8)

    def test_norm_drift_over_ten_periods(self, rng):
        for _ in range(5):
            p = random_params(rng)
            traj = integrate_coefficients(p, _default_cfg(p))
            assert traj.norm_drift() <= 1e-9


class TestLabFrameIntegration:
    def test_static_axis_pure_phase(self):
        p = ModelParams(omega=1.0, omega_prime=0.7, beta=0.0, alpha=0.0,
                        gauge_a=0.0)
        traj = integrate_lab_frame(p, _default_cfg(p, periods=2.0))
        expected = np.exp(-0.5j * p.omega * traj.times)
        assert np.max(np.abs(traj.spinors[:, 0] - expected)) <= 1e-9
        assert np.max(np.abs(traj.spinors[:, 1])) <= 1e-14

    def test_frame_equivalence(self, resonant):
        cfg = _default_cfg(resonant)
        coeff = integrate_coefficients(resonant, cfg)
        lab = integrate_lab_frame(resonant, cfg)
        assert max_deviation(coeff, lab) <= 1e-7

    def test_alpha_independence_of_projections(self, resonant):
        reference = None
        for alpha in (0.0, math.pi / 3.0, math.pi):
            p = ModelParams(omega=1.0, omega_prime=1.0,
                            beta=math.acos(0.5), alpha=alpha)
            traj = integrate_lab_frame(p, _default_cfg(p, periods=3.0))
            if reference is None:
                reference = traj
            else:
                assert max_deviation(reference, traj) <= 1e-9

    def test_gauge_a_invariance(self, resonant):
        reference = None
        for gauge_a in (0.0, 1.3, math.pi):
            p = ModelParams(omega=1.0, omega_prime=1.0,
                            beta=math.acos(0.5), gauge_a=gauge_a)
            traj = integrate_coefficients(p, _default_cfg(p, periods=3.0))
            if reference is None:
                reference = traj
            else:
                assert max_deviation(reference, traj) <= 1e-9


class TestMaxDeviation:
    def test_identity(self, resonant):
        traj = integrate_coefficients(resonant, _default_cfg(resonant, periods=2.0))
        assert max_deviation(traj, traj) == 0.0

    def test_mismatched_grids_rejected(self, resonant):
        a = integrate_coefficients(resonant, _default_cfg(resonant, periods=2.0))
        b = integrate_coefficients(resonant, _default_cfg(resonant, periods=3.0))
        with pytest.raises(ValueError):
            max_deviation(a, b)


class TestConvergence:
    def test_fourth_order_step_halving(self, resonant):
        scales = derived_scales(resonant)

        def error_at_period(count):
            cfg = IntegratorConfig(t_max=scales.state_period,
                                   step_count_per_period=count,
                                   record_stride=count)
            traj = integrate_coefficients(resonant, cfg)
            return max_deviation(closed_form_trajectory(resonant, traj.times),
                                 traj)

        ratio = error_at_period(200) / error_at_period(400)
        assert 12.0 <= ratio <= 20.0

    def test_lab_frame_fourth_order(self, resonant):
        scales = derived_scales(resonant)

        def error_at_period(count):
            cfg = IntegratorConfig(t_max=scales.state_period,
                                   step_count_per_period=count,
                                   record_stride=count)
            traj = integrate_lab_frame(resonant, cfg)
            return max_deviation(closed_form_trajectory(resonant, traj.times),
                                 traj)

        ratio = error_at_period(200) / error_at_period(400)
        assert 12.0 <= ratio <= 20.0


def _bmm(a, b):
    """2x2 matrix products of component tuples (m00, m01, m10, m11), each an
    array or a scalar."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _shift(s, k):
    """I + s*K on a component tuple; s a scalar."""
    k00, k01, k10, k11 = k
    return (1.0 + s * k00, s * k01, s * k10, 1.0 + s * k11)


def _rk4_step_matrices(a, b, d, h):
    """Generic RK4 step maps for dy/dt = M y, from the stages as written;
    a, b, d are M at t, t + h/2, t + h as component tuples."""
    k2 = _bmm(b, _shift(0.5 * h, a))
    k3 = _bmm(b, _shift(0.5 * h, k2))
    k4 = _bmm(d, _shift(h, k3))
    return _shift(h / 6.0, tuple(x1 + 2.0 * (x2 + x3) + x4
                                 for x1, x2, x3, x4 in zip(a, k2, k3, k4)))


def _coefficient_generator(p):
    """N = (i/2)[[-d, k], [k, d]]: the coefficient equations without their
    scalar gauge term i B omega' I, as a component tuple."""
    return (-0.5j * p.detuning, 0.5j * p.coupling, 0.5j * p.coupling,
            0.5j * p.detuning)


def _plain_rk4(matrix_at, y0, h, n_steps):
    """Classic RK4 on the state vector, one step at a time: every state."""
    y = np.asarray(y0, dtype=complex)
    states = [y]
    for k in range(n_steps):
        a, b, d = matrix_at(h * k), matrix_at(h * k + 0.5 * h), \
            matrix_at(h * (k + 1))
        k1 = a @ y
        k2 = b @ (y + 0.5 * h * k1)
        k3 = b @ (y + 0.5 * h * k2)
        k4 = d @ (y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
    return np.array(states)


def _frames(p):
    """(integrate, recorded states, M(t), initial state) for both frames.

    The coefficient frame's reference is RK4 of N alone, against the records
    divided by their gauge factor e^{i B omega' t}."""
    coefficient_m = np.array(_coefficient_generator(p)).reshape(2, 2)
    return [
        (lambda cfg: integrate_coefficients(p, cfg),
         lambda traj: traj.coefficients / unit_phasor(
             p.gauge_b * p.omega_prime * traj.times)[:, None],
         lambda t: coefficient_m, (1.0, 0.0)),
        (lambda cfg: integrate_lab_frame(p, cfg),
         lambda traj: traj.spinors, lambda t: -1j * hamiltonian(p, t),
         initial_state(p).as_array()),
    ]


class TestBlockedScan:
    """The interval scan of ``oracle._propagate`` against a plain RK4 loop."""

    @pytest.mark.parametrize("n_steps, stride", [
        (1, 1),
        (29, 4),  # a partial last interval, padded with identities
        (103, 1),
        (oracle._CHUNK + 37, 13),  # several chunks
        (2 * oracle._CHUNK + 3, 7),
        (50, 1000),  # stride > n_steps
        (oracle._CHUNK + 100, 25),  # a constant map's totals reused, padded
        (777, 777),  # stride = n_steps
        # stride > _CHUNK: intervals of a divisor of it, two per record
        (2 * oracle._CHUNK + 11, 10_000),
    ])
    def test_matches_plain_step_loop(self, rng, n_steps, stride):
        p = random_params(rng)
        h = oracle.step_size(p, IntegratorConfig(t_max=1.0))
        cfg = IntegratorConfig(t_max=n_steps * h, record_stride=stride)
        keep = list(range(0, n_steps + 1, stride))
        if keep[-1] != n_steps:
            keep.append(n_steps)
        for integrate, recorded, matrix_at, y0 in _frames(p):
            traj = integrate(cfg)
            np.testing.assert_array_equal(traj.times, h * np.array(keep))
            expected = _plain_rk4(matrix_at, y0, h, n_steps)[keep]
            assert np.max(np.abs(recorded(traj) - expected)) <= 1e-12

    def test_long_run_memory_and_norm_drift(self):
        # verify --omega-ratio 0.05 at its default horizon: 1.95 M steps
        p = ModelParams.from_dimensionless(0.05, 0.5)
        cfg = _default_cfg(p)
        steps = oracle._n_steps(cfg, oracle.step_size(p, cfg))
        assert steps >= 1_000_000
        for integrate, _, _, _ in _frames(p):
            tracemalloc.start()
            try:
                traj = integrate(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / steps < 100.0
            assert traj.norm_drift() <= 1e-9

    def test_memory_at_a_stride_beyond_a_chunk(self, resonant):
        # 3e5 steps at stride 1e5: O(chunk), while one complex per step
        # alone would be 4.8 MB
        h = oracle.step_size(resonant, IntegratorConfig(t_max=1.0))
        cfg = IntegratorConfig(t_max=(300_000 - 0.5) * h,
                               record_stride=100_000)
        for integrate, _, _, _ in _frames(resonant):
            tracemalloc.start()
            try:
                traj = integrate(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(traj.times) == 4
            assert peak < 256 * oracle._CHUNK

    @pytest.mark.parametrize("t_max", [1e300, math.inf])
    def test_step_budget(self, resonant, t_max):
        with pytest.raises(SpinberryError, match="steps"):
            integrate_coefficients(resonant, IntegratorConfig(t_max=t_max))

    def test_record_budget(self, resonant, monkeypatch):
        # n steps at stride 1 keep n + 1 records; n = budget is one too many
        h = oracle.step_size(resonant, IntegratorConfig(t_max=1.0))
        budget = oracle._RECORD_BUDGET
        tracemalloc.start()
        try:
            with pytest.raises(RecordBudgetError, match="records"):
                integrate_lab_frame(resonant, IntegratorConfig(
                    t_max=(budget - 0.5) * h))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        monkeypatch.setattr(oracle, "_RECORD_BUDGET", 50)
        with pytest.raises(RecordBudgetError):
            integrate_coefficients(resonant, IntegratorConfig(t_max=49.5 * h))
        traj = integrate_coefficients(resonant, IntegratorConfig(t_max=48.5 * h))
        assert len(traj.times) == 50


class TestClosedFormLabMap:
    @pytest.mark.parametrize("omega", [1.0, 1e160, 1e-200])
    def test_matches_generic_rk4_assembly(self, rng, omega):
        """The closed-form lab map (p, q) equals the stage products of -iH,
        taken at the same nodes, to rounding, and the generic map's other
        two components are -q* and p*: P is O(1), so 2 eps absolute."""
        def generator(p, t):
            diag, off = hamiltonian_elements(p, t)
            return -1j * diag, -1j * off, -1j * np.conj(off), 1j * diag

        for _ in range(10):
            q = random_params(rng)
            p = ModelParams(omega, q.omega_prime * omega, q.beta, q.alpha,
                            q.gauge_a, q.gauge_b)
            h = oracle.step_size(p, IntegratorConfig(
                t_max=1.0, step_count_per_period=int(rng.choice([100, 1e4]))))
            first = int(rng.integers(0, 10 ** 7))
            k = first + np.arange(96)
            m00, m01, m10, m11 = _rk4_step_matrices(
                generator(p, h * k), generator(p, h * k + 0.5 * h),
                generator(p, h * (k + 1)), h)
            pp, qq = oracle._lab_step_maps(p, h, first, 96)
            for got, want in ((pp, m00), (qq, m01), (-np.conj(qq), m10),
                              (np.conj(pp), m11)):
                assert np.max(np.abs(got - want)) <= 2.0 * np.finfo(float).eps

    @pytest.mark.parametrize("omega", [1.0, 1e160, 1e-200])
    def test_coefficient_map_matches_generic_rk4_assembly(self, rng, omega):
        """The coefficient map (p, q) of N is of the lab map's pair form and
        equals the stage products of the constant N to rounding."""
        for _ in range(10):
            q = random_params(rng)
            p = ModelParams(omega, q.omega_prime * omega, q.beta, q.alpha,
                            q.gauge_a, q.gauge_b)
            h = oracle.step_size(p, IntegratorConfig(
                t_max=1.0, step_count_per_period=int(rng.choice([100, 1e4]))))
            n = _coefficient_generator(p)
            pp, qq = oracle._coefficient_step_map(p, h)
            for got, want in zip((pp, qq, -np.conj(qq), np.conj(pp)),
                                 _rk4_step_matrices(n, n, n, h)):
                assert abs(got - want) <= 2.0 * np.finfo(float).eps


def test_lab_frame_does_not_depend_on_the_gauge(resonant):
    """The lab equation has no B in it, and neither has its step."""
    cfg = _default_cfg(resonant, periods=3.0)
    reference = integrate_lab_frame(resonant, cfg)
    traj = integrate_lab_frame(
        ModelParams.from_dimensionless(1.0, 0.5, gauge_b=100.0), cfg)
    np.testing.assert_array_equal(traj.times, reference.times)
    np.testing.assert_array_equal(traj.spinors, reference.spinors)


def test_pair_product_matches_matrix_product(rng):
    a, b = (tuple(rng.normal(size=(2, 500)) + 1j * rng.normal(size=(2, 500)))
            for _ in range(2))
    full = [(p, q, -np.conj(q), np.conj(p)) for p, q in (a, b)]
    p, q = oracle._pair_mul(a, b)
    scale = (np.abs(a[0]) + np.abs(a[1])) * (np.abs(b[0]) + np.abs(b[1]))
    for got, want in zip((p, q, -np.conj(q), np.conj(p)), _bmm(*full)):
        assert np.all(np.abs(got - want) <= 2.0 * np.finfo(float).eps * scale)
