import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from spinberry import evolution, model, oracle, phases
from spinberry.errors import SpinberryError
from spinberry.model import (ModelParams, derived_scales, eigenstate,
                             hamiltonian_elements, unit_phasor)
from spinberry.oracle import (Trajectory, closed_form_trajectory,
                              integrate_coefficients, integrate_lab_frame,
                              max_deviation)

from conftest import random_params, traced_peak


def _horizon(p, periods=10.0):
    """periods of the longer of T' and T'', or of 2 pi / omega."""
    scales = derived_scales(p)
    horizon = [x for x in (scales.hamiltonian_period, scales.state_period)
               if math.isfinite(x)]
    return periods * (max(horizon) if horizon else 2.0 * math.pi / p.omega)


def _step(p, count):
    """h at count RK4 steps per shortest period, as ``oracle.step_size``
    takes it at 10 000."""
    return derived_scales(p).shortest_period / count


class TestCoefficientIntegration:
    def test_polar_field_stays_decoupled(self):
        p = ModelParams(omega=1.0, omega_prime=0.7, beta=0.0)
        traj = integrate_coefficients(p, _horizon(p, 3.0))
        assert np.max(np.abs(traj.coefficients[:, 1])) <= 1e-14
        # omega' = omega: lambda = 0, the step map is exactly I and every
        # record exactly (1, 0) times its gauge factor
        p = ModelParams(omega=1.0, omega_prime=1.0, beta=0.0)
        traj = integrate_coefficients(p, _horizon(p, 3.0))
        expected = np.zeros_like(traj.coefficients)
        expected[:, 0] = unit_phasor(p.gauge_b * p.omega_prime * traj.times)
        np.testing.assert_array_equal(traj.coefficients, expected)

    def test_agrees_with_closed_form(self, resonant):
        traj = integrate_coefficients(resonant, _horizon(resonant))
        closed = closed_form_trajectory(resonant, traj.times)
        assert max_deviation(closed, traj) <= 1e-8

    def test_half_period_value(self, resonant):
        traj = oracle._integrate(resonant, oracle.step_size(resonant),
                                 5000, 5000, 0)
        assert traj.times[-1] == pytest.approx(math.pi, abs=1e-12)
        assert traj.coefficients[-1, 0] == pytest.approx(-0.5 + 0.0j, abs=1e-8)

    def test_norm_drift_over_ten_periods(self, rng):
        for _ in range(5):
            p = random_params(rng)
            traj = integrate_coefficients(p, _horizon(p))
            assert traj.norm_drift() <= 1e-9


class TestLabFrameIntegration:
    def test_static_axis_pure_phase(self):
        # the field on z: the lab state is e^{-i omega t/2} |up>, and |1(t)>
        # is |up> turned by U(t), e^{-i omega' t/2}, so C1 is the pure phase
        # e^{-i (omega - omega') t/2} times the gauge factor, and C2 stays 0
        p = ModelParams(omega=1.0, omega_prime=0.7, beta=0.0, alpha=0.0,
                        gauge_a=0.0)
        traj = integrate_lab_frame(p, _horizon(p, 2.0))
        expected = np.exp(1j * (p.gauge_b * p.omega_prime
                                - 0.5 * (p.omega - p.omega_prime))
                          * traj.times)
        assert np.max(np.abs(traj.coefficients[:, 0] - expected)) <= 1e-9
        assert np.max(np.abs(traj.coefficients[:, 1])) <= 1e-14

    def test_frame_equivalence(self, resonant):
        t_max = _horizon(resonant)
        coeff = integrate_coefficients(resonant, t_max)
        lab = integrate_lab_frame(resonant, t_max)
        assert max_deviation(coeff, lab) <= 1e-7

    def test_alpha_independence_of_projections(self, resonant):
        reference = None
        for alpha in (0.0, math.pi / 3.0, math.pi):
            p = ModelParams(omega=1.0, omega_prime=1.0,
                            beta=math.acos(0.5), alpha=alpha)
            traj = integrate_lab_frame(p, _horizon(p, 3.0))
            if reference is None:
                reference = traj
            else:
                assert max_deviation(reference, traj) <= 1e-9

    def test_gauge_a_invariance(self, resonant):
        reference = None
        for gauge_a in (0.0, 1.3, math.pi):
            p = ModelParams(omega=1.0, omega_prime=1.0,
                            beta=math.acos(0.5), gauge_a=gauge_a)
            traj = integrate_coefficients(p, _horizon(p, 3.0))
            if reference is None:
                reference = traj
            else:
                assert max_deviation(reference, traj) <= 1e-9


class TestMaxDeviation:
    def test_identity(self, resonant):
        traj = integrate_coefficients(resonant, _horizon(resonant, 2.0))
        assert max_deviation(traj, traj) == 0.0

    def test_mismatched_grids_rejected(self, resonant):
        a = integrate_coefficients(resonant, _horizon(resonant, 2.0))
        b = integrate_coefficients(resonant, _horizon(resonant, 3.0))
        with pytest.raises(ValueError):
            max_deviation(a, b)

    def test_tiny_grids_twice_apart_rejected(self):
        # at omega' = 1e300 and 2e300 both 41-record grids end under 1e-300,
        # so their times, 2x apart, differ by less than any absolute bound
        trajectories = []
        for omega_prime in (1e300, 2e300):
            p = ModelParams(omega=1e300, omega_prime=omega_prime,
                            beta=math.acos(0.5))
            trajectories.append(integrate_coefficients(
                p, 1000.0 * oracle.step_size(p)))
        a, b = trajectories
        assert len(a.times) == len(b.times) == 41
        np.testing.assert_array_equal(a.times, 2.0 * b.times)
        with pytest.raises(ValueError):
            max_deviation(a, b)

    def test_grids_must_be_equal(self, resonant):
        a = integrate_coefficients(resonant, _horizon(resonant, 2.0))
        assert max_deviation(a, Trajectory(a.times.copy(), a.coefficients)) == 0
        times = a.times.copy()
        times[-1] = np.nextafter(times[-1], 0.0)
        with pytest.raises(ValueError):
            max_deviation(a, Trajectory(times, a.coefficients))

    def test_shared_times_are_not_compared(self, resonant, monkeypatch):
        # a trajectory and the closed form on its times share one array
        coeff = integrate_coefficients(resonant, _horizon(resonant))
        closed = closed_form_trajectory(resonant, coeff.times)
        assert coeff.times is closed.times

        def compared(*args):
            raise AssertionError("shared times compared")
        monkeypatch.setattr(np, "array_equal", compared)
        assert max_deviation(closed, coeff) <= 1e-8

    def test_memory_is_one_block(self, resonant):
        # both reduce a block's columns at a time, to the bits of the
        # whole-array formulas: at 2e5 records whole arrays held 9.6 MB of
        # temporaries for the deviation and 4.8 MB for the drift
        # 199 999 steps, every one a record
        a, b = (oracle._integrate(resonant, oracle.step_size(resonant),
                                  199_999, 1, frame) for frame in (0, 1))
        assert len(a.times) == 200_000
        norms = np.abs(a.coefficients[:, 0]) ** 2 \
            + np.abs(a.coefficients[:, 1]) ** 2
        for reduce, whole in (
                (lambda: max_deviation(a, b),
                 np.max(np.abs(a.coefficients - b.coefficients))),
                (a.norm_drift, np.max(np.abs(norms - 1.0)))):
            peak, _ = traced_peak(reduce)
            # a block's complex difference and its modulus, 192 kB
            assert peak <= 2 * 16 * evolution._BLOCK
            assert reduce() == whole


class TestConvergence:
    def test_fourth_order_step_halving(self, resonant):
        def error_at_period(count):
            # count steps of T''/count, one record a period
            traj = oracle._integrate(resonant, _step(resonant, count), count,
                                     count, 0)
            return max_deviation(closed_form_trajectory(resonant, traj.times),
                                 traj)

        ratio = error_at_period(200) / error_at_period(400)
        assert 12.0 <= ratio <= 20.0

    def test_lab_frame_fourth_order(self, resonant):
        def error_at_period(count):
            # count steps of T''/count, one record a period
            traj = oracle._integrate(resonant, _step(resonant, count), count,
                                     count, 1)
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
    """Classic RK4 on the state vector, one step at a time, in Python complex
    arithmetic: every state.  matrix_at(t) is M at the times t, shaped
    (2, 2, len(t))."""
    ends = h * np.arange(n_steps + 1)
    nodes = (np.moveaxis(matrix_at(t), -1, 0).tolist()
             for t in (ends[:-1], ends[:-1] + 0.5 * h, ends[1:]))

    def apply(m, u, v):
        return m[0][0] * u + m[0][1] * v, m[1][0] * u + m[1][1] * v

    y0, y1 = (complex(c) for c in y0)
    states = [(y0, y1)]
    for a, b, d in zip(*nodes):
        k1 = apply(a, y0, y1)
        k2 = apply(b, y0 + 0.5 * h * k1[0], y1 + 0.5 * h * k1[1])
        k3 = apply(b, y0 + 0.5 * h * k2[0], y1 + 0.5 * h * k2[1])
        k4 = apply(d, y0 + h * k3[0], y1 + h * k3[1])
        y0, y1 = (y + h / 6.0 * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
                  for y, s1, s2, s3, s4 in zip((y0, y1), k1, k2, k3, k4))
        states.append((y0, y1))
    return np.array(states)


def _on_eigenstates(p, states, t):
    """(<1(t)|psi>, <2(t)|psi>) at B = 0 of lab states psi at the times t,
    on ``model.eigenbasis`` at each t."""
    e_up, e_down, c, s = model.eigenbasis(p, t)
    up, down = np.conj(e_up) * states[:, 0], np.conj(e_down) * states[:, 1]
    return np.stack((c * up + s * down, s * up - c * down), axis=1)


def _frames(p):
    """(frame, M(t), initial state, reading) for both frames: the records
    divided by their gauge factor e^{i B omega' t} are reading(states, t) of
    the plain RK4 loop's states of dy/dt = M y.

    The coefficient frame's loop is RK4 of N alone, read as it is.  The lab
    frame's is RK4 of -iH from |1(0)>, read on the eigenstates at each
    record, while the oracle takes its map on the t = 0 eigenbasis once: so
    U(t)^H |n(t)> = |n(0)> is checked too."""
    coefficient_m = np.array(_coefficient_generator(p)).reshape(2, 2, 1)

    def lab_m(t):
        diag, off = hamiltonian_elements(p, t)
        return -1j * np.array([[np.full_like(off, diag), off],
                               [np.conj(off), np.full_like(off, -diag)]])

    e_up, e_down, c, s = model.eigenbasis(p, 0.0)
    return [
        (0, lambda t: np.broadcast_to(coefficient_m, (2, 2, len(t))),
         (1.0, 0.0), lambda states, t: states),
        (1, lab_m,
         (c * e_up, s * e_down), lambda states, t: _on_eigenstates(
             p, states, t)),
    ]


def _check_against_plain_loop(p, n_steps, stride, count=10_000):
    """Both frames' records agree with the plain RK4 loop's states, at
    count steps per period."""
    h = _step(p, count)
    keep = list(range(0, n_steps + 1, stride))
    if keep[-1] != n_steps:
        keep.append(n_steps)
    for frame, matrix_at, y0, reading in _frames(p):
        traj = oracle._integrate(p, h, n_steps, stride, frame)
        np.testing.assert_array_equal(traj.times, h * np.array(keep))
        expected = reading(_plain_rk4(matrix_at, y0, h, n_steps)[keep],
                           traj.times)
        recorded = traj.coefficients / unit_phasor(
            p.gauge_b * p.omega_prime * traj.times)[:, None]
        assert np.max(np.abs(recorded - expected)) <= 1e-13


class TestBlockedScan:
    """The records of ``oracle.propagate``, closed-form powers of one map,
    against a plain RK4 loop."""

    @pytest.mark.parametrize("n_steps, stride", [
        (1, 1),
        (29, 4),  # a last record off the stride
        (103, 1),
        (8229, 13),
        (16_387, 7),
        (50, 1000),  # stride > n_steps
        (8292, 25),
        (777, 777),  # stride = n_steps
        (16_395, 10_000),
        (16_389, 1),
        (16_421, 8209),  # a prime stride
        # a power of one map rounded once would depart from the loop by
        # about 0.4 eps a step, 1e-12 here
        (24_601, 13),
    ])
    def test_matches_plain_step_loop(self, rng, n_steps, stride):
        _check_against_plain_loop(random_params(rng), n_steps, stride)

    @pytest.mark.parametrize("records", [
        2, evolution._BLOCK + 5,
        evolution._BLOCK + 1, 2 * evolution._BLOCK + 1,  # a last block of 1
    ])
    def test_blocks_match_whole_grid_records(self, rng, records):
        # the blocks' columns, collected, are the bits of the records formed
        # over the whole grid at once, from one table of whole rows of
        # _FINE products and the last record's own exp where it is off the
        # stride, as (n, 2) times the gauge factor: a last block of one
        # record too, which numpy would multiply in place without the fused
        # multiply-add of its longer loops
        fine = oracle._FINE
        for _ in range(10):
            p = random_params(rng)
            h = oracle.step_size(p)
            # at stride 3 the last record, k = n_steps, is off the stride
            for stride, n_steps in ((1, records - 1), (3, 3 * records - 5)):
                keep = np.arange(records) * float(stride)
                keep[-1] = n_steps
                gauge = model.gauge_factor(p, keep * h)
                on = records - (n_steps % stride > 0)
                for frame, (a, q) in enumerate(oracle.frame_maps(p, h)):
                    w = math.hypot(a.imag, abs(q))
                    rate = complex(0.5 * math.log1p(
                        a.real * (2.0 + a.real) + a.imag ** 2 + abs(q) ** 2),
                        math.atan2(w, 1.0 + a.real))
                    table = np.exp(np.arange(-(-on // fine))[:, None]
                                   * float(fine * stride) * rate) * np.exp(
                        np.arange(fine) * float(stride) * rate)
                    power = table.ravel()[:on]
                    if on < records:
                        power = np.append(power, np.exp(n_steps * rate))
                    j1, j2 = a.imag / w, -q.conjugate() / w
                    whole = np.empty((records, 2), dtype=complex)
                    whole[:, 0].real = power.real
                    whole[:, 0].imag = power.imag * j1
                    whole[:, 1].real = power.imag * j2.real
                    whole[:, 1].imag = power.imag * j2.imag
                    whole *= gauge[:, None]
                    traj = oracle._integrate(p, h, n_steps, stride, frame)
                    assert np.array_equal(traj.coefficients.view(float),
                                          whole.view(float))

    @pytest.mark.parametrize("stride", [1, 7, 25])
    def test_table_records_match_a_direct_exp(self, rng, stride):
        # e^{k rate} from the two tables against np.exp(k rate): each side's
        # argument k rate rounds by eps/2 k |rate| (the table's two by
        # eps/2 k_coarse |rate| and eps/2 k_fine |rate|), each of the three
        # exps by about 2 eps and the product by 2 eps: the records part by
        # at most eps (k |rate| + 8) |e^{k rate}|.  Runs of records around
        # the fine boundary (j = 63, 64), the block boundary (j = 8191,
        # 8192) and the step budget, each run ending off the stride
        eps = np.finfo(float).eps
        rates = [complex(-1e-9, 1.0), complex(0.0, 3.0)]
        for _ in range(20):
            p = random_params(rng)
            for count in (100, 10_000):
                for a, q in oracle.frame_maps(p, _step(p, count)):
                    w = math.hypot(a.imag, abs(q))
                    rates.append(complex(0.5 * math.log1p(
                        a.real * (2.0 + a.real) + a.imag ** 2 + abs(q) ** 2),
                        math.atan2(w, 1.0 + a.real)))
        for rate in rates:
            for j in (63, 64, 8191, 8192, oracle._STEP_BUDGET // stride - 2):
                keep = np.arange(j - 3, j + 3) * float(stride)
                keep[-1] += stride // 2  # off the stride where stride > 1
                direct = np.exp(keep * rate)
                assert np.all(np.abs(oracle._powers(rate, keep, stride)
                                     - direct)
                              <= eps * (keep * abs(rate) + 8.0)
                              * np.abs(direct)), (rate, j)

    def test_matches_plain_step_loop_at_coarse_steps(self, rng):
        # at 100 steps per period RK4's own norm loss, about s^6/72 a step
        # at s = lambda h/2, reaches 1e-8 over these steps: r^k must carry it
        for _ in range(3):
            _check_against_plain_loop(random_params(rng), 2003, 7, count=100)

    def test_long_run_memory_and_norm_drift(self):
        # verify --omega-ratio 0.05 at its default horizon: 1.95 M steps
        p = ModelParams.from_dimensionless(0.05, 0.5)
        t_max = _horizon(p)
        _, steps = oracle.steps(p, t_max)
        assert steps >= 1_000_000
        for integrate in (integrate_coefficients, integrate_lab_frame):
            tracemalloc.start()
            try:
                traj = integrate(p, t_max)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / steps < 100.0
            assert traj.norm_drift() <= 1e-9

    def test_memory_per_record(self, resonant):
        # at stride 1 a record holds its time (8 B) and its two
        # states (32 B), 40 B; its step, gauge factor and r^k e^{i k theta}
        # are formed a block of records at a time: no temporary of the
        # records' length, in either frame
        h = oracle.step_size(resonant)
        for frame in (0, 1):
            tracemalloc.start()
            try:
                traj = oracle._integrate(resonant, h, 200_000, 1, frame)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / len(traj.times) <= 80.0

    def test_memory_at_a_stride_beyond_a_chunk(self, resonant):
        # 3e5 steps at stride 1e5: O(records), while one complex per step
        # alone would be 4.8 MB
        h = oracle.step_size(resonant)
        for frame in (0, 1):
            tracemalloc.start()
            try:
                traj = oracle._integrate(resonant, h, 300_000, 100_000, frame)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(traj.times) == 4
            assert peak < 20_000

    @pytest.mark.parametrize("t_max", [1e300, math.inf])
    def test_step_budget(self, resonant, t_max):
        with pytest.raises(SpinberryError, match="steps"):
            integrate_coefficients(resonant, t_max)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, -math.inf, math.nan])
    def test_rejects_a_horizon_not_above_zero(self, resonant, t_max):
        for collect in (integrate_coefficients, integrate_lab_frame):
            with pytest.raises(ValueError, match=r"t_max must be > 0$"):
                collect(resonant, t_max)


def test_fold_is_the_whole_grid_formulas():
    """``fold`` at B = 0 over 3 blocks whose last record is off the stride,
    as in ``verify --t-max 300``: its deviations and drifts are
    ``deviation`` and ``drift`` taken once over the whole-grid records of
    ``_integrate`` and the whole-grid closed form, and its Simpson line is
    one whole-array cumsum of the same panels, bit for bit.  At B = 0 every
    gauge factor is exactly 1, so the collected records are the fold's."""
    p = ModelParams.from_dimensionless(1.0, 0.5, gauge_b=0.0)
    h, n_steps = oracle.steps(p, 300.0)
    stride = oracle._STRIDE
    coeff, lab = (oracle._integrate(p, h, n_steps, stride, frame)
                  for frame in (0, 1))
    times = coeff.times
    assert n_steps % stride
    assert 2 * evolution._BLOCK < len(times) <= 3 * evolution._BLOCK
    exact, coeff, lab = (c.coefficients.T for c in (
        closed_form_trajectory(p, times), coeff, lab))
    f = np.abs(lab[0]) ** 2 - np.abs(lab[1]) ** 2
    end = 2 * (n_steps // stride // 2)  # the last panel's end
    quad = np.cumsum(f[:end:2] + 4.0 * f[1:end:2] + f[2:end + 1:2]) \
        * (-(p.omega * h) * stride / 6.0)
    phi_d = phases._dynamical_phase(p, times[2:end + 1:2])
    assert oracle.fold(p, h, n_steps) == ([
        oracle.deviation(exact, coeff), oracle.deviation(exact, lab),
        oracle.drift(coeff), oracle.drift(exact),
        np.max(np.abs(phi_d - quad) / (1.0 + np.abs(phi_d)))], True)


def _scaled_params(rng, omega):
    q = random_params(rng)
    return ModelParams(omega, q.omega_prime * omega, q.beta, q.alpha,
                       q.gauge_a, q.gauge_b)


def _lab_generator(hd, u):
    """-iH as a component tuple, from h d and h o: RK4 of dy/dt = M y over h
    is RK4 of dy/ds = h M y over 1, so the stages take them as they are."""
    return -1j * hd, -1j * u, -1j * np.conj(u), 1j * hd


def _turn(p, s):
    """U(s) = diag(v, v*) as v = e^{i phi(s)/2}, phi = ``model.field_azimuth``
    at alpha = 0."""
    return unit_phasor(0.5 * model.field_azimuth(p.omega_prime, s))


class TestClosedFormLabMap:
    @pytest.mark.parametrize("omega", [1.0, 1e160, 1e-200])
    def test_matches_generic_rk4_assembly(self, rng, omega):
        """The lab frame's constant map Q = (p, q) equals U(-h) times the
        stage products of -iH at the nodes the oracle used, h o(0) turned by
        the phasors of phi at 0, h/2 and h, to rounding, and the generic
        map's other two components are -q* and p*: Q is O(1), so 2 eps
        absolute.  On the field's axis, cos(beta) = 1 or -1, o vanishes or
        nearly, and so does q."""
        axis = [ModelParams.from_dimensionless(r, c, omega=omega, alpha=a)
                for r, c, a in ((0.7, 1.0, 0.3), (0.7, -1.0, 2.0),
                                (2.5, -1.0, 0.0), (1.0, 1.0, 5.0))]
        for p in axis + [_scaled_params(rng, omega) for _ in range(10)]:
            h = _step(p, int(rng.choice([100, 1e4])))
            d, o = hamiltonian_elements(p, 0.0)
            nodes = h * o * unit_phasor(model.field_azimuth(
                p.omega_prime, np.array([0.0, 0.5, 1.0]) * h))
            m00, m01, m10, m11 = _rk4_step_matrices(
                *(_lab_generator(h * d, u) for u in nodes), 1.0)
            v = np.conj(_turn(p, h))  # U(-h)
            a, qq = oracle._lab_step_map(p, h)
            pp = 1.0 + a
            for got, want in ((pp, v * m00), (qq, v * m01),
                              (-np.conj(qq), np.conj(v) * m10),
                              (np.conj(pp), np.conj(v) * m11)):
                assert abs(got - want) <= 2.0 * np.finfo(float).eps

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    @pytest.mark.parametrize("omega", [1.0, 1e160, 1e-200])
    def test_nodes_match_hamiltonian_elements(self, rng, monkeypatch, omega,
                                              direction):
        """Step m's generic RK4 map, from ``hamiltonian_elements`` at h m,
        h m + h/2 and h m + h, is U(h m) P_0 U(h m)^H, P_0 = U(h) Q, for m up
        to the step budget: p_0 and q_0 e^{i phi(h m)}.  hamiltonian_elements
        rounds its argument -(alpha + omega' t) at the time (and the half
        step), the product and the sum, at most eps/2 (|alpha| +
        4 omega' t); phi(h m) rounds h m and the product, eps omega' t, and
        alpha not at all, as Q takes it once in o(0).  The phasors and the
        map's products add a few eps, relative.  With the field turned the
        other way in ``model.field_azimuth`` the identity still holds:
        neither Q nor U has its own copy of the azimuth."""
        azimuth = model.field_azimuth
        monkeypatch.setattr(model, "field_azimuth", lambda rate, t, alpha=0.0:
                            azimuth(direction * rate, t, alpha))
        eps = np.finfo(float).eps
        for _ in range(4):
            p = _scaled_params(rng, omega)
            p = dataclasses.replace(  # |alpha| up to 2 pi 1e6
                p, alpha=p.alpha * 10.0 ** int(rng.integers(0, 7)))
            h = _step(p, int(rng.choice([100, 1e4])))
            m = np.concatenate((
                [0.0, oracle._STEP_BUDGET - 1.0],
                rng.integers(1, 10 ** 4, 32), rng.integers(
                    0, oracle._STEP_BUDGET, 32))).astype(float)
            t = h * m
            d = hamiltonian_elements(p, 0.0)[0]
            m00, m01, m10, m11 = _rk4_step_matrices(*(_lab_generator(
                h * d, h * hamiltonian_elements(p, node)[1])
                for node in (t, t + 0.5 * h, h * (m + 1.0))), 1.0)
            v = _turn(p, h)
            a, qq = oracle._lab_step_map(p, h)
            p0, q0 = v * (1.0 + a), v * qq
            qm = q0 * unit_phasor(model.field_azimuth(p.omega_prime, t))
            bound = eps * (abs(p.alpha) + 4.0 * p.omega_prime * (t + h) + 8.0)
            for got, want in ((m00, p0), (m01, qm), (m10, -np.conj(qm)),
                              (m11, np.conj(p0))):
                assert np.all(np.abs(got - want) <= bound * np.abs(want))

    @pytest.mark.parametrize("omega", [1.0, 1e160, 1e-200])
    def test_map_on_the_eigenbasis(self, rng, omega):
        """``_on_eigenbasis`` is E^H Q E formed with numpy, E = [|1(0)>,
        |2(0)>] from ``model.eigenbasis`` at t = 0, for the lab map Q and for
        a pair map of size 1, on the field's axis both ways too (beta = 0
        and pi): Q and E are O(1), so a few eps absolute.  Re p is the
        trace, and is taken as it is."""
        eps = np.finfo(float).eps
        axis = [ModelParams.from_dimensionless(r, c, omega=omega, alpha=a,
                                               gauge_a=g)
                for r, c, a, g in ((0.7, 1.0, 0.3, 1.1),
                                   (0.7, -1.0, 2.0, -0.4),
                                   (2.5, -1.0, 0.0, 3.0))]
        for p in axis + [_scaled_params(rng, omega) for _ in range(10)]:
            h = _step(p, int(rng.choice([100, 1e4])))
            e_up, e_down, c, s = model.eigenbasis(p, 0.0)
            e = np.array([[c * e_up, s * e_up], [s * e_down, -c * e_down]])
            unit = complex(*rng.uniform(-1.0, 1.0, 2)), complex(
                *rng.uniform(-1.0, 1.0, 2))
            for a, qq in (oracle._lab_step_map(p, h), unit):
                pp = 1.0 + a
                want = e.conj().T @ np.array(
                    [[pp, qq], [-np.conj(qq), np.conj(pp)]]) @ e
                a_e, q_e = oracle._on_eigenbasis(p, (a, qq))
                assert a_e.real == a.real
                for got, w in zip((1.0 + a_e, q_e, -np.conj(q_e),
                                   np.conj(1.0 + a_e)), want.ravel()):
                    assert abs(got - w) <= 4.0 * eps

    @pytest.mark.parametrize("omega", [1.0, 1e160, 1e-200])
    def test_coefficient_map_matches_generic_rk4_assembly(self, rng, omega):
        """The coefficient map (p, q) of N is of the lab map's pair form and
        equals the stage products of the constant N to rounding."""
        for _ in range(10):
            p = _scaled_params(rng, omega)
            h = _step(p, int(rng.choice([100, 1e4])))
            n = _coefficient_generator(p)
            a, qq = oracle._coefficient_step_map(p, h)
            pp = 1.0 + a
            for got, want in zip((pp, qq, -np.conj(qq), np.conj(pp)),
                                 _rk4_step_matrices(n, n, n, h)):
                assert abs(got - want) <= 2.0 * np.finfo(float).eps


def test_frames_agree_at_a_subnormal_step():
    """At omega = 8.9e307 the step h = T'/1e4, about 7e-312, is subnormal
    and rounded to about 1e-12 relative.  Both maps take h d, h k and h o,
    normal numbers, before any other factor, and the records' times are h k
    of the same h, so the frames still agree to rounding."""
    p = ModelParams.from_dimensionless(1.0, 0.5, omega=8.9e307)
    t_max = _horizon(p)
    assert oracle.step_size(p) < np.finfo(float).tiny
    assert max_deviation(integrate_coefficients(p, t_max),
                         integrate_lab_frame(p, t_max)) <= 1e-13


def test_lab_frame_does_not_depend_on_the_gauge():
    """The lab equation has no B in it, and neither has its step: at B = 0
    the gauge factor is exactly 1, and another B's records are those times
    its factor, bit for bit."""
    def lab(gauge_b):
        p = ModelParams.from_dimensionless(1.0, 0.5, gauge_b=gauge_b)
        return p, integrate_lab_frame(p, _horizon(p, 3.0))

    _, reference = lab(0.0)
    p, traj = lab(100.0)
    np.testing.assert_array_equal(traj.times, reference.times)
    np.testing.assert_array_equal(traj.coefficients, reference.coefficients
                                  * unit_phasor(p.gauge_b * p.omega_prime
                                                * traj.times)[:, None])


def test_lab_line_does_not_read_the_gauge_slope():
    """verify's lab-frame line at the defaults: the lab frame records on
    the B = 0 eigenstates, and both it and the closed form take the factor
    e^{i B omega' t} of the same rounded argument at the same record times,
    so B's rounding leaves the line.  Only the two factors' products round
    apart, eps relative to coefficients of size 1."""
    def lab_line(gauge_b):
        p = ModelParams.from_dimensionless(1.0, 0.5, gauge_b=gauge_b)
        lab = integrate_lab_frame(p, _horizon(p))
        return max_deviation(closed_form_trajectory(p, lab.times), lab)

    reference = lab_line(0.0)
    for gauge_b in (-0.5, 0.7, 300.0, 5000.0):
        assert abs(lab_line(gauge_b) - reference) <= 1e-15
