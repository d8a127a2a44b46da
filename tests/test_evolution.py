import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinberry import evolution
from spinberry.errors import (AmplitudeVanishedError, PhaseOverflowError,
                              UndefinedPeriodError)
from spinberry.evolution import (SERIES_BELOW, _half_sinc,
                                 amplitude_components, amplitudes,
                                 return_probability_at_period, state,
                                 state_components)
from spinberry.model import ModelParams, eigenbasis, eigenstate, unit_phasor
from spinberry.phases import (berry_phase, decompose, dynamical_phase,
                              evaluate, total_phase, total_phase_components)

EPS = sys.float_info.epsilon

from conftest import assert_threaded_peak, random_params, traced_peak


class TestAmplitudes:
    def test_initial_condition_exact(self, rng):
        for _ in range(10):
            c1, c2 = amplitudes(random_params(rng), 0.0)
            assert c1 == 1.0 + 0.0j
            assert c2 == 0.0j

    def test_half_period_point(self, resonant):
        # lambda = omega' = 1, so t = pi is half a state cycle
        c1, c2 = amplitudes(resonant, math.pi)
        assert c1 == pytest.approx(-0.5, abs=1e-14)
        assert abs(c2) ** 2 == pytest.approx(0.75, abs=1e-14)

    def test_full_period_point(self, resonant):
        c1, c2 = amplitudes(resonant, 2.0 * math.pi)
        assert c1 == pytest.approx(1.0, abs=1e-14)
        assert abs(c2) <= 1e-14

    @given(omega_ratio=st.floats(0.05, 20.0), cos_beta=st.floats(-1.0, 1.0),
           gauge_b=st.floats(-1.0, 1.0), t=st.floats(0.0, 100.0))
    def test_normalization(self, omega_ratio, cos_beta, gauge_b, t):
        p = ModelParams.from_dimensionless(omega_ratio, cos_beta,
                                           gauge_b=gauge_b)
        c1, c2 = amplitudes(p, t)
        assert abs(c1) ** 2 + abs(c2) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_cyclicity_at_state_period(self, rng):
        for _ in range(10):
            p = random_params(rng)
            t_second = 2.0 * math.pi / p.rabi_rate
            for n in range(1, 6):
                c1, c2 = amplitudes(p, n * t_second)
                assert abs(abs(c1) - 1.0) <= 1e-12
                assert abs(c2) <= 1e-12

    def test_polar_field_never_leaves_upper_state(self):
        p = ModelParams(omega=1.0, omega_prime=0.8, beta=0.0, gauge_b=-0.5)
        for t in np.linspace(0.0, 40.0, 17):
            c1, c2 = amplitudes(p, t)
            assert abs(c2) == 0.0
            assert abs(c1) == pytest.approx(1.0, abs=1e-14)

    def test_alpha_independence(self, rng):
        for _ in range(10):
            base = random_params(rng)
            t = rng.uniform(0.0, 30.0)
            ref_c1, ref_c2 = amplitudes(
                ModelParams(omega=base.omega, omega_prime=base.omega_prime,
                            beta=base.beta, alpha=0.0, gauge_a=base.gauge_a,
                            gauge_b=base.gauge_b), t)
            c1, c2 = amplitudes(base, t)
            assert abs(c1 - ref_c1) <= 1e-14
            assert abs(c2 - ref_c2) <= 1e-14

    def test_degenerate_lambda_series_path(self):
        # omega = omega', beta = 0: lambda = 0 exactly, removable singularity
        p = ModelParams(omega=1.0, omega_prime=1.0, beta=0.0, gauge_b=-0.5)
        assert p.rabi_rate == 0.0
        c1, c2 = amplitudes(p, 7.3)
        assert abs(c1) == pytest.approx(1.0, abs=1e-13)
        assert abs(c2) == 0.0

    def test_vectorized_matches_scalar(self, resonant):
        times = np.linspace(0.0, 9.0, 11)
        c1, c2 = amplitude_components(resonant, times)
        for k, t in enumerate(times):
            one_c1, one_c2 = amplitudes(resonant, t)
            assert abs(c1[k] - one_c1) <= 1e-15
            assert abs(c2[k] - one_c2) <= 1e-15


class TestState:
    def test_initial_state_is_upper_eigenstate(self, rng):
        for _ in range(5):
            p = random_params(rng)
            up, down = state(p, 0.0)
            ref_up, ref_down = eigenstate(p, 0.0, 1)
            assert abs(up - ref_up) <= 1e-15
            assert abs(down - ref_down) <= 1e-15

    def test_polar_field_pure_phase(self):
        p = ModelParams(omega=1.0, omega_prime=0.8, beta=0.0)
        for t in (0.5, 2.0, 11.0):
            up, down = state(p, t)
            assert abs(down) == 0.0
            assert abs(up) == pytest.approx(1.0, abs=1e-14)

    def test_norm_and_overlap_at_half_period(self, resonant):
        psi = state(resonant, math.pi)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        overlap = np.vdot(eigenstate(resonant, math.pi, 1), psi)
        assert abs(overlap) == pytest.approx(0.5, abs=1e-13)

    def test_state_components_in_place(self, rng, monkeypatch):
        # the output is two complex128 columns, 32 B/point, and on one
        # worker a block's temporaries add 112 B per block point, at most
        # 244; whole-grid passes peaked at 64 B/point, 32 of temporaries
        p = random_params(rng)
        t = np.linspace(0.0, 50.0, 1_000_000)
        monkeypatch.setattr(evolution, "_WORKERS", 1)
        peak, outputs = traced_peak(state_components, p, t)
        assert peak - outputs <= 244 * evolution._BLOCK
        assert_threaded_peak(monkeypatch, state_components, (p, t),
                             -(-t.size // evolution._BLOCK), outputs,
                             peak - outputs)
        up, down = state_components(p, t)
        t, up, down = t[::10], up[::10], down[::10]
        for gauge_b in (-0.5, 0.0, 3.0, -7e5, 1e12):
            q = dataclasses.replace(p, gauge_b=gauge_b)
            # the state reads no B: e^{i B w' t} on C1, C2 cancels exactly
            # against e^{-i B w' t} on both eigenstates
            got_up, got_down = state_components(q, t)
            assert got_up.tobytes() == up.tobytes()
            assert got_down.tobytes() == down.tobytes()
            # against C1|1> + C2|2> on the gauged eigenstates, eigenbasis'
            # B = 0 ones times e^{-i G}, G = B (w' t): their phases part by at
            # most eps (|phi/2| + 1.5 |A| + |G|), the roundings of the angles
            # phi/2 + A and G, on top of 8 eps of cos, sin and product
            # roundings on unit-size terms
            c1, c2 = amplitude_components(q, t)
            e_up, e_down, c, s = eigenbasis(q, t)
            gauge = unit_phasor(-(gauge_b * (q.omega_prime * t)))
            e_up, e_down = gauge * e_up, gauge * e_down
            tol = EPS * (0.5 * np.abs(q.alpha + q.omega_prime * t)
                         + 1.5 * abs(q.gauge_a)
                         + np.abs(gauge_b * q.omega_prime * t) + 8.0)
            assert np.all(np.abs(up - (c1 * c + c2 * s) * e_up) <= tol)
            assert np.all(np.abs(down - (c1 * s - c2 * c) * e_down) <= tol)


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


#: every kernel that runs through evolution._blockwise, as (name, call)
BLOCKED = [
    ("amplitude_components", amplitude_components),
    ("state_components", state_components),
    ("total_phase_components", total_phase_components),
    ("dynamical_phase", dynamical_phase),
    ("evaluate", lambda p, t: tuple(evaluate(p, t)[0].values())),
]


@pytest.mark.parametrize("seed", range(20))
def test_scalar_views_are_the_kernels(seed):
    # each scalar view at one time is its vectorized kernel's value at that
    # time in a grid, bit for bit
    rng = np.random.default_rng(seed)
    p = random_params(rng)
    times = np.sort(rng.uniform(0.0, 40.0, 5))
    kernels = {
        amplitudes: amplitude_components(p, times),
        state: state_components(p, times),
        total_phase: total_phase_components(p, times),
    }
    e_up, e_down, c, s = eigenbasis(p, times)
    columns = evaluate(p, times, strict=True)[0]
    for k, t in enumerate(times):
        for view, outputs in kernels.items():
            assert (np.array(view(p, t)).tobytes()
                    == np.array([out[k] for out in outputs]).tobytes())
        # eigenstate is eigenbasis' B = 0 pair at t times e^{-i B (w' t)}
        gauge = unit_phasor(-(p.gauge_b * (p.omega_prime * t)))
        for index, pair in ((1, (c * e_up[k], s * e_down[k])),
                            (2, (s * e_up[k], -c * e_down[k]))):
            assert (eigenstate(p, t, index).tobytes()
                    == np.array([gauge * x for x in pair]).tobytes())
        row = decompose(p, t)
        assert list(row) == list(columns)
        assert (np.array(list(row.values())).tobytes()
                == np.array([col[k] for col in columns.values()]).tobytes())
        assert (np.array(berry_phase(p, t)).tobytes() == np.array(
            complex(columns["re_phi_b"][k], columns["im_phi_b"][k])).tobytes())


class TestBlockwise:
    """The kernels run over blocks of evolution._BLOCK points, bit for bit
    as one pass over the whole grid."""

    N = 64

    def _both(self, monkeypatch, call, p, t):
        """call's outputs in one block, then in blocks of N points."""
        results = []
        for block in (1 << 30, self.N):
            monkeypatch.setattr(evolution, "_BLOCK", block)
            out = call(p, t)
            results.append(out if isinstance(out, tuple) else (out,))
        return results

    @pytest.mark.parametrize("name, call", BLOCKED)
    @pytest.mark.parametrize("size", [N - 1, N, N + 1, 3 * N + 5])
    def test_blocked_matches_whole_grid(self, monkeypatch, rng, name, call,
                                        size):
        # the first points sit in the half sinc's series, the rest in sin/lam
        p = random_params(rng)
        t = np.sort(rng.uniform(0.0, 40.0, size))
        t[:5] = rng.uniform(0.0, 1e-5, 5)
        whole, blocked = self._both(monkeypatch, call, p, t)
        for a, b in zip(whole, blocked):
            assert a.shape == b.shape == t.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name, call", BLOCKED)
    def test_grid_and_two_dimensional_times(self, monkeypatch, name, call):
        base = ModelParams(omega=1.0, omega_prime=1.0, beta=1.1, alpha=0.4,
                           gauge_a=0.3, gauge_b=-0.2)
        ratio = np.geomspace(0.05, 20.0, 3 * self.N + 5)
        grids = (base.over(omega_prime=ratio),
                 base.over(omega_prime=ratio[1:].reshape(2, -1)))
        for p, t in [(grid, 2.0 * math.pi / grid.omega_prime + 0.1)
                     for grid in grids] + [
                (base, np.linspace(0.1, 30.0, 2 * self.N + 6)
                 .reshape(2, -1, order="F"))]:
            whole, blocked = self._both(monkeypatch, call, p, t)
            for a, b in zip(whole, blocked):
                assert a.shape == b.shape == t.shape
                assert a.tobytes() == b.tobytes()

    def test_gauge_b_grid_is_sliced_per_block(self, monkeypatch):
        # a grid over gauge_b alone: omega, omega' and beta stay scalars,
        # so lambda is one float, and each block reads its own slice of B
        monkeypatch.setattr(evolution, "_BLOCK", self.N)
        p = ModelParams(omega=1.0, omega_prime=1.0, beta=1.1, alpha=0.4,
                        gauge_a=0.3, gauge_b=-0.2)
        gauge_b = np.linspace(-3.0, 3.0, 3 * self.N + 5)
        grid = p.over(gauge_b=gauge_b)
        assert type(grid.rabi_rate) is float
        t = np.linspace(0.1, 40.0, gauge_b.size)
        columns, vanished = evaluate(grid, t)
        assert not vanished.any()
        for k in range(t.size):
            row, _ = evaluate(dataclasses.replace(p, gauge_b=gauge_b[k]), t[k])
            assert all(columns[name][k] == row[name] for name in row), k

    @pytest.mark.parametrize("name, call", BLOCKED[:3])
    def test_scalar_time_gives_numpy_scalars(self, name, call):
        p = ModelParams.from_dimensionless(0.7, 0.3)
        for value, reference in zip(call(p, 1.3), call(p, np.array([1.3]))):
            assert np.ndim(value) == 0 and isinstance(value, np.generic)
            assert value == reference[0]
        assert type(dynamical_phase(p, 1.3)) is float

    def test_empty_times(self):
        p = ModelParams.from_dimensionless(0.7, 0.3)
        c1, c2 = amplitude_components(p, np.empty((0, 3)))
        assert c1.shape == c2.shape == (0, 3) and c1.dtype == complex

    def test_vanished_amplitude_in_the_last_block_only(self, monkeypatch):
        # detuning 0: |C1| = |cos(lam t / 2)|, zero at t = pi / lam
        monkeypatch.setattr(evolution, "_BLOCK", self.N)
        p = ModelParams.from_dimensionless(2.0, 0.5)
        t = np.linspace(0.0, 0.5, 2 * self.N + 3)
        t[-1] = math.pi / p.rabi_rate
        total_phase_components(p, t[:-1])
        with pytest.raises(AmplitudeVanishedError):
            total_phase_components(p, t)

    @pytest.fixture
    def fast_switching(self):
        """Threads switch every microsecond, so their writes interleave."""
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(switch)

    @pytest.mark.parametrize("name, call", BLOCKED)
    def test_same_bytes_at_any_worker_count(self, monkeypatch, rng,
                                            fast_switching, name, call):
        # blocks dealt to 1, 2, 3 or 5 threads, over 1, 2, 3 and 7 whole
        # blocks and a partial last one, on times and on an omega' grid;
        # half sinc series points sit in every block
        monkeypatch.setattr(evolution, "_BLOCK", self.N)
        p = random_params(rng)
        base = ModelParams(omega=1.0, omega_prime=1.0, beta=1.1, alpha=0.4,
                           gauge_a=0.3, gauge_b=-0.2)
        for size in (self.N, 2 * self.N, 2 * self.N + 1, 3 * self.N,
                     7 * self.N, 7 * self.N + 5):
            t = rng.uniform(0.0, 40.0, size)
            t[::self.N // 2] = rng.uniform(0.0, 1e-5, t[::self.N // 2].size)
            grid = base.over(omega_prime=np.geomspace(0.05, 20.0, size))
            for q in (p, grid):
                runs = {}
                for workers in (1, 2, 3, 5):
                    monkeypatch.setattr(evolution, "_WORKERS", workers)
                    out = call(q, t)
                    runs[workers] = out if isinstance(out, tuple) else (out,)
                for workers, run in runs.items():
                    for a, b in zip(runs[1], run, strict=True):
                        assert a.shape == b.shape == t.shape
                        assert a.tobytes() == b.tobytes(), (size, workers)

    def test_errors_cross_the_thread_boundary(self, monkeypatch):
        # the last of 3 blocks runs on a thread: evaluate's error state
        # holds there, so omega' t = inf refuses by name rather than warn,
        # and |C1| vanishing there raises; every thread is joined
        monkeypatch.setattr(evolution, "_BLOCK", self.N)
        monkeypatch.setattr(evolution, "_WORKERS", 2)
        threads = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = ModelParams.from_dimensionless(3.0, 0.5)
            t = np.linspace(0.0, 40.0, 3 * self.N)
            t[-1] = 1.7e308
            with pytest.raises(PhaseOverflowError):
                evaluate(p, t)
            # detuning 0: |C1| = |cos(lam t / 2)|, zero at t = pi / lam
            p = ModelParams.from_dimensionless(2.0, 0.5)
            t = np.linspace(0.0, 0.5, 3 * self.N)
            t[-1] = math.pi / p.rabi_rate
            with pytest.raises(AmplitudeVanishedError):
                total_phase_components(p, t)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("failing", [{2, 4, 6}, {3, 6}, {0, 5}])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_earliest_failing_block_raises(self, monkeypatch, failing,
                                           workers):
        # as one pass would: the exception of the first block that fails,
        # whichever thread ran it
        monkeypatch.setattr(evolution, "_BLOCK", self.N)
        monkeypatch.setattr(evolution, "_WORKERS", workers)

        def body(p, t):
            if int(t[0]) in failing:
                raise ValueError(int(t[0]))
            return (t,)

        with pytest.raises(ValueError, match=f"^{min(failing)}$"):
            evolution._blockwise(body)(None, np.arange(7.0).repeat(self.N))

    @pytest.mark.parametrize("name, call, per_block_point", [
        # the outputs, 32, 16 and 8 B/point, and on one worker one block's
        # temporaries, 128, 112 and 33 B per block point, at any _BLOCK;
        # one pass over the whole grid peaked at 64, 80 and 17 B/point
        # (state_components: TestState)
        ("amplitude_components", amplitude_components, 244),
        ("total_phase_components", total_phase_components, 183),
        ("dynamical_phase", dynamical_phase, 122),
    ])
    def test_peak_memory_is_the_outputs(self, monkeypatch, rng, name, call,
                                        per_block_point):
        p = random_params(rng)
        t = np.linspace(0.01, 50.0, 1_000_000)
        monkeypatch.setattr(evolution, "_WORKERS", 1)
        peak, outputs = traced_peak(call, p, t)
        assert peak - outputs <= per_block_point * evolution._BLOCK
        assert_threaded_peak(monkeypatch, call, (p, t),
                             -(-t.size // evolution._BLOCK), outputs,
                             peak - outputs)

    def test_half_sinc_series_ignores_its_neighbours(self, rng):
        # the series rounds alike whether or not a block also takes sin/lam
        lam = rng.uniform(0.5, 2.0)
        t = rng.uniform(0.0, 2.0 * SERIES_BELOW / lam, 1000)
        alone = _half_sinc(lam, t)
        mixed = _half_sinc(lam, np.append(t, 1.0))
        assert alone.tobytes() == mixed[:-1].tobytes()

    @staticmethod
    def _evaluate_case(case):
        """(p, t) for one evaluate case, over 3 N + 5 points unless scalar."""
        size = 3 * TestBlockwise.N + 5
        p = ModelParams(omega=1.0, omega_prime=1.0, beta=1.1, alpha=0.4,
                        gauge_a=0.3, gauge_b=-0.2)
        t = np.linspace(0.0, 40.0, size)
        if case == "series and sine":
            t[1:6] = [1e-9, 1e-7, 1e-5, 3e-4, 1e-3]
        elif case == "omega_prime grid":
            p = p.over(omega_prime=np.geomspace(0.05, 20.0, size))
            t = 2.0 * math.pi / p.omega_prime + 0.1
        elif case == "scalar":
            t = 1.3
        elif case == "vanished":
            # detuning 0: |C1| = |cos(lam t / 2)| vanishes at odd multiples
            # of pi / lam; one lands in each block
            p = ModelParams.from_dimensionless(2.0, 0.5)
            t[::TestBlockwise.N] = np.array([1, 3, 5, 7]) * (
                math.pi / p.rabi_rate)
        return p, t

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("case", ["series and sine", "omega_prime grid",
                                      "scalar", "vanished"])
    def test_evaluate_is_the_kernels(self, monkeypatch, case, strict):
        # evaluate's one blocked pass gives each column bit for bit as the
        # kernels that also compute it, over more than one block
        monkeypatch.setattr(evolution, "_BLOCK", self.N)
        p, t = self._evaluate_case(case)
        if case == "vanished" and strict:
            with pytest.raises(AmplitudeVanishedError):
                evaluate(p, t, strict=True)
            return
        columns, vanished = evaluate(p, t, strict=strict)
        assert vanished.any() == (case == "vanished")
        keep = ~vanished
        c1, c2 = amplitude_components(p, t)
        phi_d = dynamical_phase(p, t)
        theta = np.full((2,) + np.shape(t), np.nan)
        theta[:, keep] = total_phase_components(p, np.asarray(t)[keep])
        theta_r, theta_i = theta
        expected = {"t": t, "re_c1": c1.real, "im_c1": c1.imag,
                    "re_c2": c2.real, "im_c2": c2.imag, "p1": np.abs(c1) ** 2,
                    "theta_r": theta_r, "theta_i": theta_i, "phi_d": phi_d,
                    "re_phi_b": np.where(vanished, np.nan, theta_r - phi_d),
                    "im_phi_b": theta_i}
        assert list(columns) == list(expected)
        for name, column in columns.items():
            assert np.shape(column) == np.shape(t), name
            assert (np.asarray(column, dtype=float).tobytes()
                    == np.asarray(expected[name], dtype=float).tobytes()), name
