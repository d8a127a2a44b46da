import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinberry import (DegenerateLambdaError, ModelParams,
                       NoPositiveRootError, NoSolutionError,
                       SpinberryError, UndefinedPeriodError, cyclicity, amplitudes, commensurate_ratio,
                       commensurate_residual, derived_scales,
                       return_probability_at_period, solve_commensurate,
                       state_period)

TWO_PI = 2.0 * math.pi


class TestStatePeriod:
    def test_resonant(self, resonant):
        assert state_period(resonant) == pytest.approx(TWO_PI, abs=1e-14)

    def test_static_field(self):
        p = ModelParams(omega=1.0, omega_prime=0.0, beta=0.9)
        assert state_period(p) == pytest.approx(TWO_PI, abs=1e-14)

    def test_fast_rotation(self):
        p = ModelParams.from_dimensionless(2.0, 0.5)
        assert state_period(p) == pytest.approx(TWO_PI / math.sqrt(3.0), abs=1e-13)

    def test_cyclicity_contract(self, rng):
        from conftest import random_params
        for _ in range(10):
            p = random_params(rng)
            t_second = state_period(p)
            amp = amplitudes(p, t_second)
            assert abs(amp.c2) <= 1e-12
            assert abs(abs(amp.c1) - 1.0) <= 1e-12

    def test_degenerate(self):
        p = ModelParams(omega=1.0, omega_prime=1.0, beta=0.0)
        with pytest.raises(DegenerateLambdaError):
            state_period(p)

    @given(omega_prime=st.one_of(st.floats(0.0, 5.0),
                                 st.floats(1.0 - 1e-8, 1.0 + 1e-8)),
           beta=st.one_of(st.floats(0.0, math.pi), st.floats(0.0, 1e-8)))
    @example(omega_prime=1.0 - 2e-9, beta=1e-9)  # lambda = 2.2e-9
    @example(omega_prime=1.0, beta=0.0)  # lambda = 0
    def test_matches_derived_scales(self, omega_prime, beta):
        p = ModelParams(omega=1.0, omega_prime=omega_prime, beta=beta)
        expected = derived_scales(p).state_period
        if expected < math.inf:
            assert state_period(p) == expected
        else:
            with pytest.raises(DegenerateLambdaError):
                state_period(p)


class TestCommensurateRatio:
    def test_resonant_unity(self, resonant):
        assert commensurate_ratio(resonant) == pytest.approx(1.0, abs=1e-14)

    def test_direct_substitution(self):
        p = ModelParams.from_dimensionless(2.0, 0.5)
        assert commensurate_ratio(p) == pytest.approx(math.sqrt(3.0) / 2.0,
                                                      abs=1e-14)

    def test_fast_limit(self):
        p = ModelParams.from_dimensionless(1e6, 0.5)
        assert commensurate_ratio(p) == pytest.approx(1.0, abs=1e-5)

    def test_static_field_error(self):
        with pytest.raises(UndefinedPeriodError):
            commensurate_ratio(ModelParams(omega=1.0, omega_prime=0.0, beta=0.3))


class TestSolveCommensurate:
    def test_roots_checked_by_commensurate_residual(self, monkeypatch):
        monkeypatch.setattr(cyclicity, "commensurate_residual",
                            lambda sol, beta: 1.0)
        with pytest.raises(SpinberryError,
                           match=re.escape("|C2| = 1.000e+00 > ")):
            solve_commensurate(2, 1, math.acos(0.5))

    def test_single_cycle_match(self):
        solutions = solve_commensurate(1, 1, math.acos(0.5))
        assert len(solutions) == 1
        assert solutions[0].branch == "plus"
        assert solutions[0].omega_t_prime == pytest.approx(TWO_PI, abs=1e-10)

    def test_two_state_cycles(self):
        solutions = solve_commensurate(2, 1, math.acos(0.5))
        assert len(solutions) == 1
        expected = math.pi * (1.0 + math.sqrt(13.0))  # 14.4688...
        assert solutions[0].omega_t_prime == pytest.approx(expected, abs=1e-10)
        assert solutions[0].omega_t_prime == pytest.approx(14.468766, abs=1e-5)

    def test_no_solution_for_equatorial_field(self):
        with pytest.raises(NoSolutionError):
            solve_commensurate(1, 2, math.pi / 2.0)

    def test_no_positive_root_for_antiparallel_field(self):
        # cos(beta) = -1: the roots are real, none is positive
        with pytest.raises(NoPositiveRootError):
            solve_commensurate(1, 2, math.pi)

    def test_minus_branch_region(self):
        # sin(beta) <= n/m < 1: both roots positive and both cyclic
        beta = math.asin(0.6)
        solutions = solve_commensurate(2, 3, beta)
        assert {s.branch for s in solutions} == {"plus", "minus"}
        for sol in solutions:
            assert sol.omega_t_prime > 0.0
            assert commensurate_residual(sol, beta) <= 1e-10

    def test_large_cycle_counts_within_rounding_bound(self):
        # rounding the root leaves |C2(m T')| of order n pi eps: 5.2e-9 here
        n, m, beta = 10_000_001, 10_000_000, math.acos(0.5)
        bound = 16.0 * n * math.pi * np.finfo(float).eps
        for sol in solve_commensurate(n, m, beta):
            assert commensurate_residual(sol, beta) <= bound

    def test_invalid_cycle_counts(self):
        with pytest.raises(ValueError):
            solve_commensurate(0, 1, 0.5)

    def test_round_trip_ratio(self):
        beta = math.acos(0.3)
        for n, m in [(1, 1), (2, 1), (3, 2), (5, 3)]:
            for sol in solve_commensurate(n, m, beta):
                p = ModelParams(omega=1.0,
                                omega_prime=TWO_PI / sol.omega_t_prime,
                                beta=beta)
                assert commensurate_ratio(p) == pytest.approx(n / m, abs=1e-10)

    def test_not_reduced_to_lowest_terms(self):
        beta = math.acos(0.5)
        doubled = solve_commensurate(2, 2, beta)
        single = solve_commensurate(1, 1, beta)
        assert [s.omega_t_prime for s in doubled] == pytest.approx(
            [s.omega_t_prime for s in single], abs=1e-12)

    def test_maxima_of_return_probability(self):
        # integer n/m with m = 1 lands exactly on the p1 = 1 maxima
        beta = math.acos(0.5)
        for n in range(1, 5):
            for sol in solve_commensurate(n, 1, beta):
                p = ModelParams(omega=1.0,
                                omega_prime=TWO_PI / sol.omega_t_prime,
                                beta=beta)
                assert return_probability_at_period(p) == pytest.approx(
                    1.0, abs=1e-8)
