"""Exact and numerical toolkit for the complex generalized geometric phase
of a spin-1/2 particle in a uniformly rotating magnetic field."""

from .errors import (AmplitudeVanishedError, DegenerateLambdaError,
                     ExtrapolationError, NonFiniteTimeError,
                     NoPositiveRootError, NoSolutionError,
                     PhaseOverflowError, PhaseRoundingError,
                     RecordBudgetError, SpinberryError,
                     StepBudgetError, UndefinedPeriodError)
from .model import (DerivedScales, ModelParams, derived_scales, eigenstate,
                    field_vector, hamiltonian)
from .evolution import (amplitudes, initial_state,
                        return_probability_at_period, state)
from .oracle import (IntegratorConfig, Trajectory, closed_form_trajectory,
                     integrate_coefficients, integrate_lab_frame,
                     max_deviation)
from .phases import (adiabatic_limit_check, berry_phase,
                     decompose, dynamical_phase, dynamical_phase_quadrature,
                     evaluate, gauge_b_fix, nonadiabatic_limit_check, principal_branch,
                     total_phase)
from .cyclicity import (CommensurateSolution, commensurate_ratio,
                        commensurate_residual, solve_commensurate,
                        state_period)

__all__ = [
    "AmplitudeVanishedError", "CommensurateSolution",
    "DegenerateLambdaError", "DerivedScales", "ExtrapolationError",
    "IntegratorConfig", "ModelParams", "NonFiniteTimeError",
    "NoPositiveRootError", "NoSolutionError",
    "PhaseOverflowError", "PhaseRoundingError",
    "RecordBudgetError",
    "SpinberryError", "StepBudgetError", "Trajectory", "UndefinedPeriodError",
    "adiabatic_limit_check", "amplitudes", "berry_phase", "closed_form_trajectory",
    "commensurate_ratio", "commensurate_residual", "decompose",
    "derived_scales", "dynamical_phase", "dynamical_phase_quadrature",
    "eigenstate", "evaluate", "field_vector", "gauge_b_fix", "hamiltonian",
    "initial_state", "integrate_coefficients", "integrate_lab_frame",
    "max_deviation", "nonadiabatic_limit_check", "principal_branch",
    "return_probability_at_period", "solve_commensurate", "state",
    "state_period", "total_phase",
]

__version__ = "0.1.0"
