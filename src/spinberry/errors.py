"""Exception types shared across the package."""


class SpinberryError(Exception):
    """Base class for all package-specific errors."""


class UsageError(SpinberryError):
    """A command line the parser refuses: an unknown or missing argument,
    or a value of the wrong type."""


class UndefinedPeriodError(SpinberryError):
    """The field rotation period is undefined (omega_prime == 0)."""


class DegenerateLambdaError(SpinberryError):
    """The state period 2 pi / lambda is infinite (lambda = 0) or overflows."""


class NonFiniteTimeError(SpinberryError):
    """A time to evaluate at is nan or infinite."""


class PhaseOverflowError(SpinberryError):
    """A finite time at which a phase (lambda t/2, omega' t, B omega' t,
    phi_D or a sum of them) overflows."""


class AmplitudeVanishedError(SpinberryError):
    """|C1(t)| is numerically zero; the complex phase angle diverges."""


class NoSolutionError(SpinberryError):
    """No real commensurate period exists for the requested cycle counts."""


class NoPositiveRootError(SpinberryError):
    """The commensurability condition has real roots, but none is positive."""


class ExtrapolationError(SpinberryError):
    """An adiabatic extrapolation sequence failed to converge."""


class StepBudgetError(SpinberryError):
    """An RK4 oracle run would take more steps than its budget allows."""


class PhaseRoundingError(SpinberryError):
    """Gauge or azimuth phases so large that their rounding alone exceeds a
    tolerance of ``spinberry verify``."""

