import math

import numpy as np
import pytest

from spinberry.model import ModelParams


@pytest.fixture
def resonant():
    """omega' = omega, cos(beta) = 1/2: lambda = omega, T' = T'' = 2 pi."""
    return ModelParams.from_dimensionless(1.0, 0.5)


def random_params(rng, *, omega_ratio=(0.3, 3.0), cos_beta=(-0.9, 0.9)):
    return ModelParams(
        omega=1.0,
        omega_prime=rng.uniform(*omega_ratio),
        beta=math.acos(rng.uniform(*cos_beta)),
        alpha=rng.uniform(0.0, 2.0 * math.pi),
        gauge_a=rng.uniform(-2.0, 2.0),
        gauge_b=rng.uniform(-1.0, 0.5),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)
