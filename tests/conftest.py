import contextvars
import math
import threading
import tracemalloc

import numpy as np
import pytest

from spinberry import evolution
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


def traced_peak(call, *args):
    """(tracemalloc peak of call(*args), bytes of the arrays it returns)."""
    tracemalloc.start()
    try:
        out = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outs = out if isinstance(out, tuple) else (out,)
    return peak, sum(np.asarray(value).nbytes for value in outs)


def _start_and_join():
    thread = threading.Thread(target=contextvars.copy_context().run,
                              args=(lambda: None,))
    thread.start()
    thread.join()


def assert_threaded_peak(monkeypatch, call, args, blocks, base, temporaries):
    """call(*args) over `blocks` blocks at 4 workers, the most any host
    gets, peaks at most at base plus one block's temporaries (measured on one
    worker) per thread and, per thread started, a thread's bookkeeping: the
    peak of one started and joined as ``evolution._blockwise`` does."""
    workers = min(4, blocks - 1) if blocks > 2 else 1
    bookkeeping, _ = traced_peak(_start_and_join)
    monkeypatch.setattr(evolution, "_WORKERS", 4)
    peak, _ = traced_peak(call, *args)
    assert peak <= base + workers * temporaries + (workers - 1) * bookkeeping
