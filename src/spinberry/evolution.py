"""Closed-form time evolution of the instantaneous-basis amplitudes.

The initial state is the upper instantaneous eigenstate |1(0)>.  With
delta1 = delta2 = A + B*omega_prime*t the coefficient equations have the
exact solution

    C1(t) = e^{i B w' t} [lam cos(lam t/2) - i (w - w' cos b) sin(lam t/2)] / lam
    C2(t) = e^{i B w' t} i (w' sin b / lam) sin(lam t/2)

where lam is the effective Rabi rate.  The lam t -> 0 limit is removable and
is evaluated by series.  The state C1|1(t)> + C2|2(t)> is formed without
e^{i B w' t} or the eigenstates' e^{-i B w' t}, which cancel: the rounding of
B w' t rides on C1, C2 and |1>, |2>, not on the state.  The kernels also run
over ``ModelParams.over``.

The elementwise kernel bodies run through ``_blockwise``, in blocks of at
most _BLOCK points dealt to _WORKERS threads: peak memory is the outputs plus
one block's temporaries a thread, which stay in cache.  Every operation is
elementwise, and no complex product is taken in place or on a temporary numpy
may elide, which numpy rounds by where a point sits: so each point rounds
alike in any block, thread count or grid size and at a scalar t.
"""

from __future__ import annotations

import contextvars
import functools
import os
import sys
import threading

import numpy as np

from .model import (ModelParams, _Grid, derived_scales, eigenbasis,
                    eigenstate, gauge_factor)

#: |lam t / 2| below which _half_sinc takes its series, ~4.0e-4
SERIES_BELOW = (120.0 * sys.float_info.epsilon) ** 0.25
#: points per block of ``_blockwise``, 16 384, sized for the threads: each
#: ufunc call of a block hands the GIL over once, so longer calls pay it
#: less often, and a block's temporaries, 128 or 256 kB each, stay in L2.
#: The benchmark's kernels workload (2 runs of 8 s each on a 2-vCPU x86 VM,
#: 2 MB L2 a core) read 31.0-31.1, 34.1-34.4, 34.0-35.5 and 31.7-31.9 M
#: points/s at 8192, 16 384, 32 768 and 65 536 on 2 workers, and 19.6-19.7,
#: 19.7-20.7, 19.3 and 18.7-19.0 on one CPU; peak RSS grew about 1.3, 3.8
#: and 8.8 MB over 8192's on 2 workers.  A 250 000-row evaluate took 33-36 ms
#: on a time grid and 38-41 on an omega' grid at 8192 to 32 768, 37-45 at
#: 65 536, and was no faster on 2 workers than on one.
_BLOCK = 16384
#: threads that share a call's blocks: the CPUs this process may use, <= 4
_WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(
    os, "sched_getaffinity") else os.cpu_count() or 1)


def _blockwise(body):
    """The elementwise kernel body(p, t), which returns a tuple of arrays,
    run over t in blocks of at most _BLOCK points.

    t may be a scalar or of any shape; each output is allocated once at t's
    shape, and a scalar t gives numpy scalars.  p may be ``ModelParams.over``
    a grid of t's shape.  Block 0 fills p's cached rates; from 3 blocks on
    the rest go round-robin to the caller and threads, in copies of its
    context (numpy's errstate); then the earliest failing block raises.
    The threads run at once only inside numpy's loops, which release the
    GIL; each ufunc call hands it over once, and a thread may wait for it
    at every call, so they pay only where a block's calls are long.
    """
    @functools.wraps(body)
    def kernel(p, t):
        t = np.asarray(t, dtype=float)
        flat, failures, outs = t.ravel(), [], []

        def run(starts):
            for start in starts:
                block = slice(start, start + _BLOCK)
                try:
                    values = body(p[block] if isinstance(p, _Grid) else p,
                                  flat[block])
                except Exception as error:
                    return failures.append((start, error))
                if not outs:
                    outs.extend(np.empty(flat.size, v.dtype) for v in values)
                for out, value in zip(outs, values):
                    out[block] = value

        starts = range(0, max(flat.size, 1), _BLOCK)
        run(starts[:1])
        starts = starts[:1] if failures else starts
        workers = min(_WORKERS, len(starts) - 1) if len(starts) > 2 else 1
        threads = [threading.Thread(target=contextvars.copy_context().run,
                                    args=(run, starts[1 + k::workers]))
                   for k in range(1, workers)]
        try:
            for thread in threads:
                thread.start()
            run(starts[1::workers])
        finally:
            for thread in threads:
                if thread.ident is not None:  # started
                    thread.join()
        if failures:
            raise min(failures)[1]  # by block start, each distinct
        return tuple(out.reshape(t.shape)[()] for out in outs)
    return kernel


def _half_sinc(lam, t):
    """sin(x)/lam, x = lam t/2, elementwise; lam = 0 gives t/2.

    Where |x| < SERIES_BELOW it is the series (t/2)(1 - x^2/6), whose first
    omitted term makes a relative error of x^4/120: under eps for
    |x| < (120 eps)^(1/4).  Above it sin(x)/lam is good to a few eps, so the
    switch is on x, the quantity that sets the error, not on lam alone.
    """
    x = np.asarray(0.5 * lam * t)
    small = np.abs(x) < SERIES_BELOW
    n_small = np.count_nonzero(small)
    if n_small == x.size:  # no sine to take
        return _half_sinc_series(x, t)
    with np.errstate(divide="ignore", invalid="ignore"):  # lam = 0: series
        out = np.sin(x) / lam
    if n_small:
        out[small] = _half_sinc_series(
            x[small], np.broadcast_to(t, x.shape)[small])
    return out


def _half_sinc_series(x, t):
    """(t/2)(1 - x^2/6), the one rounding of the series at every point."""
    return t * (0.5 - x * x / 12.0)


def _core(p: ModelParams, t):
    """(x, h) = (cos(lam t/2), sin(lam t/2)/lam): without the gauge factor
    e^{i B w' t}, C1 = x - i d h and C2 = i k h (d detuning, k coupling)."""
    lam = p.rabi_rate
    return np.cos(0.5 * lam * t), _half_sinc(lam, t)


def _ungauged(p: ModelParams, x, half_sinc):
    """(C1, C2) at B = 0 from ``_core``'s (x, h): x - i d h and i k h."""
    return x - 1j * p.detuning * half_sinc, 1j * p.coupling * half_sinc


def _gauged(p: ModelParams, x, half_sinc, rotation):
    """``_ungauged`` (C1, C2) times the gauge factor rotation."""
    return tuple(rotation * c for c in _ungauged(p, x, half_sinc))


@_blockwise
def amplitude_components(p: ModelParams, t):
    """Vectorized (c1, c2) at time(s) t.  t may be a scalar or ndarray."""
    return _gauged(p, *_core(p, t), gauge_factor(p, t))


def amplitudes(p: ModelParams, t: float):
    """(c1, c2) at a single time; amplitudes(p, 0) == (1, 0) exactly."""
    return amplitude_components(p, t)


@_blockwise
def state_components(p: ModelParams, t):
    """Vectorized lab-frame components (up, down) of C1|1(t)> + C2|2(t)>.

    With ``eigenbasis`` at B = 0 (module docstring) and x, h from ``_core``,
    up = e_up (c x + i (k s - d c) h), down = e_down (s x - i (d s + k c) h):
    two cosine-sine pairs, each bracket built exactly in one scratch array.
    The products are not taken in place: numpy multiplies one complex point
    in place without the fused multiply-add its longer loops use.
    """
    up, down, c, s = eigenbasis(p, t)
    x, h = _core(p, t)
    core = np.empty(t.shape, dtype=complex)
    np.multiply(x, c, out=core.real)
    np.multiply(h, p.coupling * s - p.detuning * c, out=core.imag)
    up = up * core
    np.multiply(x, s, out=core.real)
    np.multiply(h, -(p.detuning * s + p.coupling * c), out=core.imag)
    return up, down * core


def state(p: ModelParams, t: float) -> np.ndarray:
    """Lab-frame state C1(t)|1(t)> + C2(t)|2(t)> as (up, down); unit norm."""
    return np.array(state_components(p, t))


def return_probability_at_period(p: ModelParams) -> float:
    """|C1(T')|^2 after one full field rotation T' = 2 pi / omega_prime."""
    c1, _ = amplitude_components(
        p, derived_scales(p).defined("hamiltonian_period"))
    return float(abs(c1) ** 2)


def initial_state(p: ModelParams) -> np.ndarray:
    """The fixed initial condition |1(0)>."""
    return eigenstate(p, 0.0, 1)
