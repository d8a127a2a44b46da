"""The three workloads: seeded inputs, the timed call, and its checks.

Each workload is a round: a fixed list of operations built once from the
seed.  A run repeats whole rounds, so every run attempts the same mix and
the share of failed operations is the same in every run.  Within a round
the cheap operation kinds are as many as the dear ones around the middle
kind, which puts the median operation inside one kind rather than on the
edge between two.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import reference as ref

TWO_PI = 2.0 * math.pi
#: points in each vectorized kernel grid
GRID_POINTS = 1_000_000
#: rows of each sweep; short sweeps let the probe follow the host's speed
SWEEP_ROWS = 1001
#: RK4 steps per shorter period, spinberry's IntegratorConfig default
STEPS_PER_PERIOD = 10_000


@dataclass
class Op:
    """One operation: the timed call and the check of what it returned.

    collect turns the call's return value into everything the check reads,
    such as the file a sweep wrote; it runs after the clock stops.
    """

    kind: str
    units: float  # rows written, RK4 steps in both frames, or grid points
    call: Callable[[], Any]
    check: Callable[[Any, "Op"], list]
    known_fault: bool = False  # fails today because of a named fault
    collect: Callable[[Any], Any] = lambda out: out
    counters: dict = field(default_factory=dict)


def oracle_steps(omega, omega_prime, beta, t_max,
                 per_period=STEPS_PER_PERIOD):
    """RK4 steps of one oracle frame: the shorter of T', T'' per `per_period`."""
    lam = float(ref.rabi_rate(omega, omega_prime, beta))
    periods = [TWO_PI / x for x in (omega_prime, lam) if x > 0.0]
    base = min(periods) if periods else TWO_PI / omega
    return max(1, math.ceil(t_max / (base / per_period) - 1e-9))


def _random_point(rng, *, gauge_b=None):
    """Parameters drawn like the acceptance suite's random_params."""
    return {"omega": 1.0, "omega_ratio": rng.uniform(0.3, 3.0),
            "cos_beta": rng.uniform(-0.9, 0.9),
            "alpha": rng.uniform(0.0, TWO_PI),
            "gauge_a": rng.uniform(-2.0, 2.0),
            "gauge_b": rng.uniform(-1.0, 0.5) if gauge_b is None else gauge_b}


def _flags(point):
    return [f"--{name.replace('_', '-')}={value!r}"
            for name, value in point.items()]


# --- sweep -------------------------------------------------------------------

def sweep_round(rng, spinberry, workdir):
    """Seven sweeps of SWEEP_ROWS rows: time, omega_ratio and omega_t_prime,
    each as CSV and JSON, plus a zero-detuning time sweep whose grid hits
    odd multiples of T''/2, where |C1| vanishes."""
    cli = spinberry.cli
    layout = [
        ("time", "csv", 0.0, 20.0, False),
        ("time", "json", 0.0, 20.0, False),
        ("omega_ratio", "csv", 0.05, 20.0, True),
        ("omega_ratio", "json", 0.05, 20.0, True),
        ("omega_t_prime", "csv", 0.5, 60.0, False),
        ("omega_t_prime", "json", 0.5, 60.0, False),
        ("time", "csv", 0.0, 25.0, False),
    ]
    ops = []
    for k, (variable, fmt, start, stop, log) in enumerate(layout):
        point = _random_point(rng)
        point["omega"] = rng.uniform(0.5, 2.0)
        kind = f"sweep.{variable}.{fmt}"
        if k == len(layout) - 1:
            # w'/w = 2, cos b = 1/2: detuning 0, |C1| = |cos(pi t/T'')|
            point.update(omega_ratio=2.0, cos_beta=0.5)
            kind = "sweep.time.vanishing"
        grid = (np.geomspace if log else np.linspace)(start, stop, SWEEP_ROWS)
        path = os.path.join(workdir, f"{k}.{fmt}")
        argv = ["sweep", "--variable", variable, "--start", repr(start),
                "--stop", repr(stop), "--samples", str(SWEEP_ROWS),
                "--format", fmt, "--output", path] + _flags(point)
        if log:
            argv.append("--log")
        if variable == "time":
            argv += ["--time-unit", "tsecond"]
        spec = dict(point, variable=variable, grid=grid)
        ops.append(Op(kind, SWEEP_ROWS, _cli_call(cli, argv, "stderr"),
                      _sweep_check(spec, fmt), collect=_read_output(path)))
    return ops


def _cli_call(cli, argv, stream):
    """Run cli.main(argv), capturing one standard stream."""
    redirect = {"stdout": contextlib.redirect_stdout,
                "stderr": contextlib.redirect_stderr}[stream]

    def call():
        buffer = io.StringIO()
        with redirect(buffer):
            code = cli.main(argv)
        return code, buffer.getvalue()

    return call


def _read_output(path):
    def collect(out):
        with open(path) as handle:
            return out + (handle.read(),)
    return collect


def _sweep_check(spec, fmt):
    def check(out, op):
        code, stderr, text = out
        if code != 0:
            return [f"exit code {code}: {stderr.strip()}"]
        cols = (ref.parse_csv if fmt == "csv" else ref.parse_json)(text)
        problems, blank = ref.check_sweep(spec, cols, stderr)
        op.counters["vanished_rows"] = blank
        return problems
    return check


# --- verify ------------------------------------------------------------------

def verify_round(rng, spinberry, workdir):
    """verify over random_params draws at 2 and 10 shorter periods, plus
    adiabatic ratios 0.2 and 0.05 at 4 and 2 field periods.  The horizon is
    a multiple of the shorter period, so each kind has a fixed step count
    whatever the seed."""
    cli = spinberry.cli
    layout = [("tiny", None, 2.0)] * 3 + [("short", None, 10.0)] * 3 + [
        ("adiabatic_0.2", 0.2, 20.0), ("adiabatic_0.05", 0.05, 39.0)]
    ops = []
    for kind, ratio, periods in layout:
        # the limit checks compare with pi cos(b) - pi, which holds for B = -1/2
        point = _random_point(rng, gauge_b=-0.5)
        if ratio is not None:
            point["omega_ratio"] = ratio
        omega_prime = point["omega_ratio"] * point["omega"]
        beta = math.acos(point["cos_beta"])
        lam = float(ref.rabi_rate(point["omega"], omega_prime, beta))
        t_max = periods * TWO_PI / max(omega_prime, lam)
        steps = oracle_steps(point["omega"], omega_prime, beta, t_max)
        argv = ["verify", f"--t-max={t_max!r}"] + _flags(point)
        ops.append(Op(f"verify.{kind}", 2 * steps,
                      _cli_call(cli, argv, "stdout"),
                      lambda out, op: ref.check_verify(*out)))
    return ops


# --- kernels -----------------------------------------------------------------

def kernels_round(rng, spinberry, workdir):
    """The vectorized kernels on two GRID_POINTS grids, one in the trig
    branch and one in the small-lambda series branch, plus Simpson
    quadrature and commensurate roots; and the two inputs that fail today."""
    ModelParams = spinberry.ModelParams
    evolution, phases, cyclicity = (spinberry.evolution, spinberry.phases,
                                    spinberry.cyclicity)
    point = _random_point(rng)
    trig = ModelParams(omega=1.0, omega_prime=point["omega_ratio"],
                       beta=math.acos(point["cos_beta"]),
                       alpha=point["alpha"], gauge_a=point["gauge_a"],
                       gauge_b=point["gauge_b"])
    lam = float(ref.rabi_rate(1.0, trig.omega_prime, trig.beta))
    trig_t = np.linspace(0.0, 200.0 * TWO_PI / lam, GRID_POINTS)

    # lambda of order 1e-9 < 1e-8 omega, horizon lambda t = 1e-4 where the
    # series is exact to rounding
    detuning, beta = rng.uniform(1e-10, 3e-9), rng.uniform(1e-10, 2e-9)
    series = ModelParams(omega=1.0, omega_prime=1.0 - detuning, beta=beta,
                         alpha=rng.uniform(0.0, TWO_PI),
                         gauge_a=rng.uniform(-2.0, 2.0),
                         gauge_b=rng.uniform(-1.0, 0.5))
    lam = float(ref.rabi_rate(1.0, series.omega_prime, beta))
    series_t = np.linspace(0.0, 1e-4 / lam, GRID_POINTS)

    ops = []
    for name in ("amplitude_components", "state_components",
                 "total_phase_components", "dynamical_phase"):
        module = evolution if name in ("amplitude_components",
                                       "state_components") else phases
        for branch, p, t in (("trig", trig, trig_t),
                             ("series", series, series_t)):
            ops.append(Op(f"kernels.{name}.{branch}", GRID_POINTS,
                          _kernel_call(module, name, p, t),
                          _kernel_check(name, p, t)))

    # amplitude_components picks its small-lambda series on lambda/omega, not
    # on lambda t, so here the series runs to lambda t = 2.2 and breaks
    # normalization by 2.5e-2
    broken = ModelParams(omega=1.0, omega_prime=1.0 - 2e-9, beta=1e-9)
    broken_t = np.linspace(0.0, 1e9, GRID_POINTS)
    ops.append(Op("kernels.amplitude_components.long_series", GRID_POINTS,
                  _kernel_call(evolution, "amplitude_components", broken,
                               broken_t),
                  _kernel_check("amplitude_components", broken, broken_t),
                  known_fault=True))

    for _ in range(2):
        t = rng.uniform(1.0, 5.0) * TWO_PI / trig.omega_prime
        ops.append(Op("kernels.dynamical_phase_quadrature", 4097,
                      lambda p=trig, t=t:
                      phases.dynamical_phase_quadrature(p, t),
                      lambda out, op, t=t:
                      ref.check_quadrature(out, trig, t)))
    for _ in range(3):
        m = int(rng.integers(1, 50))
        n = m + int(rng.integers(1, 1000))
        ops.append(_commensurate_op(cyclicity, n, m,
                                    math.acos(rng.uniform(-0.9, 0.9))))
    # solve_commensurate holds each root to a fixed 1e-10 residual, which
    # rounding alone exceeds above n ~ 1e6: a bare AssertionError
    ops.append(_commensurate_op(cyclicity, 1_000_001, 1_000_000,
                                math.acos(0.5), known_fault=True))
    return ops


def _kernel_call(module, name, p, t):
    return lambda: getattr(module, name)(p, t)


def _kernel_check(name, p, t):
    return lambda out, op: ref.check_kernel(name, out, p, t)


def _commensurate_op(cyclicity, n, m, beta, known_fault=False):
    def call():
        solutions = cyclicity.solve_commensurate(n, m, beta)
        return solutions, [cyclicity.commensurate_residual(s, beta)
                           for s in solutions]

    return Op("kernels.solve_commensurate", 0, call,
              lambda out, op: ref.check_commensurate(*out, n, m, beta),
              known_fault=known_fault)


#: each workload function takes (rng, spinberry, workdir), returns one round
WORKLOADS = {"sweep": sweep_round, "verify": verify_round,
             "kernels": kernels_round}
