"""Command-line surface: point evaluation, sweeps, commensurability, verify.

Emits CSV (default) or JSON.  Exit codes: 0 success, 1 verification
failure, 2 usage or domain error.  Runtime errors are reported on standard
error as {"error": {"code": ..., "message": ...}}.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from operator import itemgetter

import numpy as np

from . import cyclicity, evolution, oracle, phases
from .errors import (AmplitudeVanishedError, NoPositiveRootError,
                     NoSolutionError, SpinberryError)
from .model import TWO_PI, ModelParams, beta_from_cos, derived_scales
from .phases import COLUMNS, PHASE_COLUMNS, evaluate

#: Simpson points per state period T'' in verify's quadrature check.  The
#: integrand -<H> oscillates at lambda, so Simpson's error term
#: t h^4 max|f''''| / 180 is, relative to phi_D, about (2 pi / k)^4 / 180 at
#: k points per period: 1.3e-10 at k = 512, under the check's 1e-9.  A
#: fixed 4096 points is 410 per period over ten periods but 100 over forty,
#: where the error reaches 1e-8.
_QUADRATURE_POINTS_PER_PERIOD = 512
#: norm drift allowed per coefficient-oracle step.  The oracle applies one
#: step map M, formed once, at every step, so M's rounding (each component
#: within eps/2, at most eps/sqrt(2) in Frobenius norm) moves the norm^2 alike
#: each step, by up to sqrt(2) eps; RK4's own loss, (h lambda)^6/72 per step,
#: is about 1e-21.  Seen: 0.44-0.53 eps per step, linear in the steps.
_DRIFT_PER_STEP = 2.0 * sys.float_info.epsilon
#: most rows one sweep may write.  A sweep holds every row as text before
#: writing it: peak RSS grows by 2.5 kB per JSON row (154 MB at 5e4 rows,
#: 278 MB at 1e5) and 1.3 kB per CSV row, so this stays near 0.65 GB.
_MAX_SAMPLES = 250_000


def _add_param_args(parser):
    parser.add_argument("--omega", type=float, default=1.0,
                        help="energy splitting (default 1.0)")
    parser.add_argument("--omega-ratio", type=float, default=1.0,
                        help="field rotation rate over omega (default 1.0)")
    parser.add_argument("--cos-beta", type=float, default=0.5,
                        help="cosine of the field tilt (default 0.5)")
    parser.add_argument("--alpha", type=float, default=0.0,
                        help="initial field azimuth (default 0)")
    parser.add_argument("--gauge-a", type=float, default=0.0,
                        help="constant gauge phase A (default 0)")
    parser.add_argument("--gauge-b", type=float, default=-0.5,
                        help="linear gauge slope B (default -0.5)")


def _add_output_args(parser):
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="output file (default: standard output)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _params_from_args(args) -> ModelParams:
    return ModelParams.from_dimensionless(
        args.omega_ratio, args.cos_beta, omega=args.omega, alpha=args.alpha,
        gauge_a=args.gauge_a, gauge_b=args.gauge_b)


def _csv(header, values, vanished) -> str:
    """One %-template per row; vanished rows leave the phase columns empty."""
    kept = [k for k, name in enumerate(header) if name not in PHASE_COLUMNS]
    full = ",".join(["%.17g"] * len(header))
    blank = ",".join("%.17g" if k in kept else "" for k in range(len(header)))
    keep = itemgetter(*kept)
    lines = [blank % keep(row) if gone else full % row
             for row, gone in zip(zip(*values), vanished.tolist())]
    return ",".join(header) + "\n" + "\n".join(lines) + "\n"


def _json(header, values, vanished, params, spec) -> str:
    """The bytes of json.dumps(payload, indent=2), rows filled by template.

    json's C encoder writes each column as a flat list: floats by
    float.__repr__, and null, NaN and Infinity as json spells them."""
    phase = [values[k] for k, name in enumerate(header) if name in PHASE_COLUMNS]
    for k in np.flatnonzero(vanished).tolist():
        for column in phase:
            column[k] = None
    cells = [json.dumps(column)[1:-1].split(", ") for column in values]
    row = "    {\n" + ",\n".join(f"      {json.dumps(name)}: %s"
                                 for name in header) + "\n    }"
    head = json.dumps({"params": dataclasses.asdict(params), "spec": spec,
                       "rows": []}, indent=2)
    return (head[:-len("[]\n}")] + "[\n"
            + ",\n".join(map(row.__mod__, zip(*cells))) + "\n  ]\n}\n")


def _emit(args, header, columns, vanished, params, spec=None):
    values = [columns[name].tolist() for name in header]
    text = (_csv(header, values, vanished) if args.format == "csv"
            else _json(header, values, vanished, params, spec))
    if args.output:
        with open(args.output, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _time_unit(p: ModelParams, unit: str) -> float:
    """The time unit: 1 ("t"), T' ("tprime") or T'' ("tsecond"), if defined."""
    return 1.0 if unit == "t" else derived_scales(p).defined(
        "hamiltonian_period" if unit == "tprime" else "state_period")


def _resolve_time(args, p: ModelParams) -> float:
    if args.t is not None:
        return args.t
    if args.t_over_tprime is not None:
        return args.t_over_tprime * _time_unit(p, "tprime")
    return args.t_over_tsecond * _time_unit(p, "tsecond")


def cmd_evolve(args) -> int:
    p = _params_from_args(args)
    columns, vanished = evaluate(p, [_resolve_time(args, p)], strict=True)
    _emit(args, COLUMNS, columns, vanished, p)
    return 0


def cmd_sweep(args) -> int:
    if args.samples < 2:
        raise SpinberryError("--samples must be >= 2")
    if args.samples > _MAX_SAMPLES:
        raise SpinberryError(f"--samples must be <= {_MAX_SAMPLES}, got "
                             f"{args.samples}; split the sweep")
    if not args.start < args.stop:
        raise SpinberryError("--start must be less than --stop")
    if args.log and args.start <= 0.0:
        raise SpinberryError("log scale requires --start > 0")
    p = _params_from_args(args)
    # nan or inf from an infinite bound or a zero rate is refused by name
    with np.errstate(divide="ignore", invalid="ignore"):
        grid = (np.geomspace if args.log else np.linspace)(
            args.start, args.stop, args.samples)
        if args.variable == "time":
            p_grid, t = p, grid * _time_unit(p, args.time_unit)
        else:
            ratio = grid if args.variable == "omega_ratio" else TWO_PI / grid
            p_grid = p.over(ratio * args.omega)
            t = TWO_PI / p_grid.omega_prime
    columns, vanished = evaluate(p_grid, t)
    columns[args.variable] = grid
    header = (args.variable,) + COLUMNS
    spec = {"variable": args.variable, "start": args.start, "stop": args.stop,
            "samples": args.samples, "scale": "log" if args.log else "linear"}
    _emit(args, header, columns, vanished, p, spec)
    count = int(vanished.sum())
    if count:
        print(f"warning: {count} of {len(grid)} rows had vanished |C1|; "
              "phase columns left empty", file=sys.stderr)
    return 0


def cmd_commensurate(args) -> int:
    beta = beta_from_cos(args.cos_beta)
    try:
        solutions = cyclicity.solve_commensurate(args.n, args.m, beta)
    except (NoSolutionError, NoPositiveRootError) as exc:
        print("note:", exc, file=sys.stderr)
        print("[]")
        return 0
    payload = [dataclasses.asdict(sol)
               | {"residual_c2": cyclicity.commensurate_residual(sol, beta)}
               for sol in solutions]
    print(json.dumps(payload, indent=2))
    return 0


def _drift_tolerance(p: ModelParams, cfg) -> float:
    """verify's bound on the coefficient oracle's norm drift under cfg."""
    return max(1e-9, _DRIFT_PER_STEP * cfg.t_max / oracle.step_size(p, cfg))


def _verify_checks(p: ModelParams, t_max: float):
    """Yield (name, measured, tolerance) triples for the verification report."""
    cfg = oracle.IntegratorConfig(t_max=t_max, record_stride=25)
    coeff = oracle.integrate_coefficients(p, cfg)
    closed = oracle.closed_form_trajectory(p, coeff.times)
    yield ("closed form vs coefficient RK4",
           oracle.max_deviation(closed, coeff), 1e-8)

    lab = oracle.integrate_lab_frame(p, cfg, evolution.initial_state(p))
    yield ("closed form vs lab-frame RK4",
           oracle.max_deviation(closed, lab), 1e-7)

    yield ("oracle norm drift", coeff.norm_drift(), _drift_tolerance(p, cfg))
    yield ("closed-form normalization", closed.norm_drift(), 1e-12)

    worst = 0.0
    state_period = derived_scales(p).state_period
    for fraction in (0.2, 0.5, 1.0):
        t = fraction * t_max
        exact = float(phases.dynamical_phase(p, t))
        n_points = max(4096, math.ceil(
            _QUADRATURE_POINTS_PER_PERIOD * t / state_period))
        quad = phases.dynamical_phase_quadrature(p, t, n_points=n_points)
        worst = max(worst, abs(exact - quad) / (1.0 + abs(exact)))
    yield ("dynamical phase quadrature vs closed form", worst, 1e-9)

    t_probe = 0.37 * t_max
    try:
        base = phases.berry_phase(p, t_probe)
        shifted = phases.berry_phase(
            dataclasses.replace(p, gauge_b=p.gauge_b + 0.25), t_probe)
        expected = 0.25 * p.omega_prime * t_probe
        yield ("gauge-B shift law", abs((shifted - base).real - expected)
               + abs((shifted - base).imag), 1e-10)

        moved_a = dataclasses.replace(p, gauge_a=p.gauge_a + 1.3)
        yield ("gauge-A invariance",
               abs(phases.berry_phase(moved_a, t_probe) - base), 1e-12)
    except AmplitudeVanishedError:
        pass  # measure-zero probe point; the remaining checks still run

    target = math.pi * math.cos(p.beta) - math.pi
    yield ("adiabatic limit vs pi cos(beta) - pi",
           abs(phases.adiabatic_limit_check(p, 1e-4) - target), 1e-3)
    yield ("extreme non-adiabatic limit mod 2 pi",
           abs(phases.nonadiabatic_limit_check(p, 1e4)), 1e-3)


def cmd_verify(args) -> int:
    p = _params_from_args(args)
    t_max = args.t_max if args.t_max is not None else \
        args.t_max_periods * derived_scales(p).longest_period
    failures = 0
    for name, measured, tol in _verify_checks(p, t_max):
        ok = measured <= tol
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: "
              f"measured={measured:.3e}  tol={tol:.1e}")
    print(f"{'OK' if failures == 0 else 'FAILED'}: "
          f"{failures} of the checks exceeded tolerance")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinberry",
        description="Spin-1/2 in a rotating field: exact evolution and "
                    "generalized geometric phase")
    sub = parser.add_subparsers(dest="command", required=True)

    evolve = sub.add_parser("evolve", help="one full record at a single time")
    _add_param_args(evolve)
    _add_output_args(evolve)
    when = evolve.add_mutually_exclusive_group(required=True)
    when.add_argument("--t", type=float, help="absolute time")
    when.add_argument("--t-over-tprime", type=float,
                      help="time in units of the field period T'")
    when.add_argument("--t-over-tsecond", type=float,
                      help="time in units of the state period T''")
    evolve.set_defaults(func=cmd_evolve)

    sweep = sub.add_parser("sweep", help="sweep time or a frequency ratio")
    _add_param_args(sweep)
    _add_output_args(sweep)
    sweep.add_argument("--variable", required=True,
                       choices=("time", "omega_ratio", "omega_t_prime"))
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--samples", type=int, default=1000)
    sweep.add_argument("--log", action="store_true",
                       help="logarithmic sample spacing")
    sweep.add_argument("--time-unit", choices=("t", "tprime", "tsecond"),
                       default="tsecond",
                       help="unit of --start/--stop for time sweeps")
    sweep.set_defaults(func=cmd_sweep)

    comm = sub.add_parser("commensurate",
                          help="periods at which state and field cycles align")
    comm.add_argument("n", type=int, help="state cycle count")
    comm.add_argument("m", type=int, help="field cycle count")
    comm.add_argument("--cos-beta", type=float, default=0.5)
    comm.set_defaults(func=cmd_commensurate)

    verify = sub.add_parser("verify",
                            help="closed form vs oracle and invariant report")
    _add_param_args(verify)
    verify.add_argument("--t-max", type=float, default=None,
                        help="absolute verification horizon")
    verify.add_argument("--t-max-periods", type=float, default=10.0,
                        help="horizon in units of the longest period")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpinberryError, ValueError) as exc:
        code = type(exc).__name__ if isinstance(exc, SpinberryError) \
            else "ValueError"
        print(json.dumps({"error": {"code": code, "message": str(exc)}}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
