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

import numpy as np

from . import cyclicity, evolution, oracle, phases
from .errors import (AmplitudeVanishedError, NoPositiveRootError,
                     NoSolutionError, SpinberryError)
from .model import TWO_PI, ModelParams, beta_from_cos, derived_scales

#: fixed column order of one output record
COLUMNS = ("t", "re_c1", "im_c1", "re_c2", "im_c2", "p1",
           "theta_r", "theta_i", "phi_d", "re_phi_b", "im_phi_b")

#: phase columns blanked when |C1| vanishes at a sweep point
_PHASE_COLUMNS = ("theta_r", "theta_i", "re_phi_b", "im_phi_b")

#: Simpson points per state period T'' in verify's quadrature check.  The
#: integrand -<H> oscillates at lambda, so Simpson's error term
#: t h^4 max|f''''| / 180 is, relative to phi_D, about (2 pi / k)^4 / 180 at
#: k points per period: 1.3e-10 at k = 512, under the check's 1e-9.  A
#: fixed 4096 points is 410 per period over ten periods but 100 over forty,
#: where the error reaches 1e-8.
_QUADRATURE_POINTS_PER_PERIOD = 512


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


def _record(p: ModelParams, t: float, strict: bool) -> dict:
    """One full output record; phase fields are None when |C1| vanishes."""
    amp = evolution.amplitudes(p, t)
    row = {
        "t": t,
        "re_c1": amp.c1.real, "im_c1": amp.c1.imag,
        "re_c2": amp.c2.real, "im_c2": amp.c2.imag,
        "p1": abs(amp.c1) ** 2,
        "phi_d": float(phases.dynamical_phase(p, t)),
    }
    try:
        dec = phases.decompose(p, t)
    except AmplitudeVanishedError:
        if strict:
            raise
        for name in _PHASE_COLUMNS:
            row[name] = None
        return row
    row.update(theta_r=dec.theta_r, theta_i=dec.theta_i,
               re_phi_b=dec.phi_b.real, im_phi_b=dec.phi_b.imag)
    return row


def _format_value(value) -> str:
    return "" if value is None else format(value, ".17g")


def _emit(args, header, rows, params, spec=None):
    if args.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_format_value(row[name]) for name in header))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "params": dataclasses.asdict(params),
            "spec": spec,
            "rows": [{name: row[name] for name in header} for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _resolve_time(args, p: ModelParams) -> float:
    scales = derived_scales(p)
    if args.t is not None:
        return args.t
    if args.t_over_tprime is not None:
        return args.t_over_tprime * scales.hamiltonian_period
    return args.t_over_tsecond * scales.state_period


def cmd_evolve(args) -> int:
    p = _params_from_args(args)
    row = _record(p, _resolve_time(args, p), strict=True)
    _emit(args, COLUMNS, [row], p)
    return 0


_TIME_UNIT_LABEL = {"t": "time", "tprime": "time", "tsecond": "time"}


def cmd_sweep(args) -> int:
    if not args.start < args.stop:
        raise SpinberryError("--start must be less than --stop")
    if args.log and args.start <= 0.0:
        raise SpinberryError("log scale requires --start > 0")
    if args.log:
        grid = np.geomspace(args.start, args.stop, args.samples)
    else:
        grid = np.linspace(args.start, args.stop, args.samples)

    rows = []
    vanished = 0
    if args.variable == "time":
        p = _params_from_args(args)
        scales = derived_scales(p)
        unit = {"t": 1.0, "tprime": scales.hamiltonian_period,
                "tsecond": scales.state_period}[args.time_unit]
        if not math.isfinite(unit):
            raise SpinberryError(
                f"time unit '{args.time_unit}' is undefined for these parameters")
        for value in grid:
            rows.append({"time": value} | _record(p, value * unit, strict=False))
    else:
        for value in grid:
            ratio = value if args.variable == "omega_ratio" else TWO_PI / value
            local = ModelParams.from_dimensionless(
                ratio, args.cos_beta, omega=args.omega, alpha=args.alpha,
                gauge_a=args.gauge_a, gauge_b=args.gauge_b)
            t_prime = derived_scales(local).hamiltonian_period
            rows.append({args.variable: value}
                        | _record(local, t_prime, strict=False))
        p = _params_from_args(args)
    vanished = sum(1 for row in rows if row["theta_r"] is None)
    header = (args.variable,) + COLUMNS
    spec = {"variable": args.variable, "start": args.start, "stop": args.stop,
            "samples": args.samples, "scale": "log" if args.log else "linear"}
    _emit(args, header, rows, p, spec)
    if vanished:
        print(f"warning: {vanished} of {len(rows)} rows had vanished |C1|; "
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

    yield ("oracle norm drift", coeff.norm_drift(), 1e-9)
    norms = np.abs(closed.coefficients[:, 0]) ** 2 \
        + np.abs(closed.coefficients[:, 1]) ** 2
    yield ("closed-form normalization", float(np.max(np.abs(norms - 1.0))),
           1e-12)

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
        shifted_p = ModelParams(omega=p.omega, omega_prime=p.omega_prime,
                                beta=p.beta, alpha=p.alpha, gauge_a=p.gauge_a,
                                gauge_b=p.gauge_b + 0.25)
        shifted = phases.berry_phase(shifted_p, t_probe)
        expected = 0.25 * p.omega_prime * t_probe
        yield ("gauge-B shift law", abs((shifted - base).real - expected)
               + abs((shifted - base).imag), 1e-10)

        moved_a = ModelParams(omega=p.omega, omega_prime=p.omega_prime,
                              beta=p.beta, alpha=p.alpha,
                              gauge_a=p.gauge_a + 1.3, gauge_b=p.gauge_b)
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
    scales = derived_scales(p)
    periods = [x for x in (scales.hamiltonian_period, scales.state_period)
               if math.isfinite(x)]
    t_max = args.t_max if args.t_max is not None else \
        args.t_max_periods * (max(periods) if periods else TWO_PI / p.omega)
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
        if hasattr(args, "samples") and args.samples < 2:
            raise SpinberryError("--samples must be >= 2")
        return args.func(args)
    except SpinberryError as exc:
        payload = {"error": {"code": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload), file=sys.stderr)
        return 2
    except ValueError as exc:
        payload = {"error": {"code": "ValueError", "message": str(exc)}}
        print(json.dumps(payload), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
