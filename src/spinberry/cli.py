"""Command-line surface: point evaluation, sweeps, commensurability, verify.

Emits CSV (default) or JSON.  Exit codes: 0 success, 1 verification
failure, 2 usage or domain error or an --output that cannot be written, 141
when the reader closes standard output early (128 + SIGPIPE, as a shell
reports ``yes | head -1``).  Errors behind exit code 2 are reported on
standard error as {"error": {"code": ..., "message": ...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import cyclicity, oracle, phases
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
#: norm drift allowed per coefficient-oracle step.  The oracle builds the
#: total G of a chunk's steps once (M^L by pairwise halving, its powers by
#: doubling) and applies it once per chunk, so the norm^2 moves alike every
#: chunk, by y^H (G^H G - I) y.  Per step that is M's rounding, at most eps/2
#: (its diagonal, just under 1, rounds within eps/4), plus the halving
#: levels', rounded alike in every pair and weighted 1/2, 1/4, ...: about eps
#: in all.  RK4's own loss, (h r)^6/72 at the fastest rate |B omega'| +
#: lambda/2, is under 1e-20 at ``oracle.step_size``.  Seen: at most 0.96 eps
#: per step.
_DRIFT_PER_STEP = 2.0 * sys.float_info.epsilon
#: most rows one sweep may write.  Rows go out _BLOCK at a time, so memory is
#: the evaluated columns, about 100 B/row: at this cap a time sweep peaks at
#: 65 MB RSS in CSV and 77 MB in JSON on a 2-vCPU x86 VM, where it runs 3.3 s
#: and 4.9 s.  So the cap bounds run time, not memory.
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


#: rows formatted and written at a time: peak memory is the evaluated columns
_BLOCK = 8192


def _emit(args, header, columns, vanished, params, spec=None):
    """Write the rows as CSV or as json.dumps(payload, indent=2), _BLOCK at once.

    Each format is a head, a row %-template, a blank-row template, a row
    separator and a tail.  Where |C1| vanished the blank row's phase slots
    print "" or null and drop the value by "%.0s".  JSON cells come from
    json's C encoder per block column: floats by float.__repr__, and NaN
    and Infinity as json spells them."""
    if args.format == "csv":
        head, sep, tail = ",".join(header) + "\n", "\n", "\n"
        keys, join, frame = [""] * len(header), ",", "%s"
        cell, empty, encode = "%.17g", "", list
    else:
        payload = json.dumps({"params": dataclasses.asdict(params),
                              "spec": spec, "rows": []}, indent=2)
        head, sep, tail = payload[:-len("[]\n}")] + "[\n", ",\n", "\n  ]\n}\n"
        keys = [f"      {json.dumps(name)}: " for name in header]
        join, frame, cell, empty = ",\n", "    {\n%s\n    }", "%s", "null"
        encode = lambda values: json.dumps(values)[1:-1].split(", ")
    row, blank = (frame % join.join(
        key + (empty + "%.0s" if gone and name in PHASE_COLUMNS else cell)
        for key, name in zip(keys, header)) for gone in (False, True))
    with (open(args.output, "w", newline="") if args.output
          else contextlib.nullcontext(sys.stdout)) as handle:
        handle.write(head)
        for start in range(0, len(vanished), _BLOCK):
            block = slice(start, start + _BLOCK)
            cells = zip(*(encode(columns[name][block].tolist())
                          for name in header))
            handle.write((sep if start else "") + sep.join(
                (blank if gone else row) % values
                for values, gone in zip(cells, vanished[block].tolist())))
        handle.write(tail)


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

    lab = oracle.integrate_lab_frame(p, cfg)
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

    # both limits hold at B = -1/2; the gauge-B shift law moves Re phi_B(T')
    # by (B + 1/2) omega' T' = 2 pi (B + 1/2), so the targets move with it.
    # The non-adiabatic one is a distance on the circle: a target at pi and
    # a value just past -pi are close
    shift = TWO_PI * (p.gauge_b + 0.5)
    target = math.pi * math.cos(p.beta) - math.pi + shift
    yield ("adiabatic limit vs pi cos(beta) - pi",
           abs(phases.adiabatic_limit_check(p, 1e-4) - target), 1e-3)
    yield ("extreme non-adiabatic limit mod 2 pi", abs(phases.principal_branch(
        phases.nonadiabatic_limit_check(p, 1e4)
        - phases.principal_branch(shift))), 1e-3)


def cmd_verify(args) -> int:
    p = _params_from_args(args)
    t_max = args.t_max if args.t_max is not None else \
        args.t_max_periods * derived_scales(p).longest_period
    failures = 0
    for name, measured, tol in _verify_checks(p, t_max):
        ok = measured <= tol
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: "
              f"measured={measured:.3e}  tol={tol:.1e}", flush=True)
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader left: say nothing more, and let the last flush go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (SpinberryError, OSError, ValueError) as exc:
        code = type(exc).__name__ if isinstance(
            exc, (SpinberryError, OSError)) else "ValueError"
        print(json.dumps({"error": {"code": code, "message": str(exc)}}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
