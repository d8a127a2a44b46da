"""Command-line surface: point evaluation, sweeps, commensurability, verify.

Emits CSV (default) or JSON.  Exit codes: 0 success, 1 verification
failure, 2 usage or domain error or an --output that cannot be written, 141
when the reader closes standard output early (128 + SIGPIPE, as a shell
reports ``yes | head -1``).  Errors behind exit code 2 are reported on
standard error as {"error": {"code": ..., "message": ...}}.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import cyclicity, oracle, phases
from .errors import (AmplitudeVanishedError, NoPositiveRootError,
                     NoSolutionError, PhaseRoundingError, SpinberryError)
from .model import TWO_PI, ModelParams, beta_from_cos, derived_scales
from .phases import COLUMNS, PHASE_COLUMNS, evaluate

#: tolerances of verify's gauge-B shift law line and of both limit lines,
#: which its refusal of unresolvable phases (``_refuse_phase_rounding``)
#: reads too
_SHIFT_LAW_TOL = 1e-10
_LIMIT_TOL = 1e-3
#: tolerance of verify's reality line, -Im phi_B(T') in both limits: the
#: rounding of theta_i = -ln|C1| >= 0 (derived at the line)
_REALITY_TOL = 8.0 * sys.float_info.epsilon
#: most rows one sweep may write.  Rows go out _BLOCK at a time, so memory is
#: the evaluated columns, 106 B/row at evaluate's tracemalloc peak: at this
#: cap a time sweep peaks at 66 MB RSS in CSV and 70 MB in JSON on a 2-vCPU
#: x86 VM, where it runs 1.6-1.8 s and 2.2-2.7 s.  So the cap bounds both a
#: sweep's allocation, about 26 MB of columns at the cap (--samples 1e9
#: would ask for about 100 GB), and its run time.
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
    separator and a tail; CSV and JSON differ only in those, the keys and
    the cell spec.  Cells are Python floats (``tolist``), printed by
    "%.17g" or, in JSON, by "%r": float.__repr__, the text json writes
    for a finite float, and every printed cell is finite (``evaluate``).
    Where |C1| vanished the blank row's phase slots print "" or null and
    drop the value by "%.0s".  A column that is an earlier column's array
    (im_phi_b is theta_i's) is formatted once a block, and each of its
    slots prints that text by "%s"."""
    if args.format == "csv":
        head, sep, tail = ",".join(header) + "\n", "\n", "\n"
        keys, join, frame = [""] * len(header), ",", "%s"
        cell, empty = "%.17g", ""
    else:
        payload = json.dumps({"params": dataclasses.asdict(params),
                              "spec": spec, "rows": []}, indent=2)
        head, sep, tail = payload[:-len("[]\n}")] + "[\n", ",\n", "\n  ]\n}\n"
        keys = [f"      {json.dumps(name)}: " for name in header]
        join, frame, cell, empty = ",\n", "    {\n%s\n    }", "%r", "null"
    arrays = [columns[name] for name in header]
    shared = {id(array): array for k, array in enumerate(arrays)
              if any(array is earlier for earlier in arrays[:k])}
    row, blank = (frame % join.join(
        key + (empty + "%.0s" if gone and name in PHASE_COLUMNS else
               "%s" if id(array) in shared else cell)
        for key, name, array in zip(keys, header, arrays))
        for gone in (False, True))
    with (open(args.output, "w", newline="") if args.output
          else contextlib.nullcontext(sys.stdout)) as handle:
        handle.write(head)
        for start in range(0, len(vanished), _BLOCK):
            block = slice(start, start + _BLOCK)
            texts = {key: list(map(cell.__mod__, array[block].tolist()))
                     for key, array in shared.items()}
            cells = zip(*(texts[id(array)] if id(array) in texts
                          else array[block].tolist() for array in arrays))
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
    for flag, bound in (("--start", args.start), ("--stop", args.stop)):
        if not math.isfinite(bound):
            raise SpinberryError(f"{flag} must be finite, got {bound}")
    if not args.start < args.stop:
        raise SpinberryError("--start must be less than --stop")
    if args.log and args.start <= 0.0:
        raise SpinberryError("log scale requires --start > 0")
    p = _params_from_args(args)
    # nan or inf from a bound, a zero rate or an overflow is refused by name
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        grid = (np.geomspace if args.log else np.linspace)(
            args.start, args.stop, args.samples)
        if args.variable == "time":
            p_grid, t = p, grid * _time_unit(p, args.time_unit)
        else:
            ratio = grid if args.variable == "omega_ratio" else TWO_PI / grid
            p_grid = p.over(omega_prime=ratio * args.omega)
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


def _refuse_phase_rounding(p: ModelParams, t_max: float):
    """Refuse, by name, gauge and azimuth phases whose rounding alone would
    fail a verify line.

    A, alpha/2 and B omega' t enter verify's lines only as phases, summed
    with others before a cosine and sine are taken, and a unit phasor is
    off, absolutely, by as much as its phase.  No line reads the eigenstates
    at t > 0.  The lab oracle reads them at t = 0 alone
    (``model.eigenbasis``), against H's alpha, taken once and unrounded:
    their phase alpha/2 + A rounds by r0, exact as that of a sum of two
    doubles is a double (``math.fsum``), and -2A is exact, so the map's q
    turns by 2 r0, and that line reads about 2 r0 sin(beta).  2 r0 is held
    to the lab line's tolerance; where alpha/2 + A or -2A overflows it is
    taken as inf.  B enters no oracle line: each is a modulus or a
    difference of two records with the same gauge factor, so verify folds
    them at B = 0.  The gauge-B shift law differences two theta_r =
    B (omega' t) + arg(...), which hold only the B term, a product on the
    omega' t they share, and a sum, and two C1, whose gauge factors' phases
    are that product: eps |B| omega' t_max bounds each, and the line reads
    the larger.  The limit lines hold 2 pi B in Re phi_B(T'), through
    T' = 2 pi / omega', omega' T', B times it and two sums, and in its
    target, through B + 1/2, a product and a sum:
    eight roundings of at most eps/2 of 2 pi |B|, at any horizon.  omega'
    t/2 and lambda t/2 round too, but the step budget keeps both under
    2 pi 5e3 (h <= T'/1e4, T''/1e4), their rounding under 4e-12."""
    half, eps = 0.5 * p.alpha, sys.float_info.epsilon
    start = half + p.gauge_a
    r0 = abs(math.fsum((half, p.gauge_a, -start))) if math.isfinite(
        start) and math.isfinite(2.0 * p.gauge_a) else math.inf
    for flags, term, rounding, tol, line in (
            (f"--gauge-b {p.gauge_b:g} over t_max = {t_max:.6g}",
             "eps |B| omega' t_max",
             eps * abs(p.gauge_b) * p.omega_prime * t_max,
             _SHIFT_LAW_TOL, "gauge-B shift law"),
            (f"--gauge-a {p.gauge_a:g}, --alpha {p.alpha:g} over t_max = "
             f"{t_max:.6g}", "of alpha/2 + A, doubled", 2.0 * r0,
             oracle.LAB_TOL, "closed form vs lab-frame RK4"),
            (f"--gauge-b {p.gauge_b:g} at omega' T' = 2 pi",
             "4 eps 2 pi |B|", 4.0 * eps * TWO_PI * abs(p.gauge_b),
             _LIMIT_TOL, "adiabatic limit vs pi cos(beta) - pi")):
        if rounding > tol:
            raise PhaseRoundingError(
                f"{flags}: phase rounding {term} = {rounding:.3g} exceeds "
                f"the {tol:.0e} tolerance of verify's '{line}' line")


def _verify_checks(p: ModelParams, t_max: float):
    """Yield (name, measured, tolerance) per line of verify at p to t_max,
    once its inputs are admitted: the oracle's step and its budget
    (``oracle.steps``) first, then the phase rounding, then ``oracle.fold``'s
    lines and the gauge, limit and reality lines; stderr notes skipped
    ones."""
    h, n_steps = oracle.steps(p, t_max)
    _refuse_phase_rounding(p, t_max)
    lines, panels = oracle.fold(p, h, n_steps)
    yield from lines
    if not panels:
        print("note: the horizon holds fewer than two record strides; "
              "skipped the 'dynamical phase quadrature vs closed form' line",
              file=sys.stderr)

    # one evaluate: phi_B at t_probe at (B, A), (B + 1/4, A) and (B, A + 1.3)
    # first, so an overflow names t_probe, then phi_B(T') at 1e-4 and 1e4
    t_probe, a, b = 0.37 * t_max, p.gauge_a, p.gauge_b
    grid = p.over(omega=[p.omega] * 3 + [1.0] * 2,
                  omega_prime=[p.omega_prime] * 3 + [1e-4, 1e4],
                  gauge_a=[a, a, a + 1.3, a, a], gauge_b=[b, b + 0.25, b, b, b])
    columns, vanished = evaluate(
        grid, np.append([t_probe] * 3, TWO_PI / grid.omega_prime[3:]))
    re, im = columns["re_phi_b"].tolist(), columns["im_phi_b"].tolist()
    if vanished[:3].any():  # a measure-zero probe point
        print(f"note: |C1| vanishes at the gauge probe t = 0.37 t_max = "
              f"{t_probe:.6g}; skipped the 'gauge-B shift law' and "
              "'gauge-A invariance' lines", file=sys.stderr)
    else:
        base, shifted, moved_a = map(complex, re[:3], im)
        # theta_r moves by omega' t / 4 and C1 by e^{i omega' t / 4}: the
        # line reads the worse, and C1's is the one reading of the gauge
        # factor, which the oracle lines cancel
        c1, c1_shifted = map(complex, columns["re_c1"][:2].tolist(),
                             columns["im_c1"][:2].tolist())
        expected = 0.25 * p.omega_prime * t_probe
        yield ("gauge-B shift law", max(
            abs((shifted - base).real - expected) + abs((shifted - base).imag),
            abs(c1_shifted - cmath.rect(1.0, expected) * c1)), _SHIFT_LAW_TOL)
        yield ("gauge-A invariance", abs(moved_a - base), 1e-12)
    if vanished[3:].any():
        raise AmplitudeVanishedError(phases._VANISHED)

    # both limits hold at B = -1/2; the shift law moves Re phi_B(T') and the
    # targets by 2 pi (B + 1/2).  The non-adiabatic one is a distance on the
    # circle: a target at pi and a value just past -pi are close
    shift = TWO_PI * (p.gauge_b + 0.5)
    target = math.pi * math.cos(p.beta) - math.pi + shift
    slow, fast = abs(re[3] - target), phases.principal_branch(re[4])
    yield ("adiabatic limit vs pi cos(beta) - pi", slow, _LIMIT_TOL)
    yield ("extreme non-adiabatic limit mod 2 pi", abs(phases.principal_branch(
        fast - phases.principal_branch(shift))), _LIMIT_TOL)

    # phi_B(T') is real in both limits, and Im phi_B = theta_i = -ln|C1|
    # >= 0 at any t, as |C1| <= 1: the line reads the larger -Im phi_B(T')
    # of the two rows, nan if either is.  |C1| = hypot(x, d h) with x and h
    # from cos(u) and sin(u) / lambda at one rounded u (``phases._theta``),
    # and cos(u)^2 + (d/lambda)^2 sin(u)^2 <= 1 at any u, as |d| <= lambda:
    # hypot(d, k) >= |d| rounds to no double below |d|.  Allowing numpy's
    # sin and cos 4 ulp, x is off cos(u) by at most 2 eps, and d h off
    # (d/lambda) sin(u) by a factor 1 + 5 eps (sin, the division, the
    # product), so |C1|^2 <= 1 + 4 eps |cos u| + 10 eps sin(u)^2 <= 1 +
    # 10.4 eps (at |cos u| = 0.2).  hypot's rounding leaves |C1| <= 1 + 6.2
    # eps, and with the log's -Im phi_B <= 6.3 eps, under 8 eps
    yield ("Im phi_B(T') >= 0 in both limits",
           float(-np.min(columns["im_phi_b"][3:])), _REALITY_TOL)


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


#: (builder, its parser), built on main's first call: a build takes about
#: 1.2 ms, 16 parses, as each add_argument makes a HelpFormatter that reads
#: the terminal size.  Not at import, which every CLI call pays; keyed on
#: the builder, so a replaced build_parser gets a parser of its own.
_parser = (None, None)


def main(argv=None) -> int:
    global _parser
    if _parser[0] is not build_parser:
        _parser = (build_parser, build_parser())
    args = _parser[1].parse_args(argv)
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
