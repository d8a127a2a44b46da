"""One table of command-line cases, and the check of each outcome.

Every input ends one of two ways: exit 0 with every ``verify`` line PASS
and every ``evolve`` or ``sweep`` CSV cell a finite number (or blank, a
phase where |C1| vanished), or exit 2 with a named JSON error on stderr
and nothing on stdout.  A row
gives the argv, the exit code and, for exit 2, the error code and a regex
its message must match from the start (``re.match``); an exit-0 row may
name a regex for the one note line it writes to stderr.  Adding a case is
adding a row.

Tier-1 runs every row in-process (``tests/test_cli.py::test_cli_case``)
with warnings as errors.  Run as a script, this module passes every row
through the installed ``spinberry`` console script with
``PYTHONWARNINGS=error::RuntimeWarning`` and exits 1 on any problem::

    python tests/cli_cases.py
"""

from __future__ import annotations

import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from typing import NamedTuple

from spinberry.cli import _MAX_SAMPLES


class Case(NamedTuple):
    argv: str  # as a shell splits it
    exit: int
    error: str | None = None
    message: str = ""
    note: str | None = None


CASES = [
    # -- exit 2: refused by name, no row of nan and no traceback ----------
    Case("evolve --t 1 --output /nonexistent/x.csv", 2, "FileNotFoundError",
         r"\[Errno 2\] No such file or directory: '/nonexistent/x\.csv'$"),
    # lambda or 2 lambda overflows.  lambda = hypot(d, k) = inf made T'' = 0,
    # and the oracle divided by it
    Case("verify --omega 1.7e308 --cos-beta 1e-17 --gauge-b -1 "
         "--t-max-periods 0.01", 2, "ValueError",
         r"lambda = hypot\(detuning .*= inf: .*2 lambda overflows$"),
    # the detuning omega - omega' cos(beta) overflowed into a nan row
    Case("evolve --omega 1.7e308 --cos-beta -0.5 --t 1e12", 2, "ValueError",
         r"lambda = hypot\(detuning inf, .*2 lambda overflows$"),
    # lambda is finite, but phi_D's 2 lambda was not: measured=nan
    Case("verify --omega-ratio 1.7e308", 2, "ValueError",
         r"lambda = hypot\(detuning .*= 1\.7e\+308: .*2 lambda overflows$"),
    # an omega' grid is refused at its first such value, omega'/omega = 2,
    # where lambda = sqrt(7) omega
    Case("sweep --omega 4e307 --cos-beta -0.5 --variable omega_ratio "
         "--start 0.5 --stop 3 --samples 6", 2, "ValueError",
         r"lambda = hypot\(detuning .*= 1\.0583e\+308: .*2 lambda overflows$"),
    # a time that is nan or infinite
    Case("evolve --t nan", 2, "NonFiniteTimeError",
         r"time must be finite, got t = nan$"),
    Case("evolve --t inf", 2, "NonFiniteTimeError",
         r"time must be finite, got t = inf$"),
    # T' = 2 pi / omega' is infinite at omega' = 0
    Case("sweep --variable omega_ratio --start 0 --stop 1 --samples 3", 2,
         "NonFiniteTimeError", r"time must be finite, got t = inf$"),
    # a time grid in units of T'' ~ 1e301 that overflows
    Case("sweep --omega 1e-300 --omega-ratio 0.5 --variable time --start 0 "
         "--stop 1e300 --time-unit tsecond", 2, "NonFiniteTimeError",
         r"time must be finite, got t = inf$"),
    # lambda t/2 and omega' t overflow at t = 1e300: a row of nan and exit
    # 0, with RuntimeWarnings, before evaluate refused them
    Case("evolve --omega 8.9e307 --t 1e300", 2, "PhaseOverflowError",
         r"a phase overflows at t = 1\.0000000000000001e\+300: "),
    Case("sweep --variable omega_t_prime --start 0 --stop 1 --samples 3", 2,
         "ValueError", r"omega_prime must be finite, got inf$"),
    # omega = omega' cos(beta): |C1| = 0 at t = pi/lambda
    Case("evolve --omega-ratio 2 --cos-beta 0.5 --t 1.8137993642342178", 2,
         "AmplitudeVanishedError", r"\|C1\(t\)\| <= 1\.0e-12"),
    # parameters out of range, named by flag, or an omega' grid by its
    # first bad row with ModelParams' message
    Case("evolve --omega-ratio nan --t 1", 2, "ValueError",
         r"omega_prime must be finite, got nan$"),
    Case("evolve --cos-beta 2 --t 1", 2, "ValueError",
         r"--cos-beta must lie in \[-1, 1\], got 2\.0$"),
    Case("commensurate 2 1 --cos-beta -1.5", 2, "ValueError",
         r"--cos-beta must lie in \[-1, 1\], got -1\.5$"),
    Case("sweep --variable omega_ratio --start -1 --stop 1 --samples 3", 2,
         "ValueError", r"omega_prime must be >= 0, got -1\.0$"),
    # sweep ranges and the sample budget
    # a bound that is nan or infinite, named before the grid is built: a
    # linspace to inf starts with nan
    Case("sweep --variable time --start 0 --stop inf --samples 3", 2,
         "SpinberryError", r"--stop must be finite, got inf$"),
    Case("sweep --variable omega_ratio --start nan --stop 1 --samples 3", 2,
         "SpinberryError", r"--start must be finite, got nan$"),
    Case("sweep --variable time --start 2 --stop 1 --samples 10", 2,
         "SpinberryError", r"--start must be less than --stop$"),
    Case("sweep --variable omega_ratio --start 0 --stop 1 --log", 2,
         "SpinberryError", r"log scale requires --start > 0$"),
    Case("sweep --variable omega_ratio --start 0 --stop 1 --samples 3 --log",
         2, "SpinberryError", r"log scale requires --start > 0$"),
    Case(f"sweep --variable time --start 0 --stop 1 --samples "
         f"{_MAX_SAMPLES + 1}", 2, "SpinberryError",
         rf"--samples must be <= {_MAX_SAMPLES}, got {_MAX_SAMPLES + 1}"),
    Case("sweep --variable time --start 0 --stop 1 --samples 1", 2,
         "SpinberryError", r"--samples must be >= 2$"),
    # a horizon that is not > 0: a one-step fold printed PASS lines, -inf
    # overflowed math.ceil into a traceback, and nan read "nan steps"
    *(Case(f"verify --t-max={t}", 2, "ValueError", r"t_max must be > 0$")
      for t in ("0", "-1", "-inf", "nan")),
    Case("verify --t-max-periods=-5", 2, "ValueError", r"t_max must be > 0$"),
    # at a tiny omega the periods overflow, and so does the oracle's step h:
    # the budget check read "nan steps", and at 5e-324 a RuntimeWarning
    # escaped (a math domain error without PYTHONWARNINGS)
    Case("verify --omega 3e-308 --t-max-periods 1", 2, "StepBudgetError",
         r"the RK4 oracle's step h = inf is not finite at omega = 3e-308, "),
    Case("verify --omega 5e-324 --t-max 1e-300", 2, "StepBudgetError",
         r"the RK4 oracle's step h = inf is not finite at omega = "
         r"4\.94066e-324, "),
    # verify's phases that rounding cannot resolve.  B omega' t_max =
    # 1.9e13: the shift law read 5.6e-4, exit 1
    Case("verify --omega 3 --cos-beta 0 --gauge-b 1e12 --t-max-periods 3", 2,
         "PhaseRoundingError", r"--gauge-b 1e\+12 over "),
    # the shift law read 1.477e-10 against 1e-10
    Case("verify --gauge-b 1e5", 2, "PhaseRoundingError",
         r"--gauge-b 100000 over "),
    # alpha/2 + A rounds by r0 = 5.7e-8, and 2 r0 = 1.14e-7 > 1e-7
    Case("verify --gauge-a 2e9 --alpha 0.37", 2, "PhaseRoundingError",
         r"--gauge-a 2e\+09, --alpha 0\.37 over "),
    # 2 r0 = 1.14e-7 too; unrefused, the lab-frame line read 9.91e-8,
    # 2 r0 sin(beta)
    Case("verify --gauge-a 7e8 --alpha 0.37", 2, "PhaseRoundingError",
         r"--gauge-a 7e\+08, --alpha 0\.37 over "),
    # alpha/2 + A overflows, so its rounding cannot be summed exactly
    Case("verify --gauge-a=1.7e308 --alpha=1.7e308", 2, "PhaseRoundingError",
         r"--gauge-a 1\.7e\+308, --alpha 1\.7e\+308 over "),
    # the eigenstates' -2A overflows: sin and cos of inf
    Case("verify --gauge-a=1.7e308", 2, "PhaseRoundingError",
         r"--gauge-a 1\.7e\+308, --alpha 0 over "),
    Case("verify --gauge-a=-1.7e308 --omega-ratio 0.3", 2,
         "PhaseRoundingError", r"--gauge-a -1\.7e\+308, --alpha 0 over "),
    # 2 pi B = 6.3e13 in Re phi_B(T') and its target, ulp 7.8e-3: both
    # limit lines read 7.8e-3 against 1e-3, exit 1, although at omega' = 0
    # the shift law's eps |B| omega' t_max is 0
    Case("verify --omega-ratio 0 --gauge-b 1e13", 2, "PhaseRoundingError",
         r"--gauge-b 1e\+13 at omega' T' = 2 pi"),

    # -- exit 0: every verify line PASS or every cell finite, no warning --
    # B omega' t = 1e10 is formed as B (omega' t): (B omega') t would be
    # 1e310, and the row refused as a PhaseOverflowError
    Case("evolve --omega 1e300 --gauge-b 1e10 --t 1e-300", 0),
    Case("verify", 0),
    Case("verify --t-max-periods 5", 0),
    # the field on its axis both ways
    Case("verify --cos-beta 1", 0),
    Case("verify --cos-beta 1.0 --omega-ratio 0.8 --t-max-periods 5", 0),
    Case("verify --cos-beta -1 --omega-ratio 0.7", 0),
    # lambda = 0: the coefficient map is exactly I
    Case("verify --omega-ratio 1 --cos-beta 1 --t-max-periods 5", 0),
    # the Simpson sums of the records take omega h first, the lab maps are
    # summed in units of h H (in units of H, 4 omega overflowed at 8.9e307),
    # and the limit checks run at omega = 1, where Re phi_B(T') is the same
    Case("verify --omega 8.9e307", 0),
    Case("verify --omega 1e305", 0),
    Case("verify --omega 1e-305", 0),
    # a long run (1.95 M steps per frame), and runs of 19.5 M and 49.8 M
    # steps per frame, just under the step budget
    Case("verify --omega-ratio 0.05", 0),
    Case("verify --omega-ratio 0.05 --t-max-periods 100", 0),
    Case("verify --omega-ratio 0.05 --t-max-periods 255", 0),
    # the edges of the oracle's power table at verify's stride of 25 and
    # h = 2 pi / 1e4: 16 steps, under one stride, give 2 records, the last
    # off the stride and formed by its own exp; 204 785 steps give 8 193
    # records, a last block of the off-stride record alone; 477 465 steps
    # give 3 blocks, the last of 2 716 records ending off the stride
    Case("verify --t-max 0.01", 0,
         note=r"note: the horizon holds fewer than two record strides; "
              r"skipped the 'dynamical phase quadrature vs closed form' "
              r"line$"),
    Case("verify --t-max 128.67", 0),
    Case("verify --t-max 300", 0),
    # Re phi_B(T') and both limit targets move by 2 pi (B + 1/2) with B,
    # and no fold line reads B: the fold runs at B = 0
    *(Case(f"verify --omega-ratio 2.5 --cos-beta 0.9 --gauge-b {b}", 0)
      for b in ("0.1", "0", "-1", "20", "-20", "1000", "-1000")),
    # large gauges under both bounds: eps |B| omega' t_max = 9.8e-11 at B =
    # 7000, and alpha/2 + A is exact (r0 = 0) at every A here with alpha =
    # 0 and at alpha = 8.9e8 with A = 0.  No line reads the eigenstates at
    # t > 0, so neither A nor alpha reaches any other line
    Case("verify --gauge-b 5000", 0),
    Case("verify --gauge-b 7000", 0),
    Case("verify --gauge-a 1e8", 0),
    Case("verify --gauge-a 1e9", 0),
    Case("verify --gauge-a 2e9", 0),
    Case("verify --gauge-a 1e15", 0),
    Case("verify --omega-ratio 0 --gauge-b 1e11", 0),
    # that constant across a fast field
    Case("verify --gauge-a 1e9 --omega-ratio 3 --cos-beta 0", 0),
    Case("verify --alpha 8.9e8 --omega-ratio 0.2", 0),
    # alpha, A and B all off their defaults: the gauge and limit grid's
    # distinct A and B rows at alpha != 0, where e_up* e_down is not
    # exactly 1, and the same over 100 periods (40 001 records in 5 blocks
    # of the closed form, on one record grid shared with both frames)
    Case("verify --alpha 1 --gauge-a 0.3 --gauge-b 0.7", 0),
    Case("verify --alpha 1 --gauge-a 0.3 --gauge-b 0.7 --t-max-periods 100",
         0),
    # the gauge probe 0.37 t_max falls where |C1| vanishes: the gauge lines
    # are skipped with a note
    Case("verify --omega-ratio 4 --cos-beta 0.25 --t-max 2.1923127978235737",
         0, note=r"note: \|C1\| vanishes at the gauge probe .* skipped the "
                 r"'gauge-B shift law' and 'gauge-A invariance' lines$"),
]


def _finite_or_blank(cell: str) -> bool:
    try:
        return not cell or math.isfinite(float(cell))
    except ValueError:
        return False


def check(case: Case, code: int, out: str, err: str) -> list[str]:
    """What in one run's (exit code, stdout, stderr) breaks its row."""
    if code != case.exit:
        return [f"exit {code}, expected {case.exit}: {err.strip()[-500:]}"]
    problems = []
    if case.exit == 2:
        if out:
            problems.append(f"stdout not empty: {out[:200]!r}")
        try:
            error = json.loads(err)["error"]
            name, message = error["code"], error["message"]
        except (ValueError, KeyError, TypeError):
            return problems + [f"stderr is not one JSON error: {err[-500:]!r}"]
        if name != case.error:
            problems.append(f"error {name}, expected {case.error}")
        if not re.match(case.message, message):
            problems.append(f"message {message!r} does not match "
                            f"{case.message!r}")
        return problems
    lines = out.splitlines()
    if case.argv.startswith("verify"):
        if not lines or not lines[-1].startswith("OK: "):
            problems.append("no closing OK line")
        problems += [f"not PASS: {line}" for line in lines[:-1]
                     if not line.startswith("PASS  ")]
    else:
        width = len(lines[0].split(",")) if lines else 0
        problems += [f"not a row of {width} finite cells: {line}"
                     for line in lines[1:] or ["(no row)"]
                     if len(cells := line.split(",")) != width
                     or not all(map(_finite_or_blank, cells))]
    notes = err.splitlines()
    if len(notes) != (case.note is not None) or (
            notes and not re.match(case.note, notes[0])):
        problems.append(f"stderr {err[-500:]!r}, expected "
                        f"{'nothing' if case.note is None else case.note!r}")
    return problems


def main() -> int:
    script = shutil.which("spinberry")
    if script is None:
        sys.exit("no spinberry console script on PATH: pip install -e .")
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    failed = 0
    for case in CASES:
        run = subprocess.run([script, *shlex.split(case.argv)], env=env,
                             capture_output=True, text=True)
        problems = check(case, run.returncode, run.stdout, run.stderr)
        for problem in problems:
            print(f"spinberry {case.argv}: {problem}")
        failed += bool(problems)
    print(f"{len(CASES) - failed} of {len(CASES)} CLI cases as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
