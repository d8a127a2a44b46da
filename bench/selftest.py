"""Self-test of the benchmark's checkers: each must pass spinberry's real
output and reject a deliberately corrupted copy of it.

    python3 bench/selftest.py

Exits 0 when every checker behaves, 1 otherwise.  Takes about a second.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import shutil
import sys

import numpy as np

import reference as ref
import run

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def _flip_im_c2(text):
    """Negate im_c2 in the first row where it is not zero."""
    lines = text.split("\n")
    column = lines[0].split(",").index("im_c2")
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[column] and float(cells[column]) != 0.0:
            cells[column] = repr(-float(cells[column]))
            lines[k] = ",".join(cells)
            return "\n".join(lines)
    raise AssertionError("no nonzero im_c2")


def _drop_row(text):
    lines = text.split("\n")
    return "\n".join(lines[:100] + lines[101:])


@case
def sweep(spinberry, workdir):
    path = os.path.join(workdir, "sweep.csv")
    point = {"omega": 1.3, "omega_ratio": 2.0, "cos_beta": 0.5,
             "gauge_b": -0.3}
    grid = np.linspace(0.0, 4.0, 401)
    argv = ["sweep", "--variable", "time", "--start", "0", "--stop", "4",
            "--samples", "401", "--time-unit", "tsecond", "--output", path] \
        + [f"--{k.replace('_', '-')}={v!r}" for k, v in point.items()]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        assert spinberry.cli.main(argv) == 0
    with open(path) as handle:
        text = handle.read()
    spec = dict(point, variable="time", grid=grid)

    def problems(corrupt):
        cols = ref.parse_csv(corrupt(text))
        return ref.check_sweep(spec, cols, stderr.getvalue())[0]

    return {"clean": problems(lambda x: x),
            "im_c2 sign flipped": problems(_flip_im_c2),
            "row dropped": problems(_drop_row)}


@case
def verify(spinberry, workdir):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = spinberry.cli.main(["verify", "--t-max", "6.0"])
    text = stdout.getvalue()
    return {"clean": ref.check_verify(code, text),
            "FAIL line": ref.check_verify(code, text.replace("PASS", "FAIL", 1))}


@case
def commensurate(spinberry, workdir):
    cyclicity = spinberry.cyclicity
    n, m, beta = 3, 2, math.acos(0.5)
    roots = cyclicity.solve_commensurate(n, m, beta)
    shifted = [dataclasses.replace(r, omega_t_prime=r.omega_t_prime + 1e-6)
               for r in roots]

    def problems(sols):
        residuals = [cyclicity.commensurate_residual(s, beta) for s in sols]
        return ref.check_commensurate(sols, residuals, n, m, beta)

    return {"clean": problems(roots), "root shifted by 1e-6": problems(shifted)}


@case
def kernel(spinberry, workdir):
    p = spinberry.ModelParams.from_dimensionless(0.7, 0.2, gauge_b=0.1)
    t = np.linspace(0.0, 50.0, 10_001)
    c1, c2 = spinberry.evolution.amplitude_components(p, t)
    return {"clean": ref.check_kernel("amplitude_components", (c1, c2), p, t),
            "im_c2 sign flipped": ref.check_kernel(
                "amplitude_components", (c1, np.conj(c2)), p, t)}


def main():
    spinberry = run.import_spinberry()
    workdir = run.OUT / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    bad = 0
    try:
        for fn in CASES:
            for name, problems in fn(spinberry, str(workdir)).items():
                ok = not problems if name == "clean" else bool(problems)
                bad += not ok
                verdict = "passed" if not problems else "rejected"
                print(f"{'ok ' if ok else 'BAD'}  {fn.__name__}, {name}: "
                      f"{verdict}  {'; '.join(problems)[:120]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
