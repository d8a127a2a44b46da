"""A fuzz gate over the whole command line.

Hypothesis draws well-formed argv for ``evolve``, ``sweep``, ``verify`` and
``commensurate``, each float flag across the finite range (+-0, subnormals,
1e+-300, 1.7e308), and runs ``cli.main`` in-process with RuntimeWarnings as
errors.  Each run ends one of two ways: exit 0 with every CSV or JSON cell
finite, or a blank phase cell where |C1| vanished, and for ``verify`` every
line PASS; or exit 2 with nothing on stdout and one JSON error naming a
``SpinberryError``, a ``ValueError`` or an ``OSError``.  An input found here
is mended in the program and joins ``tests/cli_cases.py``.
"""

from __future__ import annotations

import builtins
import contextlib
import io
import json
import os
import tempfile
import warnings
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from spinberry import errors, oracle
from spinberry.cli import _MAX_SAMPLES, main
from spinberry.phases import PHASE_COLUMNS

from cli_cases import _finite_or_blank

EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
         -1e-300, 1e300, -1e300, 1.7e308, -1.7e308, 0.5, -0.5, 1.0, 2.0)
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats(-10.0, 10.0),
                   st.floats(allow_nan=False, allow_infinity=False))
#: an example draws every float flag from one of these: tame values reach
#: exit 0 often, as one wild flag of several is refused
TAME = st.floats(0.05, 10.0)
PARAMS = ("--omega", "--omega-ratio", "--alpha", "--gauge-a", "--gauge-b")
#: verify's steps per frame here: a longer horizon is refused by name
#: (StepBudgetError) before any record is formed, so an example folds at
#: most 10 001 records, a few ms; 10 periods at omega'/omega = 1 fit
STEP_BUDGET = 250_000


def _flags(draw, names, values=FLOATS):
    """--name=value for a drawn subset of names: the = keeps a value that
    starts with - a value."""
    return [f"{name}={draw(values)!r}" for name in names
            if draw(st.booleans())]


def _pick(draw, flag, choices):
    return f"{flag}={draw(st.sampled_from(choices))}"


@st.composite
def argvs(draw, out_dir):
    command = draw(st.sampled_from(("evolve", "sweep", "verify",
                                    "commensurate")))
    values = draw(st.sampled_from((TAME, FLOATS)))
    cos_beta = _flags(draw, ("--cos-beta",), st.one_of(
        st.floats(-1.0, 1.0), values))
    if command == "commensurate":
        count = st.one_of(st.integers(-3, 12), st.integers())
        return [command, str(draw(count)), str(draw(count))] + cos_beta
    argv = [command] + _flags(draw, PARAMS, values) + cos_beta
    if command == "verify":
        return argv + _flags(draw, ("--t-max", "--t-max-periods"), values)
    if command == "evolve":
        when = draw(st.sampled_from(("--t", "--t-over-tprime",
                                     "--t-over-tsecond")))
        argv.append(f"{when}={draw(values)!r}")
    else:
        start = draw(values)  # and a stop past it, which may overflow
        argv += [_pick(draw, "--variable",
                       ("time", "omega_ratio", "omega_t_prime")),
                 f"--start={start!r}", f"--stop={start + abs(draw(values))!r}",
                 _pick(draw, "--samples",
                       (2, 3, 5, 17, 64, 100, 0, 1, _MAX_SAMPLES + 1)),
                 _pick(draw, "--time-unit", ("t", "tprime", "tsecond"))]
        argv += ["--log"] if draw(st.booleans()) else []
    argv.append(_pick(draw, "--format", ("csv", "json")))
    target = draw(st.sampled_from((None, "out", "missing/out")))
    return argv + ([f"--output={os.path.join(out_dir, target)}"]
                   if target else [])


def _named(code: str) -> bool:
    """Whether an error code names a SpinberryError, ValueError or OSError."""
    kind = getattr(errors, code, None) or getattr(builtins, code, None)
    return isinstance(kind, type) and issubclass(
        kind, (errors.SpinberryError, ValueError, OSError))


def _cell_ok(name, value):
    """A finite number, or a blank (None in JSON) phase cell."""
    blank = value is None or value == ""
    return _finite_or_blank(value) and (not blank or name in PHASE_COLUMNS)


def _rows(argv, text):
    """The written table as a list of {name: cell}."""
    if "--format=json" in argv:
        def refuse(token):
            raise ValueError(f"{token} in the JSON")
        return json.loads(text, parse_constant=refuse)["rows"]
    header, *lines = text.splitlines()
    names = header.split(",")
    return [dict(zip(names, line.split(","), strict=True)) for line in lines]


def _problems(argv, code, out, err, written):
    """What in one run's outcome is neither of the two ways."""
    if code == 2:
        error = json.loads(err)["error"]
        return ([f"stdout {out[:200]!r}"] if out else []) + (
            [] if _named(error["code"]) else [f"error {error}"])
    if code != 0:
        return [f"exit {code}: {err[-500:]!r}"]
    if argv[0] == "verify":
        *lines, last = out.splitlines()
        return [line for line in lines if not line.startswith("PASS  ")] + (
            [] if last.startswith("OK: ") else [last])
    if argv[0] == "commensurate":
        return [] if isinstance(json.loads(out), list) else [out]
    rows = _rows(argv, out if written is None else written)
    return [row for row in rows if not all(
        _cell_ok(name, value) for name, value in row.items())] + (
        [] if rows else ["no row"])


def test_every_argv_ends_one_of_two_ways():
    with tempfile.TemporaryDirectory() as out_dir:
        @settings(derandomize=True, max_examples=250, deadline=None,
                  database=None)
        @given(argvs(out_dir))
        def run(argv):
            target = next((arg.split("=", 1)[1] for arg in argv
                           if arg.startswith("--output=")), None)
            if target and os.path.exists(target):
                os.remove(target)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv)
            written = None
            if code == 0 and target:
                with open(target) as handle:
                    written = handle.read()
            assert _problems(argv, code, out.getvalue(), err.getvalue(),
                             written) == [], argv

        with mock.patch.object(oracle, "_STEP_BUDGET", STEP_BUDGET):
            run()
