"""A fuzz gate over the whole command line.

Hypothesis draws well-formed argv for ``evolve``, ``sweep``, ``verify`` and
``commensurate``, each float flag across the finite range (+-0, subnormals,
1e+-300, 1.7e308) and each cycle count up to 2^1153, past what a float holds,
runs each in-process with warnings as errors (``cli_cases.run``) and holds it
to ``cli_cases.outcome``, the contract every row of ``tests/cli_cases.py``
meets.  An input found here is mended in the program and joins that table.
"""

from __future__ import annotations

import os
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from spinberry import oracle
from spinberry.cli import _MAX_SAMPLES

from cli_cases import outcome, run

EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
         -1e-300, 1e300, -1e300, 1.7e308, -1.7e308, 0.5, -0.5, 1.0, 2.0)
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats(-10.0, 10.0),
                   st.floats(allow_nan=False, allow_infinity=False))
#: an example draws every float flag from one of these: tame values reach
#: exit 0 often, as one wild flag of several is refused
TAME = st.floats(0.05, 10.0)
#: cycle counts of any size to 2^1153, either side of where (n/m)^2,
#: 16 pi n, 2 pi m and a count itself overflow a float, and either side of
#: the largest n whose cyclicity bound 16 n pi eps is under 1
COUNTS = st.one_of(st.builds(int.__lshift__, st.integers(1, 2**53),
                             st.integers(0, 1100)),
                   st.sampled_from((2**511, 2**513, 2**1017, 2**1019,
                                    2**1023, 2**1025, 10**400,
                                    89_596_267_800_354, 89_596_267_800_355)))
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
        count = st.one_of(st.integers(-3, 12), st.integers(), COUNTS)
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


def test_every_argv_ends_one_of_two_ways():
    with tempfile.TemporaryDirectory() as out_dir:
        @settings(derandomize=True, max_examples=250, deadline=None,
                  database=None)
        @given(argvs(out_dir))
        def fuzz(argv):
            assert outcome(argv, *run(argv)) == [], argv

        with mock.patch.object(oracle, "_STEP_BUDGET", STEP_BUDGET):
            fuzz()
