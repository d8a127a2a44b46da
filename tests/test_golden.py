"""The sweep output contract, pinned by golden files in tests/golden.

Each file is what ``spinberry <argv> --format <fmt>`` writes; the warning
line on standard error is in ``<name>.stderr``.  The layout (header, keys,
separators, blank cells and nulls) must match byte for byte.  Numbers must
match to 4 eps max(|x|, 1): numpy's array sin, cos and exp may round an ulp
apart from one machine to the next.  Regenerate a file with
``spinberry <argv> --format <fmt> --output tests/golden/<name>.<fmt>``.
"""

import contextlib
import io
import json
import math
import pathlib
import re
import sys

import pytest

from spinberry.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
EPS = sys.float_info.epsilon
PARAMS = ("--omega", "1.3", "--alpha", "0.7", "--gauge-a", "0.4",
          "--gauge-b", "-0.3")
CASES = {
    # omega'/omega = 2, cos(beta) = 1/2: |C1| = 0 at odd multiples of T''/2
    "time_vanishing": ("sweep", "--variable", "time", "--start", "0",
                       "--stop", "10", "--samples", "21",
                       "--omega-ratio", "2", "--cos-beta", "0.5"),
    "omega_ratio_log": ("sweep", "--variable", "omega_ratio",
                        "--start", "0.05", "--stop", "20", "--samples", "21",
                        "--log", "--cos-beta", "-0.3") + PARAMS,
    "omega_t_prime": ("sweep", "--variable", "omega_t_prime", "--start",
                      "0.5", "--stop", "60", "--samples", "21",
                      "--cos-beta", "0.2") + PARAMS,
}
#: a number in a CSV cell or after a JSON key, in either format's spelling
NUMBER = re.compile(r"(?:(?<=^)|(?<=[,\n])|(?<=: ))"
                    r"(?:-?[0-9][0-9.eE+-]*|NaN|-?Infinity|-?inf|nan)"
                    r"(?=$|[,\n])", re.M)


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= 4 * EPS * max(abs(a), abs(b), 1.0)


def _same_structure(got, want) -> bool:
    """Equal JSON documents, floats to 4 eps max(|x|, 1)."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and list(got) == list(want)
                and all(_same_structure(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(_same_structure, got, want)))
    if isinstance(want, float):
        return isinstance(got, float) and _close(got, want)
    return type(got) is type(want) and got == want


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_matches_golden(name, fmt):
    code, out, err = _run(CASES[name] + ("--format", fmt))
    golden = (GOLDEN / f"{name}.{fmt}").read_text()
    assert code == 0
    assert err == (GOLDEN / f"{name}.stderr").read_text()
    assert NUMBER.sub("#", out) == NUMBER.sub("#", golden)
    got, want = NUMBER.findall(out), NUMBER.findall(golden)
    assert len(got) == len(want) > 21
    bad = [(a, b) for a, b in zip(got, want) if not _close(float(a), float(b))]
    assert bad == []
    if fmt == "json":
        assert _same_structure(json.loads(out), json.loads(golden))


def test_golden_vanished_rows_are_blank():
    lines = (GOLDEN / "time_vanishing.csv").read_text().splitlines()
    blank = [line for line in lines[1:] if ",,," in line]
    assert len(blank) == 10
    for line in blank:
        cells = line.split(",")
        assert [c == "" for c in cells[7:]] == [
            True, True, False, True, True]  # theta_r, theta_i, phi_d, phi_b
        time = float(cells[0])
        assert math.isclose(time % 1.0, 0.5)
