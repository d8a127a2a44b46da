import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from spinberry import cli, evolution, model, oracle, phases
from spinberry.cli import _BLOCK, _verify_checks, main
from spinberry.errors import PhaseRoundingError, StepBudgetError
from spinberry.model import ModelParams, derived_scales
from spinberry.oracle import integrate_coefficients
from spinberry.phases import COLUMNS, PHASE_COLUMNS, evaluate

from cli_cases import CASES, Case, check
from conftest import assert_threaded_peak, random_params, traced_peak


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", CASES, ids=[case.argv for case in CASES])
def test_cli_case(capsys, case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(shlex.split(case.argv))
    assert check(case, code, *capsys.readouterr()) == []


_REFUSED = Case("evolve --t nan", 2, "NonFiniteTimeError",
                r"time must be finite")
_PASSED, _NOTED = Case("verify", 0), Case("verify", 0, note="note: ")
_ERROR = json.dumps({"error": {"code": "NonFiniteTimeError",
                               "message": "time must be finite, got t = nan"}})
_VERIFIED = "PASS  a: measured=0\nOK: 0 of the checks exceeded tolerance\n"
_TRACEBACK = "Traceback (most recent call last):\n  ...\nRuntimeWarning: x\n"
_EVOLVED, _ROW = Case("evolve --t 1", 0), "t,theta_i\n1,0.5\n"


@pytest.mark.parametrize("case, code, out, err", [
    (_REFUSED, 2, "", _ERROR), (_PASSED, 0, _VERIFIED, ""),
    (_EVOLVED, 0, _ROW, ""), (_EVOLVED, 0, _ROW.replace("0.5", ""), "")])
def test_check_passes_a_run_as_expected(case, code, out, err):
    assert check(case, code, out, err) == []


@pytest.mark.parametrize("case, code, out, err", [
    (_REFUSED, 0, "", _ERROR),
    (_PASSED, 1, _VERIFIED, ""),
    (_REFUSED, 2, "", _ERROR.replace("NonFinite", "UndefinedPeriod")),
    (_REFUSED, 2, "", _ERROR.replace("time must", "times must")),
    (_REFUSED, 2, "time\n", _ERROR),
    (_PASSED, 0, _VERIFIED.replace("PASS", "FAIL"), ""),
    (_PASSED, 0, _VERIFIED.split("OK")[0], ""),
    (_PASSED, 0, _VERIFIED, "warning: 1 of 3 rows\n"),
    (_NOTED, 0, _VERIFIED, "note: a\nnote: b\n"),
    (_NOTED, 0, _VERIFIED, ""),
    (_REFUSED, 2, "", _TRACEBACK),
    (_PASSED, 0, _VERIFIED, _TRACEBACK),
    (_EVOLVED, 0, _ROW.replace("0.5", "nan"), ""),
    (_EVOLVED, 0, _ROW.replace("0.5", "-inf"), ""),
    (_EVOLVED, 0, _ROW.replace("0.5", "x"), ""),
    (_EVOLVED, 0, _ROW.replace("0.5", "0.5,2"), ""),
    (_EVOLVED, 0, "t,theta_i\n", ""),
    (_EVOLVED, 0, _ROW, "warning: 1 of 3 rows\n"),
], ids=["refusal_exit_0", "pass_exit_1", "error_code", "message", "stdout",
        "fail_line", "no_ok_line", "stray_stderr", "two_notes",
        "missing_note", "traceback_on_refusal", "traceback_on_pass",
        "nan_cell", "infinite_cell", "text_cell", "long_row", "no_row",
        "stray_stderr_on_a_row"])
def test_check_finds_each_fault(case, code, out, err):
    assert check(case, code, out, err)


class TestEvolve:
    def test_full_period_record(self, capsys):
        code, out, err = run_cli(
            capsys, "evolve", "--omega-ratio", "1", "--cos-beta", "0.5",
            "--t-over-tprime", "1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        row = {k: float(v) for k, v in rows[0].items()}
        assert row["p1"] == pytest.approx(1.0, abs=1e-12)
        assert row["im_phi_b"] == pytest.approx(0.0, abs=1e-12)
        assert row["re_phi_b"] == pytest.approx(-7.0 * math.pi / 4.0, abs=1e-12)

    def test_time_zero_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", "--omega-ratio", "1", "--cos-beta", "0.5",
            "--t-over-tprime", "0")
        assert code == 0
        row = {k: float(v) for k, v in
               next(csv.DictReader(io.StringIO(out))).items()}
        assert row["p1"] == pytest.approx(1.0, abs=1e-15)
        for name in ("theta_r", "theta_i", "phi_d", "re_phi_b", "im_phi_b"):
            assert row[name] == 0.0

    def test_adiabatic_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", "--omega-ratio", "1e-4", "--cos-beta", "0.5",
            "--t-over-tprime", "1")
        assert code == 0
        row = {k: float(v) for k, v in
               next(csv.DictReader(io.StringIO(out))).items()}
        assert row["re_phi_b"] == pytest.approx(-math.pi / 2.0, abs=1e-3)

    def test_header_matches_contract(self, capsys):
        _, out, _ = run_cli(capsys, "evolve", "--t", "1.0")
        assert out.splitlines()[0] == ",".join(COLUMNS)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", "--t-over-tprime", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"params", "spec", "rows"}
        assert payload["params"]["gauge_b"] == -0.5
        assert list(payload["rows"][0]) == list(COLUMNS)

    @pytest.mark.parametrize("omega", ["1e160", "1e-200"])
    def test_omega_scale_invariance(self, capsys, omega):
        # every column but t is dimensionless; S/lam^2 once overflowed at
        # 1e160 and underflowed to a wrong phi_d at 1e-200
        rows = []
        for scale in ("1", omega):
            code, out, _ = run_cli(
                capsys, "evolve", "--omega", scale, "--omega-ratio", "1",
                "--t-over-tsecond", "0.3")
            assert code == 0
            rows.append(next(csv.DictReader(io.StringIO(out))))
        for name in COLUMNS[1:]:
            want, got = float(rows[0][name]), float(rows[1][name])
            assert abs(got - want) <= 4.0 * sys.float_info.epsilon \
                * max(abs(want), 1.0), name

    def test_determinism(self, capsys):
        argv = ("evolve", "--omega-ratio", "0.7", "--cos-beta", "0.2",
                "--t-over-tsecond", "2.3")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestSweep:
    def test_omega_ratio_sweep_touches_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--variable", "omega_ratio", "--start", "0.01",
            "--stop", "10", "--samples", "400", "--log", "--cos-beta", "0.5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 400
        p1 = [float(r["p1"]) for r in rows]
        # both tails approach 1, with O((omega'/omega)^2) and O((omega/omega')^2)
        # residuals at the finite axis ends
        assert p1[0] == pytest.approx(1.0, abs=1e-3)
        assert p1[-1] == pytest.approx(1.0, abs=2e-2)
        assert max(p1) <= 1.0 + 1e-12
        # Im phi_B vanishes wherever the state is cyclic at T'
        for r in rows:
            if abs(float(r["p1"]) - 1.0) <= 1e-12 and r["im_phi_b"]:
                assert abs(float(r["im_phi_b"])) <= 1e-9

    def test_time_sweep_continuity_and_reality_at_periods(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--variable", "time", "--start", "0",
            "--stop", "3", "--samples", "3001", "--time-unit", "tsecond",
            "--omega-ratio", "1", "--cos-beta", "0.5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        theta = [float(r["theta_r"]) for r in rows]
        jumps = [abs(b - a) for a, b in zip(theta, theta[1:])]
        assert max(jumps) < math.pi / 2.0
        assert float(rows[0]["re_phi_b"]) == 0.0
        for r in rows:
            if float(r["time"]) in (1.0, 2.0, 3.0):
                assert abs(float(r["im_phi_b"])) <= 1e-10

    def test_vanished_rows_kept_with_empty_phases(self, capsys):
        # omega = omega' cos(beta): |C1| = 0 halfway through the state cycle
        code, out, err = run_cli(
            capsys, "sweep", "--variable", "time", "--start", "0",
            "--stop", "1", "--samples", "101", "--time-unit", "tsecond",
            "--omega-ratio", "2", "--cos-beta", "0.5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 101  # grid stays rectangular
        blank = [r for r in rows if r["theta_r"] == ""]
        assert blank
        for row in blank:
            assert row["im_phi_b"] == ""
            assert row["re_c1"] != ""  # amplitudes themselves stay defined
        assert "warning" in err

    def test_csv_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--variable", "omega_ratio", "--start", "0.5",
            "--stop", "2.0", "--samples", "7")
        rows = list(csv.DictReader(io.StringIO(out)))
        header = out.splitlines()[0].split(",")
        rebuilt = [",".join(header)]
        for row in rows:
            rebuilt.append(",".join(row[name] for name in header))
        assert "\n".join(rebuilt) + "\n" == out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--variable", "omega_ratio", "--start", "0.5",
            "--stop", "1.5", "--samples", "5", "--output", str(target))
        assert code == 0
        assert out == ""
        content = target.read_text()
        assert content.splitlines()[0].startswith("omega_ratio,")
        assert len(content.splitlines()) == 6


class TestCommensurate:
    def test_single_solution(self, capsys):
        code, out, _ = run_cli(capsys, "commensurate", "1", "1",
                               "--cos-beta", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 1
        assert payload[0]["branch"] == "plus"
        assert payload[0]["omega_t_prime"] == pytest.approx(2.0 * math.pi)
        assert payload[0]["residual_c2"] <= 1e-10

    def test_known_second_maximum(self, capsys):
        code, out, _ = run_cli(capsys, "commensurate", "2", "1",
                               "--cos-beta", "0.5")
        payload = json.loads(out)
        assert payload[0]["omega_t_prime"] == pytest.approx(14.468766, abs=1e-5)

    def test_no_solution_empty_list(self, capsys):
        # no real root (cos(beta) = 0), and real roots none positive (-1)
        for cos_beta in ("0.0", "-1"):
            code, out, err = run_cli(capsys, "commensurate", "1", "2",
                                     "--cos-beta", cos_beta)
            assert code == 0
            assert json.loads(out) == []
            assert "note" in err

    def test_large_cycle_counts(self, capsys):
        code, out, _ = run_cli(capsys, "commensurate", "10000001", "10000000")
        assert code == 0
        assert json.loads(out)[0]["branch"] == "plus"

    def test_negative_omega_ratio_sweep_names_its_row(self, capsys):
        # the grid refuses its first bad row with ModelParams' message
        code, out, err = run_cli(
            capsys, "sweep", "--variable", "omega_ratio", "--start", "-1",
            "--stop", "1", "--samples", "3")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == {
            "code": "ValueError", "message": "omega_prime must be >= 0, got -1.0"}


class TestInvalidParameters:
    def test_negative_omega_ratio_sweep_names_its_row(self, capsys):
        # the grid refuses its first bad row with ModelParams' message
        code, out, err = run_cli(
            capsys, "sweep", "--variable", "omega_ratio", "--start", "-1",
            "--stop", "1", "--samples", "3")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == {
            "code": "ValueError", "message": "omega_prime must be >= 0, got -1.0"}


class TestUndefinedPeriods:
    """A time unit whose period is undefined is the same named error in
    evolve and in a time sweep."""

    @pytest.mark.parametrize("params, unit, code", [
        (("--omega-ratio", "0"), "tprime", "UndefinedPeriodError"),
        (("--omega-ratio", "1", "--cos-beta", "1"), "tsecond",
         "DegenerateLambdaError"),
        # lambda = 2e-308 > 0, but 2 pi / lambda overflows
        (("--omega", "5e-308", "--omega-ratio", "0.6", "--cos-beta", "1"),
         "tsecond", "DegenerateLambdaError"),
    ])
    def test_evolve_and_sweep_agree(self, capsys, params, unit, code):
        evolve = run_cli(capsys, "evolve", *params, f"--t-over-{unit}", "1")
        sweep = run_cli(capsys, "sweep", "--variable", "time", "--start", "0",
                        "--stop", "1", "--samples", "3", "--time-unit", unit,
                        *params)
        for exit_code, out, err in (evolve, sweep):
            assert exit_code == 2
            assert out == ""
            assert json.loads(err)["error"]["code"] == code
        assert evolve[2] == sweep[2]


def test_cli_import_adds_no_third_party_package_but_numpy():
    # no dependency is kept for a single function: scipy, imported for one
    # integrator, once took most of a CLI call's start-up
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import spinberry.cli\n"
             "added = {name.partition('.')[0] for name in sys.modules}\n"
             "added -= {name.partition('.')[0] for name in before}\n"
             "print(*sorted(added - sys.stdlib_module_names))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["numpy", "spinberry"]


def _readme_verify_lines():
    """The line names of README's table of verify's lines."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as handle:
        text = handle.read()
    rows = text[text.index("| Line | Checks |"):].split("\n\n")[0]
    return [re.match(r"\| `([^`]+)` \|", row).group(1)
            for row in rows.splitlines()[2:]]


class TestVerify:
    @pytest.mark.parametrize("argv, skipped", [
        ((), set()),
        (("--t-max-periods", "1e-3"),
         {"dynamical phase quadrature vs closed form"})])
    def test_line_names_are_the_readme_table(self, capsys, argv, skipped):
        # the table names each line verify yields, once: a default run
        # yields all ten, a horizon without a Simpson panel all but that one
        table = _readme_verify_lines()
        code, out, _ = run_cli(capsys, "verify", *argv)
        names = re.findall(r"^PASS  (.*): measured=", out, re.M)
        assert code == 0 and len(table) == len(set(table)) == 10
        assert len(names) == len(set(names))
        assert set(names) == set(table) - skipped

    @pytest.mark.parametrize("gauge_b, t_max, error, message", [
        (-0.5, 1e300, StepBudgetError, "the RK4 oracle would need .* steps"),
        (-0.5, 0.0, ValueError, "t_max must be > 0$"),
        (1e12, 62.8, PhaseRoundingError, r"--gauge-b 1e\+12 over t_max")],
        ids=["step-budget", "horizon", "phase-rounding"])
    def test_checks_refuse_before_their_first_line(
            self, monkeypatch, capsys, gauge_b, t_max, error, message):
        # verify's inputs are admitted in _verify_checks alone, before the
        # fold runs: the step and its budget, then the phase rounding
        def fold(*args):
            raise AssertionError("a refused input reached the fold")
        monkeypatch.setattr(oracle, "fold", fold)
        p = ModelParams.from_dimensionless(1.0, 0.5, gauge_b=gauge_b)
        with pytest.raises(error, match=message):
            next(_verify_checks(p, t_max))
        assert capsys.readouterr() == ("", "")

    def test_evolve_and_sweep_take_large_gauges(self, capsys):
        # the refusal is verify's: the closed form at the rounded phases is
        # still what evolve and sweep print
        for rows, argv in (
                (1, ("evolve", "--gauge-b", "1e12", "--gauge-a", "1e9", "--t",
                     "1")),
                (4, ("sweep", "--gauge-b", "1e12", "--alpha", "1e10",
                     "--variable", "time", "--start", "0", "--stop", "3",
                     "--samples", "4"))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and err == ""
            assert len(out.splitlines()) == 1 + rows

    def test_step_budget_refuses_at_once(self, capsys):
        # lambda ~ 1e-7: ten state periods need ~1e12 steps of T'/1e4
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--omega-ratio",
                                 "1.0000001", "--cos-beta", "1")
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "StepBudgetError"
        steps = float(re.search(r"need (\S+) steps", error["message"]).group(1))
        assert 0.9e12 <= steps <= 1.1e12

    def test_norm_drift_bound_at_a_hundred_periods(self):
        # verify --omega-ratio 0.05 --t-max-periods 100: 19.5 M RK4 steps.
        # Record k is Q^k y0 = r^k (cos k theta I + sin k theta J) y0 with
        # J^H J = I, so its norm^2 is (r^2)^k, r^2 - 1 from the map's
        # unrounded (a, q), plus the roundings of that record alone: r^k
        # e^{i k theta}, the two products and sum of each component, the
        # gauge factor's norm and the norm's squares and sum, 8 eps in all
        p = ModelParams.from_dimensionless(0.05, 0.5)
        t_max = 100.0 * derived_scales(p).longest_period
        drift = integrate_coefficients(p, t_max).norm_drift()
        h, n_steps = oracle.steps(p, t_max)
        a, q = oracle._coefficient_step_map(p, h)
        r2_less_1 = a.real * (2.0 + a.real) + a.imag ** 2 + abs(q) ** 2
        power = abs(math.expm1(n_steps * math.log1p(r2_less_1)))
        assert drift <= power + 8.0 * sys.float_info.epsilon
        lines, _ = oracle.fold(p, h, n_steps)
        assert drift <= {name: tol for name, _, tol in lines}[
            "oracle norm drift"]

    def test_quadrature_resolved_at_forty_short_periods(self, capsys):
        rng = np.random.default_rng(7)
        for _ in range(4):
            p = random_params(rng)
            scales = derived_scales(p)
            t_max = 40.0 * min(scales.hamiltonian_period, scales.state_period)
            checks = {name: (measured, tol) for name, measured, tol
                      in _verify_checks(p, t_max)}
            measured, tol = checks["dynamical phase quadrature vs closed form"]
            assert measured <= tol

    def test_fold_lines_do_not_read_gauge_b(self):
        # each oracle line is a modulus, or a difference of two records
        # with the same gauge factor e^{i B omega' t}, so the fold runs at
        # B = 0 and reads the same bits at any B (the factor's rounding
        # moved their last digits)
        fold = ("closed form vs coefficient RK4",
                "closed form vs lab-frame RK4", "oracle norm drift",
                "closed-form normalization",
                "dynamical phase quadrature vs closed form")

        def lines(gauge_b):
            p = ModelParams.from_dimensionless(
                0.7, -0.3, alpha=1.1, gauge_a=0.4, gauge_b=gauge_b)
            t_max = 10.0 * derived_scales(p).longest_period
            return {name: measured for name, measured, _
                    in _verify_checks(p, t_max) if name in fold}
        assert len(lines(-0.5)) == len(fold)
        assert lines(-0.5) == lines(0.7)

    def test_shift_law_catches_a_flipped_gauge_factor(self, monkeypatch,
                                                      capsys):
        # the oracle lines cancel the gauge factor, so the shift law's C1
        # term, C1(B + 1/4) = e^{i omega' t / 4} C1(B), is the one reading
        # of it: e^{-i B omega' t} in every module passed verify without it
        def flipped(p, t):
            return model.unit_phasor(-p.gauge_b * p.omega_prime * t)
        for module in (model, evolution, phases, oracle):
            monkeypatch.setattr(module, "gauge_factor", flipped)
        for argv in ((), ("--alpha", "1", "--gauge-a", "0.3",
                          "--gauge-b", "0.7")):
            code, out, _ = run_cli(capsys, "verify", *argv)
            assert code == 1
            assert re.findall("^FAIL  (.*):", out, re.M) == [
                "gauge-B shift law"]

    def test_quadrature_does_not_read_gauge_b(self):
        # B omega' t reaches 1.9e13, whose rounding (ulp 3.9e-3) rode on the
        # lab state and failed this line at 3.8e-6; the line reads the lab
        # records' |C1|^2 - |C2|^2, which drops their gauge factor
        # verify refuses this B (eps |B| omega' t_max fails the shift law),
        # so the fold is called directly
        p = ModelParams.from_dimensionless(1.0, 0.0, omega=3.0, gauge_b=1e12)
        t_max = 3.0 * derived_scales(p).longest_period
        lines, _ = oracle.fold(p, *oracle.steps(p, t_max))
        checks = {name: (measured, tol) for name, measured, tol in lines}
        measured, tol = checks["dynamical phase quadrature vs closed form"]
        assert measured <= tol


    def test_quadrature_catches_a_flipped_sine_term(self, monkeypatch,
                                                    capsys):
        # phi_D's sin(lambda t) term is its only half sinc in phases, so this
        # flips that term's sign at its one definition.  At the defaults
        # t_max = 10 T'', where probes at 0.2, 0.5 and t_max saw sin = 0
        half_sinc = phases._half_sinc
        monkeypatch.setattr(phases, "_half_sinc",
                            lambda lam, t: -half_sinc(lam, t))
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert re.search(r"^FAIL  dynamical phase quadrature", out, re.M)

    def test_record_quadrature_within_simpsons_term(self):
        # Simpson's leading term at 400 records per shortest period,
        # (2 pi / 400)^4 / 180 (oracle._dynamical_phase_error), bounds the line over
        # omega'/omega x cos(beta), with most horizons' last record off the
        # stride grid; through resonance (detuning 0 at omega'/omega = 2,
        # cos(beta) = 1/2) over 100 periods and at both extreme omegas.
        # Seen: 1.14e-10 at worst over a 41 x 41 grid at 10 periods
        bound = (2.0 * math.pi / 400.0) ** 4 / 180.0
        cases = [(ratio, cos_beta, 1.0, 10.0)
                 for ratio in (0.2, 0.45, 1.0, 1.12, 2.0, 4.5)
                 for cos_beta in (-1.0, -0.6, 0.0, 0.45, 0.5, 0.9, 1.0)]
        cases += [(2.0, 0.5, 1.0, 100.0), (1.0, 0.5, 8.9e307, 10.0),
                  (1.0, 0.5, 1e-305, 10.0)]
        for ratio, cos_beta, omega, periods in cases:
            p = ModelParams.from_dimensionless(ratio, cos_beta, omega=omega)
            error = next(measured for name, measured, _ in _verify_checks(
                p, periods * derived_scales(p).longest_period)
                if name == "dynamical phase quadrature vs closed form")
            assert error <= bound, (ratio, cos_beta, omega, periods, error)

    @pytest.mark.parametrize("records, off_stride", [
        (4001, 0),  # one block
        # 4 blocks, the last of one record: a Simpson panel straddles each
        # of the first two boundaries
        (3 * oracle._BLOCK + 1, 7),
        # 3 blocks, the last of the off-stride record alone, which no panel
        # reads
        (2 * oracle._BLOCK + 1, 7),
        (2, 0),  # no Simpson panel
    ])
    def test_shared_grid_records_match_standalone_calls(
            self, monkeypatch, records, off_stride):
        # verify folds one record grid, a block at a time, for both frames
        # and the closed form, at B = 0: the blocks times their gauge factor,
        # collected, are the records of the calls that build their own, and
        # each line is the whole-array formula over the blocks as folded
        p = ModelParams.from_dimensionless(0.7, -0.3, alpha=1.1, gauge_a=0.4,
                                           gauge_b=0.35)
        h = oracle.step_size(p)
        t_max = (25 * (records - 1 - (off_stride > 0)) + off_stride - 0.5) * h
        grid, frames, closed = [], [], []

        def blocks(*args, call=oracle.record_blocks):
            for block in call(*args):
                grid.append(block)
                yield block

        def spy(seen, call):
            return lambda *args: seen.append(call(*args)) or seen[-1]
        monkeypatch.setattr(oracle, "record_blocks", blocks)
        monkeypatch.setattr(oracle, "propagate", spy(frames, oracle.propagate))
        monkeypatch.setattr(evolution, "_ungauged",
                            spy(closed, evolution._ungauged))
        checks = list(_verify_checks(p, t_max))
        monkeypatch.undo()
        assert all(measured <= tol for _, measured, tol in checks)
        lines = {name: measured for name, measured, _ in checks}
        assert all(len(block[1]) <= oracle._BLOCK for block in grid)
        # evaluate's gauge and limit rows, one block, call _ungauged last
        assert len(grid) == len(closed) - 1 == len(frames) // 2
        del closed[-1]

        def collected(columns, gauged=lambda c, gauge: c):
            return np.concatenate([np.stack([
                gauged(c, model.gauge_factor(p, block[2])) for c in columns],
                axis=1) for columns, block in zip(columns, grid)])
        times = np.concatenate([block[2] for block in grid])
        np.testing.assert_array_equal(times, h * np.append(
            np.arange(0, 25 * (records - 1), 25),
            25 * (records - 1 - (off_stride > 0)) + off_stride))
        coeff = oracle.integrate_coefficients(p, t_max).coefficients
        lab = oracle.integrate_lab_frame(p, t_max).coefficients
        exact = np.stack(evolution.amplitude_components(p, times), axis=1)
        # each factor on the side its collector puts it: a complex product
        # with its operands swapped rounds another way
        for shared, alone, gauged in (
                (frames[::2], coeff, lambda c, gauge: c * gauge),
                (frames[1::2], lab, lambda c, gauge: c * gauge),
                (closed, exact, lambda c, gauge: gauge * c)):
            assert np.array_equal(collected(shared, gauged).view(float),
                                  alone.view(float))
        coeff, lab, exact = map(collected, (frames[::2], frames[1::2], closed))

        # the whole-array formulas the fold replaces
        def drift(c):
            return np.max(np.abs(np.abs(c[:, 0]) ** 2 + np.abs(c[:, 1]) ** 2
                                 - 1.0))
        panels = oracle.steps(p, t_max)[1] // 25 // 2
        reference = {
            "closed form vs coefficient RK4": np.max(np.abs(exact - coeff)),
            "closed form vs lab-frame RK4": np.max(np.abs(exact - lab)),
            "oracle norm drift": drift(coeff),
            "closed-form normalization": drift(exact)}
        if panels:
            weight = np.abs(lab[:2 * panels + 1]) ** 2
            f = weight[:, 0] - weight[:, 1]
            quad = np.cumsum(f[:-1:2] + 4.0 * f[1::2] + f[2::2])
            quad *= -(p.omega * h) * 25 / 6.0
            phi_d = phases.dynamical_phase(p, times[2:2 * panels + 1:2])
            reference["dynamical phase quadrature vs closed form"] = np.max(
                np.abs(phi_d - quad) / (1.0 + np.abs(phi_d)))
        assert {name: lines[name] for name in reference} == reference
        assert ("dynamical phase quadrature vs closed form" in lines) == (
            panels > 0)

    def test_a_nan_record_fails_its_lines(self, monkeypatch, capsys):
        # one nan record in each frame, in the middle of 3 blocks: every
        # line that reads it reads nan and fails, as a whole-array maximum
        # does (Python's max drops a nan that comes second)
        propagate, calls = oracle.propagate, []

        def spy(*args):
            columns = propagate(*args)
            calls.append(args)
            if len(calls) in (3, 4):  # block 1, coefficient then lab
                columns[0][100] = np.nan
            return columns
        monkeypatch.setattr(oracle, "propagate", spy)
        code, out, _ = run_cli(capsys, "verify", "--t-max-periods", "50")
        assert code == 1 and len(calls) == 6
        for line in ("closed form vs coefficient RK4",
                     "closed form vs lab-frame RK4", "oracle norm drift",
                     "dynamical phase quadrature vs closed form"):
            assert re.search(f"^FAIL  {line}: measured=nan ", out, re.M)
        assert re.search("^PASS  closed-form normalization", out, re.M)

    def test_checks_memory_per_record(self):
        # the fold holds one block of the grid, of both frames' records and
        # of the closed form, with their temporaries: about 1.9 MB, 19 B a
        # record here.  Whole arrays of the grid, the records, the closed
        # form and max_deviation's temporaries peaked at 144 B a record
        p = ModelParams.from_dimensionless(0.7, -0.3, alpha=1.1, gauge_a=0.4,
                                           gauge_b=0.35)
        h = oracle.step_size(p)
        peak, _ = traced_peak(lambda: list(_verify_checks(
            p, (25 * 100_000 - 0.5) * h)))
        assert peak / 100_001 <= 160.0

    def test_checks_memory_is_one_block(self):
        # the same peak at 1e5 and 1e6 records: nothing of a block is kept
        # once it is reduced (whole arrays took 144 MB at 1e6 records)
        p = ModelParams.from_dimensionless(0.7, -0.3, alpha=1.1, gauge_a=0.4,
                                           gauge_b=0.35)
        h = oracle.step_size(p)
        small, large = (traced_peak(lambda: list(_verify_checks(
            p, (25 * records - 0.5) * h)))[0]
            for records in (100_000, 1_000_000))
        assert abs(large - small) <= 1_000_000

    def test_horizon_without_a_simpson_panel_is_noted(self, capsys):
        # t_max = T''/1e3 is 10 steps, under the two record strides of one
        # panel: the quadrature line is skipped, and stderr says so
        code, out, err = run_cli(capsys, "verify", "--t-max-periods", "1e-3")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 10 and lines[-1].startswith("OK")
        assert "quadrature" not in out
        assert err.startswith("note: ") and err.count("\n") == 1
        assert "'dynamical phase quadrature vs closed form'" in err

    def test_vanished_gauge_probe_is_noted(self, capsys):
        # t_max = (T''/2) / 0.37: |C1| vanishes at the gauge lines' probe
        # 0.37 t_max, so both lines are skipped, and stderr says so
        code, out, err = run_cli(
            capsys, "verify", "--omega-ratio", "4", "--cos-beta", "0.25",
            "--t-max", "2.1923127978235737")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 9 and lines[-1].startswith("OK")
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert "gauge" not in out
        assert err.startswith("note: ") and err.count("\n") == 1
        assert "'gauge-B shift law'" in err and "'gauge-A invariance'" in err

    def test_lab_line_catches_a_reversed_field(self, monkeypatch, capsys):
        # H's azimuth -(alpha + omega' t) has one definition, which the lab
        # oracle's constant map reads: a field turning the other way there
        # must fail the lab-frame line
        azimuth = model.field_azimuth
        monkeypatch.setattr(
            model, "field_azimuth",
            lambda rate, t, alpha=0.0: azimuth(-rate, t, alpha))
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert re.search(r"^FAIL  closed form vs lab-frame RK4", out, re.M)

    @pytest.mark.parametrize("argv", [
        "", "--omega-ratio 0.3 --cos-beta -0.2 --gauge-b 0.7", "--alpha 1",
        "--alpha 1 --gauge-a 0.3 --gauge-b 0.7"])
    def test_reality_line_catches_a_flipped_theta_i(self, monkeypatch, capsys,
                                                    argv):
        # theta_i = -ln|C1| >= 0; with its sign flipped every other line
        # passes, and Im phi_B(T') reads -3.75e-9 at the defaults
        theta = phases._theta
        monkeypatch.setattr(phases, "_theta", lambda *args: (
            lambda r, i, vanished: (r, -i, vanished))(*theta(*args)))
        code, out, _ = run_cli(capsys, "verify", *argv.split())
        assert code == 1
        assert re.findall("^FAIL  (.*): measured=", out, re.M) == [
            "Im phi_B(T') >= 0 in both limits"]

    def test_state_quadrature_catches_eigenstates_turning_back(
            self, monkeypatch, capsys):
        # eigenstates that turn the other way from t = 0, with H untouched.
        # No verify line reads them at t > 0: the lab oracle takes them at
        # t = 0 alone, where nothing moved, and the quadrature line sums
        # the lab records.  The lab state's own quadrature of -<H>, which
        # reads them through state_components, moves off phi_D
        eigenbasis = model.eigenbasis
        for module in (model, evolution):  # the oracle's name and the kernels'
            monkeypatch.setattr(module, "eigenbasis",
                                lambda p, t: eigenbasis(p, np.negative(t)))
        p = ModelParams.from_dimensionless(1.0, 0.5)
        # 0.55 off at t = 3.7; unmutated, 3.3e-16
        assert abs(phases.dynamical_phase_quadrature(p, 3.7)
                   - phases.dynamical_phase(p, 3.7)) > 0.1
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0, out


class TestParserReuse:
    """main builds its parser on its first call and reuses it."""

    SWEEP = ("sweep", "--variable", "omega_ratio", "--start", "0.5",
             "--stop", "2", "--samples", "5")
    ARGV = [SWEEP + ("--format", "json", "--gauge-b", "3"), SWEEP,
            SWEEP + ("--samples", "many"),
            ("evolve", "--t", "1"), ("commensurate", "3", "2"),
            ("verify", "--t-max-periods", "0.5")]

    @staticmethod
    def _run(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = f"SystemExit {exc.code}"
        return (code,) + tuple(capsys.readouterr())

    def test_outputs_match_a_fresh_parser(self, monkeypatch, capsys):
        build_parser, built = cli.build_parser, []

        def counting_build_parser():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        monkeypatch.setattr(cli, "_parser", (None, None))
        reused = [self._run(capsys, argv) for argv in self.ARGV]
        assert len(built) == 1
        fresh = []
        for argv in self.ARGV:
            monkeypatch.setattr(cli, "_parser", (None, None))
            fresh.append(self._run(capsys, argv))
        assert reused == fresh
        assert [result[0] for result in reused] == [
            0, 0, "SystemExit 2", 0, 0, 0]
        assert build_parser() is not build_parser()

    def test_a_replaced_builder_gets_its_own_parser(self, monkeypatch,
                                                    capsys):
        # as a tracer does: wrap parse_args on what a replaced builder
        # returns, then put the builder back
        build_parser, parsed = cli.build_parser, []

        def tracing_build_parser():
            parser = build_parser()
            parse_args = parser.parse_args
            parser.parse_args = lambda argv: (parsed.append(argv)
                                              or parse_args(argv))
            return parser

        argv = ["commensurate", "3", "2"]
        main(argv)
        monkeypatch.setattr(cli, "build_parser", tracing_build_parser)
        main(argv)
        main(argv)
        assert parsed == [argv, argv]
        monkeypatch.setattr(cli, "build_parser", build_parser)
        main(argv)
        assert parsed == [argv, argv]
        assert cli._parser[0] is build_parser
        capsys.readouterr()


def test_cli_import_builds_no_parser():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    probe = ("import argparse\n"
             "def refuse(*args, **kwargs):\n"
             "    raise AssertionError('a parser was built')\n"
             "argparse.ArgumentParser.__init__ = refuse\n"
             "import spinberry.cli\n"
             "print(spinberry.cli._parser)")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "(None, None)"


class TestBlockWriter:
    """The sweep writer formats and writes _BLOCK rows at a time."""

    # omega = omega' cos(beta): |C1| vanishes at odd multiples of T''/2.  In
    # steps of T''/4 every other row lands there, on both sides of each
    # block boundary, until rounding in lambda t lifts |C1| above 1e-12
    ARGV = ("sweep", "--variable", "time", "--start", "0", "--stop", "4097",
            "--samples", str(2 * _BLOCK + 5), "--omega-ratio", "2",
            "--cos-beta", "0.5")

    def test_json_is_json_dumps(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGV, "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert len(json.loads(out)["rows"]) == 2 * _BLOCK + 5

    def test_json_cells_are_the_csv_cells(self, capsys):
        # one row template for both formats: each JSON number is the float
        # of the CSV cell at its place, bit for bit, a blank phase cell is
        # null, and no NaN or Infinity token is written
        def refuse(token):
            raise ValueError(f"{token} in the JSON")
        _, text, _ = run_cli(capsys, *self.ARGV)
        code, out, _ = run_cli(capsys, *self.ARGV, "--format", "json")
        rows = json.loads(out, parse_constant=refuse)["rows"]
        table = list(csv.DictReader(io.StringIO(text)))
        assert code == 0 and len(rows) == len(table) == 2 * _BLOCK + 5
        for row, cells in zip(rows, table):
            assert list(row) == list(cells)
            for name, value in row.items():
                if cells[name]:
                    assert float(cells[name]).hex() == value.hex(), name
                else:
                    assert value is None and name in PHASE_COLUMNS
        for k in (_BLOCK - 2, _BLOCK + 2):  # either side of a block boundary
            assert set(PHASE_COLUMNS) == {
                name for name, value in rows[k].items() if value is None}

    def test_csv_is_a_row_by_row_reference(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGV)
        assert code == 0
        p = ModelParams.from_dimensionless(2.0, 0.5)
        grid = np.linspace(0.0, 4097.0, 2 * _BLOCK + 5)
        columns, vanished = evaluate(p, grid * derived_scales(p).state_period)
        assert vanished[_BLOCK - 2] and vanished[_BLOCK + 2]
        lines = ["time," + ",".join(COLUMNS)]
        for k, gone in enumerate(vanished):
            lines.append(",".join(
                "" if gone and name in PHASE_COLUMNS else
                "%.17g" % (grid if name == "time" else columns[name])[k]
                for name in ("time",) + COLUMNS))
        assert out == "\n".join(lines) + "\n"
        assert f"{int(vanished.sum())} of {2 * _BLOCK + 5} rows" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_is_set_by_the_columns(self, fmt, tmp_path,
                                               monkeypatch):
        # 12 float64 columns are 96 B/row.  One block's cells and text take
        # at most about 2 kB per block row, here 1024 of 10 000 rows (the
        # ratio of 8192 to 8e4 rows, at a tenth of the run time under
        # tracemalloc): 183 B/row (CSV) and 224 (JSON), as at 2048 of
        # 20 000.  Holding every row as text cost 1.27 kB (CSV) and 2.33 kB
        # (JSON) per row.  The subject is the writer's block, so the
        # kernels' is pinned too, at 4096 points: 3 kernel blocks, enough
        # for evaluate's threads
        rows = 10_000
        monkeypatch.setattr(cli, "_BLOCK", 1024)
        monkeypatch.setattr(evolution, "_BLOCK", 4096)
        monkeypatch.setattr(evolution, "_WORKERS", 1)
        argv = ["sweep", "--variable", "time", "--start", "0", "--stop", "10",
                "--samples", str(rows), "--format", fmt,
                "--output", str(tmp_path / f"sweep.{fmt}")]

        def sweep():
            assert main(argv) == 0

        peak, _ = traced_peak(sweep)
        assert peak / rows < 400
        # on more workers, each holds one block of evaluate's temporaries
        args = cli.build_parser().parse_args(argv)
        p = cli._params_from_args(args)
        t = np.linspace(0.0, 10.0, rows) * cli._time_unit(p, args.time_unit)
        kernel, outputs = traced_peak(phases._evaluate_blocks, p, t)
        assert_threaded_peak(monkeypatch, sweep, (),
                             -(-rows // evolution._BLOCK),
                             peak - (kernel - outputs), kernel - outputs)

    def test_domain_error_creates_no_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        # T' = 2 pi / omega' is infinite at the first row, omega' = 0
        code, out, err = run_cli(
            capsys, "sweep", "--variable", "omega_ratio", "--start", "0",
            "--stop", "1", "--samples", "3", "--output", str(target))
        assert code == 2
        assert json.loads(err)["error"]["code"] == "NonFiniteTimeError"
        assert not target.exists()


#: the console entry point with a stdout that, after its first flush, reads
#: stdin to EOF before it goes on
_HELD_ENTRY = """
import sys
from spinberry.cli import main

class Held:
    def __init__(self, stream):
        self.stream, self.held = stream, False

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def flush(self):
        self.stream.flush()
        if not self.held:
            self.held = True
            sys.stdin.read()

sys.stdout = Held(sys.stdout)
sys.exit(main())
"""


def _first_line_then_close(*argv, held=False):
    """Run the console entry point, read one line and close its stdout.

    held runs ``_HELD_ENTRY``: the child waits after its first line until
    the pipe is closed, so its next write meets a closed pipe however late
    the reader closes it.  Without it a reader that leaves early is a race
    the child wins where its whole output fits in the pipe buffer."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as in a pipe
    entry = _HELD_ENTRY if held else \
        "import sys; from spinberry.cli import main; sys.exit(main())"
    proc = subprocess.Popen([sys.executable, "-c", entry, *argv], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    proc.stdin.close()  # only now may a held child go on
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(), first, err


class TestOutputErrors:
    """A reader that leaves early and an unwritable --output are no traceback."""

    def test_verify_closed_after_first_line(self):
        # verify's whole output fits in the pipe buffer, so the child is
        # held after its first line until the pipe is closed
        code, first, err = _first_line_then_close("verify", held=True)
        assert first.startswith(b"PASS  closed form vs coefficient RK4")
        assert (code, err) == (141, b"")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_closed_after_first_line(self, fmt):
        code, first, err = _first_line_then_close(
            "sweep", "--variable", "time", "--start", "0", "--stop", "20",
            "--samples", "100000", "--format", fmt)
        assert first in (b"time," + ",".join(COLUMNS).encode() + b"\n",
                         b"{\n")
        assert (code, err) == (141, b"")

    def test_output_in_a_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "evolve", "--t", "1",
                                 "--output", str(target))
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "FileNotFoundError"
        assert str(target) in error["message"]
        assert not target.parent.exists()
