import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from spinberry import (IntegratorConfig, ModelParams, cli, derived_scales,
                       integrate_coefficients, oracle)
from spinberry.cli import (_BLOCK, _MAX_SAMPLES, COLUMNS, PHASE_COLUMNS,
                           _drift_tolerance, _verify_checks, evaluate, main)

from conftest import random_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_vanished_amplitude_is_domain_error(self, capsys):
        # omega = omega' cos(beta): |C1| = 0 at t = pi/lambda
        t_zero = math.pi / math.sqrt(3.0)
        code, out, err = run_cli(
            capsys, "evolve", "--omega-ratio", "2", "--cos-beta", "0.5",
            "--t", format(t_zero, ".17g"))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "AmplitudeVanishedError"

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

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--variable", "time", "--start", "2",
            "--stop", "1", "--samples", "10")
        assert code == 2
        assert "error" in json.loads(err)

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

    def test_cos_beta_out_of_range_names_flag(self, capsys):
        code, out, err = run_cli(capsys, "commensurate", "2", "1",
                                 "--cos-beta", "-1.5")
        assert code == 2
        assert out == ""
        assert "--cos-beta" in json.loads(err)["error"]["message"]


class TestInvalidParameters:
    def test_nan_ratio_writes_no_row(self, capsys):
        code, out, err = run_cli(capsys, "evolve", "--omega-ratio", "nan",
                                 "--t", "1")
        assert code == 2
        assert out == ""
        assert "omega_prime" in json.loads(err)["error"]["message"]

    def test_cos_beta_out_of_range_names_flag(self, capsys):
        code, out, err = run_cli(capsys, "evolve", "--cos-beta", "2",
                                 "--t", "1")
        assert code == 2
        assert out == ""
        assert "--cos-beta" in json.loads(err)["error"]["message"]


class TestNonFiniteTimes:
    """A time that is nan or infinite is a named error, not a row of nan."""

    @pytest.mark.parametrize("argv", [
        ("evolve", "--t", "nan"),
        ("evolve", "--t", "inf"),
        ("sweep", "--variable", "time", "--start", "0", "--stop", "inf",
         "--samples", "3"),
        # T' = 2 pi / omega' is infinite at omega' = 0
        ("sweep", "--variable", "omega_ratio", "--start", "0", "--stop", "1",
         "--samples", "3"),
    ])
    def test_rejected_with_exit_2(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "NonFiniteTimeError"
        assert "time must be finite" in error["message"]

    def test_zero_omega_t_prime_stays_usage_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "sweep", "--variable", "omega_t_prime", "--start", "0",
                "--stop", "1", "--samples", "3")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == {
            "code": "ValueError", "message": "omega_prime must be finite, got inf"}


class TestUndefinedPeriods:
    """A time unit whose period is undefined is the same named error in
    evolve and in a time sweep."""

    @pytest.mark.parametrize("params, unit, code", [
        (("--omega-ratio", "0"), "tprime", "UndefinedPeriodError"),
        (("--omega-ratio", "1", "--cos-beta", "1"), "tsecond",
         "DegenerateLambdaError"),
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


class TestSampleBudget:
    def test_one_row_over_the_budget_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--variable", "time", "--start", "0", "--stop",
            "1", "--samples", str(_MAX_SAMPLES + 1))
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "SpinberryError"
        assert "--samples" in error["message"]

    def test_too_few_rows_still_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--variable", "time", "--start", "0", "--stop",
            "1", "--samples", "1")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["message"] == "--samples must be >= 2"


def test_cli_import_does_not_load_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    probe = "import sys, spinberry.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


class TestVerify:
    def test_default_parameters_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--t-max-periods", "5")
        assert code == 0
        assert "FAIL" not in out

    def test_polar_edge_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--cos-beta", "1.0",
                               "--omega-ratio", "0.8", "--t-max-periods", "5")
        assert code == 0

    def test_degenerate_lambda_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--omega-ratio", "1",
                               "--cos-beta", "1.0", "--t-max-periods", "5")
        assert code == 0

    @pytest.mark.parametrize("gauge_b", ["0.1", "0", "-1", "20", "-20"])
    def test_limit_checks_follow_the_gauge(self, capsys, gauge_b):
        # Re phi_B(T') moves by 2 pi (B + 1/2) with B, and so do the targets;
        # at |B| > 1 the oracle's step also resolves the gauge rate B omega'
        code, out, _ = run_cli(capsys, "verify", "--omega-ratio", "2.5",
                               "--cos-beta", "0.9", "--gauge-b", gauge_b)
        assert code == 0, out
        assert "FAIL" not in out

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
        # Each chunk of S steps applies one rounded total G, so the norm^2
        # moves by y^H (G^H G - I) y per chunk: n / S times its mean over
        # the state's orbit, weights |<v_i|y0>|^2 on G's eigenvectors v_i
        p = ModelParams.from_dimensionless(0.05, 0.5)
        cfg = IntegratorConfig(
            t_max=100.0 * derived_scales(p).longest_period, record_stride=25)
        drift = integrate_coefficients(p, cfg).norm_drift()
        h, count = oracle.step_size(p, cfg), oracle._CHUNK // 25
        m = oracle._coefficient_generator(p)
        g = oracle._chained_totals(oracle._rk4_step_matrices(m, m, m, h), 25,
                                   count, 0)[:, -1].reshape(2, 2)
        v = np.linalg.eig(g)[1]
        weights = np.abs(np.linalg.solve(v, [1.0, 0.0])) ** 2
        defect = np.diag(v.conj().T @ (g.conj().T @ g - np.eye(2)) @ v).real
        chunks = oracle._n_steps(cfg, h) / (25 * count)
        assert drift == pytest.approx(chunks * abs(weights @ defect), rel=0.05)
        assert drift <= _drift_tolerance(p, cfg)

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
        # at most about 2 kB per block row, here 2048 of 20 000 rows (the
        # ratio of 8192 to 1e5 rows, at a fifth of the run time under
        # tracemalloc): about 200 B/row.  Holding every row as text cost
        # 1.27 kB (CSV) and 2.33 kB (JSON) per row.
        rows = 20_000
        monkeypatch.setattr(cli, "_BLOCK", 2048)
        argv = ["sweep", "--variable", "time", "--start", "0", "--stop", "20",
                "--samples", str(rows), "--format", fmt,
                "--output", str(tmp_path / f"sweep.{fmt}")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / rows < 400

    def test_domain_error_creates_no_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--variable", "time", "--start", "0",
            "--stop", "inf", "--samples", "3", "--output", str(target))
        assert code == 2
        assert json.loads(err)["error"]["code"] == "NonFiniteTimeError"
        assert not target.exists()


def _first_line_then_close(*argv):
    """Run the console entry point, read one line and close its stdout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as in a pipe
    entry = "import sys; from spinberry.cli import main; sys.exit(main())"
    proc = subprocess.Popen([sys.executable, "-c", entry, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(), first, err


class TestOutputErrors:
    """A reader that leaves early and an unwritable --output are no traceback."""

    def test_verify_closed_after_first_line(self):
        code, first, err = _first_line_then_close("verify")
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
