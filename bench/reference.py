"""Reference solution and output checks that do not use spinberry's formulas.

The reference propagates the instantaneous-basis coefficients C = (C1, C2)
with an eigen-decomposition of their generator.  Writing the gauged
eigenstates as

    |1(t)> = e^{-i d} (c e^{-i f/2},  s e^{i f/2}),
    |2(t)> = e^{-i d} (s e^{-i f/2}, -c e^{i f/2}),

with c = cos(b/2), s = sin(b/2), f = alpha + w' t and d = A + B w' t, the
Schroedinger equation i d/dt psi = H psi with E1,2 = +-w/2 becomes
dC/dt = i K C for the constant real symmetric matrix

    K = B w' I + [[-D/2, g], [g, D/2]],   D = w - w' cos b,  g = (w'/2) sin b.

The traceless part is diagonalised with ``numpy.linalg.eigh``, so
C(t) = e^{i B w' t} V e^{i mu t} V^T (1, 0)^T.  The dynamical phase
phi_D = -(w/2) (t - 2 int_0^t |C2|^2) is integrated term by term from the
same expansion.

Every tolerance is derived from conditioning: C(t) moves at rate |K|, so a
relative rounding of eps in t or in the parameters shifts it by about
eps |K| t.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

EPS = np.finfo(float).eps
#: spinberry's threshold below which |C1| counts as vanished
VANISHED = 1e-12
#: points evaluated per chunk when checking long grids, so that the checks
#: stay well below the memory the program itself uses
CHUNK = 1 << 16


def propagate(omega, omega_prime, beta, gauge_b, t):
    """Reference (c1, c2, phi_d, knorm) at times t; arguments broadcast."""
    omega, omega_prime, beta, gauge_b = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in
          (omega, omega_prime, beta, gauge_b)))
    half_detuning = 0.5 * (omega - omega_prime * np.cos(beta))
    drive = 0.5 * omega_prime * np.sin(beta)
    k0 = np.empty(omega.shape + (2, 2))
    k0[..., 0, 0] = -half_detuning
    k0[..., 1, 1] = half_detuning
    k0[..., 0, 1] = k0[..., 1, 0] = drive
    mu, v = np.linalg.eigh(k0)
    shift = gauge_b * omega_prime
    e0 = np.exp(1j * mu[..., 0] * t)
    e1 = np.exp(1j * mu[..., 1] * t)
    common = np.exp(1j * shift * t)
    v00, v01 = v[..., 0, 0], v[..., 0, 1]
    v10, v11 = v[..., 1, 0], v[..., 1, 1]
    c1 = common * (v00 * v00 * e0 + v01 * v01 * e1)
    c2 = common * (v10 * v00 * e0 + v11 * v01 * e1)
    a0, a1 = v10 * v00, v11 * v01
    gap = mu[..., 1] - mu[..., 0]
    c2_sq_integral = (a0 * a0 + a1 * a1) * t \
        + 2.0 * a0 * a1 * t * np.sinc(gap * t / math.pi)
    phi_d = -0.5 * omega * (t - 2.0 * c2_sq_integral)
    knorm = np.abs(shift) + np.max(np.abs(mu), axis=-1)
    return c1, c2, phi_d, knorm


def rabi_rate(omega, omega_prime, beta):
    """lambda = sqrt(w^2 + w'^2 - 2 w w' cos b), without its cancellation."""
    return np.hypot(omega - omega_prime * np.cos(beta),
                    omega_prime * np.sin(beta))


def state_tolerance(knorm, t):
    """Rounding allowed in C(t): a few hundred ulps of |K| t."""
    return 64.0 * EPS * (1.0 + knorm * np.abs(t))


def _count(mask, label, problems, detail=""):
    bad = int(np.count_nonzero(mask))
    if bad:
        problems.append(f"{label}: {bad} values{detail}")


# --- amplitudes, phases and states -----------------------------------------

def check_amplitudes(c1, c2, ref, t, problems):
    """C against the reference, unit norm."""
    r1, r2, _, knorm = ref
    tol = state_tolerance(knorm, t)
    err = np.maximum(np.abs(c1 - r1), np.abs(c2 - r2))
    _count(~(err <= tol), "C vs eigh reference", problems,
           f" (worst {np.max(err):.3e})")
    norm_err = np.abs(np.abs(c1) ** 2 + np.abs(c2) ** 2 - 1.0)
    _count(~(norm_err <= 256.0 * EPS), "|C1|^2+|C2|^2 != 1", problems,
           f" (worst {np.max(norm_err):.3e})")


def check_phases(theta_r, theta_i, ref, t, problems):
    """theta against arg and -ln|C1| of the reference."""
    r1, _, _, knorm = ref
    tol = state_tolerance(knorm, t)
    err = np.abs(np.exp(1j * theta_r - theta_i) - r1)
    _count(~(err <= tol), "exp(i theta) vs reference C1", problems,
           f" (worst {np.max(err):.3e})")
    log_err = np.abs(theta_i + np.log(np.abs(r1)))
    _count(~(log_err <= tol / np.abs(r1)), "theta_i != -ln|C1|",
           problems)


def check_dynamical(phi_d, ref, omega, t, problems):
    _, _, r_phi, knorm = ref
    tol = state_tolerance(knorm + np.abs(omega), t)
    err = np.abs(phi_d - r_phi)
    _count(~(err <= tol), "phi_D vs reference", problems,
           f" (worst {np.max(err):.3e})")


def eigenbasis_state(c1, c2, omega_prime, beta, alpha, gauge_a, gauge_b, t):
    """Lab-frame (up, down) of c1|1(t)> + c2|2(t)> in the documented gauge."""
    half_azimuth = 0.5 * (alpha + omega_prime * t)
    gauge = gauge_a + gauge_b * omega_prime * t
    c, s = math.cos(0.5 * beta), math.sin(0.5 * beta)
    up = (c * c1 + s * c2) * np.exp(-1j * (half_azimuth + gauge))
    down = (s * c1 - c * c2) * np.exp(1j * (half_azimuth - gauge))
    return up, down


def check_kernel(kind, out, p, t):
    """Check one vectorized kernel result on grid t, chunk by chunk."""
    problems = []
    for lo in range(0, t.size, CHUNK):
        sl = slice(lo, lo + CHUNK)
        tc = t[sl]
        ref = propagate(p.omega, p.omega_prime, p.beta, p.gauge_b, tc)
        if kind == "amplitude_components":
            check_amplitudes(out[0][sl], out[1][sl], ref, tc, problems)
        elif kind == "state_components":
            up, down = eigenbasis_state(ref[0], ref[1], p.omega_prime, p.beta,
                                        p.alpha, p.gauge_a, p.gauge_b, tc)
            tol = state_tolerance(
                ref[3] + p.omega_prime * (abs(p.gauge_b) + 1.0), tc)
            err = np.maximum(np.abs(out[0][sl] - up), np.abs(out[1][sl] - down))
            _count(~(err <= tol), "psi vs reference", problems,
                   f" (worst {np.max(err):.3e})")
            norm_err = np.abs(np.abs(out[0][sl]) ** 2
                              + np.abs(out[1][sl]) ** 2 - 1.0)
            _count(~(norm_err <= 256.0 * EPS), "|psi| != 1", problems)
        elif kind == "total_phase_components":
            check_phases(out[0][sl], out[1][sl], ref, tc, problems)
        elif kind == "dynamical_phase":
            check_dynamical(out[sl], ref, p.omega, tc, problems)
        else:
            raise ValueError(kind)
    if kind == "total_phase_components":
        if t[0] == 0.0 and out[0][0] != 0.0:
            problems.append(f"theta_r(0) = {out[0][0]!r}, not 0")
        jump = np.max(np.abs(np.diff(out[0])))
        if not jump < 0.5 * math.pi:
            problems.append(f"theta_r jumps by {jump:.3e} between samples")
    return problems


def check_quadrature(value, p, t):
    """Simpson phi_D against the reference, at verify's own 1e-9 bound."""
    _, _, r_phi, _ = propagate(p.omega, p.omega_prime, p.beta, p.gauge_b, t)
    err = abs(value - float(r_phi)) / (1.0 + abs(float(r_phi)))
    return [] if err <= 1e-9 else [f"quadrature phi_D off by {err:.3e}"]


# --- commensurate roots ------------------------------------------------------

def commensurate_bound(n):
    """|C2(m T')| left by rounding the root: sin(pi n (1 + O(eps)))."""
    return 16.0 * math.pi * n * EPS


def check_commensurate(solutions, residuals, n, m, beta):
    """lambda/w' = n/m at each root, and |C2(m T')| within n pi eps."""
    problems = []
    if not solutions:
        problems.append("no root returned")
    bound = commensurate_bound(n)
    for sol, residual in zip(solutions, residuals):
        if (sol.n, sol.m) != (n, m) or not sol.omega_t_prime > 0.0:
            problems.append(f"bad root {sol}")
            continue
        omega_prime = 2.0 * math.pi / sol.omega_t_prime
        ratio = rabi_rate(1.0, omega_prime, beta) / omega_prime
        if not abs(ratio - n / m) <= 64.0 * EPS * (n / m):
            problems.append(f"lambda/w' = {ratio!r}, not {n}/{m}")
        t_end = m * sol.omega_t_prime
        _, c2, _, _ = propagate(1.0, omega_prime, beta, 0.0, t_end)
        if not abs(complex(c2)) <= bound + 64.0 * EPS:
            problems.append(f"reference |C2(mT')| = {abs(complex(c2)):.3e}")
        if not residual <= bound:
            problems.append(f"residual {residual:.3e} > {bound:.3e}")
    return problems


# --- CLI sweep output --------------------------------------------------------

_PHASES = ("theta_r", "theta_i", "re_phi_b", "im_phi_b")
_WARNING = re.compile(r"(\d+) of (\d+) rows had vanished")


def parse_csv(text):
    """Columns of a sweep CSV; blank cells become nan."""
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in cells):
        raise ValueError("ragged CSV row")
    values = np.array([[float(x) if x else math.nan for x in row]
                       for row in cells], dtype=float).reshape(-1, len(header))
    return {name: values[:, k] for k, name in enumerate(header)}


def parse_json(text):
    """Columns of a sweep JSON document; null cells become nan."""
    rows = json.loads(text)["rows"]
    if not rows:
        return {}
    return {name: np.array([math.nan if r[name] is None else r[name]
                            for r in rows], dtype=float) for name in rows[0]}


def check_sweep(spec, cols, stderr):
    """Check one sweep's columns against the reference and the identities.

    spec holds what the benchmark asked for: variable, grid, omega,
    cos_beta, gauge_b and, for time sweeps (in units of T''), omega_ratio.
    Returns the problems and the number of rows with blank phases.
    """
    problems = []
    grid = spec["grid"]
    var = spec["variable"]
    if var not in cols or len(cols[var]) != len(grid):
        rows = len(cols.get(var, ()))
        return [f"expected {len(grid)} rows of {var}, got {rows}"], 0
    if not np.all(np.abs(cols[var] - grid) <= 4.0 * EPS * np.abs(grid)):
        problems.append(f"{var} column differs from the requested grid")
    omega, beta = spec["omega"], math.acos(spec["cos_beta"])
    if var == "time":
        omega_prime = np.full(grid.shape, spec["omega_ratio"] * omega)
        lam = rabi_rate(omega, omega_prime, beta)
        expected_t = grid * 2.0 * math.pi / lam
    else:
        ratio = grid if var == "omega_ratio" else 2.0 * math.pi / grid
        omega_prime = ratio * omega
        expected_t = 2.0 * math.pi / omega_prime
    t = cols["t"]
    _count(~(np.abs(t - expected_t) <= 16.0 * EPS * np.abs(expected_t)),
           "t column", problems)

    ref = propagate(omega, omega_prime, beta, spec["gauge_b"], t)
    c1 = cols["re_c1"] + 1j * cols["im_c1"]
    c2 = cols["re_c2"] + 1j * cols["im_c2"]
    check_amplitudes(c1, c2, ref, t, problems)
    p1_err = np.abs(cols["p1"] - np.abs(c1) ** 2)
    _count(~(p1_err <= 4.0 * EPS), "p1 != |C1|^2", problems)
    check_dynamical(cols["phi_d"], ref, omega, t, problems)

    predicted = np.abs(ref[0]) <= VANISHED
    blank = np.isnan(cols["theta_r"])
    for name in _PHASES:
        _count(np.isnan(cols[name]) != predicted, f"{name} blank vs predicted",
               problems)
    match = _WARNING.search(stderr)
    warned = int(match.group(1)) if match else 0
    if warned != int(np.count_nonzero(predicted)):
        problems.append(f"warning counts {warned} vanished rows, reference "
                        f"predicts {int(np.count_nonzero(predicted))}")

    keep = ~blank & ~predicted
    ref_kept = tuple(x[keep] for x in ref)
    check_phases(cols["theta_r"][keep], cols["theta_i"][keep], ref_kept,
                 t[keep], problems)
    phi_b_err = np.abs(cols["re_phi_b"][keep]
                       - (cols["theta_r"][keep] - cols["phi_d"][keep]))
    scale = np.abs(cols["theta_r"][keep]) + np.abs(cols["phi_d"][keep])
    _count(~(phi_b_err <= 4.0 * EPS * (1.0 + scale)), "Re phi_B != theta_r - phi_D",
           problems)
    im_err = np.abs(cols["im_phi_b"][keep] - cols["theta_i"][keep])
    _count(~(im_err <= 4.0 * EPS * (1.0 + np.abs(cols["theta_i"][keep]))),
           "Im phi_B != theta_i", problems)

    if var == "time":
        n = np.round(grid)
        at_period = (n >= 1) & (np.abs(grid - n) <= 1e-9)
        c2_bound = commensurate_bound(np.maximum(n[at_period], 1.0))
        _count(~(np.abs(c2[at_period]) <= c2_bound), "|C2(nT'')| != 0",
               problems)
        _count(~(np.abs(cols["im_phi_b"][at_period]) <= 16.0 * EPS),
               "Im phi_B(nT'') != 0", problems)
    return problems, int(np.count_nonzero(blank))


# --- CLI verify output -------------------------------------------------------

_LINE = re.compile(r"^(PASS|FAIL)  (.+): measured=(\S+)  tol=(\S+)$")
#: checks every verify report carries; the two gauge checks are skipped when
#: their probe point has a vanished |C1|
VERIFY_CHECKS = (
    "closed form vs coefficient RK4", "closed form vs lab-frame RK4",
    "oracle norm drift", "closed-form normalization",
    "dynamical phase quadrature vs closed form",
    "adiabatic limit vs pi cos(beta) - pi",
    "extreme non-adiabatic limit mod 2 pi")


def check_verify(code, stdout):
    """verify exits 0 and every check line reads PASS within its tolerance."""
    problems = [] if code == 0 else [f"exit code {code}"]
    lines = stdout.rstrip("\n").split("\n")
    names = set()
    for line in lines[:-1]:
        match = _LINE.match(line)
        if not match:
            problems.append(f"unexpected line {line!r}")
            continue
        status, name, measured, tol = match.groups()
        names.add(name)
        if status != "PASS" or not float(measured) <= float(tol):
            problems.append(f"{status} {name}: {measured} > {tol}")
    missing = set(VERIFY_CHECKS) - names
    if missing:
        problems.append(f"missing checks {sorted(missing)}")
    if not lines[-1].startswith("OK: 0 "):
        problems.append(f"summary {lines[-1]!r}")
    return problems
