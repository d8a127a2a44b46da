"""Traced runs: spans around spinberry's public functions, and the per-layer
metrics taken from them.

The wrappers are installed from outside the program: each public function
is replaced wherever a module looks it up (``spinberry.cli.derived_scales``
as well as ``spinberry.model.derived_scales``), and put back afterwards.
A span is (name, start, end, parent, work), where work is the number of
points a vectorized call was given, the RK4 steps of an oracle call, or 1.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import tracemalloc
from time import perf_counter

import numpy as np

import workloads

#: public functions wrapped in each spinberry module
TRACED = {
    "model": ("derived_scales", "hamiltonian", "eigenstate", "field_vector"),
    "evolution": ("amplitude_components", "amplitudes", "state_components",
                  "state", "return_probability_at_period", "initial_state"),
    "phases": ("total_phase_components", "total_phase", "dynamical_phase",
               "dynamical_phase_quadrature", "berry_phase", "decompose",
               "adiabatic_limit_check", "nonadiabatic_limit_check",
               "gauge_b_fix", "principal_branch"),
    "oracle": ("integrate_coefficients", "integrate_lab_frame",
               "closed_form_trajectory", "max_deviation", "step_size"),
    "cyclicity": ("solve_commensurate", "commensurate_residual",
                  "state_period", "commensurate_ratio"),
    "cli": ("build_parser", "main"),
}
#: oracle entry points whose spans carry RK4 steps and a tracemalloc peak
_ORACLE = ("integrate_coefficients", "integrate_lab_frame")


def _points(args):
    """Work of one call: the size of an array time argument, else 1."""
    if len(args) > 1 and isinstance(args[1], np.ndarray):
        return args[1].size
    return 1


def _oracle_steps(args):
    p, cfg = args[0], args[1]
    return workloads.oracle_steps(p.omega, p.omega_prime, p.beta, cfg.t_max,
                                  cfg.step_count_per_period)


class Tracer:
    """Collects spans from the wrappers it makes."""

    def __init__(self):
        self.names = {}
        self.spans = []
        self.peaks = {}
        self._stack = []

    def wrap(self, fn, name, count=_points, memory=False, post=None):
        name_id = self.names.setdefault(name, len(self.names))
        spans, stack, peaks = self.spans, self._stack, self.peaks

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if memory:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if memory:
                    peaks[index] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                spans[index] = (name_id, start, end, parent, count(args))
            return result if post is None else post(result)

        return traced

    def install(self, spinberry):
        """Wrap every TRACED function where it is looked up; return an undo list."""
        modules = [spinberry] + [getattr(spinberry, home) for home in TRACED]
        undo = []
        for home, names in TRACED.items():
            for name in names:
                original = getattr(getattr(spinberry, home), name)
                options = {}
                if name in _ORACLE:
                    options = {"count": _oracle_steps, "memory": True}
                elif name == "build_parser":
                    options = {"post": self._trace_parse}
                wrapper = self.wrap(original, f"{home}.{name}", **options)
                for module in modules:
                    if vars(module).get(name) is original:
                        undo.append((module, name, original))
                        setattr(module, name, wrapper)
        params = spinberry.model.ModelParams
        original = vars(params)["from_dimensionless"]
        params.from_dimensionless = classmethod(
            self.wrap(original.__func__, "model.from_dimensionless"))
        undo.append((params, "from_dimensionless", original))
        return undo

    def _trace_parse(self, parser):
        parser.parse_args = self.wrap(parser.parse_args, "cli.parse_args")
        return parser

    @staticmethod
    def uninstall(undo):
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    def arrays(self):
        """Spans as columns: name id, start, end, parent index, work."""
        table = np.array(self.spans, dtype=float).reshape(-1, 5)
        return {"name": table[:, 0].astype(np.int32), "start": table[:, 1],
                "end": table[:, 2], "parent": table[:, 3].astype(np.int64),
                "work": table[:, 4],
                "names": np.array(sorted(self.names, key=self.names.get))}


class SpanStats:
    """Sums over the spans of one traced round.

    factors holds the calibration factor of each operation, in the order
    the operations ran; every span is scaled by that of its operation.
    """

    def __init__(self, table, factors):
        self.ids = {str(name): k for k, name in enumerate(table["names"])}
        self.name = table["name"]
        self.work = table["work"]
        parent = table["parent"]
        root = np.arange(len(parent))
        for i in np.flatnonzero(parent >= 0):  # parents precede children
            root[i] = root[parent[i]]
        factor = np.zeros(len(parent))
        factor[parent < 0] = factors
        self.duration = (table["end"] - table["start"]) * factor[root]
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent],
                               weights=self.duration[has_parent],
                               minlength=len(parent))
        self.self_time = self.duration - children
        self.parent_name = np.where(has_parent,
                                    self.name[np.maximum(parent, 0)], -1)

    def mask(self, name, scalar=None):
        mask = self.name == self.ids.get(name, -1)
        if scalar is True:
            mask &= self.work == 1
        elif scalar is False:
            mask &= self.work > 1
        return mask

    def calls(self, name, scalar=None):
        return int(np.count_nonzero(self.mask(name, scalar)))

    def total(self, name, scalar=None):
        return float(self.duration[self.mask(name, scalar)].sum())

    def per_call(self, names, scale, scalar=None):
        calls = sum(self.calls(n, scalar) for n in names)
        total = sum(self.total(n, scalar) for n in names)
        return scale * total / calls if calls else 0.0

    def per_work(self, name, scale):
        mask = self.mask(name, scalar=False)
        work = self.work[mask].sum()
        return scale * float(self.duration[mask].sum()) / work if work else 0.0


def layer_metrics(workload, table, factors, peaks, ops, imports,
                  sweep_rows_us, overhead):
    """Every per-layer metric of one traced round; 0 where a layer did no work."""
    s = SpanStats(table, factors)
    rows = sum(op.units for op in ops) if workload == "sweep" else 0
    cli_self = float(s.self_time[s.mask("cli.main")].sum())
    cli_total = s.total("cli.main")
    oracle_ids = [s.ids[n] for n in s.ids if n.startswith("oracle.")]
    top_oracle = np.isin(s.name, oracle_ids) & ~np.isin(s.parent_name,
                                                        oracle_ids)
    op_total = float(s.duration[s.parent_name == -1].sum())

    def per_row(value):
        return value / rows if rows else 0.0

    def bytes_per_step(name):
        mask = s.mask(name)
        steps = s.work[mask].sum()
        peak = sum(peaks.get(int(k), 0) for k in np.flatnonzero(mask))
        return peak / steps if steps else 0.0

    values = {
        "import.numpy_s": (imports["numpy"], "s"),
        "import.scipy_integrate_s": (imports["scipy"], "s"),
        "import.spinberry_self_s": (imports["spinberry_self"], "s"),
        "cli.parse_us_per_call": (
            1e6 * (s.total("cli.build_parser") + s.total("cli.parse_args"))
            / max(1, s.calls("cli.main")), "us"),
        "cli.self_us_per_row": (1e6 * per_row(cli_self), "us/row"),
        "cli.share_of_sweep": (
            cli_self / cli_total if rows and cli_total else 0.0, "ratio"),
        "evolution.amplitudes.us_per_call": (
            s.per_call(["evolution.amplitudes"], 1e6), "us"),
        "phases.decompose.us_per_call": (
            s.per_call(["phases.decompose"], 1e6), "us"),
        "phases.dynamical_phase.us_per_call": (
            s.per_call(["phases.dynamical_phase"], 1e6, scalar=True), "us"),
        "model.from_dimensionless.calls_per_row": (
            per_row(s.calls("model.from_dimensionless")), "1/row"),
        "model.derived_scales.calls_per_row": (
            per_row(s.calls("model.derived_scales")), "1/row"),
        "phases.vanished_rows": (
            sum(op.counters.get("vanished_rows", 0) for op in ops), "count"),
        "oracle.steps": (
            float(s.work[s.mask("oracle.integrate_coefficients")
                         | s.mask("oracle.integrate_lab_frame")].sum()),
            "count"),
        "oracle.coefficients.ns_per_step": (
            s.per_work("oracle.integrate_coefficients", 1e9), "ns/step"),
        "oracle.lab.ns_per_step": (
            s.per_work("oracle.integrate_lab_frame", 1e9), "ns/step"),
        "oracle.closed_form.ns_per_record": (
            s.per_work("oracle.closed_form_trajectory", 1e9), "ns/record"),
        "oracle.share_of_verify": (
            float(s.duration[top_oracle].sum()) / op_total
            if workload == "verify" and op_total else 0.0, "ratio"),
        "oracle.coefficients.bytes_per_step": (
            bytes_per_step("oracle.integrate_coefficients"), "B/step"),
        "oracle.lab.bytes_per_step": (
            bytes_per_step("oracle.integrate_lab_frame"), "B/step"),
        "phases.dynamical_phase_quadrature.ms_per_call": (
            s.per_call(["phases.dynamical_phase_quadrature"], 1e3), "ms"),
        "phases.limit_checks.ms_per_call": (
            s.per_call(["phases.adiabatic_limit_check",
                        "phases.nonadiabatic_limit_check"], 1e3), "ms"),
        "evolution.amplitude_components.ns_per_point": (
            s.per_work("evolution.amplitude_components", 1e9), "ns/point"),
        "evolution.state_components.ns_per_point": (
            s.per_work("evolution.state_components", 1e9), "ns/point"),
        "phases.total_phase_components.ns_per_point": (
            s.per_work("phases.total_phase_components", 1e9), "ns/point"),
        "phases.dynamical_phase.ns_per_point": (
            s.per_work("phases.dynamical_phase", 1e9), "ns/point"),
        "cyclicity.solve_commensurate.us_per_call": (
            s.per_call(["cyclicity.solve_commensurate"], 1e6), "us"),
        "trace.overhead": (overhead, "ratio"),
    }
    for variable in ("time", "omega_ratio", "omega_t_prime"):
        values[f"cli.sweep_{variable}.us_per_row"] = (
            sweep_rows_us.get(variable, 0.0), "us/row")
    return values


def import_breakdown(stderr):
    """Seconds spent importing numpy, scipy and the rest of spinberry.cli,
    from the ``-X importtime`` log of one fresh interpreter.

    numpy counts where spinberry imports it; numpy modules that scipy pulls
    in count as scipy's.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative_us, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(cumulative_us)))
    # the log lists children before their parent; walk it backwards
    ancestors, stack = [None] * len(entries), []
    for i in range(len(entries) - 1, -1, -1):
        depth, name, _ = entries[i]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ancestors[i] = {n for _, n in stack}
        stack.append((depth, name))

    def outermost(package, *outer):
        total = 0
        for (_, name, cumulative), above in zip(entries, ancestors):
            if _within(name, package) and not any(
                    _within(a, p) for a in above for p in (package,) + outer):
                total += cumulative
        return 1e-6 * total

    numpy_s, scipy_s = outermost("numpy", "scipy"), outermost("scipy")
    return {"numpy": numpy_s, "scipy": scipy_s,
            "spinberry_self": outermost("spinberry") - numpy_s - scipy_s}


def _within(module, package):
    return module == package or module.startswith(package + ".")
