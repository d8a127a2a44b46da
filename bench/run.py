"""Run one spinberry benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout, in one process and one thread,
calling spinberry from ``src/``.  A run measures set-up in fresh
interpreters, builds one round of operations from the seed, runs it once
untimed, then repeats whole rounds until ``--seconds`` have passed.
Every operation's output is checked against the benchmark's own reference.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of one traced
round that follows the untraced rounds, and the spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# one thread: numpy's BLAS pools start when numpy is imported
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
#: fresh interpreters timed for setup_s, one after another
SETUP_RUNS = 5

# This host runs at one speed for a few seconds, then up to twice as slow
# for a while, and the slow spells can outlast a whole run: raw medians
# moved by 13-35% between runs of the same code.  So every time is
# calibrated: a fixed probe, which uses nothing from spinberry, is timed
# next to each measurement, and the measurement is scaled by
# reference / probe, as if the host ran at its full speed.  The slow spells
# hit kinds of work unequally, so each workload has the probe that followed
# its operations best: float formatting and numpy scalars for the CLI path,
# a pass over 4 MB for the oracle's large arrays, a pure-Python loop for
# the vectorized kernels and for the import.
PROBE_SOURCE = """
def best_of_3(fn):
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def loop_probe():
    total = 0
    for i in range(20_000):
        total += i
"""
exec(PROBE_SOURCE)  # the same source runs in the fresh interpreters below
_PROBE_ARRAY = np.random.default_rng(0).random(1 << 19)


def format_probe():
    for i in range(300):
        format(math.exp(i * 1e-3), ".17g")
        float(np.float64(i) * 2.0)


def memory_probe():
    np.sqrt(_PROBE_ARRAY).sum()


#: each workload's probe and its best-of-3 time at full speed on the
#: reference host, a shared 2-vCPU VM with CPython 3.11 and numpy 2.4
#: (about the 5th percentile of a few hundred samples)
LOOP_REFERENCE_S = 0.7e-3
PROBES = {"sweep": (format_probe, 0.25e-3),
          "verify": (memory_probe, 0.8e-3),
          "kernels": (loop_probe, LOOP_REFERENCE_S)}
_SETUP_CODE = "from time import perf_counter" + PROBE_SOURCE + """
before = best_of_3(loop_probe)
start = perf_counter()
import spinberry.cli
elapsed = perf_counter() - start
print(elapsed, 0.5 * (before + best_of_3(loop_probe)))
"""


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "verify", "kernels"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_spinberry():
    """Import spinberry from this checkout's src/, never from elsewhere."""
    if not (SRC / "spinberry" / "__init__.py").is_file():
        fail(f"no spinberry sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spinberry
    import spinberry.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(spinberry.__file__).resolve().parent != SRC / "spinberry":
        fail(f"imported spinberry from {spinberry.__file__}, not {SRC}")
    return spinberry


def fresh_imports(importtime):
    """Time `import spinberry.cli` in SETUP_RUNS fresh interpreters.

    Returns (seconds, calibration factor, stderr) per interpreter; stderr
    holds the ``-X importtime`` log when asked for.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable] + (["-X", "importtime"] if importtime else []) \
        + ["-c", _SETUP_CODE]
    results = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"fresh import failed: {proc.stderr[-2000:]}")
        elapsed, probe_s = map(float, proc.stdout.split()[-2:])
        results.append((elapsed, LOOP_REFERENCE_S / probe_s, proc.stderr))
    return results


def digest(value):
    """Hash of an operation's output, arrays by their bytes."""
    h = hashlib.blake2b()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(repr((x.dtype, x.shape)).encode())
            h.update(np.ascontiguousarray(x).data)
        elif isinstance(x, (tuple, list)):
            h.update(b"(%d" % len(x))
            for item in x:
                feed(item)
        else:
            h.update(repr(x).encode())

    feed(value)
    return h.digest()


class Tally:
    """Per-operation times and failures over the rounds of one phase.

    Each operation's time is calibrated by the mean of the probes run just
    before and just after it.  Each output is checked against the reference
    the first time it is seen; an output identical to one already checked
    gets the same verdict.
    """

    def __init__(self, ops, verdicts, probe):
        self.ops = ops
        self.verdicts = verdicts
        self.probe, self.reference = probe
        self.times = [[] for _ in ops]
        self.raw = [[] for _ in ops]
        self.factors = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def run_round(self, calls):
        before = best_of_3(self.probe)
        for k, (op, call) in enumerate(zip(self.ops, calls)):
            start = perf_counter()
            try:
                out, error = call(), None
            except Exception as exc:  # an operation that raises has failed
                out, error = None, exc
            elapsed = perf_counter() - start
            after = best_of_3(self.probe)
            factor = self.reference / (0.5 * (before + after))
            self.raw[k].append(elapsed)
            self.factors[k].append(factor)
            self.times[k].append(elapsed * factor)
            before = after
            if error:
                problems = [f"{type(error).__name__}: {error}"]
            else:
                out = op.collect(out)
                key = (id(op), digest(out))
                if key not in self.verdicts:
                    self.verdicts[key] = op.check(out, op)
                problems = self.verdicts[key]
            del out  # free it before the next operation, for peak_rss_mb
            self.attempted += 1
            if problems:
                self.failed += 1
                if not op.known_fault:
                    self.unexpected.append(f"{op.kind}: {'; '.join(problems)}")

    def run_for(self, seconds, calls):
        start = perf_counter()
        while True:
            self.run_round(calls)
            if perf_counter() - start >= seconds:
                return

    def per_op(self):
        """Each operation's time: the 10th percentile of its calibrated times."""
        return [float(np.percentile(t, 10)) for t in self.times]

    def throughput(self):
        """Units per second of one round at each operation's time."""
        return sum(op.units for op in self.ops) / sum(self.per_op())

    def latency(self):
        """The median over the round's operations of their times."""
        return statistics.median(self.per_op())

    def sweep_us_per_row(self):
        """Microseconds per row for each sweep variable."""
        totals = {}
        for op, seconds in zip(self.ops, self.per_op()):
            variable = op.kind.split(".")[1]
            time_s, rows = totals.get(variable, (0.0, 0))
            totals[variable] = (time_s + seconds, rows + op.units)
        return {v: 1e6 * t / r for v, (t, r) in totals.items()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    spinberry = import_spinberry()
    import tracing
    import workloads

    setup = fresh_imports(importtime=bool(args.trace))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        rng = np.random.default_rng([args.seed, len(args.workload)])
        ops = workloads.WORKLOADS[args.workload](rng, spinberry, str(workdir))
        calls = [op.call for op in ops]
        verdicts, probe = {}, PROBES[args.workload]
        Tally(ops, verdicts, probe).run_round(calls)  # warm-up, not counted
        tally = Tally(ops, verdicts, probe)
        tally.run_for(args.seconds / 2 if args.trace else args.seconds, calls)
        if args.trace:
            tracer = tracing.Tracer()
            traced_calls = [tracer.wrap(op.call, f"op.{op.kind}",
                                        count=lambda _, op=op: op.units)
                            for op in ops]
            traced = Tally(ops, verdicts, probe)
            undo = tracer.install(spinberry)
            try:
                traced.run_round(traced_calls)
            finally:
                tracer.uninstall(undo)
            table = tracer.arrays()
            np.savez(OUT / f"trace-{args.workload}-{args.seed}.npz", **table)
            imports = {key: statistics.median(
                tracing.import_breakdown(log)[key] * factor
                for _, factor, log in setup)
                for key in ("numpy", "scipy", "spinberry_self")}
            layers = tracing.layer_metrics(
                args.workload, table, [f[0] for f in traced.factors],
                tracer.peaks, ops, imports,
                tally.sweep_us_per_row() if args.workload == "sweep" else {},
                traced.throughput() / tally.throughput())
            metrics = {name: metric(v, u) for name, (v, u) in layers.items()}
            tallies = (tally, traced)
        else:
            metrics = {
                "setup_s": metric(statistics.median(
                    seconds * factor for seconds, factor, _ in setup), "s"),
                "latency_s": metric(tally.latency(), "s"),
                "throughput_per_s": metric(tally.throughput(), "1/s"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "MB"),
            }
            tallies = (tally,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unexpected = [u for t in tallies for u in t.unexpected]
    for line in unexpected:
        print(f"unexpected failure: {line}", file=sys.stderr)
    result = {"correct": not unexpected,
              "attempted": sum(t.attempted for t in tallies),
              "failed": sum(t.failed for t in tallies),
              "metrics": metrics}
    line = json.dumps(result)
    record = dict(result, raw_times={f"{op.kind}#{k}": raw for k, (op, raw)
                                     in enumerate(zip(ops, tally.raw))},
                  times={f"{op.kind}#{k}": times for k, (op, times)
                         in enumerate(zip(ops, tally.times))})
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
