"""Casimir benchmark: run one workload, check every output, print metrics.

Run from the repository root:

    python3 perfbench/run.py --workload readme_sweeps --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  One client sends requests in a
closed loop from this process: in-process ``casimir.cli.main(argv)`` calls
or library calls on the package under ``src/``.  A run measures set-up in
fresh interpreters, runs one warm-up pass, then timed passes until
``--seconds`` have elapsed and at least the workload's minimum pass count
is reached.  Every output of every pass is checked against
``references.json`` (see ``refgen.py``) and CLI output must be byte-identical
across the passes of a run.

Times are normalized to a fixed machine speed.  The speed of shared
virtual CPUs drifts by tens of percent within seconds, so a calibration
kernel (fixed numpy and Python work, independent of the package) runs
between requests, and once a second inside long requests (``SpeedProbe``),
outside the timed spans.  Each request's latency is multiplied by
``CAL_NOMINAL_S`` over the mean of the kernel times just before, inside
and just after it.  Set-up times are not scaled (see ``measure_setup``).  A time
is thus in seconds at the speed at which the kernel takes
``CAL_NOMINAL_S``.  The table also prints the raw medians.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``tracer.py``, the tracing overhead, and whether every counter repeated
exactly across the traced passes (the warm-up pass is traced too).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers in a table, with quartiles and sample counts, and an
environment block.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

from tracer import COUNTERS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, cli_argv, make_plan  # noqa: E402

SETUP_SAMPLES = 5
CAL_ITERATIONS = 400
# median kernel time on the shared 2-core x86_64 VM (Python 3.11.7, numpy 2.4.6)
# the benchmark was defined on; times are reported at that speed
CAL_NOMINAL_S = 0.00675
PROBE_INTERVAL_S = 1.0   # longer than any threaded request, see SpeedProbe
DEADLINE_S = 150.0   # no pass starts after this, so a run ends well within 180 s

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s",
    "peak_rss_mb": "MB", "max_rel_err": "1",
}
PER_LAYER_UNITS = {
    "cli.calls": "count", "cli.self_s": "s",
    "observable.calls": "count", "observable.self_s": "s",
    "lifshitz.sums": "count", "lifshitz.sums_repeated": "count",
    "lifshitz.sum_reuse_ratio": "1", "lifshitz.modes": "count",
    "lifshitz.modes_per_sum": "count", "lifshitz.mode.self_us": "us",
    "lifshitz.integrand.self_s": "s",
    "quadrature.calls": "count", "quadrature.rounds": "count",
    "quadrature.points": "count", "quadrature.points_per_mode": "count",
    "quadrature.self_s": "s", "quadrature.neumaier_s": "s",
    "dispersion.eps.calls": "count", "dispersion.eps.points": "count",
    "dispersion.eps.busy_s": "s",
    "dispersion.nu.calls": "count", "dispersion.nu.busy_s": "s",
    "trace.overhead_frac": "1",
}


class HarnessError(Exception):
    """The benchmark itself cannot run; no result is printed."""


# ---------------------------------------------------------------------------
# statistics

def quantile(values, q):
    """Harrell-Davis quantile: a beta-weighted mean of all order statistics.

    A workload sends a few request kinds of very different cost, so a
    percentile often falls between two kinds.  A single order statistic
    there is the slowest request of one kind or the fastest of the next and
    jumps with one outlier; the weighted mean does not.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    cdf = betainc(a, b, np.arange(n + 1) / n)
    return float(np.diff(cdf) @ np.asarray(xs))


def tail_rank(n_min):
    """The 90th percentile, or the highest one with ten samples beyond it.

    Based on the workload's minimum sample count, so that the same rank is
    reported whatever the pass count of a run; never below the median.
    """
    return min(0.9, max(0.5, 1.0 - 10.0 / n_min))


def quartiles(values):
    return quantile(values, 0.25), quantile(values, 0.75)


# ---------------------------------------------------------------------------
# calibration

_CAL_X = np.linspace(0.0, 30.0, 165)


def calibration_sample():
    """Seconds for a fixed kernel shaped like the engine's work."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(CAL_ITERATIONS):
        x = _CAL_X + i * 1e-3
        e = np.exp(-2.0 * x)
        y = x * x * e / (1.0 - 0.5 * e)
        acc += float(y @ _CAL_X) + sum(float(v) for v in y[:8])
    if not acc > 0.0:
        raise HarnessError("calibration kernel misbehaved")
    return perf_counter() - t0


class SpeedProbe:
    """Samples the kernel every ``PROBE_INTERVAL_S`` while a request runs.

    A request of several seconds outlasts the machine's speed swings, so
    the kernel times just before and after it do not describe it; SIGALRM
    runs the kernel inside it, in the main thread, and ``spent`` is the time
    the handler took, which the caller subtracts from the request.
    """

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(calibration_sample())
        self.spent += perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


# ---------------------------------------------------------------------------
# set-up

def measure_setup(workload):
    """Seconds from interpreter start until imports and models are built,
    one per fresh interpreter.

    Set-up is mostly loading numpy and scipy, whose speed does not follow
    the calibration kernel, so these times are not scaled.
    """
    code = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
            f"import casimir, casimir.cli\n{workload.setup_code}\n"
            "print('ready', flush=True)\n")
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise HarnessError(f"set-up probe failed:\n{err}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# requests and output checks

def parse_output(text, fmt):
    """(meta, columns, rows) of a CLI sweep in csv or json."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["meta"], doc["columns"], doc["rows"]
    lines = text.splitlines()
    meta = {}
    i = 0
    while lines[i].startswith("# "):
        key, value = lines[i][2:].split(" = ", 1)
        meta[key] = value
        i += 1
    columns = lines[i].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[i + 1:]]
    return meta, columns, rows


def _error(value, ref, scale):
    err = abs(value - ref) / scale if scale > 0 else (0.0 if value == ref else math.inf)
    return err if err == err else math.inf   # NaN counts as a miss


def check_cli(text, fmt, ref):
    """Largest error/scale over the output and a list of problems."""
    try:
        meta, columns, rows = parse_output(text, fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return math.inf, [f"unparsable output: {exc!r}"]
    problems = []
    if columns != ref["columns"]:
        problems.append(f"columns {columns} != {ref['columns']}")
    if len(rows) != len(ref["rows"]):
        problems.append(f"{len(rows)} rows, expected {len(ref['rows'])}")
    worst = 0.0
    if not problems:
        for row, ref_row, scale_row in zip(rows, ref["rows"], ref["scales"]):
            for value, r, s in zip(row, ref_row, scale_row):
                worst = max(worst, _error(value, r, s))
    for key, (r, s) in ref["meta"].items():
        try:
            worst = max(worst, _error(float(meta[key]), r, s))
        except (KeyError, ValueError):
            problems.append(f"meta {key} missing or not a number")
    for key, prefix in ref["meta_prefix"].items():
        if not str(meta.get(key, "")).startswith(prefix):
            problems.append(f"meta {key} = {meta.get(key)!r}, expected {prefix}...")
    if problems:
        worst = math.inf
    return worst, problems


class Client:
    """Sends one workload's requests and checks what comes back."""

    def __init__(self, workload, plan, refs, gate, casimir):
        self.workload = workload
        self.plan = plan
        self.refs = refs
        self.gate = gate
        self.casimir = casimir
        self.model = casimir.gold_drude()
        self.first_output = {}   # rid -> output text of the first pass
        self.checked = {}        # (rid, text) -> (error, problems)
        self.attempted = 0
        self.failed = 0
        self.max_err = 0.0
        self.failures = []

    def _call(self, request):
        fn, T, a = request.call
        cfg = self.casimir.ThermalGapConfig(T=T, a=a)
        t0 = perf_counter()
        try:
            result = getattr(self.casimir, fn)(cfg, self.model)
        except Exception as exc:  # a failed request is counted, not fatal
            return perf_counter() - t0, f"raised {exc!r}", None
        dt = perf_counter() - t0
        value = result.total if fn == "total_pressure" else result
        return dt, 0, value

    def _cli(self, request):
        fmt, sink = self.plan.output[request.rid]
        argv = cli_argv(request) + ["--format", fmt]
        path = OUT_DIR / f"{request.rid}.{fmt}" if sink == "file" else None
        if path is not None:
            argv += ["--out", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = self.casimir.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a failed request is counted, not fatal
                rc = f"raised {exc!r}"
            dt = perf_counter() - t0
        return dt, rc, (path, out.getvalue(), err.getvalue())

    def run_pass(self, tracer=None):
        """Send one pass; returns (scaled pass time, scaled request times,
        raw pass time).  A pass time is the sum of its request times."""
        results, raw, ops = [], [], []
        before = calibration_sample()
        for request in self.plan.pass_order():
            if tracer is not None:
                tracer.begin_request()
            send = self._call if request.call is not None else self._cli
            with SpeedProbe() as probe:
                dt, rc, payload = send(request)
            after = calibration_sample()
            dt -= probe.spent
            raw.append(dt)
            ops.append(dt * CAL_NOMINAL_S / statistics.fmean([before, after, *probe.samples]))
            results.append((request, rc, payload))
            before = after
        for request, rc, payload in results:
            self._check(request, rc, payload)
        return sum(ops), ops, sum(raw)

    def _check(self, request, rc, payload):
        self.attempted += 1
        rid = request.rid
        ref = self.refs[f"{self.workload.name}/{rid}"]
        problems = []
        if rc != 0:
            problems.append(f"exit {rc}")
            if request.call is None:
                problems.append(payload[2].strip()[-300:])
        elif request.call is not None:
            text = repr(payload)
            err = _error(payload, ref["value"], ref["scale"])
            problems += self._record(rid, text, err, [])
        else:
            path, stdout, _ = payload
            text = path.read_text(encoding="utf-8") if path is not None else stdout
            key = (rid, text)
            if key not in self.checked:
                self.checked[key] = check_cli(text, self.plan.output[rid][0], ref)
            err, found = self.checked[key]
            problems += self._record(rid, text, err, found)
        if problems:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{rid}: {'; '.join(problems)}")

    def _record(self, rid, text, err, problems):
        problems = list(problems)
        first = self.first_output.setdefault(rid, text)
        if text != first:
            problems.append("output differs from the first pass")
        self.max_err = max(self.max_err, err)
        if not err <= self.gate:
            problems.append(f"error {err:.3e} exceeds gate {self.gate:g}")
        return problems


# ---------------------------------------------------------------------------
# environment

def blas_info():
    info = {}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version"),
                "configuration": blas.get("openblas configuration")}
    except (AttributeError, KeyError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            info["threads"] = fn()
            return info
    info["threads"] = os.environ.get("OPENBLAS_NUM_THREADS", "unknown")
    return info


def environment(args, passes):
    import scipy
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_info(),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "warmup_passes": 1, "timed_passes": passes,
    }


# ---------------------------------------------------------------------------
# runs

def timed_passes(client, seconds, min_passes, t_start, tracer=None):
    """Untraced passes (alternating with traced ones when a tracer is given)."""
    plain, traced = [], []
    t0 = perf_counter()
    last = 0.0
    while True:
        now = perf_counter()
        enough = now - t0 >= seconds and len(plain) >= min_passes
        if tracer is not None:
            enough = enough and len(traced) >= 1
        if enough or (plain and now - t_start + last > DEADLINE_S):
            return plain, traced
        plain.append(client.run_pass())
        if tracer is not None:
            tracer.install()
            try:
                wall, _, raw = client.run_pass(tracer)
            finally:
                tracer.uninstall()
            layers = layer_metrics(tracer.collect())
            for name in layers:   # layer times at the same speed as the pass
                if PER_LAYER_UNITS[name] in ("s", "us"):
                    layers[name] *= wall / raw
            traced.append((wall, layers))
        last = perf_counter() - now


def report_line(name, value, unit, note=""):
    print(f"  {name:<28} {value:>14.6g} {unit:<6} {note}")


def run(args) -> dict:
    t_start = perf_counter()
    workload = WORKLOADS[args.workload]
    doc = json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))
    setup = measure_setup(workload)

    sys.path.insert(0, str(SRC))
    import casimir
    import casimir.cli
    if Path(casimir.__file__).resolve().parent != SRC / "casimir":
        raise HarnessError(f"imported casimir from {casimir.__file__}, not {SRC}")

    OUT_DIR.mkdir(exist_ok=True)
    plan = make_plan(workload, args.seed)
    client = Client(workload, plan, doc["requests"], doc["gate"], casimir)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
            try:
                client.run_pass(tracer)
            finally:
                tracer.uninstall()
            warm_counts = layer_metrics(tracer.collect())
        else:
            client.run_pass()
        min_passes = 1 if tracer is not None else workload.min_passes
        plain, traced = timed_passes(client, args.seconds, min_passes, t_start, tracer)
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)

    walls = [w for w, _, _ in plain]
    raw_walls = [r for _, _, r in plain]
    print(f"workload {workload.name}: seed {args.seed}, 1 warm-up + {len(plain)} timed "
          f"passes{f' + {len(traced)} traced' if traced else ''}, "
          f"{client.attempted} requests checked, {client.failed} failed")
    correct = client.failed == 0
    if tracer is None:
        ops = [dt for _, pass_ops, _ in plain for dt in pass_ops]
        q_tail = tail_rank(workload.min_passes * len(workload.requests))
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "op_p50_s": quantile(ops, 0.5),
            "op_p90_s": quantile(ops, q_tail),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "max_rel_err": client.max_err,
        }
        notes = {
            "setup_s": "median of {} fresh interpreters, q1 {:.4g} q3 {:.4g}; "
                       "not scaled".format(len(setup), *quartiles(setup)),
            "wall_s": "median of {} passes, q1 {:.4g} q3 {:.4g}; raw median {:.4g}".format(
                len(walls), *quartiles(walls), statistics.median(raw_walls)),
            "op_p50_s": f"over {len(ops)} requests",
            "op_p90_s": f"p{100 * q_tail:.1f} over {len(ops)} requests",
            "peak_rss_mb": "ru_maxrss of this process",
            "max_rel_err": f"largest |out - ref| / scale; gate {client.gate:g}",
        }
        units = END_TO_END_UNITS
        for name, value in metrics.items():
            report_line(name, value, units[name], notes[name])
        failed_frac = client.failed / client.attempted
        report_line("failed_frac", failed_frac, "1",
                    f"{client.failed} of {client.attempted} requests")
    else:
        layers = [m for _, m in traced]
        repeat = all({k: m[k] for k in COUNTERS} == {k: warm_counts[k] for k in COUNTERS}
                     for m in layers)
        correct = correct and repeat
        metrics = {name: (layers[0][name] if name in COUNTERS
                          else statistics.median(m[name] for m in layers))
                   for name in layers[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(w for w, _ in traced) / statistics.median(walls) - 1.0)
        units = PER_LAYER_UNITS
        for name, value in metrics.items():
            report_line(name, value, units[name])
        print(f"  counters identical across {len(layers) + 1} traced passes "
              f"(warm-up included): {repeat}")
    for failure in client.failures:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(environment(args, len(plain)), sort_keys=True))
    return {"correct": correct, "attempted": client.attempted, "failed": client.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "casimir" / "__init__.py").is_file():
        print(f"run.py: no casimir package under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
