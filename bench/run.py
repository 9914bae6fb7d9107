#!/usr/bin/env python3
"""Run one torusdet benchmark workload and print its metrics.

    python3 bench/run.py --workload reglimit --seed 1 --seconds 25 --trace 0

Run from the repository root or anywhere else; the library is imported
from ``src/`` next to this directory.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Lines before it start
with ``#`` and carry the environment record and diagnostics.  The full
result (and, when traced, every span) is written to
``bench/out/BENCH_<workload>_seed<seed>_trace<0|1>.json``.

See ``bench/README.md`` for the workloads, metrics and known defects.
"""

import os

# Cap BLAS/OpenMP pools before numpy is imported anywhere in this process;
# set-up probes inherit the same environment.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
    "TORUSDET_THREADS")}
os.environ.update(THREAD_ENV)

import argparse          # noqa: E402
import hashlib           # noqa: E402
import importlib.util    # noqa: E402
import json              # noqa: E402
import platform          # noqa: E402
import resource          # noqa: E402
import shutil            # noqa: E402
import statistics        # noqa: E402
import subprocess        # noqa: E402
import sys               # noqa: E402
import tempfile          # noqa: E402
import time              # noqa: E402
import warnings          # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np        # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 5            # set-ups timed per run; setup_s is their median
PROBE_TIMEOUT_S = 120
CAL_EVERY_S = 0.05          # call time between two calibration chunks
CAL_REF_S = 1.0e-3          # chunk time that defines the reference speed
CAL_X = np.linspace(0.5, 2.0, 64)
WORKLOAD_NAMES = ("reglimit", "matrix_tree", "routes")


def monotonic():
    """A clock shared by this process and its set-up probes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="total pass time to measure (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)   # set up, report, exit
    return p.parse_args(argv)


def set_up(args, workdir):
    """Import the library, build the seeded inputs and warm up."""
    sys.path.insert(0, str(SRC))
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.warm_up()
    return workload


def calibration_chunk():
    """Time a fixed piece of the benchmark's own work, as a gauge of CPU speed.

    The work (small numpy ufuncs in a Python loop, plus Python integer
    arithmetic) is the mix of the library's hot loops, so when the shared
    CPU is contended or throttled it slows about as much as a pass does.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(150):
        acc += float(np.sum(np.log(CAL_X + i)))
        for j in range(40):
            acc += j * j
    return time.perf_counter() - start


def at_reference_speed(seconds, chunk_before, chunk_after):
    """Rescale a wall time by the CPU speed the chunks around it measured."""
    return seconds * 2.0 * CAL_REF_S / (chunk_before + chunk_after)


def calibration_level():
    """Mean of five chunks, for the CPU speed around a set-up probe."""
    return statistics.mean(calibration_chunk() for _ in range(5))


def time_set_up(args):
    """Set up in a fresh process that reports and stops.

    Returns its set-up time as (wall seconds, reference-speed seconds).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    before = calibration_level()
    started = monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("set-up probe timed out")
    words = out.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {out!r}")
    wall = float(words[1]) - started
    return wall, at_reference_speed(wall, before, calibration_level())


def run_pass(calls, tracer):
    """One timed pass, with a calibration chunk after every CAL_EVERY_S of calls.

    Chunk time is not pass time.  Each stretch of calls between two chunks
    is rescaled by their mean to reference speed.  Returns
    ``(wall seconds, reference-speed seconds, outputs, exceptions)``.
    """
    outputs, errors = {}, {}
    wall = scaled = stretch = 0.0
    before = calibration_chunk()
    for c in calls:
        start = time.perf_counter()
        try:
            args = c.args(outputs) if callable(c.args) else c.args
            outputs[c.key] = tracer.call(c.layer, c.fn, *args, work=c.work,
                                         **c.kwargs)
        except Exception as exc:      # a failed call is a failed check
            errors[c.key] = exc
        stretch += time.perf_counter() - start
        if stretch >= CAL_EVERY_S or c is calls[-1]:
            after = calibration_chunk()
            wall += stretch
            scaled += at_reference_speed(stretch, before, after)
            stretch, before = 0.0, after
    return wall, scaled, outputs, errors


class Tally:
    """Check results over all passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.err_to_tol_max = 0.0
        self.failures = []

    def add(self, checks, outputs, errors):
        results = [(f"call {key} raised {type(exc).__name__}: {exc}", False, None)
                   for key, exc in errors.items()]
        for name, fn in checks:
            try:
                ok, ratio = fn(outputs)
            except Exception as exc:
                ok, ratio = False, None
                name = f"{name}: {type(exc).__name__}: {exc}"
            results.append((name, bool(ok), ratio))
        for name, ok, ratio in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(name)
            if ratio is not None:
                self.err_to_tol_max = max(
                    self.err_to_tol_max, ratio if ratio == ratio else float("inf"))


def threads_now():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import threading
    return threading.active_count()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    """HEAD of the enclosing git checkout, or None outside one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "torusdet").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    import mpmath
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "thread_env": THREAD_ENV,
        "threadpoolctl_importable":
            importlib.util.find_spec("threadpoolctl") is not None,
    }


def known_defects(workload):
    """Diagnostics, not checks: defects kept visible until they are fixed."""
    import torusdet as td
    t = td.DiscreteTorus(2, 64)
    via = td.logdet_via_regint(lambda z, a: td.resolvent_trace(t, z, a), 2, 1,
                               nonzero_modes=t.points - 1)
    out = {
        "logdet_via_regint_default_window_abs_err_m2_n64":
            abs(via - td.log_det(t)),
        "log_det_zeta_cached": "warm passes skip the zeta continuation: "
                               "log_det_zeta is lru_cached and filled in set-up",
    }
    if workload.name == "reglimit":
        rep = td.convergence_check(3, [8, 16, 32, 64, 128], 1.0, 3)
        out["convergence_m3_z1_derivative_rel_err"] = max(
            rep.derivative_rel_err_discrete, rep.derivative_rel_err_continuum)
    return out


class Measurement:
    """Samples of one run; pass and set-up times are (wall, reference) pairs."""

    def __init__(self):
        self.tally = Tally()
        self.plain = []
        self.traced = []
        self.setup = []
        self.traced_cpu_s = []
        self.threads = []

    def pass_time(self):
        return sum(w for w, _ in self.plain + self.traced)


def measure(workload, args):
    """Passes until their wall times add up to ``args.seconds``.

    In a traced run, untraced and traced passes alternate.  In an untraced
    run a set-up probe follows each of the first passes, so that set-up and
    pass samples are spread over the same stretch of time.
    """
    from tracing import NullTracer, Tracer
    traced = bool(args.trace)
    null, tracer = NullTracer(), Tracer()
    checks = workload.checks()
    plain_calls = workload.calls(null)
    traced_calls = workload.calls(tracer) if traced else None
    run = Measurement()
    while True:
        if traced and len(run.traced) < len(run.plain):
            tracer.pass_index = len(run.traced)
            cpu0 = time.process_time()
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                tracer.warnings_seen = seen
                wall, ref, outputs, errors = run_pass(traced_calls, tracer)
            tracer.warnings_seen = []
            run.traced_cpu_s.append(time.process_time() - cpu0)
            run.threads.append(threads_now())
            run.traced.append((wall, ref))
            tracer.counts[tracer.pass_index].update(workload.pass_counts(outputs))
        else:
            wall, ref, outputs, errors = run_pass(plain_calls, null)
            run.plain.append((wall, ref))
        run.tally.add(checks, outputs, errors)
        if not traced and len(run.setup) < SETUP_PROBES:
            run.setup.append(time_set_up(args))
        if run.pass_time() >= args.seconds and (run.traced or not traced):
            break
    while not traced and len(run.setup) < SETUP_PROBES:
        run.setup.append(time_set_up(args))
    return run, tracer


def median_of(pairs, index):
    return statistics.median(p[index] for p in pairs)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "torusdet" / "__init__.py").is_file():
        print(f"error: the torusdet sources are missing ({SRC / 'torusdet'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))

    if args.setup_probe:
        set_up(args, OUT / "probe")
        print("ready", monotonic(), flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        t0 = time.perf_counter()
        workload = set_up(args, workdir)
        own_setup_s = time.perf_counter() - t0
        run, tracer = measure(workload, args)
        try:
            defects = known_defects(workload)
        except Exception as exc:       # diagnostics must not sink the run
            defects = {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = run.tally
    if args.trace:
        from tracing import layer_metrics
        layers = layer_metrics(tracer, [w for w, _ in run.traced])
        traced_ref = median_of(run.traced, 1)
        layers.update({
            "process.cpu_s": (statistics.median(run.traced_cpu_s), "s"),
            "process.threads_max": (max(run.threads), "count"),
            "process.traced_pass_s": (traced_ref, "s"),
            "process.trace_overhead_frac": (
                traced_ref / median_of(run.plain, 1) - 1.0, "ratio"),
        })
        metrics = {k: metric(v, u) for k, (v, u) in layers.items()}
    else:
        metrics = {
            "setup_s": metric(median_of(run.setup, 1), "s"),
            "pass_s": metric(median_of(run.plain, 1), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "checks_passed_frac": metric(
                (tally.attempted - tally.failed) / tally.attempted, "ratio"),
            "err_to_tol_max": metric(tally.err_to_tol_max, "ratio"),
        }

    env = environment()
    wall = [w for w, _ in run.plain]
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": workload.inputs(),
        "passes_untraced": len(run.plain),
        "passes_traced": len(run.traced),
        "pass_wall_s_median": statistics.median(wall),
        "pass_wall_s_min_max": [min(wall), max(wall)],
        "pass_s_samples_wall_ref": run.plain,
        "setup_wall_s_median": median_of(run.setup, 0) if run.setup else None,
        "setup_s_samples_wall_ref": run.setup,
        "own_setup_wall_s": own_setup_s,
        "checks_attempted": tally.attempted,
        "checks_failed": tally.failed,
        "checks_failed_frac": tally.failed / tally.attempted,
        "failures": tally.failures,
        "known_defects": defects,
    }
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {"result": result, "env": env, "diagnostics": diagnostics}
    if args.trace:
        record["spans"] = tracer.to_json()
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str) + "\n")

    print("# env " + json.dumps(env))
    print("# diagnostics " + json.dumps(diagnostics, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
