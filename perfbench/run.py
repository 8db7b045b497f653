"""edgeslice benchmark: one command for the compare_grid, train_dual and
fit_forecaster workloads.

    python3 perfbench/run.py --workload compare_grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics; ``--trace 1`` runs a fixed number of operations with
every module entry point wrapped and prints the per-layer metrics.  The last
stdout line is one JSON object (correct, attempted, failed, metrics); the
metric names and units come from ``BENCHMARK.json``.  Details, machine data
and span dumps go to ``perfbench/out/``.  See perfbench/README.md.
"""

import os
import sys

# Pin BLAS to one thread before numpy is imported anywhere in this process
# (set-up probes inherit the environment).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 120


def _import_package():
    """Import edgeslice from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import edgeslice
    except ImportError as exc:
        sys.exit(f"error: cannot import edgeslice from {src}: {exc}")
    if Path(edgeslice.__file__).resolve().parent != src / "edgeslice":
        sys.exit(f"error: edgeslice imported from {edgeslice.__file__}, not {src}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compare_grid", "train_dual", "fit_forecaster"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


# ---------------------------------------------------------------------------
# Machine description
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ[v] for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# Set-up time: process start to ready-to-run, measured in child processes
# ---------------------------------------------------------------------------

def probe_setup(args, traced: bool) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0"]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            seconds = perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return seconds


def setup_probe_main(args) -> None:
    _import_package()
    import workloads
    workdir = OUT / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            import tracer
            tracer.Tracer().install()
        workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def run_op(wl, k, attempts, tracer=None):
    """One timed call plus its checks; exceptions fail every attempt.
    With a tracer, only the call itself runs traced, as operation ``k``."""
    import workloads
    try:
        if tracer is not None:
            tracer.op = k
            tracer.install()
        try:
            start = perf_counter()
            result = wl.call(k)
            seconds = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        outcome = wl.check(k, result, seconds)
    except Exception:  # noqa: BLE001 - a failing operation is a result
        traceback.print_exc()
        outcome = workloads.Outcome(float("nan"), failures=["exception"] * attempts)
    outcome.attempted = attempts
    for failure in outcome.failures:
        print(f"FAIL {wl.name} op {k}: {failure}", file=sys.stderr)
    return outcome


def _throughput(outcomes) -> float:
    """Work per host second over all the calls: their inputs differ in cost,
    so the ratio of totals weighs each input by its work."""
    return sum(o.units for o in outcomes) / sum(o.seconds for o in outcomes)


def _latencies(outcomes) -> list:
    return [s for o in outcomes for s in o.latencies]


def _tail(latencies):
    """Highest whole percentile with at least ten samples above it."""
    n = len(latencies)
    q = (100 * (n - 10)) // n if n >= 20 else 0
    if q < 50:
        return None
    value = statistics.quantiles(latencies, n=100)[q - 1]
    return q, value, sum(1 for s in latencies if s > value)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(cls, timed, setup, peak_rss_mb, lines) -> dict:
    """End-to-end figures of the untraced calls, plus readable lines."""
    ok = [o for o in timed if not o.failures]
    lat = _latencies(ok)
    values = {
        "throughput_per_s": _throughput(ok) if ok else float("nan"),
        "op_s_p50": statistics.median(lat) if lat else float("nan"),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    lines.append(f"{cls.throughput_alias} = {values['throughput_per_s']!r} 1/s "
                 f"({cls.unit} per host second over n={len(ok)} calls)")
    lines.append(f"{cls.latency_alias}_p50 = {values['op_s_p50']!r} s "
                 f"(n={len(lat)} {cls.latency_unit})")
    tail = _tail(lat)
    if tail:
        lines.append(f"{cls.latency_alias}_p{tail[0]} = {tail[1]!r} s "
                     f"(n={len(lat)}, {tail[2]} above)")
    lines.append(f"setup_s = {values['setup_s']!r} s "
                 f"(median of n={len(setup)} set-ups in child processes)")
    lines.append(f"peak_rss_mb = {peak_rss_mb!r} MB "
                 "(n=1 process, after set-up and the warm-up call)")
    lines.append(f"fingerprint op1 = {timed[0].fingerprint}")
    return values


def per_layer(cls, tracer, ops, traced) -> dict:
    """Per-layer figures: ``<span>_s`` is self time and ``<span>_calls`` the
    call count; counters keep their own names.  Checkpoint work happens in
    set-up; every other figure sums the traced operations."""
    import tracer as tracing
    values = {}
    for group, in_setup in ((ops, False), ([tracing.SETUP_OP], True)):
        self_s, calls, counts = tracer.summary(group)
        for name, seconds in self_s.items():
            if name.startswith("checkpoint.") == in_setup:
                values[f"{name}_s"] = seconds
                values[f"{name}_calls"] = calls[name]
        for name, amount in counts.items():
            if name.startswith("checkpoint.") == in_setup:
                values[name] = amount
    values["harness.run_self_s"] = values.get("harness.run_s", 0.0)
    uploaded = values.get("env.tasks_uploaded", 0)
    values["env.hit_ratio"] = (values.get("env.tasks_paid", 0) / uploaded
                               if uploaded else 0.0)
    if cls.name == "train_dual":
        steps = sum(o.units for o in traced)
        values["agent.featurise_calls_per_step"] = (
            values.get("agent.featurise_calls", 0) / steps)
    values["trace.spans"] = len(tracer.names)
    return values


def coverage(cls, values) -> list:
    """Expected spans that never fired, and bypassed layers that did."""
    problems = [f"span {name} recorded no calls"
                for name in cls.expected_spans + cls.expected_setup_spans
                if not values.get(f"{name}_calls")]
    for layer in cls.bypassed_layers:
        fired = sorted(name for name, value in values.items()
                       if value and name.startswith(layer + "."))
        if fired:
            problems.append(f"bypassed layer {layer} fired: {', '.join(fired)}")
    return problems


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        setup_probe_main(args)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _import_package()
    import tracer as tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    attempts = cls.attempts_per_op
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_info()}
    lines = []
    problems = []
    setup = []
    try:
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()  # set-up runs traced for the checkpoint spans
        try:
            wl = cls(args.seed, str(workdir))
        finally:
            if tracer:
                tracer.uninstall()
        outcomes = [run_op(wl, 0, attempts)]  # warm-up
        # Peak RSS of set-up plus one call, as a single CLI invocation sees
        # it: after the first call frees its replay buffers, glibc raises its
        # mmap threshold and later calls may touch heap pages instead.
        peak_rss_mb = _peak_rss_mb()
        if not args.trace:
            # Set-ups are spread over the timed window, between operations,
            # so that they sample the same host conditions as the operations.
            start = perf_counter()
            timed = []
            while not timed or perf_counter() < start + args.seconds:
                if perf_counter() - start >= args.seconds * len(setup) / SETUP_REPEATS:
                    setup.append(probe_setup(args, traced=False))
                timed.append(run_op(wl, len(timed) + 1, attempts))
            repeats = [run_op(wl, 1, attempts)]
            while len(setup) < SETUP_REPEATS:
                setup.append(probe_setup(args, traced=False))
        else:
            # Untraced and traced set-ups alternate, so drift cancels in
            # their difference.
            setup_traced = []
            for _ in range(SETUP_REPEATS):
                setup.append(probe_setup(args, traced=False))
                setup_traced.append(probe_setup(args, traced=True))
            ks = list(range(1, cls.trace_ops + 1))
            timed = [run_op(wl, k, attempts) for k in ks]
            repeats = [run_op(wl, k, attempts, tracer) for k in ks]
        for first, again in zip(timed, repeats):
            if first.fingerprint != again.fingerprint:
                again.failures.append(f"fingerprint {again.fingerprint[:12]} "
                                      f"!= first {first.fingerprint[:12]}")
        outcomes += timed + repeats
        values = end_to_end(cls, timed, setup, peak_rss_mb, lines)
        detail["samples"] = {"op_seconds": [o.seconds for o in timed],
                             "op_units": [o.units for o in timed],
                             "latencies_s": _latencies(timed), "setup_s": setup}
        detail["fingerprints"] = {f"op{k}": o.fingerprint
                                  for k, o in enumerate(timed, start=1)}
        if args.trace:
            layer = per_layer(cls, tracer, ks, repeats)
            layer["trace_overhead.throughput_per_s"] = (_throughput(repeats)
                                                        - values["throughput_per_s"])
            layer["trace_overhead.op_s_p50"] = (
                statistics.median(_latencies(repeats)) - values["op_s_p50"])
            layer["trace_overhead.setup_s"] = (statistics.median(setup_traced)
                                               - values["setup_s"])
            problems = coverage(cls, layer)
            spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.csv"
            tracer.write_spans(spans_path)
            detail["spans_file"] = spans_path.name
            detail["samples"]["traced_setup_s"] = setup_traced
            lines.append(f"traced ops = {len(repeats)}, each a repeat of an "
                         f"untraced op; spans = {len(tracer.names)}")
            values = layer
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(min(o.attempted, len(o.failures)) for o in outcomes)
    for problem in problems:
        print(f"FAIL coverage: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    metrics = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        value = values.get(entry["name"], 0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        if args.trace:
            lines.append(f"{entry['name']} = {value!r} {entry['unit']}")
    detail.update(correct=correct, attempted=attempted, failed=failed,
                  coverage_failures=problems, metrics=metrics,
                  failures=[f for o in outcomes for f in o.failures])
    result_path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    result_path.write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    machine = detail["machine"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"nproc={machine['nproc']} cpu={machine['cpu']!r} "
          f"python={machine['python']} numpy={machine['numpy']} "
          f"blas={machine['blas']} threads={machine['blas_threads']}")
    for line in lines:
        print(line)
    print(f"details: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
