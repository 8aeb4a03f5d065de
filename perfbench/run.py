"""conforminv benchmark: run one workload for a fixed time and report metrics.

Run from the repository root:

    python3 perfbench/run.py --workload lshape-hypdist --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory; without it
the script exits with code 2 before measuring anything.

One run: set up (imports, inputs from the seed, one warm-up query) in
this process and four more times in fresh child processes, then run queries
one after another in a closed loop, one process, until ``--seconds``
have passed. Every query is checked against its oracle.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each
input twice, untraced and then traced, and reports the per-layer
metrics of the traced copies together with the tracing overhead
(traced / untraced query time - 1, on the same inputs).

Earlier lines of standard output carry a JSON report (inputs, sample
counts, versions, layer shares); the last line is the result object.
Spans of a traced run are written to ``.perfbench-out/``.
"""

import time

_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("lshape-hypdist", "quad-sweep", "grid-field", "capacity-sweep")
SETUP_REPEATS = 5   # this process plus four fresh child processes
TINY = 2.2e-16      # error floor for err_digits, so exact hits read 15.66
# One BLAS thread: on a shared host with few cores a second thread mostly
# measures the scheduler (run-to-run spreads doubled with two). Assembly,
# most of every query, is single-threaded numpy either way.
BLAS_THREADS = 1


def keep_freed_memory() -> bool:
    """Serve large arrays from the heap and keep freed memory mapped.

    glibc maps every array above 32 MB afresh and unmaps it when it is
    freed, so each query faults its matrices in again, page by page. That
    cost follows the host's memory load: on a shared two-CPU host it was
    a quarter of an L-shape query and most of the run-to-run spread.
    With the heap kept, a run times the computation. Returns False, and
    changes nothing, where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_max = -1, -4   # from glibc's malloc.h
    return bool(mallopt(m_mmap_max, 0)) and bool(mallopt(m_trim_threshold, 2**31 - 1))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up time and exit (used internally)")
    return p.parse_args(argv)


def import_package():
    """Import conforminv from this checkout's src/, or return None."""
    if not (SRC / "conforminv" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import conforminv
    if not Path(conforminv.__file__).resolve().is_relative_to(SRC.resolve()):
        return None
    return conforminv


def timed_query(wl, query, exceptions):
    t0 = time.perf_counter()
    try:
        result = wl.run(query)
    except Exception as exc:  # a failed query is counted, not fatal
        result = None
        exceptions.append(f"{type(exc).__name__}: {exc}")
    return result, time.perf_counter() - t0


def run_unit(wl, unit, exceptions, tracer=None):
    """Run a unit's queries, timing each; returns (durations, errors).

    With a tracer, each query runs inside its own root span.
    """
    results, durations = [], []
    for query in unit.queries:
        if tracer is None:
            result, dt = timed_query(wl, query, exceptions)
        else:
            with tracer.query():
                result, dt = timed_query(wl, query, exceptions)
        durations.append(dt)
        results.append(result)
    return durations, unit.check(results)


def measure(wl, seconds, tracer=None) -> dict:
    """Closed loop over the workload's units until ``seconds`` have passed.

    The first unit and the mandatory ones always run. With a tracer, each
    unit runs untraced and then traced, so the overhead compares the same
    inputs.
    """
    m = {"times": [], "errors": [], "keys": [], "inputs": [], "exceptions": [],
         "untraced": [], "traced": []}
    deadline = time.perf_counter() + seconds
    for unit in wl.units():
        if m["times"] and not unit.mandatory and time.perf_counter() >= deadline:
            break
        dt, err = run_unit(wl, unit, m["exceptions"])
        if tracer is not None:
            m["untraced"] += dt
            traced_dt, traced_err = run_unit(wl, unit, m["exceptions"], tracer)
            m["traced"] += traced_dt
            dt, err = dt + traced_dt, err + traced_err
        m["times"] += dt
        m["errors"] += err
        m["keys"] += [json.dumps(wl.key(q)) for q in unit.queries]
        m["inputs"] += [wl.describe(q) for q in unit.queries]
    return m


def outcome(wl, errors) -> dict:
    """Failure counts and the worst error of a list of query errors."""
    ok = [e <= wl.tol for e in errors]
    finite = [e for e in errors if math.isfinite(e)]
    return {
        "attempted": len(errors),
        "failed": len(errors) - sum(ok),
        "ok": sum(ok),
        # every miss is a failure; a finite error above the tolerance is
        # also a wrong output, while an exception, a non-zero exit or a
        # non-finite value is a failed operation passed off as no result
        "wrong": sum(1 for e in errors if wl.tol < e < math.inf),
        "worst": max(finite) if finite else math.inf,
    }


def tail(samples):
    """Highest percentile with at least ten samples above it, but not below
    the median: (value, percentile, samples above it)."""
    xs = sorted(samples)
    k = len(xs)
    i = max(k - 11, k // 2)
    return xs[i], 100.0 * (i + 1) / k, k - 1 - i


def end_to_end(m, res, setup) -> dict:
    times = m["times"]
    worst = res["worst"]
    values = {
        "queries_per_s": (res["ok"] / sum(times), "1/s"),
        "query_p50_s": (statistics.median(times), "s"),
        "query_tail_s": (tail(times)[0], "s"),
        "err_digits": (0.0 if math.isinf(worst) else -math.log10(max(worst, TINY)),
                       "digits"),
        "ok_frac": (res["ok"] / res["attempted"], "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                        "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def setup_probe(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    heap_kept = keep_freed_memory()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    conforminv = import_package()
    if conforminv is None:
        print(f"perfbench: no conforminv package under {SRC}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = workloads.make(args.workload, args.seed, workdir)
        warm_exceptions = []
        _, warm_errors = run_unit(wl, wl.warmup(), warm_exceptions)
        setup_here = time.perf_counter() - _START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_here}))
            return 0
        setup = [setup_here] + [setup_probe(args) for _ in range(SETUP_REPEATS - 1)]
        tracer = spans.Tracer() if args.trace else None
        m = measure(wl, args.seconds, tracer)

    res = outcome(wl, m["errors"])
    correct = res["wrong"] == 0 and outcome(wl, warm_errors)["wrong"] == 0
    tail_s, tail_pct, tail_beyond = tail(m["times"])
    keys = m["keys"]
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "n": wl.n, "tolerance": wl.tol,
        "attempted": res["attempted"], "failed": res["failed"],
        "fail_frac": res["failed"] / res["attempted"], "worst_error": res["worst"],
        "exceptions": (warm_exceptions + m["exceptions"])[:5],
        "query_times_s": m["times"],
        "query_samples": len(m["times"]), "query_tail_percentile": tail_pct,
        "query_tail_samples_beyond": tail_beyond,
        "repeat_share": (len(keys) - len(set(keys))) / len(keys),
        "inputs": m["inputs"], "setup_samples_s": setup,
        "blas_threads": BLAS_THREADS, "heap_kept": heap_kept, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        metrics = tracer.metrics(sum(m["traced"]) / sum(m["untraced"]) - 1.0)
        report["layer_shares"] = tracer.shares()
        report["unmeasured_layers"] = sorted(
            set(tracer.unmeasured) | tracer.failed_counters)
        report["missing_names"] = tracer.missing
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.json"
        tracer.dump(spans_path, {"workload": wl.name, "seed": args.seed})
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end(m, res, setup)
        report["end_to_end"] = metrics

    print("report " + json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
