"""Self-check of the benchmark itself (about two minutes).

Run from the repository root:

    python3 perfbench/selfcheck.py

1. One short run per workload in each mode (``--seconds 0`` runs the
   first unit only) must print every metric BENCHMARK.json names, with
   its unit, and count no failure.
2. For each workload, a query whose result is pushed past its tolerance
   must be counted as failed and as a wrong output.
3. A traced query whose wrapped name has gone must report that layer as
   unmeasured (value null) instead of crashing.

Exits 0 when every check passes, 1 otherwise.
"""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"

sys.path.insert(0, str(HERE))
import run  # noqa: E402  (sets no state; run.main is not called)

PROBLEMS = []


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        PROBLEMS.append(what)


def check_emitted(spec: dict):
    for workload in run.WORKLOAD_NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
                 "--seconds", "0", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170, cwd=ROOT)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{tag}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: {result['attempted']} queries, {result['failed']} failed")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{tag}: every {section} metric with its unit")
            values = [v["value"] for v in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) for v in values),
                   f"{tag}: every metric measured")


def pushed(workloads, wl):
    """A run() that returns the real result moved past the tolerance."""
    original = wl.run
    if isinstance(wl, workloads.QuadSweep):
        def run_and_scale(q):
            tr = original(q)
            return dataclasses.replace(tr, r=tr.r * (1 + 10 * wl.tol))
        return run_and_scale
    if isinstance(wl, workloads.GridField):
        def run_and_edit(q):
            rc = original(q)
            rows = wl.out.read_text().splitlines()
            edited = [rows[0]]
            for row in rows[1:]:
                x, y, inside, value = row.split(",")
                if inside == "1":
                    value = repr(float(value) + 10 * wl.tol)
                edited.append(",".join((x, y, inside, value)))
            wl.out.write_text("\n".join(edited) + "\n")
            return rc
        return run_and_edit
    return lambda q: original(q) + 10 * wl.tol


def check_failure_counting(workloads):
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for name in run.WORKLOAD_NAMES:
            wl = workloads.make(name, 7, workdir)
            wl.run = pushed(workloads, wl)
            res = run.outcome(wl, run.measure(wl, 0.0)["errors"])
            expect(res["failed"] == res["attempted"] == res["wrong"] >= 1,
                   f"{name}: result past tolerance counted "
                   f"({res['failed']} of {res['attempted']} failed)")


def check_unmeasured(workloads, spans):
    gone = tuple((layer, module, "renamed_" + attr if layer == "diskmap.cauchy" else attr, c)
                 for layer, module, attr, c in spans.TARGETS)
    tracer = spans.Tracer(gone)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        wl = workloads.make("lshape-hypdist", 7, workdir)
        m = run.measure(wl, 0.0, tracer)
    metrics = tracer.metrics(0.0)
    expect(tracer.unmeasured == ["diskmap.cauchy"], "missing name marks its layer")
    expect(metrics["diskmap.cauchy_s"]["value"] is None
           and metrics["diskmap.eval_points"]["value"] is None,
           "unmeasured layer reports null")
    expect(metrics["kernel.assemble_s"]["value"] is not None
           and run.outcome(wl, m["errors"])["failed"] == 0,
           "other layers still measured and the queries still pass")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(run.BLAS_THREADS)
    if run.import_package() is None:
        print("selfcheck: no conforminv package under src/", file=sys.stderr)
        return 2
    import spans
    import workloads

    run.OUT.mkdir(exist_ok=True)
    check_failure_counting(workloads)
    check_unmeasured(workloads, spans)
    check_emitted(spec)
    print("selfcheck: " + ("all checks passed" if not PROBLEMS
                           else f"{len(PROBLEMS)} check(s) failed"))
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
