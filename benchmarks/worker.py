"""Run one workload's passes in a fresh interpreter and print a JSON report.

Usage: python3 benchmarks/worker.py ROOT WORKLOAD VARIANT INPUTS WORK SECONDS TRACE

``ROOT`` is the checkout whose ``src/pathfx`` is measured.  The first pass
is a warm-up and is not timed.  Each pass's time is also reported scaled to
the reference host speed by the calibration kernels run around it.  The
kernel is also timed once before ``pathfx`` is imported, and the loaded BLAS
libraries and their thread counts must be the same before the import and
after the passes: otherwise the package has changed the kernel it is
measured against, and the run is refused.  With ``TRACE`` 1, traced and
untraced passes alternate after the warm-up, and the report holds the
per-layer metrics of the traced passes; a traced pass also counts the
bootstrap replicates that ``inference.bootstrap`` dropped as failed.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time


def main(argv: list[str]) -> int:
    root, workload, var, inputs, work, seconds, trace = argv
    var, seconds, trace = int(var), float(seconds), trace == "1"
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy
    import scipy

    import calibrate
    import facts

    kernel_pre_import = calibrate.kernel_seconds()
    blas_before = facts.blas_facts()

    import pathfx

    if not os.path.abspath(pathfx.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"pathfx imported from {pathfx.__file__}, not from {src}", file=sys.stderr)
        return 1

    import workloads
    from tracing import INFO, NAME, Tracer, is_count, layer_metrics, median_metrics

    with open(os.path.join(os.path.dirname(__file__), "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["outputs"][workload][str(var)]

    tracers = []
    passes = []
    kernel = calibrate.kernel_seconds()
    start = time.perf_counter()
    while True:
        k = len(passes)
        traced = trace and k % 2 == 1
        out = os.path.join(work, f"pass{k}")
        os.makedirs(out)
        problems, failed = [], 0
        t0 = time.perf_counter()
        try:
            if traced:
                tracer = Tracer(run_id=k)
                tracers.append(tracer)
                with tracer.installed():
                    outputs, failed = workloads.run_pass(workload, var, inputs, out)
                failed += sum(span[INFO].get("failed", 0) for span in tracer.spans
                              if span[NAME] == "inference.bootstrap")
            else:
                outputs, failed = workloads.run_pass(workload, var, inputs, out)
        except Exception as exc:  # noqa: BLE001 - a failed pass is a measurement
            problems.append(f"{type(exc).__name__}: {exc}")
        raw = time.perf_counter() - t0
        kernel_before, kernel = kernel, calibrate.kernel_seconds()
        if not problems:
            problems = workloads.check(workload, outputs, reference)
        ops = workloads.ops_per_pass(workload)
        passes.append({"raw_s": raw, "scaled_s": calibrate.scale(raw, kernel_before, kernel),
                       "kernel_s": kernel, "traced": traced, "ops": ops,
                       "failed": ops if problems else failed, "problems": problems[:5]})
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["raw_s"] for p in passes[1:] or passes)
        if len(passes) >= (3 if trace else 2) and elapsed + typical > seconds:
            break

    blas_after = facts.blas_facts()
    if blas_after != blas_before:
        print(f"BLAS changed while pathfx ran, from {blas_before} to {blas_after}; the "
              "calibration kernel no longer measures the host alone", file=sys.stderr)
        return 1

    report = {
        "pathfx_file": pathfx.__file__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_after,
        "kernel_pre_import_s": kernel_pre_import,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
    }
    if trace:
        runs = [layer_metrics(t.spans) for t in tracers]
        counts_repeat = all(r[n] == runs[0][n] for r in runs for n in r if is_count(n))
        report["layers"] = median_metrics(runs)
        report["counts_repeat"] = counts_repeat
        with open(os.path.join(work, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for t in tracers:
                t.write(fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
