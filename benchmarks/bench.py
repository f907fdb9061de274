"""pathfx benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 benchmarks/bench.py --workload mc_study --seed 1 --seconds 16 --trace 0

Inputs are made from ``--seed``.  The workload runs in a fresh interpreter
that imports ``src/pathfx`` from the checkout, with ``PATHFX_THREADS`` unset,
one caller and one BLAS thread.  ``wall_s`` is the median over the passes
that passed their check, scaled to reference-host seconds by the
calibration kernels run around each pass (see ``calibrate.py``); the raw
median and the kernel times are printed beside it.  ``setup_s`` is the
median time of fresh-interpreter imports, each scaled by the fixed
reference imports run before and after it.  Every pass's outputs are checked against
reference values recorded for its input variant.  The last line of output
is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it print the metrics by name with their units, the failure
fraction, and the machine facts; the full result is written under
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread here and in every process started from here (set before
# numpy loads): the workloads have one caller, and on a small host OpenBLAS's
# spinning helper threads compete with it and make every timing noisy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({k: "1" for k in BLAS_THREAD_VARS})

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import facts  # noqa: E402
import workloads  # noqa: E402
from tracing import is_count, metric_names  # noqa: E402

SETUP_PROBES = 5
# The worker's limit, and the whole run's: it stays under 180 s.
DEADLINE_S = 120.0
TOTAL_DEADLINE_S = 170.0


def _quantile_line(name: str, values: list[float], unit: str) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    text = f"{name}: median {statistics.median(values):.6g} {unit} over {n} samples"
    best = None
    for q in (99.9, 99, 95, 90, 75):
        if n * (1 - q / 100.0) >= 10:
            best = q
            break
    if best is None:
        return text + "; no percentile has ten samples beyond it"
    idx = min(n - 1, int(round(best / 100.0 * (n - 1))))
    return text + f"; p{best:g} {values[idx]:.6g} {unit}"


def _timed_interpreter(code: str, env: dict, started: float) -> float:
    remaining = TOTAL_DEADLINE_S - (time.perf_counter() - started)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=max(remaining, 0.0), stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _setup_probes(src: str, env: dict, started: float) -> tuple[list[float], list[float]]:
    """Raw times of fresh-interpreter ``import pathfx`` runs, and of the
    reference imports run before, between and after them."""
    code = f"import sys; sys.path.insert(0, {src!r}); import pathfx"
    refs = [_timed_interpreter(calibrate.IMPORT_REFERENCE, env, started)]
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(_timed_interpreter(code, env, started))
        refs.append(_timed_interpreter(calibrate.IMPORT_REFERENCE, env, started))
    return probes, refs


def _run_worker(args, root: str, var: int, inputs: str, work: str, env: dict, started: float):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), root, args.workload, str(var),
           inputs, work, repr(args.seconds), str(args.trace)]
    remaining = DEADLINE_S - (time.perf_counter() - started)
    try:
        res = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return None
    if res.returncode != 0 or not res.stdout.strip():
        sys.stderr.write(res.stderr)
        print(f"error: worker exited {res.returncode}", file=sys.stderr)
        return None
    return json.loads(res.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pathfx", "__init__.py")):
        print(f"error: no pathfx package under {src}; run from the root of a pathfx checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    pathfx_threads = env.pop("PATHFX_THREADS", None)
    var = workloads.variant(args.seed)
    work = os.path.join(root, ".bench_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    workloads.make_inputs(args.workload, var, inputs)

    # The worker runs first, so the import probes find the bytecode cache it wrote.
    report = _run_worker(args, root, var, inputs, work, env, started)
    if report is None:
        return 1
    shutil.rmtree(inputs)
    setup_raw, setup_refs = _setup_probes(src, env, started) if not args.trace else ([], [])

    passes = report["passes"]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = all(not p["problems"] for p in passes)
    # A failed pass may have ended early; it counts in ``failed``, not in the times.
    timed = [p for p in passes[1:] if not p["problems"]] or passes[1:]
    untraced = [p["scaled_s"] for p in timed if not p["traced"]]
    untraced_raw = [p["raw_s"] for p in timed if not p["traced"]]

    run_facts = {
        "workload": args.workload, "seed": args.seed, "input_variant": var,
        "sizes": workloads.SIZES[args.workload], "seconds": args.seconds,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "caches": facts.cache_sizes(), "python": platform.python_version(),
        "numpy": report["numpy"], "scipy": report["scipy"], "blas": report["blas"],
        "PATHFX_THREADS": pathfx_threads, "calibration_reference_s": calibrate.REFERENCE_S,
        "kernel_pre_import_s": report["kernel_pre_import_s"],
        "kernel_median_s": statistics.median(p["kernel_s"] for p in passes),
        "git_commit": facts.git_commit(root), "src_sha256": facts.source_fingerprint(src),
    }
    if args.trace:
        traced = [p["scaled_s"] for p in timed if p["traced"]]
        metrics = {name: {"value": report["layers"][name], "unit": "count" if is_count(name) else "ms"}
                   for name in metric_names()}
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.wall_s"] = {"value": statistics.median(traced), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        lines = [f"{name}: {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        lines.append(f"untraced wall_s: median {statistics.median(untraced):.6g} s; "
                     f"counts repeat across traced passes: {report['counts_repeat']}")
    else:
        setup = [calibrate.scale(t, before, after, calibrate.IMPORT_REFERENCE_S)
                 for t, before, after in zip(setup_raw, setup_refs, setup_refs[1:])]
        metrics = {
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": report["maxrss_mb"], "unit": "MB"},
        }
        lines = [_quantile_line("wall_s", untraced, "s"), _quantile_line("raw wall_s", untraced_raw, "s"),
                 f"calibration kernel: {run_facts['kernel_pre_import_s']:.6g} s before "
                 f"import pathfx, median {run_facts['kernel_median_s']:.6g} s around the passes "
                 f"(reference {calibrate.REFERENCE_S:g} s)",
                 _quantile_line("setup_s", setup, "s"), _quantile_line("raw setup_s", setup_raw, "s"),
                 f"reference import ({calibrate.IMPORT_REFERENCE}): median "
                 f"{statistics.median(setup_refs):.6g} s (reference {calibrate.IMPORT_REFERENCE_S:g} s)",
                 f"peak_rss_mb: {report['maxrss_mb']:.6g} MB"]
    lines.append(f"fail_frac: {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for p in passes:
        for problem in p["problems"]:
            lines.append(f"check failed: {problem}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "facts": run_facts, "passes": passes, "setup_raw_s": setup_raw,
                   "setup_reference_s": setup_refs},
                  fh, indent=1)
    print("facts: " + json.dumps(run_facts))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
