"""Record the reference outputs every benchmark pass is checked against.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 benchmarks/record_reference.py

It runs one traced pass of each workload for every input variant and
writes ``benchmarks/reference.json``.  It refuses a variant on which any
operation failed, including a bootstrap replicate or GLM fit that the
program dropped without reporting it.  Re-record only when a change of results is
intended, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import facts  # noqa: E402
import workloads  # noqa: E402
from tracing import INFO, Tracer  # noqa: E402


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    os.environ.pop("PATHFX_THREADS", None)
    outputs: dict[str, dict[str, dict]] = {w: {} for w in workloads.NAMES}
    for var in range(workloads.VARIANTS):
        for workload in workloads.NAMES:
            work = os.path.join(root, ".bench_work", "reference", workload)
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            workloads.make_inputs(workload, var, work)
            with Tracer().installed() as tracer:
                values, failed = workloads.run_pass(workload, var, work, work)
            failed += sum(span[INFO].get("failed", 0) for span in tracer.spans)
            if failed:
                raise SystemExit(f"{workload} variant {var}: {failed} operations failed")
            problems = workloads.check(workload, values, values)
            if problems:
                raise SystemExit(f"{workload} variant {var}: {problems}")
            outputs[workload][str(var)] = values
            shutil.rmtree(work)
        print(f"variant {var} recorded", flush=True)
    doc = {"git_commit": facts.git_commit(root), "src_sha256": facts.source_fingerprint(src),
           "rtol": workloads.RTOL, "outputs": outputs}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
