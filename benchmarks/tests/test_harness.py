"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest benchmarks/tests``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "benchmarks")
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import pathfx  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, is_count, layer_metrics, self_times  # noqa: E402


def _span(name, start, end, parent, info=None):
    return [name, start, end, parent, 0, info or {}]


def test_self_time_subtracts_the_children_it_covers():
    spans = [
        _span("cli.main", 0, 100, -1),
        _span("nuisance.fit_nuisances", 10, 60, 0),
        _span("glm.fit_glm_irls.logit", 15, 35, 1, {"iters": 4}),
        _span("core.build_design_matrix", 40, 45, 1),
        _span("glm.predict_mean", 70, 80, 0),
    ]
    assert self_times(spans) == [100 - 50 - 10, 50 - 20 - 5, 20, 5, 10]


def test_layer_metrics_from_synthetic_spans():
    ms = 1_000_000
    spans = [
        _span("estimators.beta_mr_sequential", 0, 10 * ms, -1),
        _span("glm.fit_glm_irls.logit", 1 * ms, 5 * ms, 0, {"iters": 8}),
        _span("glm.fit_glm_irls.probit", 6 * ms, 7 * ms, -1, {"iters": 2, "failed": 1}),
        _span("inference.bootstrap", 20 * ms, 30 * ms, -1, {"replicates": 50, "failed": 2}),
    ]
    m = layer_metrics(spans)
    assert set(m) == set(tracing.metric_names())
    assert m["estimators.beta_mr_sequential.self_ms"] == 6.0
    assert m["estimators.beta_mr_sequential.incl_ms_per_call"] == 10.0
    assert m["estimators.beta_mr_sequential.irls_calls"] == 1
    assert m["glm.fit_glm_irls.logit.ms_per_iter"] == 0.5
    assert m["glm.fit_glm_irls.failed"] == 1
    assert m["inference.bootstrap.replicates"] == 50
    assert m["inference.bootstrap.failed"] == 2


def _bindings():
    """Every pathfx module attribute and estimator-table entry, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "pathfx" or name.startswith("pathfx."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, dict):
                    for k, v in value.items():
                        out[(name, key, k)] = v
    out["Dataset.take"] = pathfx.core.Dataset.__dict__["take"]
    return out


def _traced_pass(tmp_path, workload, var=0):
    inputs = tmp_path / "inputs"
    inputs.mkdir(exist_ok=True)
    workloads.make_inputs(workload, var, str(inputs))
    tracer = Tracer()
    out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
    out.mkdir()
    with tracer.installed():
        outputs, failed = workloads.run_pass(workload, var, str(inputs), str(out))
    return tracer, outputs, failed


def test_every_binding_is_wrapped_while_tracing():
    predict_mean, beta_mr, take = pathfx.glm.predict_mean, pathfx.beta_mr, pathfx.core.Dataset.take
    with Tracer().installed():
        assert pathfx.nuisance.predict_mean.__wrapped__ is predict_mean
        assert pathfx.estimators.predict_mean.__wrapped__ is predict_mean
        assert pathfx.predict_mean.__wrapped__ is predict_mean
        assert pathfx.estimators.BETA_FUNCS["mr"].__wrapped__ is beta_mr
        assert pathfx.core.Dataset.take.__wrapped__ is take


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = _bindings()
    tracer, _, _ = _traced_pass(tmp_path, "boot_np")
    assert tracer.spans
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert not any(hasattr(v, "traced_span") for v in after.values())


@pytest.mark.parametrize("workload", ["boot_np", "mc_study"])
def test_two_traced_runs_give_identical_counts(tmp_path, workload):
    first, out1, _ = _traced_pass(tmp_path, workload)
    second, out2, _ = _traced_pass(tmp_path, workload)
    m1, m2 = layer_metrics(first.spans), layer_metrics(second.spans)
    counts = {k: v for k, v in m1.items() if is_count(k)}
    assert counts == {k: v for k, v in m2.items() if is_count(k)}
    assert out1 == out2
    assert counts["nuisance.fit_nuisances.calls"] > 0


def test_outputs_match_the_reference(tmp_path):
    import json

    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["outputs"]["boot_np"]["0"]
    _, outputs, failed = _traced_pass(tmp_path, "boot_np")
    assert failed == 0
    assert workloads.check("boot_np", outputs, reference) == []
    wrong = dict(outputs, **{"mr.effect": outputs["mr.effect"] * (1 + 10 * workloads.RTOL)})
    assert workloads.check("boot_np", wrong, reference)


def test_bench_refuses_a_directory_without_the_package(tmp_path):
    res = subprocess.run(
        [sys.executable, os.path.join(BENCH, "bench.py"), "--workload", "boot_np",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout == ""
