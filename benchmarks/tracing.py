"""Spans around the package's public functions, recorded from outside it.

``Tracer.installed()`` replaces every binding of each target function across
the loaded ``pathfx`` module namespaces (modules import names directly, so
``nuisance.predict_mean`` and ``glm.predict_mean`` are separate bindings,
and the estimator tables hold their own references) and restores the originals on
exit.  Spans live in memory as ``[name, start_ns, end_ns, parent, run_id,
info]`` lists; ``layer_metrics`` turns one run's spans into self times and
counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import threading
import time

NAME, START, END, PARENT, RUN, INFO = range(6)

# (module, attribute) pairs; ``Dataset.take`` is a method of a class in ``core``.
TARGETS = (
    ("core", "read_csv"),
    ("core", "build_design_matrix"),
    ("core", "Dataset.take"),
    ("glm", "fit_ols"),
    ("glm", "fit_glm_irls"),
    ("glm", "predict_mean"),
    ("nuisance", "fit_nuisances"),
    ("nuisance", "compute_components"),
    ("estimators", "beta_mle"),
    ("estimators", "beta_a"),
    ("estimators", "beta_b"),
    ("estimators", "beta_mr"),
    ("estimators", "delta_gformula"),
    ("estimators", "delta_ipw"),
    ("estimators", "delta_aipw"),
    ("estimators", "beta_mr_sequential"),
    ("inference", "bootstrap"),
    ("inference", "mle_sandwich_variance"),
    ("simulation", "draw_dataset"),
    ("simulation", "run_monte_carlo"),
    ("cli", "main"),
)

MR_SEQ = "estimators.beta_mr_sequential"
BETA_DELTA = tuple(f"{m}.{f}" for m, f in TARGETS
                   if f.startswith(("beta_", "delta_")) and f"{m}.{f}" != MR_SEQ)
IRLS = "glm.fit_glm_irls"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _irls_name(args, kwargs):
    family = _arg(args, kwargs, 2, "family")
    return f"{IRLS}.{family.name.lower()}"


def _irls_info(info, args, kwargs, result):
    info["iters"] = result.iterations


def _bootstrap_info(info, args, kwargs, result):
    info["failed"] = result.n_failed


def _bootstrap_before(info, args, kwargs):
    info["replicates"] = _arg(args, kwargs, 2, "spec").replicates


def _monte_carlo_info(info, args, kwargs, result):
    info["failed"] = result.n_failed


# name -> (span name from the arguments, info before the call, info from the result)
_HOOKS = {
    IRLS: (_irls_name, None, _irls_info),
    "inference.bootstrap": (None, _bootstrap_before, _bootstrap_info),
    "simulation.run_monte_carlo": (None, None, _monte_carlo_info),
}


class Tracer:
    """Records the nested spans of one run; ``parent`` indexes ``spans``."""

    def __init__(self, run_id: int = 0):
        self.spans: list[list] = []
        self.run_id = run_id
        self._local = threading.local()
        self._patched: list[tuple] = []  # (owner, key, original), in patch order

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        namer, before, after = _HOOKS.get(name, (None, None, None))
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            info: dict = {}
            if before is not None:
                before(info, args, kwargs)
            span = [namer(args, kwargs) if namer else name, time.perf_counter_ns(), 0,
                    stack[-1] if stack else -1, self.run_id, info]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                info["failed"] = info.get("failed", 0) + 1
                raise
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(info, args, kwargs, result)
            return result

        traced.traced_span = name  # marks the wrapper, so tests can tell it from the original
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the targets; restore them all on exit."""
        for mod_name, _ in TARGETS:
            importlib.import_module(f"pathfx.{mod_name}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pathfx" or n.startswith("pathfx."))]
        wrappers = {}  # id(original) -> wrapper
        for mod_name, attr in TARGETS:
            owner = sys.modules[f"pathfx.{mod_name}"]
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = wrappers[id(original)] = self.wrap(f"{mod_name}.{attr}", original)
            if len(parts) > 1:  # a method: its only binding is the class attribute
                self._patched.append((owner, parts[-1], original))
                setattr(owner, parts[-1], wrapper)
        # The originals stay referenced by ``_patched``, so their ids stay unique.
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patched.append((mod, key, value))
                    setattr(mod, key, wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._patched.append((value, k, v))
                            value[k] = wrappers[id(v)]
        try:
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    def write(self, fh) -> None:
        """Append the spans to an open text file, one JSON object per line."""
        for span in self.spans:
            fh.write(json.dumps(dict(zip(("name", "start_ns", "end_ns", "parent", "run", "info"), span))))
            fh.write("\n")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its children.

    A span's children ran on its thread inside it, one after another, so
    they never overlap.
    """
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def _ancestors(spans, i):
    p = spans[i][PARENT]
    while p >= 0:
        yield spans[p][NAME]
        p = spans[p][PARENT]


# Per-layer metric names, in report order.
COUNTED = ("core.build_design_matrix", "core.Dataset.take", "glm.fit_ols", "glm.predict_mean",
           "nuisance.fit_nuisances", "nuisance.compute_components", MR_SEQ, "simulation.draw_dataset")
TIMED = ("core.read_csv", *COUNTED, "inference.bootstrap", "inference.mle_sandwich_variance", "cli.main")
PER_CALL = ("nuisance.fit_nuisances", "nuisance.compute_components", MR_SEQ)


def metric_names() -> list[str]:
    names = [f"{n}.calls" for n in COUNTED]
    names += [f"{n}.self_ms" for n in TIMED]
    for fam in ("logit", "probit"):
        names += [f"{IRLS}.{fam}.{k}" for k in ("calls", "iters", "self_ms", "ms_per_iter")]
    names += [f"{IRLS}.failed", "estimators.beta_delta.self_ms", f"{MR_SEQ}.irls_calls",
              "inference.bootstrap.replicates", "inference.bootstrap.failed",
              "simulation.run_monte_carlo.failed"]
    names += [f"{n}.incl_ms_per_call" for n in PER_CALL]
    return names


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Counts and times of one run's spans, keyed by ``metric_names()``."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    info_sum: dict[str, int] = {}
    irls_in_seq = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + selfs[i]
        incl_ns[name] = incl_ns.get(name, 0) + span[END] - span[START]
        for k, v in span[INFO].items():
            info_sum[f"{name}.{k}"] = info_sum.get(f"{name}.{k}", 0) + v
        if name.startswith(IRLS + ".") and MR_SEQ in _ancestors(spans, i):
            irls_in_seq += 1

    def ms(ns):
        return ns / 1e6

    out: dict[str, float] = {}
    for n in COUNTED:
        out[f"{n}.calls"] = calls.get(n, 0)
    for n in TIMED:
        out[f"{n}.self_ms"] = ms(self_ns.get(n, 0))
    irls_failed = 0
    for fam in ("logit", "probit"):
        n = f"{IRLS}.{fam}"
        iters = info_sum.get(f"{n}.iters", 0)
        out[f"{n}.calls"] = calls.get(n, 0)
        out[f"{n}.iters"] = iters
        out[f"{n}.self_ms"] = ms(self_ns.get(n, 0))
        out[f"{n}.ms_per_iter"] = ms(self_ns.get(n, 0)) / iters if iters else 0.0
        irls_failed += info_sum.get(f"{n}.failed", 0)
    out[f"{IRLS}.failed"] = irls_failed
    out["estimators.beta_delta.self_ms"] = ms(sum(self_ns.get(n, 0) for n in BETA_DELTA))
    out[f"{MR_SEQ}.irls_calls"] = irls_in_seq
    out["inference.bootstrap.replicates"] = info_sum.get("inference.bootstrap.replicates", 0)
    out["inference.bootstrap.failed"] = info_sum.get("inference.bootstrap.failed", 0)
    out["simulation.run_monte_carlo.failed"] = info_sum.get("simulation.run_monte_carlo.failed", 0)
    for n in PER_CALL:
        out[f"{n}.incl_ms_per_call"] = ms(incl_ns[n]) / calls[n] if calls.get(n) else 0.0
    return out


COUNT_SUFFIXES = (".calls", ".iters", ".irls_calls", ".replicates", ".failed")


def is_count(name: str) -> bool:
    """Counts are deterministic for a seed; the other metrics are times."""
    return name.endswith(COUNT_SUFFIXES)


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over runs (counts repeat exactly, so they are unchanged)."""
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
