"""The four benchmark workloads: inputs, one pass through the package, and
the output check.

A pass is what one user would run once.  Each workload counts its
operations (one Monte Carlo replicate, one bootstrap replicate, or one
``large_n`` pipeline) so failures can be reported against attempts.

Why these four:

- ``mc_study``: the paper's simulation study through ``pathfx simulate``,
  every regime, every estimator.  Many small-n logistic fits and the
  sequential estimator's propensity refits dominate it; no CSV and no
  bootstrap.
- ``boot_wild``: an analyst's ``pathfx estimate`` of four estimators with a
  wild bootstrap, which refits every model once per estimator and
  replicate, all with weights.
- ``boot_np``: ``pathfx estimate`` of ``mr`` with the nonparametric
  bootstrap (row resampling, unweighted fits) and probit propensities, the
  only probit path.
- ``large_n``: the library pipeline on one tall CSV.  Per-call overhead is
  negligible here; the pure-Python CSV parser and BLAS-bound fits of designs
  larger than L2 dominate, and it is the only workload with the sandwich
  variance.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os

import datagen

NAMES = ("mc_study", "boot_wild", "boot_np", "large_n")

# Workload sizes.  A pass takes about a second on a 2-core x86 host, so a
# run holds well over ten passes to take a median over: pass times on such a
# shared host vary by 15-20% from one pass to the next.
MC_N, MC_REPS, MC_REGIMES = 1000, 6, ("int", "a", "b", "c")
MC_ESTIMATORS = ("mle", "a", "b", "mr", "mr_seq")
BOOT_N = 1500
WILD_REPS, WILD_ESTIMATORS = 20, ("mle", "a", "b", "mr")
NP_REPS = 40
LARGE_N = 25_000

SIZES = {
    "mc_study": {"n": MC_N, "reps_per_regime": MC_REPS, "regimes": list(MC_REGIMES),
                 "estimators": list(MC_ESTIMATORS)},
    "boot_wild": {"n": BOOT_N, "reps": WILD_REPS, "estimators": list(WILD_ESTIMATORS)},
    "boot_np": {"n": BOOT_N, "reps": NP_REPS, "estimators": ["mr"], "propensity_link": "probit"},
    "large_n": {"n": LARGE_N},
}

# Inputs come from one of VARIANTS seeds, so reference outputs recorded for
# each of them cover every ``--seed``.
VARIANTS = 32

# One relative tolerance for every checked output: loose enough for
# reordered floating-point sums (1e-10 and below) and for the ten significant
# digits of ``estimates.csv``, tight enough that any change of method shows.
RTOL = 1e-6

BETA0 = datagen.BETA0

PROBIT_CONFIG = """[models]
prop_base = probit: 1, c0_1
prop_c1 = probit: 1, c0_1, c1_1, c1_2, c1_3
prop_m = probit: 1, c0_1, c1_1, c1_2, c1_3, m
"""


def variant(seed: int) -> int:
    return seed % VARIANTS


def make_inputs(workload: str, var: int, directory: str) -> None:
    """Write the inputs a pass of ``workload`` reads for input variant ``var``."""
    if workload in ("boot_wild", "boot_np"):
        datagen.write_csv(os.path.join(directory, "data.csv"), BOOT_N, var)
        with open(os.path.join(directory, "probit.ini"), "w", encoding="utf-8") as fh:
            fh.write(PROBIT_CONFIG)
    elif workload == "large_n":
        datagen.write_csv(os.path.join(directory, "data.csv"), LARGE_N, var)


def ops_per_pass(workload: str) -> int:
    return {"mc_study": MC_REPS * len(MC_REGIMES), "boot_wild": WILD_REPS * len(WILD_ESTIMATORS),
            "boot_np": NP_REPS, "large_n": 1}[workload]


class PassFailed(RuntimeError):
    """The program exited non-zero or produced no usable output."""


def _cli(argv: list[str]) -> None:
    from pathfx import cli

    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        rc = cli.main(argv)
    if rc != 0:
        raise PassFailed(f"pathfx {argv[0]} exited {rc}")


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_pass(workload: str, var: int, inputs: str, out: str) -> tuple[dict[str, float], int]:
    """Run one pass; return its checked outputs and its failed-operation count."""
    if workload == "mc_study":
        outputs, failed = {}, 0
        for regime in MC_REGIMES:
            _cli(["simulate", "--regime", regime, "--n", str(MC_N), "--reps", str(MC_REPS),
                  "--seed", str(var), "--estimators", ",".join(MC_ESTIMATORS), "--out", out])
            rows = _rows(os.path.join(out, f"summary_{regime}.csv"))
            for row in rows:
                outputs[f"{regime}.{row['estimator']}.mc_mean"] = float(row["mc_mean"])
            failed += MC_REPS - min(int(row["n_ok"]) for row in rows)
        return outputs, failed
    if workload in ("boot_wild", "boot_np"):
        argv = ["estimate", "--data", os.path.join(inputs, "data.csv"), "--comparison", "1",
                "--baseline", "0", "--seed", str(var), "--out", out]
        if workload == "boot_wild":
            argv += ["--estimator", ",".join(WILD_ESTIMATORS), "--bootstrap", "wild_exp1",
                     "--reps", str(WILD_REPS)]
        else:
            argv += ["--estimator", "mr", "--bootstrap", "nonparametric", "--reps", str(NP_REPS),
                     "--config", os.path.join(inputs, "probit.ini")]
        _cli(argv)
        outputs = {}
        for row in _rows(os.path.join(out, "estimates.csv")):
            for field in ("effect", "ci_lower", "ci_upper", "se"):
                outputs[f"{row['estimator']}.{field}"] = float(row[field])
        return outputs, 0
    if workload == "large_n":
        return _large_n(os.path.join(inputs, "data.csv")), 0
    raise ValueError(f"unknown workload {workload!r}")


def _large_n(path: str) -> dict[str, float]:
    import pathfx as px
    from pathfx.simulation import working_models_for

    data = px.read_csv(path)
    ds, coding = px.recode_pair(data, px.TreatmentPair(comparison=1, baseline=0))
    working_set = working_models_for("int", include_marginal=True).working_set
    fits = px.fit_nuisances(ds, working_set, coding)
    comp = px.compute_components(ds, fits)
    outputs = {f.__name__: float(f(ds, comp)) for f in (
        px.beta_mle, px.beta_a, px.beta_b, px.beta_mr,
        px.delta_gformula, px.delta_ipw, px.delta_aipw)}
    outputs["beta_mr_sequential"] = float(px.beta_mr_sequential(ds, working_set, coding).value)
    outputs["mle_sandwich_variance"] = float(px.mle_sandwich_variance(ds, fits))
    return outputs


def check(workload: str, outputs: dict[str, float], reference: dict[str, float]) -> list[str]:
    """Every mismatch against the reference, as messages; empty when correct."""
    problems = []
    if set(outputs) != set(reference):
        problems.append(f"outputs {sorted(outputs)} differ from reference keys {sorted(reference)}")
    for key in sorted(set(outputs) & set(reference)):
        got, want = outputs[key], reference[key]
        if not abs(got - want) <= RTOL * abs(want):
            problems.append(f"{key}: {got!r} differs from reference {want!r} beyond rtol {RTOL}")
    if workload == "large_n" and "beta_mle" in outputs and "mle_sandwich_variance" in outputs:
        se = math.sqrt(max(outputs["mle_sandwich_variance"], 0.0))
        if not abs(outputs["beta_mle"] - BETA0) <= 4.0 * se:
            problems.append(f"beta_mle {outputs['beta_mle']!r} is not within 4 sandwich SEs "
                            f"({se:.3g}) of beta0 = {BETA0}")
    return problems
