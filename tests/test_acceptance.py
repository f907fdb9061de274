"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; the
bootstrap-coverage check is tagged ``slow``.
"""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit, ndtr

from pathfx.cli import main
from pathfx.core import (
    DesignSpec,
    Overrides,
    PairCoding,
    TreatmentPair,
    build_design_matrix,
    dataset_from_arrays,
    recode_pair,
    write_csv,
)
from pathfx.estimators import (
    Analysis,
    beta_a,
    beta_mle,
    beta_mr,
    beta_mr_sequential,
    delta_aipw,
    delta_ipw,
    evaluate,
    influence_values,
)
from pathfx.glm import Family, fit_glm, predict_mean
from pathfx.inference import BootstrapSpec, bootstrap, mle_sandwich_variance
from pathfx.nuisance import (
    NuisanceFunctions,
    StabilizeFlags,
    components_from_functions,
    compute_components,
    fit_nuisances,
    stabilize_probabilities,
)
from pathfx.simulation import (
    C1_MEAN_WRONG,
    MEDIATOR_WRONG,
    OUTCOME_WRONG,
    PROP_C1_WRONG,
    PROP_M_WRONG,
    SimulationSpec,
    closed_form_beta0,
    closed_form_delta0,
    draw_dataset,
    run_monte_carlo,
    truth,
    working_models_for,
)

CODING = PairCoding(pair=TreatmentPair(1, 0))
TARGET_BETA = closed_form_beta0()
TARGET_EFFECT = closed_form_beta0() - closed_form_delta0()


def test_criterion_1_oracle_reproduces_target(capsys):
    code = main(["oracle", "--draws", "10000000", "--seed", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    beta = float(lines[0].split()[1])
    assert abs(beta - 2.678) <= 0.005
    # the closed form re-derived by linear composition agrees to 4 decimals
    assert round(TARGET_BETA, 4) == 2.678
    assert abs(1.447 + 1.231 * 1.0 - TARGET_BETA) < 1e-12
    print(f"\nACCEPTANCE 1 PASS: oracle beta0 {beta:.4f} within 0.005 of 2.678; "
          f"closed form {TARGET_BETA:.4f}")


def test_criterion_2_regime_grid():
    plan = {
        "int": ({"mle", "a", "b", "mr"}, set()),
        "a": ({"a", "mr"}, {"b", "mle"}),
        "b": ({"b", "mr"}, {"a"}),  # mle's rejection expected but not asserted
        "c": ({"mle", "mr"}, {"a", "b"}),
    }
    summary = []
    for regime, (accept, reject) in plan.items():
        report = run_monte_carlo(SimulationSpec(regime=regime, n=1000, replications=200, seed=1))
        for s in report.summaries:
            tag = f"{regime}/{s.kind}"
            if s.kind in accept:
                assert not s.reject, f"{tag} rejected with t={s.t:+.2f}"
            if s.kind in reject:
                bias_margin = abs(s.mc_mean - report.hypothesized) / s.mc_se
                assert s.reject, f"{tag} failed to reject (t={s.t:+.2f})"
                assert bias_margin > 5.0, f"{tag} bias only {bias_margin:.1f} MC-SE"
            summary.append(f"{tag}:{'R' if s.reject else 'A'}")
    print(f"\nACCEPTANCE 2 PASS: rejection grid matches ({', '.join(summary)})")


def _fit_on_draw(design_text, family, response_role, n=100_000, seed=301):
    """Probability-limit stand-in: fit a working model on a large draw."""
    ds = draw_dataset(n, seed)
    design = DesignSpec.parse(design_text)
    X = build_design_matrix(ds, design)
    if response_role == "outcome":
        y = ds.y
    elif response_role == "mediator":
        y = ds.m
    elif response_role.startswith("c1_"):
        y = ds.c1[:, int(response_role[3:]) - 1]
    else:
        y = ds.e.astype(float)
    return fit_glm(X, y, family, design=design)


def _mean_fn(fit, e_value):
    """Wrap a fitted mean model as a vectorized (m, c1, c0) -> prediction."""

    def fn(m, c1, c0):
        c0 = np.asarray(c0, dtype=float)
        if c0.ndim == 1:
            c0 = c0[:, None]
        n = c0.shape[0]
        c1 = np.broadcast_to(np.asarray(c1, dtype=float), (n, 3))
        m = np.broadcast_to(np.asarray(m, dtype=float), (n,))
        ds = dataset_from_arrays(c0, np.zeros(n, dtype=int), c1, m, np.zeros(n))
        X = build_design_matrix(ds, fit.design, Overrides(e=e_value))
        return np.asarray(predict_mean(fit, X))

    return fn


def _prob_fn(fit):
    def fn(m, c1, c0):
        c0 = np.asarray(c0, dtype=float)
        if c0.ndim == 1:
            c0 = c0[:, None]
        n = c0.shape[0]
        c1 = np.broadcast_to(np.asarray(c1, dtype=float), (n, 3))
        m = np.broadcast_to(np.asarray(m, dtype=float), (n,))
        ds = dataset_from_arrays(c0, np.zeros(n, dtype=int), c1, m, np.zeros(n))
        return np.asarray(predict_mean(fit, build_design_matrix(ds, fit.design)))

    return fn


def _true_lambda_prob(c1, c0):
    """Population P(E=1 | c1, c0) through the inverted representation."""
    c0 = np.asarray(c0, dtype=float)
    c0 = c0[:, 0] if c0.ndim == 2 else c0
    return expit(np.log(truth.c1_ratio(c1, c0)) + 0.9 + 0.3 * c0)


def test_criterion_3_influence_function_multiple_robustness():
    beta0 = TARGET_BETA
    eval_ds = draw_dataset(400_000, 302)

    # pattern (a): mediator ratio and base propensity true; outcome and
    # covariate-mean models at misspecified probability limits
    b_wrong = _mean_fn(_fit_on_draw(OUTCOME_WRONG, Family.GAUSSIAN, "outcome"), e_value=0)
    c1_wrong_fits = [
        _fit_on_draw(C1_MEAN_WRONG, Family.GAUSSIAN, f"c1_{j}") for j in (1, 2, 3)
    ]
    lam_wrong = _prob_fn(_fit_on_draw(PROP_C1_WRONG, Family.LOGIT, "prop"))

    def c1_means_wrong(c0, e_value=0.0):
        cols = [_mean_fn(f, e_value)(0.0, np.zeros(3), c0) for f in c1_wrong_fits]
        return np.column_stack(cols)

    def b_prime_a(c1, c0):
        return b_wrong(truth.m_mean(c1, _as1d(c0), 1), c1, c0)

    def b_dd_a(c0):
        c1_hat = c1_means_wrong(c0)
        return b_prime_a(c1_hat, c0)

    fns_a = NuisanceFunctions(
        prob_comparison_base=truth.propensity,
        m_ratio=truth.m_ratio,
        c1_ratio=lambda c1, c0: (
            lam_wrong(0.0, c1, c0) / (1 - lam_wrong(0.0, c1, c0))
            * (1 - truth.propensity(c0)) / truth.propensity(c0)
        ),
        b=b_wrong,
        b_prime=b_prime_a,
        b_doubleprime=b_dd_a,
    )

    # pattern (b): outcome regression, covariate ratio/means, base propensity
    # true; mediator-side models at misspecified limits
    zeta_wrong = _mean_fn(_fit_on_draw(MEDIATOR_WRONG, Family.GAUSSIAN, "mediator"), e_value=1)
    gamma_wrong = _prob_fn(_fit_on_draw(PROP_M_WRONG, Family.LOGIT, "prop"))

    def b_prime_b(c1, c0):
        return truth.b(zeta_wrong(0.0, c1, c0), c1, c0)

    def b_dd_b(c0):
        return b_prime_b(truth.c1_mean(_as1d(c0), 0), c0)

    fns_b = NuisanceFunctions(
        prob_comparison_base=truth.propensity,
        m_ratio=lambda m, c1, c0: (
            gamma_wrong(m, c1, c0) / (1 - gamma_wrong(m, c1, c0))
            * (1 - _true_lambda_prob(c1, c0)) / _true_lambda_prob(c1, c0)
        ),
        c1_ratio=truth.c1_ratio,
        b=truth.b,
        b_prime=b_prime_b,
        b_doubleprime=b_dd_b,
    )

    # pattern (c): everything true except the standalone base propensity,
    # which sits at the link-swapped limit
    fns_c = NuisanceFunctions(
        prob_comparison_base=lambda c0: ndtr(0.9 + 0.3 * _as1d(c0)),
        m_ratio=truth.m_ratio,
        c1_ratio=truth.c1_ratio,
        b=truth.b,
        b_prime=truth.b_prime,
        b_doubleprime=truth.b_doubleprime,
    )

    margins = []
    for name, fns in (("a", fns_a), ("b", fns_b), ("c", fns_c)):
        comp = components_from_functions(eval_ds, CODING, fns)
        v = influence_values(eval_ds, comp, beta0)
        se = float(v.std(ddof=1)) / math.sqrt(eval_ds.n)
        assert abs(float(v.mean())) < 3 * se, f"pattern ({name}): mean {v.mean():.5f}, se {se:.5f}"
        margins.append(f"({name}) {abs(float(v.mean())) / se:.2f} se")
    print(f"\nACCEPTANCE 3 PASS: influence function unbiased under patterns {', '.join(margins)}")


def _as1d(c0):
    c0 = np.asarray(c0, dtype=float)
    return c0[:, 0] if c0.ndim == 2 else c0


def test_criterion_4_identity_collapse():
    for seed in (401, 402):
        ds = draw_dataset(700, seed)
        models = working_models_for("int", include_marginal=True)
        fits = fit_nuisances(ds, models.working_set, CODING)
        rec, id_coding = recode_pair(ds, TreatmentPair(0, 0), allow_identity=True)
        comp = compute_components(rec, replace(fits, coding=id_coding),
                                  stabilize=StabilizeFlags.all_on())
        for w in (None, np.random.default_rng(seed).exponential(1.0, rec.n)):
            weighted = replace(comp, weights=w)
            assert abs(beta_a(rec, weighted) - delta_ipw(rec, weighted)) < 1e-10
            assert abs(
                beta_mr(rec, weighted) - delta_aipw(rec, replace(weighted, y0_marginal=comp.b_doubleprime))
            ) < 1e-10
    print("\nACCEPTANCE 4 PASS: identity-mode collapses exact to 1e-10")


def test_criterion_5_glm_engine():
    rng = np.random.default_rng(50)
    X = rng.standard_normal((50, 4))
    y = rng.standard_normal(50)
    oracle = np.linalg.solve(X.T @ X, X.T @ y)
    assert np.max(np.abs(fit_glm(X, y, Family.GAUSSIAN).coef - oracle)) < 1e-10

    n = 500
    Xl = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
    yl = (rng.random(n) < expit(Xl @ np.array([0.2, -0.4, 0.7, 0.1]))).astype(float)
    beta = np.zeros(4)
    for _ in range(60):
        mu = expit(Xl @ beta)
        beta = beta + np.linalg.solve(Xl.T @ (Xl * (mu * (1 - mu))[:, None]), Xl.T @ (yl - mu))
    assert np.max(np.abs(fit_glm(Xl, yl, Family.LOGIT).coef - beta)) < 1e-8

    y10 = np.array([1.0] * 3 + [0.0] * 7)
    fit = fit_glm(np.ones((10, 1)), y10, Family.LOGIT)
    assert abs(fit.coef[0] - math.log(0.3 / 0.7)) < 1e-12

    y55 = np.array([1.0] * 5 + [0.0] * 5)
    assert abs(fit_glm(np.ones((10, 1)), y55, Family.PROBIT).coef[0]) < 1e-12
    print("\nACCEPTANCE 5 PASS: OLS 1e-10, logistic 1e-8, intercept closed forms exact")


def test_criterion_6_stabilization_identity():
    rng = np.random.default_rng(60)
    worst = 0.0
    cases = 0
    while cases < 100:
        n = int(rng.integers(5, 400))
        p = rng.uniform(0.005, 0.995, n)
        ind = (rng.random(n) < rng.uniform(0.15, 0.85)).astype(float)
        if ind.sum() in (0, n):
            continue
        out = stabilize_probabilities(p, ind)
        gap = abs(float(np.mean(ind * (1 - out) / out)) - (1 - float(ind.mean())))
        worst = max(worst, gap)
        assert gap < 1e-10
        cases += 1
    print(f"\nACCEPTANCE 6 PASS: stabilization identity on 100 fixtures, worst gap {worst:.2e}")


def test_criterion_7_sequential_estimator():
    models = working_models_for("int")
    worst = 0.0
    for r in range(5):
        ds = draw_dataset(1000, 70, rep=r + 1)
        seq = beta_mr_sequential(ds, models.working_set, CODING)
        worst = max(worst, max(abs(t) for t in seq.term_values))
    assert worst < 1e-8

    report = run_monte_carlo(
        SimulationSpec(regime="int", n=1000, replications=200, seed=1),
        estimators=("mr_seq",),
    )
    s = report.summaries[0]
    assert abs(s.mc_mean - TARGET_BETA) < 3 * s.mc_se, f"mean {s.mc_mean:.4f} se {s.mc_se:.4f}"
    print(f"\nACCEPTANCE 7 PASS: residual terms < {worst:.1e}; MC mean "
          f"{s.mc_mean:.4f} within 3 x {s.mc_se:.4f} of {TARGET_BETA:.4f}")


def test_criterion_8_sandwich_matches_bootstrap():
    ds = draw_dataset(10_000, 80)
    models = working_models_for("int")
    fits = fit_nuisances(ds, models.working_set, CODING)
    analytic = mle_sandwich_variance(ds, fits)

    def batch(W):
        comp = compute_components(ds, fit_nuisances(ds, models.working_set, CODING, W))
        return beta_mle(ds, comp), comp.failures

    boot = bootstrap(ds, spec=BootstrapSpec(kind="nonparametric", replicates=500, seed=81),
                     point=beta_mle(ds, compute_components(ds, fits)), batch=batch)
    rel = abs(analytic - boot.se**2) / boot.se**2
    assert rel < 0.15, f"analytic {analytic:.3e} vs bootstrap {boot.se**2:.3e} ({rel:.0%})"
    print(f"\nACCEPTANCE 8 PASS: analytic variance {analytic:.3e} within "
          f"{rel:.1%} of bootstrap {boot.se**2:.3e}")


@pytest.mark.slow
def test_criterion_9_bootstrap_coverage():
    analysis = Analysis(working_models_for("int", include_marginal=True).working_set, (("mr", "aipw"),))

    def effect_and_failures(weights):
        evaluation = evaluate(ds, analysis, CODING, weights=weights)
        return evaluation.effect[..., 0], evaluation.comp.failures

    covered = 0
    outer = 200
    for r in range(outer):
        ds = draw_dataset(1000, 90, rep=r + 1)
        interval = bootstrap(ds, spec=BootstrapSpec(kind="nonparametric", replicates=200, seed=9000 + r),
                             point=effect_and_failures(None)[0], batch=effect_and_failures)
        if interval.lower <= TARGET_EFFECT <= interval.upper:
            covered += 1
    coverage = covered / outer
    assert 0.88 <= coverage <= 0.99, f"coverage {coverage:.3f}"
    print(f"\nACCEPTANCE 9 PASS: percentile CI coverage {coverage:.3f} in [0.88, 0.99]")


def test_criterion_10_csv_pipeline_recovers_effect(tmp_path, capsys):
    ds = draw_dataset(1500, 100)
    path = tmp_path / "draw.csv"
    write_csv(ds, path)
    cfg = tmp_path / "models.cfg"
    correct = working_models_for("int", include_marginal=True).working_set
    lines = ["[models]"]
    fam_name = {Family.GAUSSIAN: "gaussian", Family.LOGIT: "logit", Family.PROBIT: "probit"}
    for role in correct.roles():
        spec = correct[role]
        lines.append(f"{role} = {fam_name[spec.family]}: {', '.join(spec.design.labels)}")
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main([
        "estimate", "--data", str(path), "--comparison", "1", "--baseline", "0",
        "--estimator", "mr", "--scale", "diff", "--bootstrap", "wild_exp1",
        "--reps", "200", "--seed", "10", "--config", str(cfg), "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    with open(out / "estimates.csv") as fh:
        row = list(csv.DictReader(fh))[0]
    lo, hi = float(row["ci_lower"]), float(row["ci_upper"])
    assert lo <= TARGET_EFFECT <= hi, f"CI [{lo:.3f}, {hi:.3f}] misses {TARGET_EFFECT:.3f}"
    print(f"\nACCEPTANCE 10 PASS: CSV pipeline effect {row['effect']} with CI "
          f"[{lo:.3f}, {hi:.3f}] covering {TARGET_EFFECT:.3f}")
