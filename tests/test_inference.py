import math
import os
import subprocess
import sys
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest

import pathfx.inference as inference_mod
import pathfx.nuisance as nuisance_mod
from pathfx.core import (
    Dataset,
    DesignSpec,
    PairCoding,
    TreatmentPair,
    build_design_matrix,
    dataset_from_arrays,
    recode_pair,
    wmean,
)
from pathfx.glm import Family
from pathfx.inference import (
    BootstrapSpec,
    InferenceError,
    bootstrap,
    derived_rng,
    mc_t_test,
    mle_sandwich_variance,
)
from pathfx.nuisance import (
    ROLE_MEDIATOR,
    ROLE_OUTCOME,
    ROLE_PROP_BASE,
    ROLE_PROP_C1,
    ROLE_PROP_M,
    ModelSpec,
    NuisanceFits,
    WorkingModelSet,
    _response_for,
    c1_mean_role,
    compute_components,
    fit_nuisances,
)
from pathfx.simulation import draw_dataset, working_models_for

CODING = PairCoding(pair=TreatmentPair(1, 0))


def _toy_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    return dataset_from_arrays(
        rng.uniform(0, 2, (n, 1)),
        (rng.random(n) < 0.5).astype(int),
        rng.standard_normal((n, 3)),
        rng.standard_normal(n),
        rng.standard_normal(n),
    )


def _means(*columns):
    """A batch of the weighted means of ``columns``: ``(B,)`` values for one
    column, ``(B, k)`` for k, and no failures."""
    if len(columns) == 1:
        return lambda W: (wmean(columns[0], W), {})
    return lambda W: (np.column_stack([wmean(c, W) for c in columns]), {})


class TestBootstrap:
    def test_constant_statistic(self):
        ds = _toy_dataset()
        out = bootstrap(ds, spec=BootstrapSpec(replicates=50, seed=1), point=3.14,
                        batch=lambda W: (np.full(len(W), 3.14), {}))
        assert out.lower == out.upper == out.point == 3.14
        assert out.se < 1e-12

    def test_same_seed_bit_identical(self):
        ds = _toy_dataset()
        spec = BootstrapSpec(kind="nonparametric", replicates=60, seed=9)
        a = bootstrap(ds, spec=spec, point=wmean(ds.y), batch=_means(ds.y))
        b = bootstrap(ds, spec=spec, point=wmean(ds.y), batch=_means(ds.y))
        assert np.array_equal(a.replicate_values, b.replicate_values)

    def test_wild_weights_forced_to_one_reproduce_point(self, monkeypatch):
        ds = _toy_dataset()
        monkeypatch.setattr(inference_mod, "_draw_wild_weights", lambda rng, n: np.ones(n))
        out = bootstrap(ds, spec=BootstrapSpec(kind="wild_exp1", replicates=25, seed=4), point=wmean(ds.y),
                        batch=_means(ds.y))
        assert np.all(out.replicate_values == out.point)

    def test_nonparametric_of_data_ignoring_pipeline_is_constant(self):
        ds = _toy_dataset()
        out = bootstrap(ds, spec=BootstrapSpec(replicates=30, seed=5), point=2.5,
                        batch=lambda W: (np.full(len(W), 2.5), {}))
        assert np.all(out.replicate_values == 2.5)

    def test_percentile_interval_monotone_in_level(self):
        ds = _toy_dataset(n=80, seed=6)
        narrow = bootstrap(ds, spec=BootstrapSpec(replicates=200, seed=7, ci_level=0.8), point=wmean(ds.y),
                           batch=_means(ds.y))
        wide = bootstrap(ds, spec=BootstrapSpec(replicates=200, seed=7, ci_level=0.95), point=wmean(ds.y),
                         batch=_means(ds.y))
        assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper

    @pytest.mark.parametrize("kind", ["nonparametric", "wild_exp1"])
    def test_vector_statistic_equals_scalar_bootstraps(self, kind):
        ds = _toy_dataset(n=90, seed=8)
        spec = BootstrapSpec(kind=kind, replicates=150, seed=12)
        columns = (ds.y, ds.m**2)
        both = bootstrap(ds, spec=spec, point=[wmean(c) for c in columns], batch=_means(*columns))
        assert both.replicate_values.shape == (150, 2)
        for k, column in enumerate(columns):
            one = bootstrap(ds, spec=spec, point=wmean(column), batch=_means(column))
            assert isinstance(one.lower, float) and isinstance(one.se, float)
            assert (both.point[k], both.lower[k], both.upper[k], both.se[k]) == (
                one.point, one.lower, one.upper, one.se)
            assert np.array_equal(both.replicate_values[:, k], one.replicate_values)

    @pytest.mark.parametrize("kind", ["nonparametric", "wild_exp1"])
    def test_given_point_spares_the_full_data_evaluation(self, kind):
        # the caller's point is the full-data evaluation: the batch sees the
        # replicates' weight rows alone, and the point only centres the report
        ds = _toy_dataset(n=60, seed=9)
        spec = BootstrapSpec(kind=kind, replicates=30, seed=13)
        rows = []

        def batch(W):
            rows.extend(W)
            return _means(ds.y, ds.m)(W)

        point = [wmean(ds.y), wmean(ds.m)]
        given = bootstrap(ds, spec=spec, point=point, batch=batch)
        assert len(rows) == 30
        assert not any(np.array_equal(w, np.ones(ds.n)) for w in rows)
        assert np.array_equal(given.point, point)
        shifted = bootstrap(ds, spec=spec, point=[p + 1.0 for p in point], batch=_means(ds.y, ds.m))
        assert np.array_equal(given.replicate_values, shifted.replicate_values)
        assert np.array_equal(given.se, shifted.se)
        assert np.array_equal(given.lower, shifted.lower) and np.array_equal(given.upper, shifted.upper)

    def test_nan_component_fails_the_whole_replicate(self):
        ds = _toy_dataset()

        def batch(W):
            values = np.column_stack([np.full(len(W), 1.0), np.full(len(W), 2.0)])
            values[2, 1] = np.nan  # one chunk of all 20 replicates at n = 40
            return values, {}

        out = bootstrap(ds, spec=BootstrapSpec(kind="wild_exp1", replicates=20, seed=1), point=[1.0, 2.0],
                        batch=batch)
        assert out.n_failed == 1
        assert out.errors == ["replicate 2: NaN value"]
        assert list(out.lower) == list(out.upper) == [1.0, 2.0]

    def test_failed_replicates_carry_their_messages(self, monkeypatch):
        # chunks of 5 replicates: each reason is keyed by its row in its own
        # chunk, and reaches the replicate of that row
        ds = _toy_dataset()
        spec = BootstrapSpec(kind="wild_exp1", replicates=40, seed=2)
        monkeypatch.setattr(inference_mod, "CHUNK_ELEMENTS", 5 * ds.n)
        first_weight = {float(inference_mod.derived_rng(spec.seed, r).exponential(1.0, ds.n)[0]): r
                        for r in range(spec.replicates)}

        def batch(W):
            values, failures = wmean(ds.y, W), {}
            for b, r in enumerate(first_weight[float(w[0])] for w in W):
                if r in (9, 4):
                    failures[b] = f"synthetic failure {r}"
                if r == 13:
                    values[b] = np.nan
            return values, failures

        out = bootstrap(ds, spec=spec, point=wmean(ds.y), batch=batch)
        assert out.errors == ["replicate 4: synthetic failure 4", "replicate 9: synthetic failure 9",
                              "replicate 13: NaN value"]
        assert out.n_failed == 3
        clean = bootstrap(ds, spec=spec, point=wmean(ds.y), batch=_means(ds.y))
        assert clean.errors == [] and clean.n_failed == 0

    @pytest.mark.parametrize("kind", ["nonparametric", "wild_exp1"])
    def test_a_batch_that_raises_fails_its_chunk(self, kind, monkeypatch):
        # n = 40 and chunks of 10 replicates: the batch of the second chunk
        # raises, and its replicates fail with that text alone, once each
        ds = _toy_dataset()
        spec = BootstrapSpec(kind=kind, replicates=110, seed=3)
        monkeypatch.setattr(inference_mod, "CHUNK_ELEMENTS", 10 * ds.n)
        chunks = []

        def batch(W):
            chunks.append(len(chunks))
            if chunks[-1] == 1:
                raise ValueError("synthetic chunk failure")
            return wmean(ds.y, W), {}

        clean = bootstrap(ds, spec=spec, point=wmean(ds.y), batch=_means(ds.y))
        out = bootstrap(ds, spec=spec, point=wmean(ds.y), batch=batch)
        assert chunks == list(range(11))
        assert out.errors == [f"replicate {r}: synthetic chunk failure" for r in range(10, 20)]
        assert np.isnan(out.replicate_values[10:20]).all()
        kept = np.r_[0:10, 20:110]
        assert np.array_equal(out.replicate_values[kept], clean.replicate_values[kept])

    def test_batch_reasons_fail_their_replicates(self):
        # a batch's reasons fail their replicates whether or not it left
        # their values finite, and a NaN value without a reason fails too
        ds = _toy_dataset()
        spec = BootstrapSpec(kind="wild_exp1", replicates=40, seed=2)

        def batch(W):
            values = np.column_stack([wmean(ds.y, W), wmean(ds.m, W)])
            values[13, 1] = np.nan
            return values, {9: "synthetic failure 9", 4: "synthetic failure 4"}

        out = bootstrap(ds, spec=spec, point=[wmean(ds.y), wmean(ds.m)], batch=batch)
        assert out.errors == ["replicate 4: synthetic failure 4", "replicate 9: synthetic failure 9",
                              "replicate 13: NaN value"]
        assert np.isnan(out.replicate_values[[4, 9, 13]]).all()

    def test_failures_tolerated_up_to_ten_percent(self):
        ds = _toy_dataset(n=40, seed=8)

        def batch(W):
            # a resample that draws record 7 four times or more fails
            drawn = W[:, 7] >= 4
            return wmean(ds.y, W), {b: "synthetic failure" for b in np.flatnonzero(drawn)}

        out = bootstrap(ds, spec=BootstrapSpec(replicates=200, seed=11), point=wmean(ds.y), batch=batch)
        assert 0 < out.n_failed <= 20

    def test_too_many_failures_abort(self):
        ds = _toy_dataset()

        def batch(W):
            return np.zeros(len(W)), dict.fromkeys(range(len(W)), "always fails")

        with pytest.raises(InferenceError, match="replicates failed"):
            bootstrap(ds, spec=BootstrapSpec(replicates=20, seed=12), point=0.0, batch=batch)

    def test_refuses_the_removed_statistic_surface(self):
        # replicates are evaluated by the batch alone, around the caller's point
        ds = _toy_dataset()
        spec = BootstrapSpec(replicates=20, seed=1)
        with pytest.raises(TypeError):
            bootstrap(ds, lambda d, w: wmean(d.y, w), spec, point=wmean(ds.y), batch=_means(ds.y))
        with pytest.raises(TypeError, match="point"):
            bootstrap(ds, spec=spec, batch=_means(ds.y))
        with pytest.raises(TypeError, match="batch"):
            bootstrap(ds, spec=spec, point=wmean(ds.y))

    def test_replicate_stream_is_pure_function_of_seed_and_index(self):
        a = derived_rng(5, 3).standard_normal(4)
        b = derived_rng(5, 3).standard_normal(4)
        c = derived_rng(5, 4).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bad_specs_rejected(self):
        with pytest.raises(InferenceError):
            BootstrapSpec(kind="jackknife")
        with pytest.raises(InferenceError):
            BootstrapSpec(replicates=1)
        with pytest.raises(InferenceError):
            BootstrapSpec(ci_level=1.5)

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("replicates", 2.5), ("seed", np.float64(3.0))])
    def test_a_non_integer_seed_or_replicate_count_is_refused(self, field, value):
        with pytest.raises(InferenceError) as err:
            BootstrapSpec(**{field: value})
        assert str(err.value) == f"{field} must be an integer, got {value!r}"

    def test_numpy_integers_are_integers(self):
        spec = BootstrapSpec(replicates=np.int64(20), seed=np.int32(3))
        assert (spec.replicates, spec.seed) == (20, 3)

    def test_a_negative_seed_is_refused_before_any_replicate(self):
        with pytest.raises(InferenceError) as err:
            BootstrapSpec(kind="wild_exp1", replicates=5, seed=-1)
        assert str(err.value) == "seed must be a non-negative integer, got -1"


class TestMcTTest:
    def test_all_equal_to_hypothesis(self):
        out = mc_t_test(np.full(50, 2.678), 2.678)
        assert out.t == 0.0 and not out.reject

    def test_large_shift_rejects(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(100)
        se = values.std(ddof=1) / 10.0
        out = mc_t_test(values, float(values.mean()) - 10.0 * se)
        assert out.reject and out.t > 9.0

    def test_critical_value_against_independent_oracle(self):
        out = mc_t_test(np.random.default_rng(2).standard_normal(1000), 0.0)
        # invert the t CDF through the regularized incomplete beta (mpmath)
        nu = 999

        def cdf(t):
            x = nu / (nu + t * t)
            return 1 - 0.5 * mpmath.betainc(nu / 2, 0.5, 0, x, regularized=True)

        oracle = float(mpmath.findroot(lambda t: cdf(t) - 0.975, 1.96))
        assert out.critical == pytest.approx(oracle, abs=1e-8)
        assert out.critical == pytest.approx(1.9623, abs=5e-4)

    def test_import_leaves_scipy_stats_unloaded(self):
        # nor any other scipy module: the package runs on numpy alone
        code = "import sys, pathfx, pathfx.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.strip() == "[]"

    def test_zero_variance_away_from_hypothesis(self):
        out = mc_t_test(np.full(30, 1.0), 0.0)
        assert out.reject and out.infinite and math.isinf(out.t)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.05, math.nan])
    def test_alpha_outside_the_unit_interval_rejected(self, alpha):
        with pytest.raises(InferenceError, match=r"^alpha must lie in \(0, 1\)$"):
            mc_t_test(np.random.default_rng(3).standard_normal(20), 0.0, alpha)


def _b_doubleprime(fits, ds):
    return compute_components(ds, fits).b_doubleprime


def _nested_roles(d1):
    return [ROLE_OUTCOME, ROLE_MEDIATOR] + [c1_mean_role(j) for j in range(1, d1 + 1)]


def _fd_gradient(ds, fits, h=1e-5):
    """Central differences of mean(b'') over the stacked nested coefficients."""
    roles = _nested_roles(ds.d1)
    sizes = [fits[r].coef.size for r in roles]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def g_mean(gamma):
        patched = dict(fits.fits)
        for k, role in enumerate(roles):
            patched[role] = replace(fits[role], coef=gamma[offsets[k]:offsets[k + 1]].copy())
        tmp = NuisanceFits(fits=patched, coding=fits.coding, pathway="linear", d1=ds.d1)
        return float(_b_doubleprime(tmp, ds).mean())

    gamma = np.concatenate([fits[r].coef for r in roles])
    D = np.empty(gamma.size)
    for k in range(gamma.size):
        step = h * max(1.0, abs(gamma[k]))
        up, down = gamma.copy(), gamma.copy()
        up[k] += step
        down[k] -= step
        D[k] = (g_mean(up) - g_mean(down)) / (2 * step)
    return D, g_mean, gamma


def _fd_variance(ds, fits):
    """The delta-method variance from per-record scores, information and a
    finite-difference gradient, without the closed forms.  The gaussian
    scores and information are left unscaled by the error variance, which
    cancels."""
    D, _, _ = _fd_gradient(ds, fits)
    g = _b_doubleprime(fits, ds)
    v = g - g.mean()
    start = 0
    for role in _nested_roles(ds.d1):
        fit = fits[role]
        X = build_design_matrix(ds, fit.design)
        y = _response_for(role, ds)
        scores = X * (y - X @ fit.coef)[:, None]
        D_k = D[start:start + fit.coef.size]
        start += fit.coef.size
        v += scores @ np.linalg.solve(X.T @ X / ds.n, D_k)
    return float(np.mean(v**2) / ds.n)


def _one_component_case(n=1500, seed=31):
    """A d1 = 1 dataset with its own working set."""
    ds = draw_dataset(n, seed)
    ds = dataset_from_arrays(ds.c0, ds.e, ds.c1[:, :1], ds.m, ds.y)
    spec = lambda fam, text: ModelSpec(fam, DesignSpec.parse(text))
    ws = WorkingModelSet({
        ROLE_OUTCOME: spec(Family.GAUSSIAN, "1, c0_1, e, c1_1, m, e*m, e*c1_1"),
        ROLE_MEDIATOR: spec(Family.GAUSSIAN, "1, c0_1, e, c1_1, e*c1_1"),
        c1_mean_role(1): spec(Family.GAUSSIAN, "1, c0_1, e, c0_1*e"),
        ROLE_PROP_BASE: spec(Family.LOGIT, "1, c0_1"),
        ROLE_PROP_C1: spec(Family.LOGIT, "1, c0_1, c1_1"),
        ROLE_PROP_M: spec(Family.LOGIT, "1, c0_1, c1_1, m"),
    })
    return ds, fit_nuisances(ds, ws, CODING)


def _sandwich_case(name):
    if name == "identity":
        ds, coding = recode_pair(draw_dataset(1500, 32), TreatmentPair(1, 1), allow_identity=True)
        return ds, fit_nuisances(ds, working_models_for("int").working_set, coding)
    if name == "d1=1":
        return _one_component_case()
    ds = draw_dataset(1500, 30)
    return ds, fit_nuisances(ds, working_models_for(name).working_set, CODING)


SANDWICH_CASES = ["int", "a", "b", "c", "identity", "d1=1"]


class TestSandwichVariance:
    def _mle_fits(self, ds):
        models = working_models_for("int")
        return fit_nuisances(ds, models.working_set, CODING)

    def test_zero_noise_variance_vanishes(self):
        rng = np.random.default_rng(21)
        n = 500
        c0 = rng.uniform(0, 2, n)
        e = (rng.random(n) < 0.6).astype(int)
        c1 = np.tile([0.5, -0.3, 0.2], (n, 1))  # deterministic components
        m = 0.5 + 0.7 * c0  # exact linear mediator
        y = np.full(n, 3.0)  # exact outcome, free of every regressor
        ds = dataset_from_arrays(c0[:, None], e, c1, m, y)
        flat = lambda fam=Family.GAUSSIAN: ModelSpec(fam, DesignSpec.parse("1"))
        ws = WorkingModelSet({
            ROLE_OUTCOME: ModelSpec(Family.GAUSSIAN, DesignSpec.parse("1, m")),
            ROLE_MEDIATOR: ModelSpec(Family.GAUSSIAN, DesignSpec.parse("1, c0_1")),
            c1_mean_role(1): flat(), c1_mean_role(2): flat(), c1_mean_role(3): flat(),
            ROLE_PROP_BASE: flat(Family.LOGIT),
            ROLE_PROP_C1: flat(Family.LOGIT),
            ROLE_PROP_M: flat(Family.LOGIT),
        })
        fits = fit_nuisances(ds, ws, CODING)
        assert mle_sandwich_variance(ds, fits) < 1e-8

    @pytest.mark.parametrize("case", SANDWICH_CASES)
    def test_closed_form_gradient_matches_central_differences(self, case):
        ds, fits = _sandwich_case(case)
        g, grads = inference_mod._nested_mean_and_gradient(ds, fits)
        assert np.array_equal(g, _b_doubleprime(fits, ds))
        D = np.concatenate(grads)
        ref, _, _ = _fd_gradient(ds, fits)
        assert D.shape == ref.shape
        np.testing.assert_allclose(D, ref, rtol=1e-8, atol=1e-8 * np.abs(ref).max())

    @pytest.mark.parametrize("case", SANDWICH_CASES)
    def test_matches_finite_difference_reference(self, case):
        ds, fits = _sandwich_case(case)
        ref = _fd_variance(ds, fits)
        assert mle_sandwich_variance(ds, fits) == pytest.approx(ref, rel=1e-9)

    def test_gradient_matches_directional_difference(self):
        ds = draw_dataset(800, 22)
        fits = self._mle_fits(ds)
        # the plug-in mean along a small random direction of the stacked
        # coefficients against its linearization
        D = np.concatenate(inference_mod._nested_mean_and_gradient(ds, fits)[1])
        _, g_mean, gamma = _fd_gradient(ds, fits)
        delta = 1e-4 * np.random.default_rng(3).standard_normal(gamma.size)
        got = g_mean(gamma + delta) - g_mean(gamma)
        assert got == pytest.approx(float(D @ delta), abs=200.0 * float(delta @ delta))

    def test_one_nested_evaluation_per_call(self, monkeypatch):
        ds = draw_dataset(600, 24)
        fits = self._mle_fits(ds)
        calls = {"nested": 0, "design": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for module in (inference_mod, nuisance_mod):
            monkeypatch.setattr(module, "_linear_nested", counting("nested", nuisance_mod._linear_nested))
            monkeypatch.setattr(module, "build_design_matrix",
                                counting("design", build_design_matrix))
        mle_sandwich_variance(ds, fits)
        assert calls["nested"] <= 1
        # b'' and its gradient (3 + 4 d1 builds) plus one design per nested
        # role; a finite-difference gradient takes 5 builds per evaluation
        assert calls["design"] <= 5 * (ds.d1 + 1)

    @pytest.mark.parametrize("role", [ROLE_OUTCOME, ROLE_MEDIATOR, c1_mean_role(2)])
    def test_non_identity_link_is_refused(self, role):
        ds = draw_dataset(600, 25)
        models = dict(working_models_for("int").working_set.models)
        models[role] = replace(models[role], predict_family=Family.LOGIT)
        fits = fit_nuisances(ds, WorkingModelSet(models), CODING)
        with pytest.raises(InferenceError, match=f"^{role}: .*identity-link gaussian"):
            mle_sandwich_variance(ds, fits)

    def test_rank_deficient_block_names_role_and_column(self):
        # fitted where c0_1 varies, evaluated where it is constant: the
        # outcome block's design loses c0_1 against the intercept
        ds = draw_dataset(600, 27)
        fits = self._mle_fits(ds)
        flat = dataset_from_arrays(np.full_like(ds.c0, 0.5), ds.e, ds.c1, ds.m, ds.y)
        with pytest.raises(InferenceError, match=r"^outcome: design matrix is rank deficient at c0_1 "
                                                 r"\(relative pivot magnitude [0-9.e+-]+\)$"):
            mle_sandwich_variance(flat, fits)

    @pytest.mark.parametrize("case", ["weighted", "batch", "stacked"])
    def test_fits_it_cannot_handle_are_refused_before_any_design(self, case, monkeypatch):
        # weighted fits would get the unweighted variance; the batch fits of
        # (B, n) weights or of a stacked Monte Carlo chunk have (B, p)
        # coefficients
        ds = draw_dataset(600, 28)
        working_set = working_models_for("int").working_set
        if case == "stacked":
            drawn = [draw_dataset(300, 28, rep=r) for r in (1, 2)]
            ds = Dataset(**{f.name: np.stack([getattr(d, f.name) for d in drawn]) for f in fields(Dataset)})
            fits, message = fit_nuisances(ds, working_set, CODING), r"^outcome: .*one dataset, not a batch$"
        else:
            w = np.random.default_rng(28).exponential(1.0, (3, ds.n) if case == "batch" else ds.n)
            fits, message = fit_nuisances(ds, working_set, CODING, w), r"^the analytic variance is defined for unweighted fits$"

        def no_design(*args, **kwargs):
            raise AssertionError("a design was built")

        for module in (inference_mod, nuisance_mod):
            monkeypatch.setattr(module, "build_design_matrix", no_design)
        with pytest.raises(InferenceError, match=message):
            mle_sandwich_variance(ds, fits)

    def test_discrete_pathway_is_refused(self):
        ds = draw_dataset(300, 26)
        fits = replace(self._mle_fits(ds), pathway="discrete")
        with pytest.raises(InferenceError, match="linear pathway"):
            mle_sandwich_variance(ds, fits)

    def test_positive_on_noisy_data(self):
        ds = draw_dataset(2000, 23)
        fits = self._mle_fits(ds)
        var = mle_sandwich_variance(ds, fits)
        assert var > 0
        # same order as the naive variance of the plug-in values
        assert var < 1.0
