import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import pathfx.inference as inference_mod
from pathfx.core import PairCoding, TreatmentPair, dataset_from_arrays, wmean
from pathfx.inference import (
    BootstrapSpec,
    InferenceError,
    bootstrap,
    derived_rng,
    mc_t_test,
    mle_sandwich_variance,
)
from pathfx.nuisance import fit_nuisances
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


class TestBootstrap:
    def test_constant_statistic(self):
        ds = _toy_dataset()
        out = bootstrap(ds, lambda d, w: 3.14, BootstrapSpec(replicates=50, seed=1))
        assert out.lower == out.upper == out.point == 3.14
        assert out.se < 1e-12

    def test_same_seed_bit_identical(self):
        ds = _toy_dataset()
        spec = BootstrapSpec(kind="nonparametric", replicates=60, seed=9)
        stat = lambda d, w: float(d.y.mean())
        a = bootstrap(ds, stat, spec)
        b = bootstrap(ds, stat, spec)
        assert np.array_equal(a.replicate_values, b.replicate_values)

    def test_threads_do_not_change_results(self):
        ds = _toy_dataset()
        spec = BootstrapSpec(kind="wild_exp1", replicates=40, seed=3)
        stat = lambda d, w: wmean(d.y, w)
        a = bootstrap(ds, stat, spec, threads=1)
        b = bootstrap(ds, stat, spec, threads=4)
        assert np.array_equal(a.replicate_values, b.replicate_values)

    def test_wild_weights_forced_to_one_reproduce_point(self, monkeypatch):
        ds = _toy_dataset()
        monkeypatch.setattr(inference_mod, "_draw_wild_weights", lambda rng, n: np.ones(n))
        out = bootstrap(ds, lambda d, w: wmean(d.y, w), BootstrapSpec(kind="wild_exp1", replicates=25, seed=4))
        assert np.all(out.replicate_values == out.point)

    def test_nonparametric_of_data_ignoring_pipeline_is_constant(self):
        ds = _toy_dataset()
        out = bootstrap(ds, lambda d, w: 2.5, BootstrapSpec(replicates=30, seed=5))
        assert np.all(out.replicate_values == 2.5)

    def test_percentile_interval_monotone_in_level(self):
        ds = _toy_dataset(n=80, seed=6)
        stat = lambda d, w: float(d.y.mean())
        narrow = bootstrap(ds, stat, BootstrapSpec(replicates=200, seed=7, ci_level=0.8))
        wide = bootstrap(ds, stat, BootstrapSpec(replicates=200, seed=7, ci_level=0.95))
        assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper

    @pytest.mark.parametrize("kind", ["nonparametric", "wild_exp1"])
    def test_vector_statistic_equals_scalar_bootstraps(self, kind):
        ds = _toy_dataset(n=90, seed=8)
        spec = BootstrapSpec(kind=kind, replicates=150, seed=12)
        first = lambda d, w: wmean(d.y, w)
        second = lambda d, w: wmean(d.m**2, w)
        both = bootstrap(ds, lambda d, w: np.array([first(d, w), second(d, w)]), spec)
        assert both.replicate_values.shape == (150, 2)
        for k, stat in enumerate((first, second)):
            one = bootstrap(ds, stat, spec)
            assert isinstance(one.lower, float) and isinstance(one.se, float)
            assert (both.point[k], both.lower[k], both.upper[k], both.se[k]) == (
                one.point, one.lower, one.upper, one.se)
            assert np.array_equal(both.replicate_values[:, k], one.replicate_values)

    def test_nan_component_fails_the_whole_replicate(self):
        ds = _toy_dataset()
        calls = iter(range(1000))

        def stat(d, w):
            k = next(calls)
            return np.array([1.0, np.nan if k == 3 else 2.0])

        out = bootstrap(ds, stat, BootstrapSpec(kind="wild_exp1", replicates=20, seed=1))
        assert out.n_failed == 1
        assert list(out.lower) == list(out.upper) == [1.0, 2.0]

    def test_failures_tolerated_up_to_ten_percent(self):
        ds = _toy_dataset(n=40, seed=8)
        marker = float(ds.y[7])

        def stat(d, w):
            if float(d.y[0]) == marker:  # hit with probability 1/40 per replicate
                raise ValueError("synthetic failure")
            return float(d.y.mean())

        out = bootstrap(ds, stat, BootstrapSpec(replicates=200, seed=11))
        assert 0 < out.n_failed <= 20

    def test_too_many_failures_abort(self):
        ds = _toy_dataset()

        def stat(d, w):
            if d is not ds:  # every replicate resamples; the point estimate survives
                raise ValueError("always fails")
            return 0.0

        with pytest.raises(InferenceError, match="replicates failed"):
            bootstrap(ds, stat, BootstrapSpec(replicates=20, seed=12))

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
        code = "import sys, pathfx; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.strip() == "False"

    def test_zero_variance_away_from_hypothesis(self):
        out = mc_t_test(np.full(30, 1.0), 0.0)
        assert out.reject and out.infinite and math.isinf(out.t)


class TestSandwichVariance:
    def _mle_fits(self, ds):
        models = working_models_for("int")
        return fit_nuisances(ds, models.working_set, CODING)

    def test_zero_noise_variance_vanishes(self):
        from pathfx.core import DesignSpec
        from pathfx.glm import Family
        from pathfx.nuisance import (
            ROLE_MEDIATOR,
            ROLE_OUTCOME,
            ROLE_PROP_BASE,
            ROLE_PROP_C1,
            ROLE_PROP_M,
            ModelSpec,
            WorkingModelSet,
            c1_mean_role,
        )

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

    def test_gradient_matches_directional_difference(self):
        ds = draw_dataset(800, 22)
        fits = self._mle_fits(ds)
        # reuse the internals: perturb the stacked coefficients along a random
        # direction and compare the plug-in mean against the linearization
        from dataclasses import replace

        from pathfx.nuisance import ROLE_MEDIATOR, ROLE_OUTCOME, c1_mean_role
        from pathfx.nuisance import NuisanceFits, nested_mean_b_doubleprime

        roles = [ROLE_OUTCOME, ROLE_MEDIATOR] + [c1_mean_role(j) for j in range(1, 4)]
        sizes = [fits[r].coef.size for r in roles]
        offsets = np.concatenate([[0], np.cumsum(sizes)])

        def g_mean(gamma):
            patched = dict(fits.fits)
            for k, role in enumerate(roles):
                patched[role] = replace(fits[role], coef=gamma[offsets[k]:offsets[k + 1]].copy())
            tmp = NuisanceFits(fits=patched, coding=fits.coding, pathway="linear", d1=3)
            return float(nested_mean_b_doubleprime(tmp, ds).mean())

        gamma = np.concatenate([fits[r].coef for r in roles])
        rng = np.random.default_rng(3)
        delta = 1e-4 * rng.standard_normal(gamma.size)
        D = np.empty(gamma.size)
        h = 1e-5
        for k in range(gamma.size):
            up, down = gamma.copy(), gamma.copy()
            up[k] += h
            down[k] -= h
            D[k] = (g_mean(up) - g_mean(down)) / (2 * h)
        got = g_mean(gamma + delta) - g_mean(gamma)
        assert got == pytest.approx(float(D @ delta), abs=200.0 * float(delta @ delta))

    def test_positive_on_noisy_data(self):
        ds = draw_dataset(2000, 23)
        fits = self._mle_fits(ds)
        var = mle_sandwich_variance(ds, fits)
        assert var > 0
        # same order as the naive variance of the plug-in values
        assert var < 1.0
