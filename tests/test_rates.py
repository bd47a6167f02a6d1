"""Tests for rate-heterogeneity models (repro.phylo.rates)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.phylo import (
    CatRates,
    GammaRates,
    RateModel,
    UniformRate,
    discrete_gamma_rates,
)


class TestDiscreteGamma:
    def test_mean_is_one(self):
        for alpha in (0.2, 0.5, 1.0, 2.0, 10.0):
            rates = discrete_gamma_rates(alpha, 4)
            assert abs(rates.mean() - 1.0) < 1e-12, alpha

    def test_rates_increase(self):
        rates = discrete_gamma_rates(0.7, 4)
        assert (np.diff(rates) > 0).all()

    def test_single_category_is_one(self):
        assert np.array_equal(discrete_gamma_rates(0.5, 1), [1.0])

    def test_low_alpha_spreads_rates(self):
        spread_low = np.ptp(discrete_gamma_rates(0.2, 4))
        spread_high = np.ptp(discrete_gamma_rates(5.0, 4))
        assert spread_low > spread_high

    def test_high_alpha_approaches_uniform(self):
        rates = discrete_gamma_rates(500.0, 4)
        assert np.allclose(rates, 1.0, atol=0.1)

    def test_median_variant(self):
        mean_rates = discrete_gamma_rates(0.7, 4, median=False)
        median_rates = discrete_gamma_rates(0.7, 4, median=True)
        assert abs(median_rates.mean() - 1.0) < 1e-12
        assert not np.allclose(mean_rates, median_rates)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            discrete_gamma_rates(0.0, 4)

    def test_invalid_categories(self):
        with pytest.raises(ValueError):
            discrete_gamma_rates(1.0, 0)

    @given(
        st.floats(min_value=0.05, max_value=50.0),
        st.integers(min_value=2, max_value=16),
    )
    def test_mean_one_property(self, alpha, k):
        rates = discrete_gamma_rates(alpha, k)
        assert len(rates) == k
        assert abs(rates.mean() - 1.0) < 1e-9
        assert (rates >= 0).all()


class TestGammaWithoutScipyStats:
    """``discrete_gamma_rates`` evaluates the Gamma quantiles and CDF
    through ``scipy.special`` directly; the frozen ``scipy.stats``
    distribution it replaced computes the same thing 0.8 s of import
    later.  Bit-identity matters: category rates feed every likelihood
    in the golden corpus."""

    @staticmethod
    def frozen_dist_rates(alpha, n_categories, median):
        from scipy.stats import gamma  # only ever imported by this test

        dist = gamma(a=alpha, scale=1.0 / alpha)
        edges = dist.ppf(np.linspace(0.0, 1.0, n_categories + 1))
        if median:
            rates = dist.ppf((np.arange(n_categories) + 0.5) / n_categories)
        else:
            upper = gamma(a=alpha + 1.0, scale=1.0 / alpha)
            rates = (upper.cdf(edges[1:]) - upper.cdf(edges[:-1])) \
                * n_categories
        return rates / rates.mean()

    def test_bit_identical_to_the_frozen_distribution(self):
        # (3000 alphas on the same range: also all equal, 23 s.)
        alphas = np.concatenate([np.geomspace(0.02, 100.0, 250),
                                 [0.3, 0.5, 0.7, 0.8, 1.0, 2.0]])
        for alpha in alphas:
            for n_categories in (2, 4, 8, 25):
                for median in (False, True):
                    assert np.array_equal(
                        discrete_gamma_rates(alpha, n_categories, median),
                        self.frozen_dist_rates(alpha, n_categories, median),
                    ), (alpha, n_categories, median)

    def test_nothing_under_src_imports_scipy_stats(self):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        code = ("import sys, repro.phylo.cli, repro.serve, repro.cluster, "
                "repro.chaos.campaign, repro.verify, repro.harness\n"
                "sys.exit(any(m.startswith('scipy.stats') "
                "for m in sys.modules))")
        assert subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src)).returncode == 0


class TestRateModel:
    def test_uniform(self):
        model = UniformRate()
        assert model.n_categories == 1
        assert not model.is_per_site

    def test_gamma_weights_equal(self):
        model = GammaRates(0.7, 4)
        assert np.allclose(model.weights, 0.25)
        assert model.n_categories == 4

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            RateModel(np.ones(2), np.array([0.4, 0.4]))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RateModel(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RateModel(np.ones(3), np.ones(2) / 2)


class TestCatRates:
    def test_assignment_covers_all_sites(self):
        site_rates = np.array([0.1, 0.2, 1.0, 1.1, 5.0, 5.5])
        model = CatRates(site_rates, n_categories=3)
        assert model.is_per_site
        assert model.site_categories.shape == (6,)
        assert set(model.site_categories) == {0, 1, 2}

    def test_weighted_mean_rate_is_one(self):
        rng = np.random.default_rng(3)
        site_rates = rng.gamma(0.5, 2.0, size=200) + 0.01
        model = CatRates(site_rates, n_categories=8)
        mean = (model.rates * model.weights).sum()
        assert abs(mean - 1.0) < 1e-12

    def test_fewer_unique_rates_than_categories(self):
        model = CatRates(np.array([1.0, 1.0, 2.0, 2.0]), n_categories=10)
        assert model.n_categories == 2

    def test_sorted_assignment(self):
        site_rates = np.array([5.0, 0.1, 1.0, 9.0])
        model = CatRates(site_rates, n_categories=2)
        # The two slowest sites share the low category.
        slow = model.site_categories[[1, 2]]
        fast = model.site_categories[[0, 3]]
        assert (model.rates[slow] < model.rates[fast]).all()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            CatRates(np.array([1.0, 0.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CatRates(np.array([]))
