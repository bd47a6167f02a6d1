"""Tests for the beyond-the-paper extensions (SP, overlays, dual-Cell,
CAT-vs-Gamma) and the CAT-mode makenewz path they exercise."""

import numpy as np
import pytest

from repro.harness import get_trace, run_experiment
from repro.harness.datasets import get_cat_trace
from repro.phylo import (
    CatRates,
    LikelihoodEngine,
    default_gtr,
    estimate_site_rates,
    stepwise_addition_tree,
)
from repro.port import PortExecutor, stage


@pytest.fixture(scope="module")
def executor():
    return PortExecutor(get_trace("quick"))


class TestCATMakenewz:
    """makenewz under CAT rates (one transition matrix per category,
    over the engine's category-sorted pattern blocks)."""

    def _cat_engine(self, patterns, seed=0):
        rng = np.random.default_rng(seed)
        tree = stepwise_addition_tree(patterns, rng)
        model = default_gtr().with_frequencies(patterns.base_frequencies())
        rates = estimate_site_rates(
            patterns, model, tree, rate_grid=np.geomspace(0.25, 4.0, 7)
        )
        cat = CatRates(rates, n_categories=4)
        return LikelihoodEngine(patterns, model, cat, tree)

    def test_makenewz_improves_likelihood(self, small_patterns):
        engine = self._cat_engine(small_patterns)
        before = engine.evaluate()
        _, after = engine.makenewz(engine.tree.branches[0])
        assert after >= before - 1e-9
        engine.detach()

    def test_optimize_all_branches_runs(self, small_patterns):
        engine = self._cat_engine(small_patterns, seed=1)
        lnl = engine.optimize_all_branches(passes=1)
        assert np.isfinite(lnl)
        engine.detach()

    def test_cat_derivatives_match_finite_differences(self, small_patterns):
        engine = self._cat_engine(small_patterns, seed=2)
        branch = engine.tree.branches[3]
        t, h = 0.2, 1e-6

        def lnl_at(x):
            return engine.branch_derivatives(branch, x)[0]

        _, d1, d2 = engine.branch_derivatives(branch, t)
        fd1 = (lnl_at(t + h) - lnl_at(t - h)) / (2 * h)
        # Second differences need a larger step: with h = 1e-6 the
        # difference is ~1e-11 of lnl and cancellation noise dominates.
        h2 = 1e-4
        fd2 = (lnl_at(t + h2) - 2 * lnl_at(t) + lnl_at(t - h2)) / (h2 * h2)
        assert d1 == pytest.approx(fd1, rel=1e-4)
        assert d2 == pytest.approx(fd2, rel=1e-2)
        engine.detach()


class TestSinglePrecision:
    def test_arithmetic_factor_from_timing(self, executor):
        # (1 issue/cycle x 4-wide) / (2 ops per 6 cycles x 2-wide) = 6.
        assert executor.model.sp_arithmetic_speedup() == pytest.approx(6.0)

    def test_sp_kernel_faster(self, executor):
        full = stage("table7")
        dp = executor.model.newview_kernel_s(full)
        sp = executor.model.newview_kernel_s(full, single_precision=True)
        assert sp < dp
        # Conditionals and residual do not shrink, so < the full 6x.
        assert dp / sp < 6.0

    def test_llp_regime_benefits(self, executor):
        dp = executor.model.mgps_total_s(1)
        sp = executor.model.mgps_total_sp_s(1)
        assert sp < 0.6 * dp

    def test_ppe_bound_regime_does_not(self, executor):
        dp = executor.model.mgps_total_s(32)
        sp = executor.model.mgps_total_sp_s(32)
        assert sp == pytest.approx(dp, rel=0.05)

    def test_experiment_passes(self):
        run_experiment("single_precision").assert_shape()


class TestOverlays:
    def test_paper_module_fits_free(self, executor):
        assert executor.model.overlay_penalty_s(117 * 1024) == 0.0

    def test_penalty_monotone_in_module_size(self, executor):
        penalties = [
            executor.model.overlay_penalty_s(kb * 1024)
            for kb in (240, 280, 320, 400)
        ]
        assert all(p > 0 for p in penalties)
        assert penalties == sorted(penalties)

    def test_invalid_size(self, executor):
        with pytest.raises(ValueError):
            executor.model.overlay_penalty_s(0)

    def test_experiment_passes(self):
        run_experiment("overlays").assert_shape()


class TestDualCell:
    def test_even_split_halves(self, executor):
        one = executor.model.mgps_total_s(64)
        two = executor.model.dual_cell_mgps_s(64)
        assert two == pytest.approx(one / 2, rel=1e-9)

    def test_odd_split_rounds_up(self, executor):
        two = executor.model.dual_cell_mgps_s(9)
        assert two == pytest.approx(executor.model.mgps_total_s(5))

    def test_single_task_no_benefit(self, executor):
        assert executor.model.dual_cell_mgps_s(1) == \
            executor.model.mgps_total_s(1)

    def test_experiment_passes(self):
        run_experiment("dual_cell").assert_shape()


class TestAlignmentScaling:
    def test_monotone_and_affine(self, executor):
        times = executor.alignment_length_projection((100, 200, 400, 800))
        values = [times[c] for c in (100, 200, 400, 800)]
        assert values == sorted(values)
        # Doubling patterns less than doubles time (fixed floor).
        assert values[1] < 2 * values[0]
        assert values[3] < 2 * values[2]

    def test_canonical_point_matches_table7(self, executor):
        times = executor.alignment_length_projection((228,))
        assert times[228] == pytest.approx(
            executor.model.stage_total_s("table7", 1, 1), rel=1e-9
        )

    def test_invalid_count(self, executor):
        with pytest.raises(ValueError):
            executor.alignment_length_projection((0,))

    def test_experiment_passes(self):
        run_experiment("alignment_scaling").assert_shape()


class TestCatVsGamma:
    def test_cat_trace_has_one_category(self):
        trace = get_cat_trace()
        # CAT collapses the category axis: patterncats per call equals
        # the pattern count (not 4x it).
        gamma = get_trace("quick")
        assert trace.mean_newview_patterncats == pytest.approx(
            gamma.mean_newview_patterncats / 4
        )

    def test_projection_fields(self, executor):
        projection = executor.cat_projection(get_cat_trace())
        assert projection["cat_task_s"] < projection["gamma_task_s"]
        assert projection["speedup"] > 1.5

    def test_experiment_passes(self):
        run_experiment("cat_vs_gamma").assert_shape()
