"""Tests for workload tracing (repro.port.trace)."""

import numpy as np
import pytest

from repro.phylo import (
    GammaRates,
    LikelihoodEngine,
    SearchConfig,
    default_gtr,
    infer_tree,
    stepwise_addition_tree,
)
from repro.phylo.engine import NewviewCase
from repro.port import NESTED_TOP, Tracer, TraceSummary


def traced_engine(patterns, keep_events=False, seed=0):
    tracer = Tracer(keep_events=keep_events)
    tree = stepwise_addition_tree(patterns, np.random.default_rng(seed))
    model = default_gtr().with_frequencies(patterns.base_frequencies())
    engine = LikelihoodEngine(
        patterns, model, GammaRates(0.7, 4), tree, tracer=tracer
    )
    return engine, tracer


class TestTracerCounting:
    def test_counts_match_engine_counters(self, small_patterns):
        engine, tracer = traced_engine(small_patterns)
        engine.evaluate()
        engine.makenewz(engine.tree.branches[0])
        assert tracer.newview_count == engine.newview_calls
        assert tracer.evaluate_count == engine.evaluate_calls
        assert tracer.makenewz_count == engine.makenewz_calls
        engine.detach()

    def test_patterncats_accumulate(self, small_patterns):
        engine, tracer = traced_engine(small_patterns)
        engine.evaluate()
        expected = tracer.newview_count * small_patterns.n_patterns * 4
        assert tracer.newview_patterncats == expected
        engine.detach()

    def test_case_counts_cover_all_calls(self, small_patterns):
        engine, tracer = traced_engine(small_patterns)
        engine.evaluate()
        assert sum(tracer.newview_case_counts.values()) == tracer.newview_count
        valid = {
            NewviewCase.TIP_TIP,
            NewviewCase.TIP_INNER,
            NewviewCase.INNER_TIP,
            NewviewCase.INNER_INNER,
        }
        assert set(tracer.newview_case_counts).issubset(valid)
        engine.detach()

    def test_nested_context_tagging(self, small_patterns):
        engine, tracer = traced_engine(small_patterns)
        # evaluate() pushes a context, so its newviews are nested.
        engine.evaluate()
        assert tracer.newview_nested_count == tracer.newview_count
        engine.detach()

    def test_kept_events_have_context(self, small_patterns):
        engine, tracer = traced_engine(small_patterns, keep_events=True)
        engine.makenewz(engine.tree.branches[0])
        newviews = [e for e in tracer.events if e.kernel == "newview"]
        assert newviews
        assert all(e.context == "makenewz" for e in newviews)
        makenewz = [e for e in tracer.events if e.kernel == "makenewz"]
        assert len(makenewz) == 1
        assert makenewz[0].context == NESTED_TOP
        assert makenewz[0].iterations >= 1
        engine.detach()

    def test_events_off_by_default(self, small_patterns):
        engine, tracer = traced_engine(small_patterns)
        engine.evaluate()
        assert tracer.events == []
        engine.detach()


class TestTraceSummary:
    def make_summary(self, small_patterns):
        engine, tracer = traced_engine(small_patterns)
        engine.optimize_all_branches(passes=1)
        engine.evaluate()
        engine.detach()
        return tracer.summary()

    def test_offload_count_regimes(self, small_patterns):
        summary = self.make_summary(small_patterns)
        only_newview = summary.offload_count(offload_all=False)
        all_three = summary.offload_count(offload_all=True)
        assert only_newview == summary.newview_count
        assert all_three == (
            summary.newview_toplevel_count
            + summary.makenewz_count
            + summary.evaluate_count
        )

    def test_scale_preserves_ratios(self, small_patterns):
        summary = self.make_summary(small_patterns)
        scaled = summary.scale(10.0)
        assert scaled.newview_count == 10 * summary.newview_count
        assert scaled.makenewz_count == 10 * summary.makenewz_count
        assert abs(
            scaled.newview_patterncats - 10 * summary.newview_patterncats
        ) < 1e-6

    def test_mean_quantities(self, small_patterns):
        summary = self.make_summary(small_patterns)
        assert summary.mean_newview_patterncats == pytest.approx(
            small_patterns.n_patterns * 4
        )
        assert summary.mean_makenewz_iterations >= 1.0

    def test_tip_case_fraction_range(self, small_patterns):
        summary = self.make_summary(small_patterns)
        assert 0.0 <= summary.tip_case_fraction() <= 1.0

    def test_paper_equivalent_flops_vectorization_halves_large_loop(
        self, small_patterns
    ):
        summary = self.make_summary(small_patterns)
        scalar = summary.paper_equivalent_flops(vectorized=False)
        simd = summary.paper_equivalent_flops(vectorized=True)
        assert simd < scalar

    def test_empty_summary_guards(self):
        empty = TraceSummary(
            newview_count=0, newview_nested_count=0, newview_patterncats=0.0,
            newview_case_counts={}, newview_scaled_patterns=0,
            makenewz_count=0, makenewz_iterations=0,
            makenewz_patterncats=0.0, evaluate_count=0,
            evaluate_patterncats=0.0,
        )
        assert empty.mean_newview_patterncats == 0.0
        assert empty.mean_makenewz_iterations == 0.0
        assert empty.tip_case_fraction() == 0.0


class TestFullSearchTrace:
    def test_infer_tree_with_tracer(self, small_patterns,
                                    tiny_search_config):
        tracer = Tracer()
        result = infer_tree(small_patterns, config=tiny_search_config,
                            seed=0, tracer=tracer)
        assert tracer.newview_count == result.newview_calls
        assert tracer.newview_count > tracer.makenewz_count > 0
        assert tracer.evaluate_count > 0
