"""Tests for the numerical kernels (repro.phylo.kernels)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chaos import inject
from repro.chaos.plan import ENGINE_PMAT_CORRUPT
from repro.phylo import (
    GammaRates,
    JC69,
    LikelihoodEngine,
    PoissonAA,
    Tree,
    default_gtr,
)
from repro.phylo import kernels
from repro.phylo.dna import TIP_PARTIAL_ROWS
from repro.phylo.models import PMatrixCache
from repro.phylo.protein import AA_CODE_TABLE
from tests.strategies import random_patterns
from tests.test_chaos_engine import _single_site_plan


def make_pmats(n_cats=4, t=0.3):
    model = default_gtr()
    rates = GammaRates(0.7, n_cats).rates
    return model.transition_matrices(t, rates), model


def random_clv(rng, n_patterns, n_cats):
    return rng.random((n_patterns, n_cats, 4)) + 1e-3


class TestTipTerms:
    def test_matches_dense_computation(self):
        rng = np.random.default_rng(0)
        p, _ = make_pmats()
        masks = rng.choice([1, 2, 4, 8, 15], size=37).astype(np.uint8)
        terms = kernels.tip_terms(p, masks)
        dense = np.einsum("cij,sj->sci", p, TIP_PARTIAL_ROWS[masks])
        assert np.allclose(terms, dense)

    def test_persite_variant(self):
        rng = np.random.default_rng(1)
        model = default_gtr()
        site_rates = rng.random(20) + 0.1
        p = model.transition_matrices(0.2, site_rates)  # (s, 4, 4)
        masks = rng.choice([1, 2, 4, 8], size=20).astype(np.uint8)
        terms = kernels.tip_terms_persite(p, masks)
        assert terms.shape == (20, 1, 4)
        for s in range(20):
            expected = p[s] @ TIP_PARTIAL_ROWS[masks[s]]
            assert np.allclose(terms[s, 0], expected)


class TestInnerTerms:
    def test_matches_matmul(self):
        rng = np.random.default_rng(2)
        p, _ = make_pmats()
        clv = random_clv(rng, 13, 4)
        terms = kernels.inner_terms(p, clv)
        for s in range(13):
            for c in range(4):
                assert np.allclose(terms[s, c], p[c] @ clv[s, c])

    def test_persite_matches_matmul(self):
        rng = np.random.default_rng(3)
        model = default_gtr()
        site_rates = rng.random(11) + 0.1
        p = model.transition_matrices(0.15, site_rates)
        clv = random_clv(rng, 11, 1)
        terms = kernels.inner_terms_persite(p, clv)
        for s in range(11):
            assert np.allclose(terms[s, 0], p[s] @ clv[s, 0])


class TestNewviewAgainstReference:
    def test_vectorized_matches_scalar_reference(self):
        rng = np.random.default_rng(4)
        p_left, _ = make_pmats(t=0.2)
        p_right, _ = make_pmats(t=0.4)
        left = random_clv(rng, 9, 4)
        right = random_clv(rng, 9, 4)
        fast = kernels.newview_combine(
            kernels.inner_terms(p_left, left),
            kernels.inner_terms(p_right, right),
        )
        slow = kernels.newview_combine_reference(p_left, p_right, left, right)
        assert np.allclose(fast, slow, rtol=1e-12)

    @given(st.integers(0, 10_000))
    def test_reference_agreement_property(self, seed):
        rng = np.random.default_rng(seed)
        p, _ = make_pmats(n_cats=2, t=float(rng.random() + 0.01))
        left = random_clv(rng, 5, 2)
        right = random_clv(rng, 5, 2)
        fast = kernels.newview_combine(
            kernels.inner_terms(p, left), kernels.inner_terms(p, right)
        )
        slow = kernels.newview_combine_reference(p, p, left, right)
        assert np.allclose(fast, slow, rtol=1e-10)


class TestScaling:
    def test_no_scaling_above_threshold(self):
        clv = np.full((5, 2, 4), 0.5)
        counts = np.zeros(5, dtype=np.int64)
        scaled = kernels.scale_clv(clv, counts)
        assert scaled == 0
        assert (counts == 0).all()
        assert np.all(clv == 0.5)

    def test_scaling_below_threshold(self):
        clv = np.full((3, 2, 4), kernels.SCALE_THRESHOLD / 4.0)
        clv[1] = 0.5  # pattern 1 healthy
        counts = np.zeros(3, dtype=np.int64)
        scaled = kernels.scale_clv(clv, counts)
        assert scaled == 2
        assert list(counts) == [1, 0, 1]
        assert np.all(clv[0] == kernels.SCALE_THRESHOLD / 4.0 * kernels.SCALE_FACTOR)
        assert np.all(clv[1] == 0.5)

    def test_scaling_is_exactly_compensated(self):
        # log(value) must be invariant: stored * factor, count += 1.
        value = kernels.SCALE_THRESHOLD / 8.0
        clv = np.full((1, 1, 4), value)
        counts = np.zeros(1, dtype=np.int64)
        kernels.scale_clv(clv, counts)
        recovered = math.log(clv[0, 0, 0]) - counts[0] * kernels.LOG_SCALE_FACTOR
        assert abs(recovered - math.log(value)) < 1e-9

    def test_pattern_scaled_when_all_entries_small(self):
        clv = np.full((1, 2, 4), kernels.SCALE_THRESHOLD / 2)
        clv[0, 1, 3] = 1.0  # one healthy entry blocks scaling
        counts = np.zeros(1, dtype=np.int64)
        assert kernels.scale_clv(clv, counts) == 0

    def test_nan_raises_floating_point_error(self):
        # Regression: NaN compares false against the threshold, so the
        # old max()-based check silently skipped rescaling and the NaN
        # surfaced much later as an inscrutable log-likelihood failure.
        clv = np.full((4, 2, 4), 0.5)
        clv[2, 1, 0] = np.nan
        counts = np.zeros(4, dtype=np.int64)
        with pytest.raises(FloatingPointError, match="pattern 2"):
            kernels.scale_clv(clv, counts)

    def test_inf_raises_floating_point_error(self):
        clv = np.full((3, 1, 4), 0.5)
        clv[0, 0, 1] = np.inf
        counts = np.zeros(3, dtype=np.int64)
        with pytest.raises(FloatingPointError, match="non-finite"):
            kernels.scale_clv(clv, counts)

    def test_empty_clv_is_safe(self):
        # np.max with initial= must not raise on a zero-pattern CLV.
        clv = np.empty((0, 2, 4))
        counts = np.zeros(0, dtype=np.int64)
        assert kernels.scale_clv(clv, counts) == 0

    def test_row_exactly_at_threshold_is_not_scaled(self):
        clv = np.full((3, 2, 4), kernels.SCALE_THRESHOLD)
        counts = np.zeros(3, dtype=np.int64)
        assert kernels.scale_clv(clv, counts) == 0
        assert np.all(clv == kernels.SCALE_THRESHOLD)
        assert not counts.any()

    def test_all_zero_row_is_scaled_and_stays_zero(self):
        clv = np.full((3, 2, 4), 0.5)
        clv[1] = 0.0
        counts = np.zeros(3, dtype=np.int64)
        assert kernels.scale_clv(clv, counts) == 1
        assert list(counts) == [0, 1, 0]
        assert not clv[1].any()

    @staticmethod
    def _per_pattern_path(clv, scale_counts):
        """The check with no whole-array shortcut in front of it."""
        pattern_max = np.max(clv, axis=(1, 2), initial=0.0)
        if not np.isfinite(pattern_max).all():
            bad = int(np.flatnonzero(~np.isfinite(pattern_max))[0])
            raise FloatingPointError(f"non-finite CLV entries at pattern {bad}")
        needs = pattern_max < kernels.SCALE_THRESHOLD
        clv[needs] *= kernels.SCALE_FACTOR
        scale_counts[needs] += 1
        return int(needs.sum())

    @pytest.mark.parametrize("entry", [
        np.nan, np.inf, -np.inf, 0.0, -1.0, kernels.SCALE_THRESHOLD,
        np.nextafter(kernels.SCALE_THRESHOLD, 0.0), 5e-324, 0.5,
    ], ids=repr)
    @pytest.mark.parametrize("whole_row", [False, True], ids=["one", "row"])
    def test_shortcut_never_changes_the_per_pattern_outcome(
            self, entry, whole_row):
        """Whatever one entry (or one whole row) is — NaN, either
        infinity, zero, negative, on or just under the threshold,
        subnormal — the fast path and the per-pattern path agree: same
        raise naming the same pattern, or same count, CLV and counters."""
        clv = np.full((5, 2, 4), 0.25)
        clv[0] = kernels.SCALE_THRESHOLD / 2.0  # one row that does rescale
        if whole_row:
            clv[3] = entry
        else:
            clv[3, 1, 2] = entry
        for rows in (slice(None), slice(1, None)):  # with / without row 0
            got, want = clv[rows].copy(), clv[rows].copy()
            got_counts = np.arange(len(got), dtype=np.int64)
            want_counts = got_counts.copy()
            try:
                expected = self._per_pattern_path(want, want_counts)
            except FloatingPointError as exc:
                with pytest.raises(FloatingPointError, match=str(exc)):
                    kernels.scale_clv(got, got_counts)
                continue
            assert kernels.scale_clv(got, got_counts) == expected
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(got_counts, want_counts)


class TestContractionPathCache:
    def test_paths_are_memoized_per_shape(self):
        a = np.ones((4, 4, 4))
        b = np.ones((9, 4, 4))
        path1 = kernels.contraction_path("cij,scj->sci", a, b)
        path2 = kernels.contraction_path("cij,scj->sci", a, b)
        assert path2 is path1  # same cached object, not re-derived
        # A different operand shape gets its own entry.
        c = np.ones((13, 4, 4))
        path3 = kernels.contraction_path("cij,scj->sci", a, c)
        assert path3 is not path1


class TestEvaluate:
    def test_matches_reference(self):
        rng = np.random.default_rng(5)
        p, model = make_pmats()
        u = random_clv(rng, 7, 4)
        v = random_clv(rng, 7, 4)
        weights = rng.integers(1, 5, size=7).astype(float)
        cat_w = np.full(4, 0.25)
        scale = rng.integers(0, 2, size=7).astype(np.int64)
        fast = kernels.evaluate_loglik(
            model.pi, cat_w, weights, u, kernels.inner_terms(p, v), scale
        )
        slow = kernels.evaluate_loglik_reference(
            p, model.pi, cat_w, weights, u, v, scale
        )
        assert abs(fast - slow) < 1e-8

    def test_underflow_raises(self):
        u = np.zeros((2, 1, 4))
        v = np.zeros((2, 1, 4))
        with pytest.raises(FloatingPointError):
            kernels.evaluate_loglik(
                np.full(4, 0.25), np.ones(1), np.ones(2), u, v,
                np.zeros(2, dtype=np.int64),
            )


class TestBranchDerivatives:
    def test_lnl_matches_evaluate(self):
        rng = np.random.default_rng(6)
        model = default_gtr()
        rates = GammaRates(0.7, 4).rates
        u = random_clv(rng, 8, 4)
        v = random_clv(rng, 8, 4)
        weights = np.ones(8)
        cat_w = np.full(4, 0.25)
        scale = np.zeros(8, dtype=np.int64)
        t = 0.31
        terms = model.transition_derivatives(t, rates)
        lnl, _, _ = kernels.branch_derivatives(
            terms, model.pi, cat_w, weights, u, v, scale
        )
        p = model.transition_matrices(t, rates)
        direct = kernels.evaluate_loglik(
            model.pi, cat_w, weights, u, kernels.inner_terms(p, v), scale
        )
        assert abs(lnl - direct) < 1e-9

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(7)
        model = default_gtr()
        rates = GammaRates(0.7, 4).rates
        u = random_clv(rng, 10, 4)
        v = random_clv(rng, 10, 4)
        weights = rng.integers(1, 4, size=10).astype(float)
        cat_w = np.full(4, 0.25)
        scale = np.zeros(10, dtype=np.int64)
        t, h = 0.27, 1e-6

        def lnl_at(x):
            terms = model.transition_derivatives(x, rates)
            return kernels.branch_derivatives(
                terms, model.pi, cat_w, weights, u, v, scale
            )[0]

        _, d1, d2 = kernels.branch_derivatives(
            model.transition_derivatives(t, rates),
            model.pi, cat_w, weights, u, v, scale,
        )
        fd1 = (lnl_at(t + h) - lnl_at(t - h)) / (2 * h)
        fd2 = (lnl_at(t + h) - 2 * lnl_at(t) + lnl_at(t - h)) / (h * h)
        assert abs(d1 - fd1) < 1e-4 * max(1.0, abs(fd1))
        assert abs(d2 - fd2) < 1e-2 * max(1.0, abs(fd2))

    def test_flop_constants_match_paper(self):
        assert kernels.FLOPS_LARGE_LOOP_SCALAR == 44
        assert kernels.FLOPS_LARGE_LOOP_VECTOR == 22
        assert kernels.FLOPS_SMALL_LOOP_SCALAR == 36
        assert kernels.FLOPS_SMALL_LOOP_VECTOR == 24


# -- operand layout (DESIGN 7.5) ----------------------------------------------
#
# The propagation kernels kept their code; what changed is the operand
# they are handed — the P-matrix cache stores every stack
# transposed-contiguous — and ``take`` no longer runs in mode="raise".
# Each is held to a test-local copy of the old form on a plain C-ordered
# stack: bit for bit at 4 states in the integrated modes; to 1e-12 at 20
# states and in CAT, where the products reach BLAS kernels whose
# summation order follows the matrix's memory order (<= 2 ulp seen).


def _same(got, want, exact):
    if exact:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _cache_layout(p):
    return np.ascontiguousarray(p.transpose(0, 2, 1)).transpose(0, 2, 1)


def _old_tip_terms(p, masks, table):
    per_code = table @ p.transpose(0, 2, 1)
    return np.take(per_code.transpose(1, 0, 2), masks, axis=0)  # "raise"


def _old_inner_terms(p, clv):
    out = np.empty_like(clv)
    np.matmul(clv.transpose(1, 0, 2), p.transpose(0, 2, 1),
              out=out.transpose(1, 0, 2))
    return out


def _old_newview(left, p_left, right, p_right, table, per_site):
    def term(side, p):
        if isinstance(side, tuple):
            if per_site:
                return np.matmul(side[0], p.transpose(0, 2, 1)), side[1]
            return _old_inner_terms(p, side[0]), side[1]
        if per_site:
            tips = table[side][:, None, :]
            return np.matmul(tips, p.transpose(0, 2, 1)), 0
        return _old_tip_terms(p, side, table), 0
    (t1, s1), (t2, s2) = term(left, p_left), term(right, p_right)
    clv = t1 * t2
    scale = np.zeros(len(clv), dtype=np.int64) + s1 + s2
    return clv, scale, kernels.scale_clv(clv, scale)


class TestOperandLayout:
    CASES = [(4, "gamma"), (4, "cat"), (20, "gamma"), (20, "cat")]

    @staticmethod
    def _stacks(states, mode, n_patterns, rng):
        if states == 4:
            model, table = default_gtr(), TIP_PARTIAL_ROWS
        else:
            model = PoissonAA(tuple(np.linspace(1.0, 3.0, 20)))
            table = AA_CODE_TABLE
        rates = (rng.uniform(0.25, 4.0, n_patterns) if mode == "cat"
                 else GammaRates(0.7, 4).rates)
        n_cats = 1 if mode == "cat" else 4
        plain = [model.transition_matrices(t, rates) for t in (0.07, 1.9)]
        clvs = []
        for _ in range(2):  # magnitudes straddle the rescaling threshold
            clv = rng.uniform(1e-3, 1.0, (n_patterns, n_cats, states))
            clv *= 10.0 ** rng.integers(-60, 1, (n_patterns, 1, 1))
            clvs.append((clv, rng.integers(0, 4, n_patterns)))
        tips = [rng.integers(1, len(table), n_patterns).astype(np.uint8)
                for _ in range(2)]
        return plain, clvs, tips, table

    @pytest.mark.parametrize("n_patterns", [9, 207, 732])
    @pytest.mark.parametrize("states,mode", CASES)
    def test_propagation_keeps_its_bits_on_the_cache_layout(
            self, states, mode, n_patterns):
        rng = np.random.default_rng([states, n_patterns])
        (plain, _), ((clv, _), _), (masks, _), table = self._stacks(
            states, mode, n_patterns, rng)
        stored = _cache_layout(plain)
        assert np.array_equal(stored, plain)
        assert stored.transpose(0, 2, 1).flags.c_contiguous
        if mode == "cat":
            _same(kernels.inner_terms_persite(stored, clv),
                  np.matmul(clv, plain.transpose(0, 2, 1)), exact=False)
            _same(kernels.tip_terms_persite(stored, masks, table),
                  np.matmul(table[masks][:, None, :],
                            plain.transpose(0, 2, 1)), exact=False)
        else:
            _same(kernels.inner_terms(stored, clv),
                  _old_inner_terms(plain, clv), exact=states == 4)
            out = np.full_like(clv, np.nan)
            assert kernels.tip_terms(stored, masks, table, out=out) is out
            _same(out, _old_tip_terms(plain, masks, table),
                  exact=states == 4)

    @pytest.mark.parametrize("n_patterns", [9, 207])
    @pytest.mark.parametrize("kinds", ["tip-tip", "tip-inner", "inner-inner"])
    @pytest.mark.parametrize("states,mode", CASES)
    def test_newview_keeps_its_bits_on_the_cache_layout(
            self, states, mode, kinds, n_patterns):
        rng = np.random.default_rng([states, n_patterns, len(kinds)])
        plain, clvs, tips, table = self._stacks(states, mode, n_patterns, rng)
        left, right = [{"tip": tips, "inner": clvs}[kind][i]
                       for i, kind in enumerate(kinds.split("-"))]
        want = _old_newview(left, plain[0], right, plain[1], table,
                            mode == "cat")
        clv = np.full_like(clvs[0][0], np.nan)
        scale = np.full(n_patterns, -7, dtype=np.int64)
        scaled = kernels.newview(
            left, _cache_layout(plain[0]), right, _cache_layout(plain[1]),
            clv, scale, table, mode == "cat")
        _same(clv, want[0], exact=(states, mode) == (4, "gamma"))
        assert np.array_equal(scale, want[1])
        assert scaled == want[2]

    @pytest.mark.parametrize("states,mode", CASES)
    def test_pmatrix_cache_stores_transposed_contiguous(self, states, mode):
        model = (default_gtr() if states == 4
                 else PoissonAA(tuple(np.linspace(1.0, 3.0, 20))))
        rates = (np.linspace(0.3, 3.0, 11) if mode == "cat"
                 else GammaRates(0.7, 4).rates)
        cache = PMatrixCache(model, rates)
        entry = cache.matrices(0.25)
        # 0.25 is its own canonical length: the one einsum keeps its bits
        assert np.array_equal(entry, model.transition_matrices(0.25, rates))
        assert entry.shape == (len(rates), states, states)
        assert entry.transpose(0, 2, 1).flags.c_contiguous
        assert not entry.flags.writeable
        assert entry.base.nbytes == entry.nbytes  # one array, not P and P^T
        assert cache.matrices(0.25) is entry

    def test_pmat_corruption_reaches_the_stored_stack_and_is_caught(self):
        rng = np.random.default_rng(21)
        patterns = random_patterns(rng, 7, 60)
        tree = Tree.from_tip_names(patterns.taxa, rng)
        engine = LikelihoodEngine(patterns, JC69(), None, tree)
        try:
            clean = engine.evaluate()
            engine.invalidate_all()
            length = tree.branches[0].length
            with inject(_single_site_plan(ENGINE_PMAT_CORRUPT)):
                poisoned = engine._transition_matrices(length)
                assert np.isnan(poisoned).all()
                assert engine._pmats.matrices(length) is poisoned
                assert not poisoned.flags.writeable
                assert engine.evaluate() == clean  # caught, recomputed
            assert engine.fault_recoveries == 1
        finally:
            engine.detach()
