"""Tests for the numerical kernels (repro.phylo.kernels)."""

import math
import tracemalloc

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
    UniformRate,
    default_gtr,
)
from repro.phylo import kernels
from repro.phylo.dna import TIP_PARTIAL_ROWS
from repro.phylo.engine.backends.reference import ReferenceBackend
from repro.phylo.models import PMatrixCache
from repro.phylo.protein import AA_CODE_TABLE
from tests.strategies import random_patterns
from tests.test_chaos_engine import _single_site_plan


def make_pmats(n_cats=4, t=0.3):
    model = default_gtr()
    rates = GammaRates(0.7, n_cats).rates
    return model.transition_matrices(t, rates), model


def random_clv(rng, n_patterns, n_cats):
    return rng.random((n_cats, n_patterns, 4)) + 1e-3


class TestTipTerms:
    def test_matches_dense_computation(self):
        rng = np.random.default_rng(0)
        p, _ = make_pmats()
        masks = rng.choice([1, 2, 4, 8, 15], size=37).astype(np.uint8)
        terms = kernels.tip_terms(p, masks)
        dense = np.einsum("cij,sj->csi", p, TIP_PARTIAL_ROWS[masks])
        assert np.allclose(terms, dense)

    def test_category_blocks(self):
        """CAT: a ``(1, K*m, n)`` term, block ``b`` under matrix ``b``."""
        rng = np.random.default_rng(1)
        model = default_gtr()
        p = model.transition_matrices(0.2, rng.random(4) + 0.1)  # (K, 4, 4)
        masks = rng.choice([1, 2, 4, 8], size=20).astype(np.uint8)
        terms = kernels.tip_terms(p, masks, out=np.empty((1, 20, 4)))
        for s in range(20):
            expected = p[s // 5] @ TIP_PARTIAL_ROWS[masks[s]]
            assert np.allclose(terms[0, s], expected)


class TestInnerTerms:
    def test_matches_matmul(self):
        rng = np.random.default_rng(2)
        p, _ = make_pmats()
        clv = random_clv(rng, 13, 4)
        terms = kernels.inner_terms(p, clv)
        for s in range(13):
            for c in range(4):
                assert np.allclose(terms[c, s], p[c] @ clv[c, s])

    def test_category_blocks_match_matmul(self):
        rng = np.random.default_rng(3)
        model = default_gtr()
        p = model.transition_matrices(0.15, rng.random(3) + 0.1)
        clv = random_clv(rng, 12, 1)
        terms = kernels.inner_terms(p, clv)
        assert terms.shape == (1, 12, 4)
        for s in range(12):
            assert np.allclose(terms[0, s], p[s // 4] @ clv[0, s])


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
        ref = ReferenceBackend()
        slow = ref.newview_combine(ref.inner_terms(p_left, left),
                                   ref.inner_terms(p_right, right))
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
        ref = ReferenceBackend()
        slow = ref.newview_combine(ref.inner_terms(p, left),
                                   ref.inner_terms(p, right))
        assert np.allclose(fast, slow, rtol=1e-10)


class TestScaling:
    def test_no_scaling_above_threshold(self):
        clv = np.full((2, 5, 4), 0.5)
        counts = np.zeros(5, dtype=np.int64)
        scaled = kernels.scale_clv(clv, counts)
        assert scaled == 0
        assert (counts == 0).all()
        assert np.all(clv == 0.5)

    def test_scaling_below_threshold(self):
        clv = np.full((2, 3, 4), kernels.SCALE_THRESHOLD / 4.0)
        clv[:, 1] = 0.5  # pattern 1 healthy
        counts = np.zeros(3, dtype=np.int64)
        scaled = kernels.scale_clv(clv, counts)
        assert scaled == 2
        assert list(counts) == [1, 0, 1]
        assert np.all(clv[:, 0] == kernels.SCALE_THRESHOLD / 4.0 * kernels.SCALE_FACTOR)
        assert np.all(clv[:, 1] == 0.5)

    def test_scaling_is_exactly_compensated(self):
        # log(value) must be invariant: stored * factor, count += 1.
        value = kernels.SCALE_THRESHOLD / 8.0
        clv = np.full((1, 1, 4), value)
        counts = np.zeros(1, dtype=np.int64)
        kernels.scale_clv(clv, counts)
        recovered = math.log(clv[0, 0, 0]) - counts[0] * kernels.LOG_SCALE_FACTOR
        assert abs(recovered - math.log(value)) < 1e-9

    def test_pattern_scaled_when_all_entries_small(self):
        clv = np.full((2, 1, 4), kernels.SCALE_THRESHOLD / 2)
        clv[1, 0, 3] = 1.0  # one healthy entry blocks scaling
        counts = np.zeros(1, dtype=np.int64)
        assert kernels.scale_clv(clv, counts) == 0

    def test_nan_raises_floating_point_error(self):
        # Regression: NaN compares false against the threshold, so the
        # old max()-based check silently skipped rescaling and the NaN
        # surfaced much later as an inscrutable log-likelihood failure.
        clv = np.full((2, 4, 4), 0.5)
        clv[1, 2, 0] = np.nan
        counts = np.zeros(4, dtype=np.int64)
        with pytest.raises(FloatingPointError, match="pattern 2"):
            kernels.scale_clv(clv, counts)

    def test_inf_raises_floating_point_error(self):
        clv = np.full((1, 3, 4), 0.5)
        clv[0, 0, 1] = np.inf
        counts = np.zeros(3, dtype=np.int64)
        with pytest.raises(FloatingPointError, match="non-finite"):
            kernels.scale_clv(clv, counts)

    def test_empty_clv_is_safe(self):
        # The reductions must not raise on a zero-pattern CLV.
        clv = np.empty((2, 0, 4))
        counts = np.zeros(0, dtype=np.int64)
        assert kernels.scale_clv(clv, counts) == 0

    def test_row_exactly_at_threshold_is_not_scaled(self):
        clv = np.full((2, 3, 4), kernels.SCALE_THRESHOLD)
        counts = np.zeros(3, dtype=np.int64)
        assert kernels.scale_clv(clv, counts) == 0
        assert np.all(clv == kernels.SCALE_THRESHOLD)
        assert not counts.any()

    def test_all_zero_row_is_scaled_and_stays_zero(self):
        clv = np.full((2, 3, 4), 0.5)
        clv[:, 1] = 0.0
        counts = np.zeros(3, dtype=np.int64)
        assert kernels.scale_clv(clv, counts) == 1
        assert list(counts) == [0, 1, 0]
        assert not clv[:, 1].any()

    @staticmethod
    def _per_pattern_path(clv, scale_counts):
        """The check with no whole-array shortcut in front of it."""
        pattern_max = np.max(clv, axis=(0, 2), initial=0.0)
        if not np.isfinite(pattern_max).all():
            bad = int(np.flatnonzero(~np.isfinite(pattern_max))[0])
            raise FloatingPointError(f"non-finite CLV entries at pattern {bad}")
        needs = pattern_max < kernels.SCALE_THRESHOLD
        clv[:, needs] *= kernels.SCALE_FACTOR
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
        clv = np.full((2, 5, 4), 0.25)
        clv[:, 0] = kernels.SCALE_THRESHOLD / 2.0  # one row that does rescale
        if whole_row:
            clv[:, 3] = entry
        else:
            clv[1, 3, 2] = entry
        for rows in (slice(None), slice(1, None)):  # with / without row 0
            got, want = clv[:, rows].copy(), clv[:, rows].copy()
            got_counts = np.arange(got.shape[1], dtype=np.int64)
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
        ref = ReferenceBackend()
        slow = ref.evaluate_loglik(
            model.pi, cat_w, weights, u, ref.inner_terms(p, v), scale
        )
        assert abs(fast - slow) < 1e-8

    def test_underflow_raises(self):
        u = np.zeros((1, 2, 4))
        v = np.zeros((1, 2, 4))
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


# -- operand layout and CLV storage (DESIGN 7.5, 7.6) ---------------------------
#
# CLVs are stored category-major, ``(c, s, n)``, and P stacks
# transposed-contiguous.  Each kernel is held to a test-local copy of
# the form it replaced, run on a pattern-major ``(s, c, n)`` copy of the
# same CLVs and a plain C-ordered P stack: bit for bit at 4 states in
# the integrated modes (Gamma and uniform); to 1e-12 at 20 states and in
# CAT, where the products reach BLAS kernels whose summation order
# follows the operands' memory order (<= 2 ulp seen).


def _same(got, want, exact):
    if exact:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _cache_layout(p):
    return np.ascontiguousarray(p.transpose(0, 2, 1)).transpose(0, 2, 1)


def _scn(clv):
    """A pattern-major ``(s, c, n)`` copy of a ``(c, s, n)`` CLV."""
    return np.ascontiguousarray(clv.transpose(1, 0, 2))


def _scn_tip_terms(p, masks, table):
    per_code = table @ p.transpose(0, 2, 1)
    return np.take(per_code.transpose(1, 0, 2), masks, axis=0, mode="clip")


def _scn_inner_terms(p, clv):
    out = np.empty_like(clv)
    np.matmul(clv.transpose(1, 0, 2), p.transpose(0, 2, 1),
              out=out.transpose(1, 0, 2))
    return out


def _scn_scale_clv(clv, scale_counts):
    pattern_max = np.max(clv, axis=(1, 2), initial=0.0)
    needs = pattern_max < kernels.SCALE_THRESHOLD
    clv[needs] *= kernels.SCALE_FACTOR
    scale_counts[needs] += 1
    return int(needs.sum())


def _per_pattern(p, n_patterns):
    """CAT's ``(K, n, n)`` block matrices as the ``(s, n, n)`` stack of
    one matrix per pattern they replaced (block ``b`` is ``s // m``)."""
    return np.repeat(p, n_patterns // len(p), axis=0)


def _scn_newview(left, p_left, right, p_right, table, per_pattern):
    def term(side, p):
        if isinstance(side, tuple):
            if per_pattern:
                return np.matmul(side[0], p.transpose(0, 2, 1)), side[1]
            return _scn_inner_terms(p, side[0]), side[1]
        if per_pattern:
            tips = table[side][:, None, :]
            return np.matmul(tips, p.transpose(0, 2, 1)), 0
        return _scn_tip_terms(p, side, table), 0
    (t1, s1), (t2, s2) = term(left, p_left), term(right, p_right)
    clv = t1 * t2
    scale = np.zeros(len(clv), dtype=np.int64) + s1 + s2
    return clv, scale, _scn_scale_clv(clv, scale)


def _scn_evaluate_loglik(pi, cat_weights, pattern_weights, u_term, v_term,
                         scale_counts):
    s, c, n = v_term.shape
    product = np.empty((c, s, n))
    np.multiply(u_term.transpose(1, 0, 2), v_term.transpose(1, 0, 2),
                out=product)
    per_cat = (product.reshape(c * s, n) @ pi).reshape(c, s).T
    logs = np.log(per_cat @ cat_weights) \
        - scale_counts * kernels.LOG_SCALE_FACTOR
    return float(pattern_weights @ logs)


class TestOperandLayout:
    CASES = [(4, "gamma"), (4, "uniform"), (4, "cat"), (20, "gamma"),
             (20, "cat")]

    @staticmethod
    def _stacks(states, mode, n_patterns, rng):
        if states == 4:
            model, table = default_gtr(), TIP_PARTIAL_ROWS
        else:
            model = PoissonAA(tuple(np.linspace(1.0, 3.0, 20)))
            table = AA_CODE_TABLE
        rate_model = {"gamma": GammaRates(0.7, 4), "uniform": UniformRate(),
                      "cat": None}[mode]
        if rate_model is None:  # three category blocks of patterns
            rates, cat_weights = rng.uniform(0.25, 4.0, 3), np.ones(1)
        else:
            rates, cat_weights = rate_model.rates, rate_model.weights
        plain = [model.transition_matrices(t, rates) for t in (0.07, 1.9)]
        clvs = []
        for _ in range(2):  # magnitudes straddle the rescaling threshold
            clv = rng.uniform(1e-3, 1.0, (len(cat_weights), n_patterns,
                                          states))
            clv *= 10.0 ** rng.integers(-60, 1, (1, n_patterns, 1))
            clvs.append((clv, rng.integers(0, 4, n_patterns)))
        tips = [rng.integers(1, len(table), n_patterns).astype(np.uint8)
                for _ in range(2)]
        return model, cat_weights, plain, clvs, tips, table

    @staticmethod
    def _exact(states, mode):
        return states == 4 and mode != "cat"

    @pytest.mark.parametrize("n_patterns", [9, 207, 732])
    @pytest.mark.parametrize("states,mode", CASES)
    def test_propagation_keeps_its_bits_on_the_cache_layout(
            self, states, mode, n_patterns):
        rng = np.random.default_rng([states, n_patterns])
        _, _, (plain, _), ((clv, _), _), (masks, _), table = self._stacks(
            states, mode, n_patterns, rng)
        stored = _cache_layout(plain)
        assert np.array_equal(stored, plain)
        assert stored.transpose(0, 2, 1).flags.c_contiguous
        exact = self._exact(states, mode)
        out = np.full_like(clv, np.nan)
        if mode == "cat":
            per_pattern = _per_pattern(plain, n_patterns).transpose(0, 2, 1)
            assert kernels.inner_terms(stored, clv, out=out) is out
            _same(_scn(out), np.matmul(_scn(clv), per_pattern), exact)
            assert kernels.tip_terms(stored, masks, table, out=out) is out
            _same(_scn(out), np.matmul(table[masks][:, None, :],
                                       per_pattern), exact)
        else:
            assert kernels.inner_terms(stored, clv, out=out) is out
            _same(_scn(out), _scn_inner_terms(plain, _scn(clv)), exact)
            assert kernels.tip_terms(stored, masks, table, out=out) is out
            _same(_scn(out), _scn_tip_terms(plain, masks, table), exact)

    @pytest.mark.parametrize("n_patterns", [9, 207])
    @pytest.mark.parametrize("kinds", ["tip-tip", "tip-inner", "inner-inner"])
    @pytest.mark.parametrize("states,mode", CASES)
    def test_newview_keeps_its_bits_on_the_cache_layout(
            self, states, mode, kinds, n_patterns):
        rng = np.random.default_rng([states, n_patterns, len(kinds)])
        _, _, plain, clvs, tips, table = self._stacks(
            states, mode, n_patterns, rng)
        left, right = [{"tip": tips, "inner": clvs}[kind][i]
                       for i, kind in enumerate(kinds.split("-"))]
        as_scn = [side if kind == "tip" else (_scn(side[0]), side[1])
                  for kind, side in zip(kinds.split("-"), (left, right))]
        old = ([_per_pattern(p, n_patterns) for p in plain] if mode == "cat"
               else plain)
        want = _scn_newview(as_scn[0], old[0], as_scn[1], old[1], table,
                            mode == "cat")
        clv = np.full_like(clvs[0][0], np.nan)
        scale = np.full(n_patterns, -7, dtype=np.int64)
        scaled = kernels.newview(
            left, _cache_layout(plain[0]), right, _cache_layout(plain[1]),
            clv, scale, table)
        _same(_scn(clv), want[0], self._exact(states, mode))
        assert np.array_equal(scale, want[1])
        assert scaled == want[2]

    @pytest.mark.parametrize("n_patterns", [9, 207, 732, 1277])
    @pytest.mark.parametrize("states,mode", CASES)
    def test_evaluate_drops_its_copy_and_keeps_its_bits(
            self, states, mode, n_patterns):
        """The same ``(c*s, n) @ (n,)`` product on the same values, laid
        out the same way: bit-identical in every mode."""
        rng = np.random.default_rng([states, n_patterns, 3])
        model, cat_weights, _, ((u, _), (v, _)), _, _ = self._stacks(
            states, mode, n_patterns, rng)
        u, v = u + 1e-3, v + 1e-3  # no underflowing site likelihood
        weights = rng.integers(1, 9, n_patterns).astype(np.float64)
        scale = rng.integers(0, 3, n_patterns)
        want = _scn_evaluate_loglik(model.pi, cat_weights, weights, _scn(u),
                                    _scn(v), scale)
        got = kernels.evaluate_loglik(model.pi, cat_weights, weights, u, v,
                                      scale)
        assert got == want

    def test_hot_kernels_allocate_nothing_pattern_sized(self):
        """``inner_terms`` into the caller's buffer and
        ``evaluate_loglik`` on its scratch operand allocate less than
        one CLV at their peak: no transposed ``out=`` buffered by
        matmul, no category-major product copy."""
        rng = np.random.default_rng(9)
        p, model = make_pmats()
        p, pi = _cache_layout(p), model.pi
        u, v = random_clv(rng, 732, 4), random_clv(rng, 732, 4)
        term = np.empty_like(v)
        weights, cat_w = np.ones(732), np.full(4, 0.25)
        scale = np.zeros(732, dtype=np.int64)

        def hot_calls():
            kernels.inner_terms(p, v, out=term)
            return kernels.evaluate_loglik(pi, cat_w, weights, u, term,
                                           scale)

        hot_calls()  # warm
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            hot_calls()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < u.nbytes

    @pytest.mark.parametrize("states", [4, 20])
    def test_pmatrix_miss_path_is_the_batched_matmul(self, states):
        """``R diag(e) L`` as ``(R * e[:, None, :]) @ L``: the einsum it
        replaced to a few ulps, for ``P`` and both derivatives."""
        model = (default_gtr() if states == 4
                 else PoissonAA(tuple(np.linspace(1.0, 3.0, 20))))
        rates = GammaRates(0.7, 4).rates
        lam = model._eigenvalues[None, :] * rates[:, None]
        for t in (1e-8, 0.07, 1.9):
            e = np.exp(lam * t)
            got = (model.transition_matrices(t, rates),) \
                + model.transition_derivatives(t, rates)
            weights = (np.exp(model._eigenvalues[None, :]
                              * (rates[:, None] * t)),
                       e, lam * e, lam * lam * e)
            for g, w in zip(got, weights):
                w = np.einsum("ik,ck,kj->cij", model._right, w, model._left)
                np.testing.assert_allclose(
                    g, w, rtol=0.0, atol=8 * np.finfo(float).eps
                    * np.abs(w).max())

    @pytest.mark.parametrize("states,mode", CASES)
    def test_pmatrix_cache_stores_transposed_contiguous(self, states, mode):
        model = (default_gtr() if states == 4
                 else PoissonAA(tuple(np.linspace(1.0, 3.0, 20))))
        rates = (np.linspace(0.3, 3.0, 11) if mode == "cat"
                 else GammaRates(0.7, 4).rates)
        cache = PMatrixCache(model, rates)
        entry = cache.matrices(0.25)
        # 0.25 is its own canonical length: the miss path keeps its bits
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
