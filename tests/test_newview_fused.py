"""The fused ``newview`` kernel: one backend call per CLV.

``KernelBackend.newview`` must be *exactly* the composition it replaced
— both child propagations, the combine, the scale-count sum and the
rescaling check — on every backend, model shape and tip/inner case:
CLVs and scale counts bit for bit.  The hook (the engine's fault
injection site) must sit between the combine and the rescale guard, the
engine must make one kernel call per CLV and give the arena slot back
when that call raises, and nothing on the default hot path may go
through ``np.einsum``'s Python-level planning again.
"""

import numpy as np
import pytest

from repro.phylo import (
    LikelihoodEngine,
    NewviewCase,
    Tree,
    UniformRate,
    default_gtr,
    kernels,
    synthetic_dataset,
)
from repro.phylo.dna import TIP_PARTIAL_ROWS
from repro.phylo.engine import available_backends
from repro.phylo.engine.protocol import resolve_backend
from repro.phylo.search import _apply_spr, _revert_spr, spr_neighborhood
from tests.strategies import random_patterns
from tests.test_sumtable import CONFIGS, N_PATTERNS, _engine, _rates

#: every registered backend
BACKENDS = available_backends()

CASES = {
    NewviewCase.TIP_TIP: ("tip", "tip"),
    NewviewCase.TIP_INNER: ("tip", "inner"),
    NewviewCase.INNER_TIP: ("inner", "tip"),
    NewviewCase.INNER_INNER: ("inner", "inner"),
}


def _side(rng, kind, n_cats, table):
    """A ``newview`` operand: tip state codes, or an inner ``(clv,
    scale_counts)`` pair whose magnitudes straddle the rescaling
    threshold and whose counts are non-zero."""
    if kind == "tip":
        return rng.integers(1, len(table), N_PATTERNS).astype(np.uint8)
    clv = rng.uniform(1e-3, 1.0, (n_cats, N_PATTERNS, table.shape[1]))
    clv *= 10.0 ** rng.integers(-60, 1, (1, N_PATTERNS, 1))
    return clv, rng.integers(0, 4, N_PATTERNS)


def _operands(config, case, seed=11):
    model, rate_model, code_table = CONFIGS[config]
    table = TIP_PARTIAL_ROWS if code_table is None else code_table
    rates, cat_weights = _rates(rate_model)
    rng = np.random.default_rng(seed)
    kinds = CASES[case]
    left = _side(rng, kinds[0], len(cat_weights), table)
    right = _side(rng, kinds[1], len(cat_weights), table)
    p_left = model.transition_matrices(0.07, rates)
    p_right = model.transition_matrices(1.9, rates)
    return left, p_left, right, p_right, code_table, len(cat_weights)


def _by_hand(backend, left, p_left, right, p_right, code_table, n_cats):
    """What ``_newview`` did before the fused kernel: four backend calls
    and a scale-count sum."""

    def term(side, p):
        if isinstance(side, tuple):
            return backend.inner_terms(p, side[0]), side[1]
        out = np.empty((n_cats, len(side), p.shape[-1]))
        return (backend.tip_terms(p, side, code_table, out=out),
                np.zeros(len(side), dtype=np.int64))

    term1, sc1 = term(left, p_left)
    term2, sc2 = term(right, p_right)
    clv = np.empty_like(term1)
    backend.newview_combine(term1, term2, out=clv)
    scale = sc1 + sc2
    scaled = backend.scale_clv(clv, scale)
    return clv, scale, scaled


def _fused(backend, operands, hook=None):
    left, p_left, right, p_right, code_table, n_cats = operands
    clv = np.full((n_cats, N_PATTERNS, p_left.shape[-1]), np.nan)
    scale = np.full(N_PATTERNS, -7, dtype=np.int64)  # must be overwritten
    scaled = backend.newview(left, p_left, right, p_right, clv, scale,
                             code_table, hook=hook)
    return clv, scale, scaled


class TestKernelBitIdentity:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("spec", BACKENDS)
    def test_fused_is_the_hand_composition(self, spec, config, case):
        backend = resolve_backend(spec)
        operands = _operands(config, case)
        want_clv, want_scale, want_scaled = _by_hand(backend, *operands)
        clv, scale, scaled = _fused(backend, operands)
        assert np.array_equal(clv, want_clv)
        assert np.array_equal(scale, want_scale)
        assert scaled == want_scaled
        if case == NewviewCase.INNER_INNER:
            assert scaled > 0  # the operands do cross the threshold

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_einsum_agrees_with_the_reference_oracle(self, config, case):
        operands = _operands(config, case)
        clv, scale, scaled = _fused(resolve_backend("einsum"), operands)
        ref_clv, ref_scale, ref_scaled = _fused(
            resolve_backend("reference"), operands)
        assert np.array_equal(scale, ref_scale)  # exact, as across backends
        assert scaled == ref_scaled
        assert np.allclose(clv, ref_clv, rtol=1e-9, atol=0.0)

    def test_one_kernel_call_on_einsum_four_on_the_composition(self):
        operands = _operands("gtr_gamma4", NewviewCase.TIP_INNER)
        for spec, calls in (("einsum", 1), ("reference", 4)):
            backend = resolve_backend(spec)
            _fused(backend, operands)
            assert backend.kernel_calls == calls


class TestMatmulForms:
    """The kernels that lost ``np.einsum`` kept its bits."""

    @pytest.mark.parametrize("n_patterns", [1, 36, 207, 732])
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_propagation_and_evaluate_match_the_einsum_forms(
            self, config, n_patterns):
        model, rate_model, code_table = CONFIGS[config]
        table = TIP_PARTIAL_ROWS if code_table is None else code_table
        rng = np.random.default_rng(n_patterns)
        n = model.n_states
        masks = rng.integers(1, len(table), n_patterns).astype(np.uint8)
        if rate_model.is_per_site:  # K pattern blocks, Gamma's forms on each
            blocks = 3 if n_patterns % 3 == 0 else 1
            p = model.transition_matrices(0.3, rng.uniform(0.25, 4.0, blocks))
            clv = rng.uniform(1e-9, 1.0, (1, n_patterns, n))
            view = (blocks, -1, n)
            assert np.array_equal(
                kernels.inner_terms(p, clv),
                np.einsum("cij,csj->csi", p, clv.reshape(view),
                          optimize=True).reshape(clv.shape))
            per_code = np.einsum("cij,mj->cmi", p, table, optimize=True)
            assert np.array_equal(
                kernels.tip_terms(p, masks, table, out=np.empty(clv.shape)),
                per_code[np.arange(blocks)[:, None],
                         masks.reshape(blocks, -1)].reshape(clv.shape))
            cat_weights = np.ones(1)
        else:
            p = model.transition_matrices(0.3, rate_model.rates)
            cat_weights = rate_model.weights
            clv = rng.uniform(1e-9, 1.0, (len(cat_weights), n_patterns, n))
            assert np.array_equal(
                kernels.inner_terms(p, clv),
                np.einsum("cij,csj->csi", p, clv, optimize=True))
            assert np.array_equal(
                kernels.tip_terms(p, masks, table),
                np.einsum("cij,mj->cmi", p, table, optimize=True)[:, masks])
        other = rng.uniform(1e-9, 1.0, clv.shape)
        weights = rng.integers(1, 9, n_patterns).astype(np.float64)
        scale = rng.integers(0, 3, n_patterns)
        per_cat = np.einsum("csi,csi,i->cs", clv, other, model.pi,
                            optimize="optimal")
        want = float(weights @ (np.log(per_cat.T @ cat_weights)
                                - scale * kernels.LOG_SCALE_FACTOR))
        assert kernels.evaluate_loglik(
            model.pi, cat_weights, weights, clv, other, scale) == want


def _hand_recompute(engine, key):
    """Recompute the cached direction *key* from its children's cached
    entries with the backend's four separate kernels; also returns the
    largest scale count among the children."""
    node = next(n for n in engine.tree.nodes if n.index == key[0])
    entry = engine.tree.branch_by_id(key[1])
    sides, pmats, child_max = [], [], 0
    for branch in (b for b in node.branches if b is not entry):
        child = branch.other(node)
        pmats.append(engine._pmat(branch))
        if child.is_tip:
            sides.append(engine._tip_masks(child))
        else:
            below = engine._clv_cache[(child.index, branch.index)]
            sides.append((below.clv, below.scale_counts))
            child_max = max(child_max, int(below.scale_counts.max()))
    clv, scale, _ = _by_hand(
        engine.backend, sides[0], pmats[0], sides[1], pmats[1],
        engine._tip_table, engine._n_cats)
    return clv, scale, child_max


@pytest.mark.parametrize("spec", BACKENDS)
def test_deep_tree_rescaling_matches_hand_composition(spec):
    """Real rescaling: every cached direction of a deep tree, children
    with non-zero scale counts included, is the hand composition."""
    aln = synthetic_dataset(n_taxa=120, n_sites=12, seed=8,
                            mean_branch_length=1.5,
                            invariant_fraction=0.0, gamma_alpha=None)
    patterns = aln.compress()
    tree = Tree.from_tip_names(
        patterns.taxa, np.random.default_rng(4), mean_branch_length=1.5)
    engine = LikelihoodEngine(patterns, default_gtr(), UniformRate(), tree,
                              backend=spec)
    try:
        for branch in tree.branches[:6]:
            engine.evaluate(branch)
        assert engine.newview_calls == len(engine._clv_cache)
        rescaled_children = 0
        for key, cached in list(engine._clv_cache.items()):
            clv, scale, child_max = _hand_recompute(engine, key)
            assert np.array_equal(cached.clv, clv)
            assert np.array_equal(cached.scale_counts, scale)
            rescaled_children += child_max > 0
        assert rescaled_children > 0
    finally:
        engine.detach()


class TestHook:
    @pytest.mark.parametrize("spec", BACKENDS)
    def test_runs_once_between_combine_and_rescale(self, spec):
        backend = resolve_backend(spec)
        operands = _operands("gtr_gamma4", NewviewCase.INNER_INNER)
        clean_clv, clean_scale, clean_scaled = _fused(backend, operands)
        seen = []

        def hook(clv, scale_counts):
            # the combine is done (no NaN left from the fill) and the
            # rescale is not: counts are still the children's sum
            seen.append((np.isfinite(clv).all(), scale_counts.copy()))

        _fused(backend, operands, hook=hook)
        assert len(seen) == 1
        finite, counts = seen[0]
        assert finite
        assert np.array_equal(counts, operands[0][1] + operands[2][1])
        assert clean_scaled > 0
        assert not np.array_equal(counts, clean_scale)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("spec", BACKENDS)
    def test_a_poisoned_stripe_meets_this_operations_guard(self, spec, value):
        backend = resolve_backend(spec)

        def poison(clv, scale_counts):
            clv[:, : max(1, clv.shape[1] // 4)] = value

        with pytest.raises(FloatingPointError, match="non-finite"):
            _fused(backend,
                   _operands("hky_cat", NewviewCase.TIP_INNER),
                   hook=poison)

    @pytest.mark.parametrize("spec", BACKENDS)
    def test_forced_underflow_round_trips_exactly(self, spec):
        backend = resolve_backend(spec)
        operands = _operands("gtr_gamma4", NewviewCase.TIP_TIP)
        clean_clv, clean_scale, clean_scaled = _fused(backend, operands)
        assert clean_scaled == 0  # tips cannot underflow on their own
        clv, scale, scaled = _fused(
            backend, operands, hook=LikelihoodEngine._force_underflow)
        assert scaled > 0
        assert np.array_equal(clv, clean_clv)
        assert np.array_equal(scale, clean_scale)


class TestEngineWiring:
    def test_one_backend_call_per_newview(self):
        engine = _engine("gtr_gamma4")
        try:
            calls = []
            original = engine.backend.newview

            def counting(*args, **kwargs):
                calls.append(engine.backend.kernel_calls)
                return original(*args, **kwargs)

            engine.backend.newview = counting
            for name in ("tip_terms", "inner_terms", "newview_combine",
                         "scale_clv"):
                setattr(engine.backend, name, None)  # must not be reached
            for branch in engine.tree.branches:
                for node in branch.nodes:
                    if not node.is_tip:
                        engine.clv(node, branch)
            assert len(calls) == engine.newview_calls > 0
            assert engine.backend.kernel_calls == engine.newview_calls
        finally:
            engine.detach()

    def test_slot_is_released_when_the_kernel_raises(self):
        engine = _engine("gtr_gamma4")
        try:
            engine.evaluate()
            key, cached = next(iter(engine._clv_cache.items()))
            node = next(n for n in engine.tree.nodes if n.index == key[0])
            entry = engine.tree.branch_by_id(key[1])
            del engine._clv_cache[key]
            engine._arena.release(cached.slot)
            in_use = engine._arena.in_use

            def boom(*args, **kwargs):
                raise RuntimeError("kernel died")

            engine.backend.newview = boom
            with pytest.raises(RuntimeError, match="kernel died"):
                engine._newview(node, entry)
            assert engine._arena.in_use == in_use
            assert key not in engine._clv_cache
        finally:
            engine.detach()

    def test_clv_hit_skips_the_ladder_and_tips_still_raise(self):
        engine = _engine("jc69_uniform")
        try:
            branch = next(b for b in engine.tree.branches
                          if not any(n.is_tip for n in b.nodes))
            node = branch.nodes[0]
            first = engine.clv(node, branch)
            engine._guarded = None  # a hit must not come through here
            assert engine.clv(node, branch) is first
            del engine._guarded
            tip = engine.tree.tips[0]
            with pytest.raises(ValueError, match="tips have no stored CLV"):
                engine.clv(tip, tip.branches[0])
        finally:
            engine.detach()

    @pytest.mark.parametrize("seed", range(6))
    def test_deps_are_the_subtree_branches(self, seed):
        """``deps`` is assembled from the children's cached ``deps``;
        it must stay the tree walk's answer, also across SPR edits."""
        rng = np.random.default_rng(seed)
        patterns = random_patterns(rng, int(rng.integers(5, 14)), 40)
        tree = Tree.from_tip_names(patterns.taxa, rng)
        engine = LikelihoodEngine(patterns, CONFIGS["jc69_uniform"][0],
                                  None, tree)

        def check():
            for branch in tree.branches:
                engine.evaluate(branch)
            assert engine._clv_cache
            by_id = {n.index: n for n in tree.nodes}
            for (node_id, entry_id), cached in engine._clv_cache.items():
                assert cached.deps == frozenset(tree.subtree_branches(
                    by_id[node_id], tree.branch_by_id(entry_id)))

        try:
            check()
            prune, keep, target = next(
                (branch, keep, targets[-1])
                for branch in tree.branches
                for keep in branch.nodes if not keep.is_tip
                for targets in [spr_neighborhood(tree, branch, keep, 4)]
                if targets
            )
            move = _apply_spr(tree, prune, keep, target)
            check()
            _revert_spr(tree, move)
            check()
        finally:
            engine.detach()


class TestHotPathStaysOffEinsum:
    @pytest.mark.parametrize("config", ["gtr_gamma4", "hky_cat"])
    def test_no_planned_einsum_on_the_default_path(self, config, monkeypatch):
        """``evaluate`` + ``makenewz`` + ``optimize_all_branches`` on the
        einsum backend never reach ``np.einsum(..., optimize=...)`` —
        neither through the kernels' cached-path wrapper nor directly.
        (The model's own eigenbasis projection on a P-cache miss is a
        plain C ``einsum`` with no planning; it keeps its bits.)"""
        engine = _engine(config)
        plain_einsum = np.einsum

        def no_planning(*args, optimize=False, **kwargs):
            if optimize is not False:
                raise AssertionError("np.einsum planning on the hot path")
            return plain_einsum(*args, **kwargs)

        def no_wrapper(*args, **kwargs):
            raise AssertionError("kernels._einsum on the hot path")

        monkeypatch.setattr(np, "einsum", no_planning)
        monkeypatch.setattr(kernels, "_einsum", no_wrapper)
        try:
            before = engine.evaluate()
            engine.makenewz(engine.tree.branches[0])
            after = engine.optimize_all_branches(passes=2)
            assert after >= before
        finally:
            engine.detach()
