"""Tests for the CLV arena and the P-matrix cache (engine hot-path state)."""

import numpy as np
import pytest

from repro.phylo import GammaRates, default_gtr
from repro.phylo.arena import ClvArena
from repro.phylo.engine.backends.reference import ReferenceBackend
from repro.phylo.models import PMatrixCache


class TestClvArena:
    def test_initial_capacity_and_shapes(self):
        arena = ClvArena(17, 3, 4, initial_slots=8)
        assert arena.capacity == 8
        assert arena.in_use == 0
        slot = arena.acquire()
        # category-major: (n_cats, n_patterns, n_states), each
        # category's (patterns, states) block one contiguous operand
        assert slot.clv.shape == (3, 17, 4)
        assert slot.clv.flags["C_CONTIGUOUS"]
        assert all(block.flags["C_CONTIGUOUS"] for block in slot.clv)
        assert slot.scale_counts.shape == (17,)
        assert slot.scale_counts.dtype == np.int64

    def test_engine_slots_are_category_major(self, engine):
        engine.evaluate()
        n_cats = engine.rate_model.n_categories
        for entry in engine._clv_cache.values():
            assert entry.clv.shape == (n_cats, engine.patterns.n_patterns,
                                       engine.model.n_states)
            assert entry.clv.flags["C_CONTIGUOUS"]
        assert engine._term_scratch.shape == entry.clv.shape

    def test_acquire_release_recycles(self):
        arena = ClvArena(5, 2, 4, initial_slots=2)
        a = arena.acquire()
        arena.release(a)
        b = arena.acquire()
        # The freed slot is handed out again: same underlying buffer.
        assert b is a
        assert arena.acquires == 2 and arena.releases == 1

    def test_grows_by_doubling_when_exhausted(self):
        arena = ClvArena(3, 1, 4, initial_slots=2)
        slots = [arena.acquire() for _ in range(5)]
        assert arena.capacity >= 5
        assert arena.grown >= 2  # initial block + at least one growth
        # Growth must not invalidate earlier slots' views.
        slots[0].clv[:] = 7.0
        assert np.all(slots[0].clv == 7.0)

    def test_double_release_guard(self):
        arena = ClvArena(3, 1, 4)
        slot = arena.acquire()
        arena.release(slot)
        with pytest.raises(ValueError, match="released twice"):
            arena.release(slot)

    def test_foreign_slot_guard(self):
        a = ClvArena(3, 1, 4)
        b = ClvArena(3, 1, 4)
        slot = a.acquire()
        with pytest.raises(ValueError, match="belong"):
            b.release(slot)

    def test_release_all_and_counters(self):
        arena = ClvArena(3, 1, 4, initial_slots=4)
        for _ in range(3):
            arena.acquire()
        assert arena.in_use == 3
        assert arena.high_water == 3
        arena.release_all()
        assert arena.in_use == 0
        counters = arena.counters()
        assert counters["arena_acquires"] == 3
        assert counters["arena_releases"] == 3
        assert counters["arena_high_water"] == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ClvArena(0, 1, 4)
        with pytest.raises(ValueError):
            ClvArena(3, 1, 4, initial_slots=0)


class TestPMatrixCache:
    def setup_method(self):
        self.model = default_gtr()
        self.rates = GammaRates(0.7, 4).rates

    def test_hit_and_miss_counting(self):
        cache = PMatrixCache(self.model, self.rates)
        p1 = cache.matrices(0.3)
        assert (cache.hits, cache.misses) == (0, 1)
        p2 = cache.matrices(0.3)
        assert p2 is p1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_quantization_shares_nearby_lengths(self):
        cache = PMatrixCache(self.model, self.rates, quantum=1e-12)
        p1 = cache.matrices(0.25)
        p2 = cache.matrices(0.25 + 1e-13)  # below the quantum
        assert p2 is p1
        p3 = cache.matrices(0.25 + 1e-8)  # a resolvable difference
        assert p3 is not p1

    def test_entries_match_uncached_computation(self):
        cache = PMatrixCache(self.model, self.rates)
        assert np.allclose(
            cache.matrices(0.4),
            self.model.transition_matrices(0.4, self.rates),
            atol=1e-15,
        )

    def test_invalidate_clears_entries_keeps_counters(self):
        cache = PMatrixCache(self.model, self.rates)
        cache.matrices(0.1)
        cache.matrices(0.1)
        cache.invalidate()
        assert len(cache) == 0
        assert cache.hits == 1 and cache.misses == 1
        cache.matrices(0.1)  # recomputed after invalidation
        assert cache.misses == 2

    def test_lru_eviction_at_capacity(self):
        cache = PMatrixCache(self.model, self.rates, capacity=2)
        cache.matrices(0.1)
        cache.matrices(0.2)
        cache.matrices(0.1)  # refresh 0.1 -> 0.2 becomes LRU
        cache.matrices(0.3)  # evicts 0.2
        misses = cache.misses
        cache.matrices(0.1)
        assert cache.misses == misses  # still cached
        cache.matrices(0.2)
        assert cache.misses == misses + 1  # was evicted

    def test_cached_arrays_are_read_only(self):
        cache = PMatrixCache(self.model, self.rates)
        p = cache.matrices(0.5)
        with pytest.raises(ValueError):
            p[0, 0, 0] = 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PMatrixCache(self.model, self.rates, quantum=0.0)
        with pytest.raises(ValueError):
            PMatrixCache(self.model, self.rates, capacity=0)


class TestEngineArenaIntegration:
    def test_recycled_slots_give_bit_identical_clvs(self, engine):
        lnl1 = engine.evaluate()
        branch = engine.tree.branches[0]
        key, entry = next(iter(engine._clv_cache.items()))
        first = entry.clv.copy()
        first_scale = entry.scale_counts.copy()
        # Invalidation releases every slot; recomputation reuses the
        # recycled slots and must be bit-identical.
        engine.invalidate_all()
        assert not engine._clv_cache
        lnl2 = engine.evaluate()
        assert lnl2 == lnl1  # bit-identical, not just close
        entry2 = engine._clv_cache[key]
        assert np.array_equal(entry2.clv, first)
        assert np.array_equal(entry2.scale_counts, first_scale)
        assert engine._arena.releases > 0  # recycling actually happened

    def test_clv_matches_scalar_reference_oracle(self, engine):
        engine.evaluate()
        # Find a cached direction whose two children are both expandable.
        for (node_id, entry_id), cached in engine._clv_cache.items():
            node = next(
                n for n in engine.tree.nodes if n.index == node_id
            )
            entry = engine.tree.branch_by_id(entry_id)
            b1, b2 = [b for b in node.branches if b is not entry]
            q1, q2 = b1.other(node), b2.other(node)

            def expanded(q, via):
                if q.is_tip:
                    return np.asarray(engine._tip_clv(q), dtype=float)
                return engine._clv_cache[(q.index, via.index)].clv

            left = expanded(q1, b1)
            right = expanded(q2, b2)
            ref = ReferenceBackend()
            reference = ref.newview_combine(
                ref.inner_terms(engine._pmat(b1), left),
                ref.inner_terms(engine._pmat(b2), right),
            )
            assert np.allclose(cached.clv, reference, rtol=1e-12)
            break
        else:  # pragma: no cover
            pytest.fail("no cached CLV direction found")

    def test_steady_state_sweeps_do_not_grow_arena(self, engine):
        engine.optimize_all_branches(passes=1)
        grown_before = engine._arena.grown
        engine.optimize_all_branches(passes=2)
        assert engine._arena.grown == grown_before

    def test_perf_counters_exposed(self, engine):
        engine.evaluate()
        counters = engine.perf_counters()
        for key in (
            "pmat_hits",
            "pmat_misses",
            "arena_capacity",
            "arena_acquires",
            "arena_grown",
            "newview_calls",
        ):
            assert key in counters
        assert counters["newview_calls"] == engine.newview_calls
        assert counters["arena_in_use"] == len(engine._clv_cache)

    def test_pmat_cache_hits_on_shared_lengths(self, engine):
        tree = engine.tree
        length = 0.123
        for b in tree.branches[:3]:
            tree.set_length(b, length)
        engine.evaluate()
        assert engine._pmats.hits > 0

    def test_model_swap_invalidates_pmats(self, small_patterns, engine):
        engine.evaluate()
        entries_before = len(engine._pmats)
        assert entries_before > 0
        new_model = default_gtr().with_frequencies(
            small_patterns.base_frequencies()
        )
        engine.set_model(new_model)
        assert len(engine._pmats) == 0
        assert engine._pmats.model is new_model
        assert np.isfinite(engine.evaluate())
