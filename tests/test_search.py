"""Tests for the SPR hill-climbing search."""

import numpy as np
import pytest

from repro.phylo import (
    GammaRates,
    LikelihoodEngine,
    SearchConfig,
    Tree,
    default_gtr,
    evolve_alignment,
    hill_climb,
    random_tree,
    robinson_foulds,
    spr_neighborhood,
    stepwise_addition_tree,
    synthetic_dataset,
)
from repro.phylo.search import _apply_spr, _revert_spr


def make_engine(patterns, seed=0, start="parsimony"):
    rng = np.random.default_rng(seed)
    if start == "parsimony":
        tree = stepwise_addition_tree(patterns, rng)
    else:
        tree = Tree.from_tip_names(patterns.taxa, rng)
    model = default_gtr().with_frequencies(patterns.base_frequencies())
    return LikelihoodEngine(patterns, model, GammaRates(0.7, 4), tree)


class TestNeighborhood:
    def test_excludes_pruned_subtree_and_adjacency(self, small_patterns):
        engine = make_engine(small_patterns)
        tree = engine.tree
        prune = tree.branches[0]
        keep = next(n for n in prune.nodes if not n.is_tip)
        targets = spr_neighborhood(tree, prune, keep, radius=10)
        moved = prune.other(keep)
        inside = tree.subtree_branches(moved, prune)
        adjacent = {b.index for b in keep.branches}
        for t in targets:
            assert t.index not in inside
            assert t.index not in adjacent
            assert t is not prune
        engine.detach()

    def test_radius_monotone(self, small_patterns):
        engine = make_engine(small_patterns)
        tree = engine.tree
        prune = tree.branches[2]
        keep = next(n for n in prune.nodes if not n.is_tip)
        sizes = [
            len(spr_neighborhood(tree, prune, keep, r)) for r in (1, 2, 4, 99)
        ]
        assert sizes == sorted(sizes)
        engine.detach()

    def test_unbounded_radius_covers_all_legal_targets(self, small_patterns):
        engine = make_engine(small_patterns)
        tree = engine.tree
        prune = tree.branches[1]
        keep = next(n for n in prune.nodes if not n.is_tip)
        targets = spr_neighborhood(tree, prune, keep, radius=1000)
        moved = prune.other(keep)
        illegal = tree.subtree_branches(moved, prune)
        illegal |= {b.index for b in keep.branches} | {prune.index}
        expected = [b for b in tree.branches if b.index not in illegal]
        assert {t.index for t in targets} == {b.index for b in expected}
        engine.detach()


class TestApplyRevert:
    def test_revert_restores_topology_lengths_and_likelihood(
        self, small_patterns
    ):
        engine = make_engine(small_patterns, seed=3)
        tree = engine.tree
        base_lnl = engine.evaluate()
        base_newick = tree.to_newick(digits=17)
        rng = np.random.default_rng(17)
        performed = 0
        for _ in range(30):
            branches = tree.branches
            prune = branches[rng.integers(len(branches))]
            inner_sides = [n for n in prune.nodes if not n.is_tip]
            if not inner_sides:
                continue
            keep = inner_sides[0]
            targets = spr_neighborhood(tree, prune, keep, radius=3)
            if not targets:
                continue
            move = _apply_spr(tree, prune, keep,
                              targets[rng.integers(len(targets))])
            restored = _revert_spr(tree, move)
            tree.validate()
            assert not restored.retired
            assert abs(engine.evaluate() - base_lnl) < 1e-9
            performed += 1
        assert performed >= 10
        # Topology is bit-identical up to branch ids.
        assert robinson_foulds(
            tree, Tree.from_newick(base_newick)
        ) == 0.0
        engine.detach()

    def test_revert_after_local_optimization(self, small_patterns):
        # The lazy scoring optimizes branch lengths before rejecting;
        # revert must restore the original lengths exactly.
        engine = make_engine(small_patterns, seed=4)
        tree = engine.tree
        base_lnl = engine.evaluate()
        prune = next(
            b for b in tree.branches
            if any(not n.is_tip for n in b.nodes)
        )
        keep = next(n for n in prune.nodes if not n.is_tip)
        targets = spr_neighborhood(tree, prune, keep, radius=3)
        move = _apply_spr(tree, prune, keep, targets[0])
        for local in list(move.junction.branches):
            engine.makenewz(local)
        _revert_spr(tree, move)
        assert abs(engine.evaluate() - base_lnl) < 1e-9
        engine.detach()


class TestHillClimb:
    def test_monotone_improvement(self, small_patterns):
        engine = make_engine(small_patterns, seed=5, start="random")
        start = engine.evaluate()
        result = hill_climb(
            engine, SearchConfig(initial_radius=2, max_radius=3, max_rounds=3),
            np.random.default_rng(5),
        )
        assert result.log_likelihood >= start
        engine.tree.validate()
        engine.detach()

    def test_deterministic_given_seed(self, small_patterns):
        results = []
        for _ in range(2):
            engine = make_engine(small_patterns, seed=6)
            results.append(
                hill_climb(
                    engine,
                    SearchConfig(initial_radius=2, max_radius=2, max_rounds=2),
                    np.random.default_rng(42),
                )
            )
            engine.detach()
        assert results[0].newick == results[1].newick
        assert results[0].log_likelihood == results[1].log_likelihood

    def test_recovers_true_tree_on_clean_data(self):
        # Strong signal: long alignment, moderate branches; the search
        # from a random start must find the generating topology.
        names = [f"t{i}" for i in range(8)]
        rng = np.random.default_rng(30)
        truth = random_tree(names, rng, mean_branch_length=0.12)
        aln = evolve_alignment(truth, default_gtr(), 4000, rng,
                               gamma_alpha=None, invariant_fraction=0.0)
        patterns = aln.compress()
        engine = make_engine(patterns, seed=31, start="random")
        result = hill_climb(
            engine, SearchConfig(initial_radius=3, max_radius=5, max_rounds=6),
            np.random.default_rng(31),
        )
        inferred = Tree.from_newick(result.newick)
        assert robinson_foulds(truth, inferred) == 0.0
        engine.detach()

    def test_search_result_fields(self, small_patterns):
        engine = make_engine(small_patterns, seed=8)
        result = hill_climb(
            engine, SearchConfig(initial_radius=1, max_radius=1, max_rounds=1),
            np.random.default_rng(8),
        )
        assert result.rounds >= 1
        assert result.evaluated_moves >= result.accepted_moves >= 0
        assert result.newick.endswith(";")
        engine.detach()

    def test_all_taxa_preserved(self, medium_patterns):
        engine = make_engine(medium_patterns, seed=9, start="random")
        result = hill_climb(
            engine, SearchConfig(initial_radius=2, max_radius=2, max_rounds=2),
            np.random.default_rng(9),
        )
        inferred = Tree.from_newick(result.newick)
        assert sorted(inferred.tip_names()) == sorted(medium_patterns.taxa)
        engine.detach()


def _pin_searches():
    """The pinned searches, by name: ``search_sc``'s three (12 × 3,000,
    207 patterns), one bootstrap replicate (zero-weight patterns), one
    CAT search and one 20-state search."""
    from repro.phylo import AA, HKY85, Alignment, CatRates
    from repro.phylo.inference import bootstrap_analysis, infer_tree
    from tests.test_protein import related_sequences

    def search_sc(seed):
        patterns = synthetic_dataset(n_taxa=12, n_sites=3000,
                                     seed=42).compress()
        return infer_tree(patterns, seed=seed)

    def bootstrap():
        patterns = synthetic_dataset(n_taxa=9, n_sites=300, seed=7).compress()
        (replicate,) = bootstrap_analysis(patterns, 1, seed=2)
        return replicate

    def cat():
        patterns = synthetic_dataset(n_taxa=9, n_sites=300, seed=5).compress()
        rates = np.random.default_rng(5).uniform(0.25, 4.0,
                                                 patterns.n_patterns)
        return infer_tree(patterns, model=HKY85(3.0, (0.3, 0.2, 0.2, 0.3)),
                          rate_model=CatRates(rates, n_categories=3), seed=1)

    def protein():
        patterns = Alignment.from_sequences(
            related_sequences(n_taxa=7, n_sites=80, seed=2), AA).compress()
        return infer_tree(patterns, rate_model=GammaRates(0.8, 4), seed=0)

    return {
        "search_sc_0": lambda: search_sc(0),
        "search_sc_1": lambda: search_sc(1),
        "search_sc_2": lambda: search_sc(2),
        "bootstrap": bootstrap,
        "cat": cat,
        "protein": protein,
    }


class TestTrajectoryPin:
    """Whole searches pinned to the bit: newick, lnL ``float.hex``,
    rounds and evaluated / accepted moves.  Recorded before prune-once
    insertion scoring replaced the per-candidate apply → ``makenewz`` ×3
    → ``evaluate`` loop, and held by it: the scoring path may change
    what a search costs, never where it goes."""

    PINS = {
        "search_sc_0": (
            "((((T009:1e-08,T010:1e-08):0.00761294,((T005:0.0423597,"
            "T003:0.0153559):0.004688,T011:0.0102808):0.000711133):1e-08,"
            "T004:0.00346866):9.62535e-05,(T000:0.0355681,((T001:0.00714402,"
            "T006:0.0105196):0.0127808,T008:0.0200188):0.00304579)"
            ":0.000713328,(T002:0.000333587,T007:0.00273886):0.00362705);",
            "-0x1.bdb1228aef4eap+12", (5, 113, 3)),
        "search_sc_1": (
            "((T003:0.0184172,(T005:0.0418405,T000:0.0308638):0.00452508)"
            ":0.00152482,(((T011:0.0107115,(T007:0.00274042,T002:0.000328955)"
            ":0.00349859):0.000275463,T004:0.0034066):0.000372004,"
            "(T009:1e-08,T010:1e-08):0.00735878):0.000324727,(T008:0.0203563,"
            "(T001:0.00723723,T006:0.0103353):0.0123861):0.00330348);",
            "-0x1.bdb45374840dcp+12", (3, 85, 1)),
        "search_sc_2": (
            "(T008:0.0202528,(T006:0.0105281,T001:0.00707047):0.0125105,"
            "((((T003:0.014983,T005:0.0424352):0.00433802,T000:0.0348465)"
            ":0.00108441,(T009:1e-08,T010:1e-08):0.00710743):0.000361567,"
            "((T011:0.0107153,(T007:0.00273966,T002:0.00033086):0.00350264)"
            ":0.000273367,T004:0.00340906):0.000225487):0.00353976);",
            "-0x1.bd890573c1e0ap+12", (4, 81, 3)),
        "bootstrap": (
            "(((T001:0.00337674,(T005:0.00333026,T000:0.0138533):0.0102251)"
            ":1e-08,((T006:1e-08,(T002:0.0165933,T003:0.0152402):0.00246671)"
            ":1e-08,T008:0.00336386):1e-08):1e-08,T007:1e-08,"
            "T004:0.0172921);",
            "-0x1.1d80623c7f8fep+9", (4, 52, 3)),
        "cat": (
            "(((T006:1e-08,(T000:0.00985295,T005:0.00238685):0.00736718)"
            ":0.00242825,T004:1e-08):1e-08,(T007:0.00731764,((T008:0.0148123,"
            "T001:0.00242167):0.0118228,T003:0.0121624):0.00303402):1e-08,"
            "T002:0.0073128);",
            "-0x1.3fb8252602edbp+9", (3, 43, 2)),
        "protein": (
            "(p0:1e-08,(p4:0.46137,p2:0.241567):0.0302033,(p6:0.829381,"
            "(p5:0.788735,(p3:0.3854,p1:0.0723818):0.0475381):1e-08):1e-08);",
            "-0x1.f8503697b139ep+9", (5, 47, 6)),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_search_is_pinned(self, name):
        newick, lnl, moves = self.PINS[name]
        result = _pin_searches()[name]()
        search = result.search
        assert result.newick == newick
        assert float(result.log_likelihood).hex() == lnl
        assert (search.rounds, search.evaluated_moves,
                search.accepted_moves) == moves
