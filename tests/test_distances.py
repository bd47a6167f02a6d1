"""Tests for pairwise distances and neighbor joining."""

import math

import numpy as np
import pytest

from repro.phylo import (
    Alignment,
    GammaRates,
    JC69,
    Tree,
    default_gtr,
    distance_matrix,
    evolve_alignment,
    jc69_distance,
    ml_distance,
    neighbor_joining,
    random_tree,
    robinson_foulds,
)


def patterns_of(seqs):
    return Alignment.from_sequences(seqs).compress()


class TestJC69Distance:
    def test_identical_is_zero(self):
        pats = patterns_of({"a": "ACGTACGT", "b": "ACGTACGT", "c": "ACGTACGT"})
        assert jc69_distance(pats, 0, 1) == 0.0

    def test_analytic_formula(self):
        # 2 mismatches in 8 sites: p = 0.25.
        pats = patterns_of({"a": "ACGTACGT", "b": "ACGTACGA", "c": "ACGTACGG"})
        # recompute pair (a, b): one mismatch at last site -> p = 1/8
        p = 1.0 / 8.0
        expected = -0.75 * math.log(1 - 4 * p / 3)
        assert jc69_distance(pats, 0, 1) == pytest.approx(expected)

    def test_saturation_capped(self):
        pats = patterns_of({"a": "AAAA", "b": "CCCC", "c": "GGGG"})
        assert jc69_distance(pats, 0, 1) == 5.0

    def test_ambiguity_counts_as_match(self):
        pats = patterns_of({"a": "ACGT", "b": "NCGT", "c": "ACGT"})
        assert jc69_distance(pats, 0, 1) == 0.0

    def test_symmetric(self):
        pats = patterns_of({"a": "ACGTTGCA", "b": "ACCTTGAA", "c": "ACGTAGCA"})
        assert jc69_distance(pats, 0, 1) == jc69_distance(pats, 1, 0)

    def test_amino_acid_codes_are_compared_as_state_sets(self):
        # R and D share no state, but their table indices (1 and 3)
        # share a bit: comparing raw codes called them a match.
        from repro.phylo.protein import AA

        pats = Alignment.from_sequences(
            {"a": "RRRR", "b": "DDDD", "c": "RRRR"}, AA).compress()
        assert jc69_distance(pats, 0, 1) == 5.0  # saturated, not 0.0
        assert jc69_distance(pats, 0, 2) == 0.0

    def test_amino_acid_uses_the_twenty_state_formula(self):
        from repro.phylo.protein import AA

        # One mismatch in ten sites; B (D or N) overlaps N and X any.
        pats = Alignment.from_sequences(
            {"a": "ARNDCQEGHB", "b": "ARNDCQEGHN", "c": "XRNDCQEGHW",
             "d": "WRNDCQEGHN"}, AA).compress()
        assert jc69_distance(pats, 0, 1) == 0.0
        assert jc69_distance(pats, 1, 2) == pytest.approx(
            -19 / 20 * math.log(1 - 20 * 0.1 / 19))
        assert jc69_distance(pats, 1, 3) == pytest.approx(
            -19 / 20 * math.log(1 - 20 * 0.1 / 19))


class TestMLDistance:
    def test_matches_jc_under_jc_model(self):
        rng = np.random.default_rng(0)
        seqs = {
            "a": "".join(rng.choice(list("ACGT"), 2000)),
        }
        # Mutate ~10 % of sites for b.
        b = list(seqs["a"])
        idx = rng.choice(2000, size=200, replace=False)
        for k in idx:
            b[k] = rng.choice([c for c in "ACGT" if c != b[k]])
        seqs["b"] = "".join(b)
        seqs["c"] = seqs["a"]
        pats = patterns_of(seqs)
        jc = jc69_distance(pats, 0, 1)
        ml = ml_distance(pats, 0, 1, JC69())
        assert ml == pytest.approx(jc, rel=0.02)

    def test_recovers_simulated_branch_length(self):
        # Evolve two sequences at a known distance; ML must recover it.
        names = ["x", "y", "z"]
        tree = Tree.from_newick("(x:0.15,y:0.15,z:0.0001);")
        rng = np.random.default_rng(1)
        aln = evolve_alignment(tree, JC69(), 20000, rng,
                               gamma_alpha=None, invariant_fraction=0.0)
        pats = aln.compress()
        d = ml_distance(pats, pats.taxon_index("x"), pats.taxon_index("y"),
                        JC69())
        assert d == pytest.approx(0.30, rel=0.08)

    def test_gamma_rates_increase_distance(self):
        # Rate variation hides multiple hits: for the same observed
        # mismatch fraction, Gamma distances exceed uniform ones.
        rng = np.random.default_rng(2)
        a = "".join(rng.choice(list("ACGT"), 3000))
        b = list(a)
        idx = rng.choice(3000, size=900, replace=False)
        for k in idx:
            b[k] = rng.choice([c for c in "ACGT" if c != b[k]])
        pats = patterns_of({"a": a, "b": "".join(b), "c": a})
        uniform = ml_distance(pats, 0, 1, JC69())
        gamma = ml_distance(pats, 0, 1, JC69(), GammaRates(0.3, 4))
        assert gamma > uniform


class TestDistanceMatrix:
    def test_properties(self, small_patterns):
        matrix = distance_matrix(small_patterns, method="jc")
        n = small_patterns.n_taxa
        assert matrix.shape == (n, n)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)
        assert (matrix >= 0).all()

    def test_methods_correlate(self, small_patterns):
        jc = distance_matrix(small_patterns, method="jc")
        ml = distance_matrix(small_patterns, method="ml")
        mask = ~np.eye(small_patterns.n_taxa, dtype=bool)
        corr = np.corrcoef(jc[mask], ml[mask])[0, 1]
        assert corr > 0.95

    def test_unknown_method(self, small_patterns):
        with pytest.raises(ValueError, match="unknown distance"):
            distance_matrix(small_patterns, method="phlogiston")


class TestNeighborJoining:
    def test_recovers_additive_tree(self):
        # Exact additive distances from a known tree -> NJ recovers it.
        source = Tree.from_newick(
            "((a:0.1,b:0.2):0.15,(c:0.12,d:0.08):0.1,e:0.3);"
        )
        names = sorted(source.tip_names())
        index = {name: i for i, name in enumerate(names)}
        matrix = np.zeros((5, 5))
        for i, x in enumerate(names):
            for j, y in enumerate(names):
                if i < j:
                    d = sum(
                        b.length
                        for b in source.path_between(
                            source.find_tip(x), source.find_tip(y)
                        )
                    )
                    matrix[i, j] = matrix[j, i] = d
        tree = neighbor_joining(matrix, names)
        tree.validate()
        assert robinson_foulds(tree, source) == 0.0
        # Branch lengths are recovered too (additivity).
        total = tree.total_length()
        assert total == pytest.approx(source.total_length(), rel=1e-6)

    def test_recovers_topology_from_sequences(self):
        # Fixed topology with clearly resolvable internal branches (a
        # random tree can draw near-zero internal branches, which no
        # method can recover from finite data).
        truth = Tree.from_newick(
            "((t0:0.08,t1:0.1):0.06,((t2:0.09,t3:0.07):0.05,"
            "(t4:0.1,t5:0.08):0.06):0.05,(t6:0.09,t7:0.1):0.07);"
        )
        rng = np.random.default_rng(5)
        aln = evolve_alignment(truth, default_gtr(), 5000, rng,
                               gamma_alpha=None, invariant_fraction=0.0)
        pats = aln.compress()
        matrix = distance_matrix(pats, method="ml", model=default_gtr())
        tree = neighbor_joining(matrix, pats.taxa)
        assert robinson_foulds(truth, tree) == 0.0

    def test_three_taxa(self):
        matrix = np.array([[0, 2.0, 3.0], [2.0, 0, 2.5], [3.0, 2.5, 0]])
        tree = neighbor_joining(matrix, ["a", "b", "c"])
        tree.validate()
        assert tree.n_tips == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            neighbor_joining(np.zeros((2, 2)), ["a", "b"])
        with pytest.raises(ValueError, match="symmetric"):
            bad = np.array([[0, 1.0, 2], [3, 0, 1], [2, 1, 0.0]])
            neighbor_joining(bad, ["a", "b", "c"])
        with pytest.raises(ValueError, match="diagonal"):
            bad = np.ones((3, 3))
            neighbor_joining(bad, ["a", "b", "c"])
        with pytest.raises(ValueError, match="shape"):
            neighbor_joining(np.zeros((3, 3)), ["a", "b"])

    def test_negative_limbs_clamped(self):
        # A non-additive matrix that provokes negative limb estimates.
        matrix = np.array(
            [
                [0.0, 0.1, 0.4, 0.4],
                [0.1, 0.0, 0.4, 0.4],
                [0.4, 0.4, 0.0, 0.02],
                [0.4, 0.4, 0.02, 0.0],
            ]
        )
        tree = neighbor_joining(matrix, ["a", "b", "c", "d"])
        tree.validate()  # validates positive clamped lengths
