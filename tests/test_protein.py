"""Tests for amino-acid support (repro.phylo.protein)."""

import numpy as np
import pytest

from repro.phylo import (
    AA,
    AA_STATES,
    JC69,
    Alignment,
    GammaRates,
    LikelihoodEngine,
    PoissonAA,
    SearchConfig,
    Tree,
    UniformRate,
    create_engine,
    hill_climb,
    protein_model,
)
from repro.phylo.dna import decode_mask, encode_sequence
from repro.phylo.protein import AA_CODE_TABLE


def related_sequences(n_taxa=6, n_sites=120, seed=0):
    rng = np.random.default_rng(seed)
    base = "".join(rng.choice(list(AA_STATES), n_sites))
    seqs = {"p0": base}
    for i in range(1, n_taxa):
        s = list(base)
        for k in rng.choice(n_sites, 10 * i, replace=True):
            s[k] = rng.choice(list(AA_STATES))
        seqs[f"p{i}"] = "".join(s)
    return seqs


@pytest.fixture(scope="module")
def protein_patterns():
    return Alignment.from_sequences(related_sequences(), AA).compress()


class TestEncoding:
    def test_round_trip_plain(self):
        text = AA_STATES
        assert decode_mask(encode_sequence(text, AA), AA) == text

    def test_lowercase_accepted(self):
        assert decode_mask(encode_sequence("arndc", AA), AA) == "ARNDC"

    def test_ambiguity_codes(self):
        codes = encode_sequence("BZJX-", AA)
        rows = AA_CODE_TABLE[codes]
        assert rows[0].sum() == 2  # B: N or D
        assert rows[1].sum() == 2  # Z: Q or E
        assert rows[2].sum() == 2  # J: I or L
        assert rows[3].sum() == 20  # X: anything
        assert rows[4].sum() == 20  # gap

    def test_selenocysteine_folds_to_cysteine(self):
        u = AA_CODE_TABLE[encode_sequence("U", AA)[0]]
        c = AA_CODE_TABLE[encode_sequence("C", AA)[0]]
        assert np.array_equal(u, c)

    def test_invalid_character(self):
        with pytest.raises(ValueError, match="invalid amino-acid"):
            encode_sequence("ACDE1", AA)

    def test_code_table_rows_are_indicators(self):
        assert set(np.unique(AA_CODE_TABLE)) == {0.0, 1.0}
        # Every plain state row is a unit vector.
        assert np.array_equal(AA_CODE_TABLE[:20], np.eye(20))


class TestProteinAlignment:
    def test_construction_and_fasta_round_trip(self):
        aln = Alignment.from_sequences(related_sequences(), AA)
        again = Alignment.from_fasta(aln.to_fasta(), AA)
        assert np.array_equal(aln.data, again.data)

    def test_compression_reconstructs(self):
        aln = Alignment.from_sequences(related_sequences(seed=3), AA)
        pats = aln.compress()
        rebuilt = pats.patterns[:, pats.site_to_pattern]
        assert np.array_equal(rebuilt, aln.data)
        assert pats.weights.sum() == aln.n_sites

    def test_frequencies_sum_to_one(self, protein_patterns):
        freqs = protein_patterns.base_frequencies()
        assert freqs.shape == (20,)
        assert freqs.sum() == pytest.approx(1.0)

    def test_bootstrap_machinery_inherited(self, protein_patterns):
        rng = np.random.default_rng(5)
        replicate = protein_patterns.bootstrap_replicate(rng)
        assert replicate.weights.sum() == protein_patterns.n_sites
        assert type(replicate) is type(protein_patterns)


class TestProteinModels:
    def test_poisson_is_symmetric_jc_analogue(self):
        model = PoissonAA()
        assert model.n_states == 20
        p = model.transition_matrices(0.5, [1.0])[0]
        # All off-diagonals equal under equal rates and frequencies.
        off = p[~np.eye(20, dtype=bool)]
        assert np.allclose(off, off[0])
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_poisson_f_uses_frequencies(self, protein_patterns):
        freqs = protein_patterns.base_frequencies()
        model = PoissonAA(freqs)
        p = model.transition_matrices(300.0, [1.0])[0]
        for row in p:
            assert np.allclose(row, model.pi, atol=1e-6)

    def test_custom_matrix_validation(self):
        with pytest.raises(ValueError, match="190"):
            protein_model((1.0,) * 100, (0.05,) * 20)
        with pytest.raises(ValueError, match="20 frequencies"):
            protein_model((1.0,) * 190, (0.25,) * 4)

    def test_custom_matrix_reversible(self):
        rng = np.random.default_rng(7)
        rates = rng.random(190) + 0.1
        freqs = rng.random(20) + 0.05
        model = protein_model(rates, freqs)
        q = model.rate_matrix
        flux = model.pi[:, None] * q
        assert np.allclose(flux, flux.T, atol=1e-9)


class TestProteinInferencePipeline:
    def test_fitch_parsimony_on_protein(self, protein_patterns):
        from repro.phylo import fitch_score, stepwise_addition_tree

        tree = stepwise_addition_tree(
            protein_patterns, np.random.default_rng(11)
        )
        tree.validate()
        score = fitch_score(tree, protein_patterns)
        assert 0 < score < protein_patterns.n_sites * 20

    def test_parsimony_masks_are_20bit(self, protein_patterns):
        masks = protein_patterns.parsimony_masks(0)
        assert masks.dtype == np.uint32
        assert (masks > 0).all()
        assert (masks < (1 << 20)).all()

    def test_identical_protein_sequences_score_zero(self):
        from repro.phylo import fitch_score
        aln = Alignment.from_sequences(
            {"a": "ACDEF", "b": "ACDEF", "c": "ACDEF"}, AA
        )
        pats = aln.compress()
        tree = Tree.from_tip_names(pats.taxa, np.random.default_rng(0))
        assert fitch_score(tree, pats) == 0.0

    def test_infer_tree_end_to_end(self, protein_patterns):
        from repro.phylo import infer_tree

        result = infer_tree(
            protein_patterns,
            config=SearchConfig(initial_radius=1, max_radius=1,
                                max_rounds=1),
            seed=0,
        )
        assert np.isfinite(result.log_likelihood)
        tree = Tree.from_newick(result.newick)
        assert sorted(tree.tip_names()) == sorted(protein_patterns.taxa)

    def test_default_model_dispatches_to_poisson(self, protein_patterns):
        from repro.phylo.inference import default_model_for

        model = default_model_for(protein_patterns)
        assert model.n_states == 20
        assert model.name == "PoissonAA"

    def test_bootstrap_analysis_on_protein(self, protein_patterns):
        from repro.phylo import run_full_analysis

        analysis = run_full_analysis(
            protein_patterns, n_inferences=1, n_bootstraps=2,
            config=SearchConfig(initial_radius=1, max_radius=1,
                                max_rounds=1),
            seed=2,
        )
        assert analysis.supports
        assert all(0.0 <= v <= 1.0 for v in analysis.supports.values())

    def test_cli_aa_flag(self, tmp_path, capsys):
        from repro.phylo.cli import main

        aln = Alignment.from_sequences(related_sequences(5, 60, 9), AA)
        path = tmp_path / "protein.fasta"
        path.write_text(aln.to_fasta())
        code = main(["infer", "-s", str(path), "--aa", "--rounds", "1",
                     "--radius", "1", "--max-radius", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "AA sites" in out
        assert "best tree:" in out


class TestProteinLikelihood:
    def test_engine_refuses_a_model_of_another_state_count(
            self, protein_patterns):
        # Refused at construction, naming both sizes, not as a shape
        # error inside the first kernel.
        tree = Tree.from_tip_names(
            protein_patterns.taxa, np.random.default_rng(1)
        )
        with pytest.raises(ValueError, match="4-state model .* 20-state"):
            create_engine(protein_patterns, JC69(), UniformRate(), tree)

    def test_branch_invariance(self, protein_patterns):
        model = PoissonAA(protein_patterns.base_frequencies())
        tree = Tree.from_tip_names(
            protein_patterns.taxa, np.random.default_rng(1)
        )
        engine = LikelihoodEngine(
            protein_patterns, model, GammaRates(0.8, 4), tree
        )
        values = [engine.evaluate(b) for b in tree.branches]
        assert max(values) - min(values) < 1e-8
        engine.detach()

    def test_two_sequence_poisson_analytic(self):
        # Poisson: P(same) = 1/20 + 19/20 exp(-20t/19).
        import math

        from repro.phylo.tree import Tree as _Tree

        aln = Alignment.from_sequences(
            {"a": "AAAC", "b": "AAAD"}, AA
        )
        pats = aln.compress()
        t = 0.3
        tree = _Tree()
        x = tree._new_node("a")
        y = tree._new_node("b")
        tree._new_branch(x, y, t)
        engine = LikelihoodEngine(pats, PoissonAA(), UniformRate(), tree)
        e = math.exp(-20.0 * t / 19.0)
        same = math.log((1 / 20) * (1 / 20 + (19 / 20) * e))
        diff = math.log((1 / 20) * (1 / 20 - (1 / 20) * e))
        expected = 3 * same + diff
        assert engine.evaluate() == pytest.approx(expected, abs=1e-10)
        engine.detach()

    def test_makenewz_improves(self, protein_patterns):
        model = PoissonAA(protein_patterns.base_frequencies())
        tree = Tree.from_tip_names(
            protein_patterns.taxa, np.random.default_rng(2)
        )
        engine = LikelihoodEngine(
            protein_patterns, model, GammaRates(0.8, 4), tree
        )
        before = engine.evaluate()
        after = engine.optimize_all_branches(passes=2)
        assert after >= before
        engine.detach()

    def test_full_search_runs(self, protein_patterns):
        model = PoissonAA(protein_patterns.base_frequencies())
        tree = Tree.from_tip_names(
            protein_patterns.taxa, np.random.default_rng(3)
        )
        engine = LikelihoodEngine(
            protein_patterns, model, GammaRates(0.8, 4), tree
        )
        result = hill_climb(
            engine,
            SearchConfig(initial_radius=1, max_radius=2, max_rounds=2),
            np.random.default_rng(3),
        )
        assert np.isfinite(result.log_likelihood)
        engine.tree.validate()
        engine.detach()

    def test_related_sequences_beat_star_lengths(self, protein_patterns):
        # Optimized branch lengths on related sequences must give a
        # higher likelihood than absurdly long branches (signal exists).
        model = PoissonAA(protein_patterns.base_frequencies())
        tree = Tree.from_tip_names(
            protein_patterns.taxa, np.random.default_rng(4)
        )
        engine = LikelihoodEngine(protein_patterns, model, None, tree)
        optimized = engine.optimize_all_branches(passes=2)
        for branch in tree.branches:
            tree.set_length(branch, 5.0)
        saturated = engine.evaluate()
        assert optimized > saturated
        engine.detach()
