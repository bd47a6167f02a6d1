"""Tests for alignments, parsers and pattern compression."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.phylo import AA, DNA, Alignment, parse_fasta, parse_phylip
from repro.phylo.alignment import unique_columns

FASTA = """\
>taxA
ACGTACGT
>taxB
ACGTTCGT
>taxC
ACGAACGA
"""

PHYLIP = """\
3 8
taxA  ACGTACGT
taxB  ACGTTCGT
taxC  ACGAACGA
"""


#: Every alignment test that is not about one alphabet runs over both;
#: A, C, G, T and the gap are amino-acid characters too.
ALPHABETS = (DNA, AA)


def seq_dict():
    return {"taxA": "ACGTACGT", "taxB": "ACGTTCGT", "taxC": "ACGAACGA"}


@pytest.fixture(scope="module")
def patterns_per_alphabet(small_alignment):
    """The conftest's small DNA patterns, and the same sequences read as
    amino acids."""
    return [Alignment.from_fasta(small_alignment.to_fasta(), alphabet)
            .compress() for alphabet in ALPHABETS]


class TestParsers:
    def test_fasta_round_trip(self):
        parsed = parse_fasta(FASTA)
        assert parsed == seq_dict()

    def test_fasta_multiline_sequences(self):
        parsed = parse_fasta(">x\nACGT\nACGT\n>y\nTTTT\nCCCC\n")
        assert parsed == {"x": "ACGTACGT", "y": "TTTTCCCC"}

    def test_fasta_duplicate_name_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_fasta(">a\nAC\n>a\nGT\n")

    def test_fasta_data_before_header_raises(self):
        with pytest.raises(ValueError, match="before first header"):
            parse_fasta("ACGT\n>a\nAC\n")

    def test_fasta_empty_raises(self):
        with pytest.raises(ValueError, match="no FASTA records"):
            parse_fasta("\n\n")

    def test_phylip_round_trip(self):
        assert parse_phylip(PHYLIP) == seq_dict()

    def test_phylip_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_phylip("3\nx ACGT\n")

    def test_phylip_length_mismatch(self):
        with pytest.raises(ValueError, match="sites"):
            parse_phylip("1 8\ntaxA ACGT\n")

    def test_phylip_missing_rows(self):
        with pytest.raises(ValueError, match="expected 3"):
            parse_phylip("3 4\na ACGT\nb ACGT\n")


class TestAlignment:
    def test_construction_and_shapes(self):
        aln = Alignment.from_sequences(seq_dict())
        assert aln.n_taxa == 3
        assert aln.n_sites == 8
        assert aln.taxa == ["taxA", "taxB", "taxC"]

    def test_sequence_accessor(self):
        aln = Alignment.from_sequences(seq_dict())
        assert aln.sequence("taxB") == "ACGTTCGT"

    def test_duplicate_taxa_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Alignment(["a", "a"], np.ones((2, 4), dtype=np.uint8))

    def test_name_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Alignment(["a"], np.ones((2, 4), dtype=np.uint8))

    def test_invalid_mask_rejected(self):
        data = np.zeros((1, 4), dtype=np.uint8)  # 0 is not a valid mask
        with pytest.raises(ValueError, match="invalid"):
            Alignment(["a"], data)

    def test_fasta_writer_round_trip(self):
        for alphabet in ALPHABETS:
            aln = Alignment.from_sequences(seq_dict(), alphabet)
            again = Alignment.from_fasta(aln.to_fasta(), alphabet)
            assert again.taxa == aln.taxa
            assert np.array_equal(again.data, aln.data)
            assert aln.sequence("taxB") == "ACGTTCGT"

    def test_phylip_writer_round_trip(self):
        for alphabet in ALPHABETS:
            aln = Alignment.from_sequences(seq_dict(), alphabet)
            again = Alignment.from_phylip(aln.to_phylip(), alphabet)
            assert np.array_equal(again.data, aln.data)

    def test_file_io(self, tmp_path):
        path = tmp_path / "test.fasta"
        path.write_text(FASTA)
        aln = Alignment.from_fasta(str(path))
        assert aln.n_taxa == 3

    def test_base_frequencies_sum_to_one(self):
        for alphabet in ALPHABETS:
            aln = Alignment.from_sequences(seq_dict(), alphabet)
            freqs = aln.base_frequencies()
            assert freqs.shape == (alphabet.n_states,)
            assert abs(freqs.sum() - 1.0) < 1e-12

    def test_base_frequencies_pure_a(self):
        for alphabet in ALPHABETS:
            aln = Alignment.from_sequences(
                {"a": "AAAA", "b": "AAAA", "c": "AAAA"}, alphabet)
            assert np.allclose(aln.base_frequencies(),
                               np.eye(alphabet.n_states)[0])

    def test_gaps_spread_frequency_mass(self):
        for alphabet in ALPHABETS:
            aln = Alignment.from_sequences(
                {"a": "----", "b": "----", "c": "----"}, alphabet)
            assert np.allclose(aln.base_frequencies(),
                               [1.0 / alphabet.n_states] * alphabet.n_states)


class TestCompression:
    def test_weights_sum_to_sites(self):
        for alphabet in ALPHABETS:
            pats = Alignment.from_sequences(seq_dict(), alphabet).compress()
            assert pats.weights.sum() == 8
            assert pats.alphabet is alphabet

    def test_identical_columns_merge(self):
        # Columns 0-3 repeat as columns 4-7 except where sequences differ.
        for alphabet in ALPHABETS:
            aln = Alignment.from_sequences(
                {"a": "AAAA", "b": "CCCC", "c": "GGGG"}, alphabet
            )
            pats = aln.compress()
            assert pats.n_patterns == 1
            assert pats.weights[0] == 4

    def test_site_to_pattern_reconstructs_columns(self):
        for alphabet in ALPHABETS:
            aln = Alignment.from_sequences(seq_dict(), alphabet)
            pats = aln.compress()
            rebuilt = pats.patterns[:, pats.site_to_pattern]
            assert np.array_equal(rebuilt, aln.data)

    def test_expand_to_sites(self):
        pats = Alignment.from_sequences(seq_dict()).compress()
        per_pattern = np.arange(pats.n_patterns, dtype=float)
        per_site = pats.expand_to_sites(per_pattern)
        assert per_site.shape == (8,)

    def test_empty_alignment_cannot_compress(self):
        with pytest.raises(ValueError):
            Alignment(["a", "b"], np.ones((2, 0), dtype=np.uint8)).compress()

    def test_tip_partials_cached_and_readonly(self):
        pats = Alignment.from_sequences(seq_dict()).compress()
        rows1 = pats.tip_partials(0)
        rows2 = pats.tip_partials(0)
        assert rows1 is rows2
        with pytest.raises(ValueError):
            rows1[0, 0] = 9.0

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(ALPHABETS))
    def test_compression_preserves_information(self, seed, alphabet):
        rng = np.random.default_rng(seed)
        n_taxa, n_sites = 4, 30
        data = rng.choice([1, 2, 4, 8, 15], size=(n_taxa, n_sites)).astype(
            np.uint8
        )
        aln = Alignment([f"t{i}" for i in range(n_taxa)], data, alphabet)
        pats = aln.compress()
        assert pats.weights.sum() == n_sites
        assert np.array_equal(pats.patterns[:, pats.site_to_pattern], data)
        # patterns must be distinct columns
        cols = {tuple(pats.patterns[:, j]) for j in range(pats.n_patterns)}
        assert len(cols) == pats.n_patterns


class TestUniqueColumns:
    """``unique_columns`` is ``np.unique(..., axis=0)`` on the site
    columns, bit for bit: same patterns in the same lexicographic
    order (bootstrap weight draws and job digests follow it), same
    inverse, same counts."""

    @staticmethod
    def check(data):
        patterns, inverse, counts = np.unique(
            data.T, axis=0, return_inverse=True, return_counts=True)
        got_patterns, got_inverse, got_counts = unique_columns(data)
        assert np.array_equal(got_patterns, patterns.T)
        assert got_patterns.flags.c_contiguous
        assert np.array_equal(got_inverse, inverse.reshape(-1))
        assert got_inverse.dtype == np.intp
        assert np.array_equal(got_counts, counts)

    @pytest.mark.parametrize("n_codes", [5, 16, 23, 256])
    def test_matches_np_unique_for_1_to_70_taxa(self, n_codes):
        # 16 = DNA masks, 23 = protein codes, 5 = many duplicate columns,
        # 256 = every byte value (the high bit must not flip the order).
        rng = np.random.default_rng(n_codes)
        for n_taxa in range(1, 71):
            for n_sites in (1, 2, 37, 300):
                self.check(rng.integers(0, n_codes, size=(n_taxa, n_sites))
                           .astype(np.uint8))

    def test_single_site_and_all_identical_sites(self):
        self.check(np.array([[3], [200], [7]], dtype=np.uint8))
        for n_taxa in (1, 8, 9, 17):
            self.check(np.full((n_taxa, 50), 4, dtype=np.uint8))

    def test_order_is_decided_by_the_first_differing_taxon(self):
        # Columns equal on the first 8 taxa (one packed word), ordered
        # by the ninth; the zero padding of the last word never matters.
        data = np.ones((9, 3), dtype=np.uint8)
        data[8] = [9, 2, 5]
        patterns, inverse, _ = unique_columns(data)
        assert patterns[8].tolist() == [2, 5, 9]
        assert inverse.tolist() == [2, 0, 1]
        self.check(data)

    def test_compress_uses_it_for_dna_and_protein(self):
        rng = np.random.default_rng(1)
        seqs = {f"p{i}": "".join(rng.choice(list("ARNDCQEGHILKMFPSTWYV"), 60))
                for i in range(11)}
        aln = Alignment.from_sequences(seqs, AA)
        pats = aln.compress()
        patterns, inverse, counts = np.unique(
            aln.data.T, axis=0, return_inverse=True, return_counts=True)
        assert np.array_equal(pats.patterns, patterns.T)
        assert np.array_equal(pats.site_to_pattern, inverse.reshape(-1))
        assert np.array_equal(pats.weights, counts.astype(float))


class TestBootstrap:
    def test_weights_sum_preserved(self, patterns_per_alphabet, rng):
        for patterns in patterns_per_alphabet:
            weights = patterns.bootstrap_weights(rng)
            assert weights.sum() == patterns.n_sites

    def test_weights_nonnegative_integers(self, patterns_per_alphabet, rng):
        for patterns in patterns_per_alphabet:
            weights = patterns.bootstrap_weights(rng)
            assert (weights >= 0).all()
            assert np.array_equal(weights, np.round(weights))

    def test_replicates_differ(self, patterns_per_alphabet):
        for patterns in patterns_per_alphabet:
            r1 = patterns.bootstrap_weights(np.random.default_rng(1))
            r2 = patterns.bootstrap_weights(np.random.default_rng(2))
            assert not np.array_equal(r1, r2)

    def test_replicate_shares_pattern_matrix(self, patterns_per_alphabet, rng):
        for patterns in patterns_per_alphabet:
            rep = patterns.bootstrap_replicate(rng)
            assert rep.patterns is patterns.patterns
            assert rep.alphabet is patterns.alphabet
            assert rep._tip_partial_cache is patterns._tip_partial_cache
            assert rep is not patterns

    def test_with_weights_validates_sum(self, patterns_per_alphabet):
        for patterns in patterns_per_alphabet:
            bad = np.ones(patterns.n_patterns)
            with pytest.raises(ValueError, match="sum"):
                patterns.with_weights(bad)

    def test_expected_zero_fraction(self, patterns_per_alphabet):
        # Resampling n sites leaves ~1/e of unit-weight patterns unpicked.
        for patterns in patterns_per_alphabet:
            rng = np.random.default_rng(99)
            weights = patterns.bootstrap_weights(rng)
            assert (weights == 0).sum() > 0
