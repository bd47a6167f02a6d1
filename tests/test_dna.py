"""Tests for nucleotide encoding (repro.phylo.dna)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.phylo import dna


class TestEncodeSequence:
    def test_plain_bases(self):
        masks = dna.encode_sequence("ACGT")
        assert list(masks) == [1, 2, 4, 8]

    def test_lowercase_accepted(self):
        assert list(dna.encode_sequence("acgt")) == [1, 2, 4, 8]

    def test_rna_uracil_maps_to_t(self):
        assert dna.encode_sequence("U")[0] == dna.encode_sequence("T")[0]

    def test_gap_and_unknown_are_full_masks(self):
        for ch in "-?NX.":
            assert dna.encode_sequence(ch)[0] == dna.GAP_MASK

    def test_ambiguity_codes_have_expected_popcount(self):
        popcounts = {
            "R": 2, "Y": 2, "S": 2, "W": 2, "K": 2, "M": 2,
            "B": 3, "D": 3, "H": 3, "V": 3, "N": 4,
        }
        for ch, expected in popcounts.items():
            mask = int(dna.encode_sequence(ch)[0])
            assert bin(mask).count("1") == expected, ch

    def test_invalid_character_raises_with_offender(self):
        with pytest.raises(ValueError, match="Z"):
            dna.encode_sequence("ACZGT")

    def test_empty_sequence(self):
        assert dna.encode_sequence("").shape == (0,)

    def test_non_ascii_rejected(self):
        with pytest.raises(ValueError):
            dna.encode_sequence("ACéT")


class TestDecodeMask:
    def test_round_trip_of_canonical_codes(self):
        text = "ACGTRYSWKMBDHVN"
        assert dna.decode_mask(dna.encode_sequence(text)) == text

    def test_gap_decodes_to_n(self):
        assert dna.decode_mask(dna.encode_sequence("-")) == "N"

    @given(st.text(alphabet="ACGTRYSWKMBDHVN", max_size=200))
    def test_round_trip_property(self, text):
        assert dna.decode_mask(dna.encode_sequence(text)) == text

    def test_every_mask_value_and_the_invalid_marker(self):
        # The table form of decode, against the mapping spelled out.
        spelled = {0: "!", **{dna.AMBIGUITY_CODES[c]: c
                              for c in "ACGTRYSWKMBDHVN"}}
        masks = np.arange(16, dtype=np.uint8)
        assert dna.decode_mask(masks) == "".join(spelled[m] for m in range(16))
        assert dna.decode_mask([1, 0, 15]) == "A!N"
        assert dna.decode_mask(np.zeros(0, dtype=np.uint8)) == ""
        with pytest.raises(IndexError):
            dna.decode_mask(np.array([16], dtype=np.uint8))


class TestValidation:
    def test_mask_matrix_equal_lengths(self):
        matrix = dna.mask_matrix(["ACGT", "TGCA"])
        assert matrix.shape == (2, 4)

    def test_mask_matrix_unequal_lengths_raises(self):
        with pytest.raises(ValueError, match="unequal"):
            dna.mask_matrix(["ACGT", "ACG"])

    def test_mask_matrix_empty(self):
        assert dna.mask_matrix([]).shape == (0, 0)


class TestTipPartials:
    def test_plain_base_is_unit_indicator(self):
        rows = dna.DNA.code_table[dna.encode_sequence("ACGT")]
        assert np.array_equal(rows, np.eye(4))

    def test_gap_allows_everything(self):
        rows = dna.DNA.code_table[dna.encode_sequence("N")]
        assert np.array_equal(rows[0], np.ones(4))

    def test_purine_mask(self):
        rows = dna.DNA.code_table[dna.encode_sequence("R")]
        assert np.array_equal(rows[0], [1.0, 0.0, 1.0, 0.0])

    def test_rows_match_mask_bits(self):
        for mask in range(1, 16):
            row = dna.TIP_PARTIAL_ROWS[mask]
            for state in range(4):
                assert row[state] == (1.0 if mask & (1 << state) else 0.0)

    def test_table_is_readonly(self):
        with pytest.raises(ValueError):
            dna.TIP_PARTIAL_ROWS[3, 2] = 5.0
