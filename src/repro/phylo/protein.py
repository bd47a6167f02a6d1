"""Amino-acid (protein) sequence support.

The paper's opening line covers "multiple alignments of DNA or AA
sequences"; this module supplies the AA half: a 20-state alphabet with
IUPAC ambiguity codes, protein alignments with the same site-pattern
compression and bootstrap machinery as the DNA path, and reversible
20-state substitution models.

Because 20 states do not fit the DNA path's 4-bit mask representation,
tips are encoded as indices into a small *code table* (one indicator
row per distinct character) — the likelihood engine and kernels accept
any such table, so the entire engine (newview/evaluate/makenewz, Gamma
and CAT rates, scaling) works unchanged.

Shipped models:

* :func:`PoissonAA` — equal exchangeabilities (the 20-state analogue of
  Jukes-Cantor), optionally with empirical frequencies ("Poisson+F").
* :func:`protein_model` — any user-supplied 190-rate matrix, e.g. a
  WAG/JTT/LG parameter file (the published matrices are data files this
  offline reproduction does not embed; loading them is one call).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .alignment import (
    PatternAlignment,
    parse_fasta,
    parse_phylip,
    unique_columns,
)
from .models import SubstitutionModel

__all__ = [
    "AA_STATES",
    "AA_AMBIGUITY",
    "ProteinAlignment",
    "ProteinPatternAlignment",
    "PoissonAA",
    "protein_model",
    "encode_protein",
    "decode_protein",
]

#: Canonical amino-acid order (the standard one-letter alphabet order
#: used by PAML/RAxML matrices).
AA_STATES = "ARNDCQEGHILKMFPSTWYV"

#: IUPAC ambiguity codes: character -> set of allowed states.
AA_AMBIGUITY: Dict[str, str] = {
    "B": "ND",  # asparagine or aspartate
    "Z": "QE",  # glutamine or glutamate
    "J": "IL",  # isoleucine or leucine
    "X": AA_STATES,
    "?": AA_STATES,
    "-": AA_STATES,
    ".": AA_STATES,
    "*": AA_STATES,  # stop/unknown treated as missing
    "U": "C",  # selenocysteine folded into cysteine
    "O": "K",  # pyrrolysine folded into lysine
}

#: The full code alphabet: 20 plain states first, then ambiguity codes.
_CODE_CHARS: List[str] = list(AA_STATES) + list(AA_AMBIGUITY)
_CHAR_TO_CODE: Dict[str, int] = {c: i for i, c in enumerate(_CODE_CHARS)}

#: (n_codes, 20) indicator rows: row ``k`` marks the states code ``k``
#: permits.  This is the protein analogue of the DNA mask table.
AA_CODE_TABLE = np.zeros((len(_CODE_CHARS), len(AA_STATES)))
for _i, _aa in enumerate(AA_STATES):
    AA_CODE_TABLE[_i, _i] = 1.0
for _k, (_ch, _allowed) in enumerate(AA_AMBIGUITY.items(), start=len(AA_STATES)):
    for _aa in _allowed:
        AA_CODE_TABLE[_k, AA_STATES.index(_aa)] = 1.0
AA_CODE_TABLE.setflags(write=False)

#: 20-bit state-set masks per code (bit ``i`` = state ``AA_STATES[i]``):
#: the protein analogue of the DNA ambiguity masks, used by Fitch
#: parsimony (bitwise AND/OR work unchanged on wider integers).
AA_CODE_BITMASKS = (
    AA_CODE_TABLE.astype(np.uint32)
    * (np.uint32(1) << np.arange(len(AA_STATES), dtype=np.uint32))
).sum(axis=1).astype(np.uint32)
AA_CODE_BITMASKS.setflags(write=False)


def encode_protein(sequence: str) -> np.ndarray:
    """Encode an AA string into code indices (uint8)."""
    codes = np.empty(len(sequence), dtype=np.uint8)
    for i, ch in enumerate(sequence.upper()):
        code = _CHAR_TO_CODE.get(ch)
        if code is None:
            raise ValueError(f"invalid amino-acid character {ch!r}")
        codes[i] = code
    return codes


def decode_protein(codes: np.ndarray) -> str:
    """Decode code indices back to the one-letter alphabet."""
    return "".join(_CODE_CHARS[int(c)] for c in codes)


@dataclass
class ProteinAlignment:
    """A protein multiple sequence alignment (code-index matrix)."""

    taxa: List[str]
    data: np.ndarray  # (n_taxa, n_sites) of code indices

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.uint8)
        if self.data.ndim != 2:
            raise ValueError("alignment data must be 2-D (taxa x sites)")
        if len(self.taxa) != self.data.shape[0]:
            raise ValueError("taxon-name count does not match rows")
        if len(set(self.taxa)) != len(self.taxa):
            raise ValueError("duplicate taxon names")
        if self.data.size and (self.data >= len(_CODE_CHARS)).any():
            raise ValueError("invalid amino-acid codes in alignment")

    @classmethod
    def from_sequences(cls, named: Dict[str, str]) -> "ProteinAlignment":
        rows = [encode_protein(s) for s in named.values()]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("sequences have unequal lengths")
        return cls(list(named), np.vstack(rows) if rows else
                   np.zeros((0, 0), dtype=np.uint8))

    @classmethod
    def from_fasta(cls, text: str) -> "ProteinAlignment":
        return cls.from_sequences(parse_fasta(text))

    @classmethod
    def from_phylip(cls, text: str) -> "ProteinAlignment":
        return cls.from_sequences(parse_phylip(text))

    @property
    def n_taxa(self) -> int:
        return self.data.shape[0]

    @property
    def n_sites(self) -> int:
        return self.data.shape[1]

    def sequence(self, taxon: str) -> str:
        return decode_protein(self.data[self.taxa.index(taxon)])

    def to_fasta(self) -> str:
        out = io.StringIO()
        for i, name in enumerate(self.taxa):
            out.write(f">{name}\n{decode_protein(self.data[i])}\n")
        return out.getvalue()

    def base_frequencies(self) -> np.ndarray:
        """Empirical AA frequencies (ambiguity mass split uniformly)."""
        rows = AA_CODE_TABLE[self.data]
        per_char = rows / rows.sum(axis=-1, keepdims=True)
        freqs = per_char.sum(axis=(0, 1))
        total = freqs.sum()
        if total == 0:
            return np.full(len(AA_STATES), 1.0 / len(AA_STATES))
        return freqs / total

    def compress(self) -> "ProteinPatternAlignment":
        """Merge identical columns into weighted site patterns."""
        if self.n_sites == 0:
            raise ValueError("cannot compress an empty alignment")
        patterns, site_to_pattern, counts = unique_columns(self.data)
        return ProteinPatternAlignment(
            taxa=list(self.taxa),
            patterns=patterns,
            weights=counts.astype(np.float64),
            site_to_pattern=site_to_pattern,
            n_sites=self.n_sites,
        )


class ProteinPatternAlignment(PatternAlignment):
    """Pattern-compressed protein alignment (engine-compatible).

    Inherits the weighting/bootstrap machinery of the DNA
    :class:`~repro.phylo.alignment.PatternAlignment`; only the tip
    representation differs — ``patterns`` holds code indices and
    :attr:`tip_code_table` maps them to 20-state indicator rows.
    """

    def __post_init__(self) -> None:
        # Skip the DNA mask-range validation; codes index AA_CODE_TABLE.
        self.patterns = np.asarray(self.patterns, dtype=np.uint8)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.patterns.shape[1] != self.weights.shape[0]:
            raise ValueError("weights length must equal number of patterns")
        if (self.patterns >= len(_CODE_CHARS)).any():
            raise ValueError("invalid amino-acid codes")
        if self.weights.sum() and abs(self.weights.sum() - self.n_sites) > 1e-9:
            raise ValueError("pattern weights must sum to the site count")

    @property
    def tip_code_table(self) -> np.ndarray:
        return AA_CODE_TABLE

    def tip_partials(self, taxon_index: int) -> np.ndarray:
        cached = self._tip_partial_cache.get(taxon_index)
        if cached is None:
            cached = AA_CODE_TABLE[self.patterns[taxon_index]]
            cached.setflags(write=False)
            self._tip_partial_cache[taxon_index] = cached
        return cached

    def tip_is_unambiguous(self, taxon_index: int) -> bool:
        return bool((self.patterns[taxon_index] < len(AA_STATES)).all())

    def parsimony_masks(self, taxon_index: int) -> np.ndarray:
        """20-bit state-set masks for Fitch parsimony."""
        return AA_CODE_BITMASKS[self.patterns[taxon_index]]

    def base_frequencies(self) -> np.ndarray:
        rows = AA_CODE_TABLE[self.patterns]
        per_char = rows / rows.sum(axis=-1, keepdims=True)
        freqs = (per_char * self.weights[None, :, None]).sum(axis=(0, 1))
        total = freqs.sum()
        if total == 0:
            return np.full(len(AA_STATES), 1.0 / len(AA_STATES))
        return freqs / total

    def with_weights(self, weights: np.ndarray) -> "ProteinPatternAlignment":
        return ProteinPatternAlignment(
            taxa=self.taxa,
            patterns=self.patterns,
            weights=np.asarray(weights, dtype=np.float64),
            site_to_pattern=self.site_to_pattern,
            n_sites=self.n_sites,
            _tip_partial_cache=self._tip_partial_cache,
        )


def PoissonAA(frequencies: Optional[Sequence[float]] = None
              ) -> SubstitutionModel:
    """The Poisson amino-acid model: equal exchangeabilities.

    The 20-state analogue of Jukes-Cantor; with empirical
    ``frequencies`` this is the "Poisson+F" model.
    """
    n = len(AA_STATES)
    if frequencies is None:
        frequencies = (1.0 / n,) * n
    if len(frequencies) != n:
        raise ValueError("amino-acid models need 20 frequencies")
    return SubstitutionModel(
        (1.0,) * (n * (n - 1) // 2), tuple(frequencies), "PoissonAA"
    )


def protein_model(
    exchangeabilities: Sequence[float],
    frequencies: Sequence[float],
    name: str = "customAA",
) -> SubstitutionModel:
    """A reversible 20-state model from user-supplied parameters.

    ``exchangeabilities`` is the 190-entry upper triangle in
    :data:`AA_STATES` order (the layout of published WAG/JTT/LG files).
    """
    n = len(AA_STATES)
    if len(frequencies) != n:
        raise ValueError("amino-acid models need 20 frequencies")
    if len(exchangeabilities) != n * (n - 1) // 2:
        raise ValueError("amino-acid models need 190 exchangeabilities")
    return SubstitutionModel(
        tuple(exchangeabilities), tuple(frequencies), name
    )
