"""Multiple sequence alignments and site-pattern compression.

An :class:`Alignment` stores a set of equal-length sequences as a
``(n_taxa, n_sites)`` matrix of state codes over its
:class:`~repro.phylo.dna.Alphabet`: 4-bit ambiguity masks for
:data:`~repro.phylo.dna.DNA` (the default), code indices for the
amino-acid :data:`~repro.phylo.protein.AA`.  Every table a method
needs (encoding, tip rows, parsimony masks) comes from that alphabet,
so DNA and amino acids share one type.  Before likelihood
computation the alignment is *compressed*: identical columns (site
patterns) are merged and carry an integer weight.  This is the single most
important algorithmic optimization in any ML code — the ``42_SC`` dataset
of the paper has 1167 sites but only on the order of 250 distinct
patterns, so every likelihood loop shrinks by ~4.7x.

Bootstrap replicates are represented as new *weight vectors* over the same
patterns (resampling sites with replacement never creates new patterns),
exactly as RAxML implements non-parametric bootstrapping.
"""

from __future__ import annotations

import dataclasses
import io
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from .dna import DNA, Alphabet, decode_mask, mask_matrix
from .protein import AA

__all__ = [
    "Alignment",
    "AlignmentError",
    "PatternAlignment",
    "alphabet_for",
    "check_tip_codes",
    "unique_columns",
    "load_alignment_text",
    "parse_alignment",
    "parse_fasta",
    "parse_phylip",
]


class AlignmentError(ValueError):
    """A malformed alignment, with a stable machine-readable ``code``.

    Subclasses :class:`ValueError` so existing callers that catch the
    broad class keep working; the service layer catches this type at
    admission and maps ``code`` onto its HTTP error vocabulary.  Codes
    are part of the API surface — add, never rename.

    Known codes: ``empty``, ``empty_sequence``, ``length_mismatch``,
    ``illegal_character``, ``duplicate_taxon``, ``fasta_empty_name``,
    ``fasta_data_before_header``, ``phylip_header``,
    ``phylip_truncated``, ``phylip_line``, ``phylip_length``,
    ``code_out_of_table``, ``parse_error`` (the catch-all: a parser bug leaked an untyped
    exception and the hardened entry point contained it).
    """

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


def alphabet_for(n_states: int) -> Alphabet:
    """The alphabet of an ``n_states``-state model: DNA or amino acids."""
    for alphabet in (DNA, AA):
        if alphabet.n_states == n_states:
            return alphabet
    raise ValueError(f"no alphabet for a {n_states}-state model (4 = DNA, "
                     f"{AA.n_states} = amino acids)")


def check_tip_codes(patterns: np.ndarray, code_table: np.ndarray) -> None:
    """Reject a pattern matrix holding a state code outside *code_table*.
    Made once by whoever owns the matrix, so the kernels' per-call
    gathers need no bounds pass."""
    n_codes = len(code_table)
    if patterns.size and int(patterns.max()) >= n_codes:
        raise AlignmentError(
            "code_out_of_table",
            f"state code {int(patterns.max())} is outside the "
            f"{n_codes}-row tip code table")


def unique_columns(data: np.ndarray):
    """Distinct columns of a ``(n_taxa, n_sites)`` uint8 matrix.

    Returns ``(patterns, site_to_pattern, counts)`` exactly as
    ``np.unique(data.T, axis=0, return_inverse=True, return_counts=True)``
    would (patterns transposed back to ``(n_taxa, n_patterns)``), in the
    same lexicographic column order — pattern order feeds bootstrap
    weight draws and the job digest, so it must not move.  Instead of
    sorting sites as void records, each site is zero-padded to a
    multiple of 8 taxa and compared as big-endian ``uint64`` words
    (~10x faster at alignment sizes); the trailing pad is equal on every
    site and cannot reorder anything.
    """
    n_taxa, n_sites = data.shape
    padded = np.zeros((n_sites, -(-n_taxa // 8) * 8), dtype=np.uint8)
    padded[:, :n_taxa] = data.T
    words = padded.view(">u8").astype(np.uint64)
    if words.shape[1] == 1:
        order = np.argsort(words[:, 0], kind="stable")
    else:
        order = np.lexsort(words.T[::-1])  # lexsort's last key is primary
    ranked = words[order]
    first = np.ones(n_sites, dtype=bool)  # first site of each run of equals
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    site_to_pattern = np.empty(n_sites, dtype=np.intp)
    site_to_pattern[order] = np.cumsum(first) - 1
    counts = np.diff(np.append(starts, n_sites))
    patterns = np.ascontiguousarray(data[:, order[starts]])
    return patterns, site_to_pattern, counts


def _state_frequencies(alphabet: Alphabet, codes: np.ndarray,
                       weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Empirical state frequencies of a code matrix, each character (or
    pattern, by its weight) split uniformly over the states it permits;
    uniform when nothing is counted.  The result sums to 1."""
    rows = alphabet.code_table[codes]  # (taxa, columns, n_states)
    per_char = rows / rows.sum(axis=-1, keepdims=True)
    if weights is not None:
        per_char = per_char * weights[None, :, None]
    freqs = per_char.sum(axis=(0, 1))
    total = freqs.sum()
    if total == 0:
        return np.full(alphabet.n_states, 1.0 / alphabet.n_states)
    return freqs / total


@dataclass
class Alignment:
    """A multiple sequence alignment over an alphabet.

    Parameters
    ----------
    taxa:
        Taxon names, unique, in row order.
    data:
        ``(n_taxa, n_sites)`` uint8 matrix of *alphabet*'s state codes
        (for DNA, 4-bit ambiguity masks).
    alphabet:
        :data:`~repro.phylo.dna.DNA` or :data:`~repro.phylo.protein.AA`.
    """

    taxa: List[str]
    data: np.ndarray
    alphabet: Alphabet = DNA

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.uint8)
        if self.data.ndim != 2:
            raise ValueError("alignment data must be 2-D (taxa x sites)")
        if len(self.taxa) != self.data.shape[0]:
            raise ValueError(
                f"{len(self.taxa)} taxon names for {self.data.shape[0]} rows"
            )
        if len(set(self.taxa)) != len(self.taxa):
            raise ValueError("duplicate taxon names")
        if not self.alphabet.valid(self.data):
            raise ValueError("alignment contains invalid state masks")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_sequences(cls, named_sequences: Dict[str, str],
                       alphabet: Alphabet = DNA) -> "Alignment":
        """Build an alignment from a ``{name: sequence}`` mapping.

        :func:`~repro.phylo.dna.mask_matrix` checks every code once and
        a mapping's names are unique, so the constructor's checks,
        which would repeat that pass, are not run.
        """
        alignment = cls.__new__(cls)
        alignment.taxa = list(named_sequences)
        alignment.data = mask_matrix(named_sequences.values(), alphabet)
        alignment.alphabet = alphabet
        return alignment

    @classmethod
    def from_fasta(cls, source: Union[str, os.PathLike],
                   alphabet: Alphabet = DNA) -> "Alignment":
        """Read a FASTA file (path or raw text)."""
        text = _read_source(source)
        return cls.from_sequences(parse_fasta(text), alphabet)

    @classmethod
    def from_phylip(cls, source: Union[str, os.PathLike],
                    alphabet: Alphabet = DNA) -> "Alignment":
        """Read a sequential/relaxed PHYLIP file (path or raw text)."""
        text = _read_source(source)
        return cls.from_sequences(parse_phylip(text), alphabet)

    # -- basic properties --------------------------------------------------

    @property
    def n_taxa(self) -> int:
        return self.data.shape[0]

    @property
    def n_sites(self) -> int:
        return self.data.shape[1]

    def sequence(self, taxon: str) -> str:
        """Return the IUPAC string for *taxon*."""
        return decode_mask(self.data[self.taxa.index(taxon)], self.alphabet)

    # -- serialization -----------------------------------------------------

    def to_fasta(self) -> str:
        out = io.StringIO()
        for i, name in enumerate(self.taxa):
            out.write(f">{name}\n{decode_mask(self.data[i], self.alphabet)}\n")
        return out.getvalue()

    def to_phylip(self) -> str:
        out = io.StringIO()
        out.write(f"{self.n_taxa} {self.n_sites}\n")
        width = max((len(t) for t in self.taxa), default=0) + 2
        for i, name in enumerate(self.taxa):
            out.write(name.ljust(width)
                      + decode_mask(self.data[i], self.alphabet) + "\n")
        return out.getvalue()

    # -- analysis ----------------------------------------------------------

    def base_frequencies(self) -> np.ndarray:
        """Empirical state frequencies (ambiguity mass split uniformly).

        Each character contributes total weight 1, divided equally among the
        states its code permits, so a DNA gap/N adds 0.25 to every state.
        The result sums to 1.
        """
        return _state_frequencies(self.alphabet, self.data)

    def compress(self) -> "PatternAlignment":
        """Merge identical columns into weighted site patterns."""
        if self.n_sites == 0:
            raise ValueError("cannot compress an empty alignment")
        patterns, site_to_pattern, counts = unique_columns(self.data)
        return PatternAlignment(
            taxa=list(self.taxa),
            patterns=patterns,
            weights=counts.astype(np.float64),
            site_to_pattern=site_to_pattern,
            n_sites=self.n_sites,
            alphabet=self.alphabet,
        )


@dataclass
class PatternAlignment:
    """A pattern-compressed alignment ready for likelihood computation.

    Attributes
    ----------
    taxa:
        Taxon names in row order.
    patterns:
        ``(n_taxa, n_patterns)`` uint8 state-code matrix of distinct
        columns.
    weights:
        Per-pattern multiplicities (floats: bootstrap replicates re-weight).
    site_to_pattern:
        For each original site, the index of its pattern.
    n_sites:
        Length of the uncompressed alignment.
    alphabet:
        What the codes mean; the engine gathers tip rows from its
        ``code_table``.
    """

    taxa: List[str]
    patterns: np.ndarray
    weights: np.ndarray
    site_to_pattern: np.ndarray
    n_sites: int
    alphabet: Alphabet = DNA
    _tip_partial_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.patterns = np.asarray(self.patterns, dtype=np.uint8)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.patterns.shape[1] != self.weights.shape[0]:
            raise ValueError("weights length must equal number of patterns")
        if self.weights.sum() and abs(self.weights.sum() - self.n_sites) > 1e-9:
            # Bootstrap weight vectors must redistribute exactly n_sites.
            raise ValueError("pattern weights must sum to the site count")

    def __getstate__(self) -> dict:
        # The tip-partial memo is derived data: never ship it to a
        # cluster worker (or into a deep copy) with the alignment.
        return {**self.__dict__, "_tip_partial_cache": {}}

    @property
    def n_taxa(self) -> int:
        return self.patterns.shape[0]

    @property
    def n_patterns(self) -> int:
        return self.patterns.shape[1]

    def taxon_index(self, name: str) -> int:
        return self.taxa.index(name)

    def tip_partials(self, taxon_index: int) -> np.ndarray:
        """Tip conditional-likelihood rows, ``(n_patterns, n_states)``,
        cached."""
        cached = self._tip_partial_cache.get(taxon_index)
        if cached is None:
            cached = self.alphabet.code_table[self.patterns[taxon_index]]
            cached.setflags(write=False)
            self._tip_partial_cache[taxon_index] = cached
        return cached

    def parsimony_masks(self, taxon_index: int) -> np.ndarray:
        """Per-pattern state-set bitmasks for Fitch parsimony (for DNA
        the 4-bit ambiguity masks themselves, for amino acids 20-bit)."""
        return self.alphabet.bitmasks[self.patterns[taxon_index]]

    def base_frequencies(self) -> np.ndarray:
        """Empirical state frequencies honouring the pattern weights."""
        return _state_frequencies(self.alphabet, self.patterns, self.weights)

    def expand_to_sites(self, per_pattern: np.ndarray) -> np.ndarray:
        """Map a per-pattern vector back to per-site values."""
        return np.asarray(per_pattern)[..., self.site_to_pattern]

    # -- bootstrapping -----------------------------------------------------

    def bootstrap_weights(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a non-parametric bootstrap weight vector.

        Sites are resampled with replacement; the count of draws landing on
        each pattern becomes its new weight.  The result sums to
        ``n_sites`` and typically zeroes out 30-40 % of patterns (which is
        why the paper notes 10-20 % of columns effectively re-weighted).
        """
        probabilities = self.weights / self.weights.sum()
        return rng.multinomial(self.n_sites, probabilities).astype(np.float64)

    def with_weights(self, weights: np.ndarray) -> "PatternAlignment":
        """A view of this alignment carrying different pattern weights."""
        return dataclasses.replace(self, weights=weights)

    def bootstrap_replicate(self, rng: np.random.Generator) -> "PatternAlignment":
        """Convenience: a replicate alignment with bootstrap weights."""
        return self.with_weights(self.bootstrap_weights(rng))


# -- parsers ---------------------------------------------------------------


def parse_fasta(text: str) -> Dict[str, str]:
    """Parse FASTA text into an ordered ``{name: sequence}`` mapping."""
    sequences: Dict[str, str] = {}
    name: Optional[str] = None
    chunks: List[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                sequences[name] = "".join(chunks)
            name = line[1:].split()[0] if len(line) > 1 else ""
            if not name:
                raise AlignmentError("fasta_empty_name",
                                     "FASTA record with empty name")
            if name in sequences:
                raise AlignmentError("duplicate_taxon",
                                     f"duplicate FASTA record {name!r}")
            chunks = []
        else:
            if name is None:
                raise AlignmentError("fasta_data_before_header",
                                     "FASTA sequence data before first header")
            chunks.append(line)
    if name is not None:
        sequences[name] = "".join(chunks)
    if not sequences:
        raise AlignmentError("empty", "no FASTA records found")
    return sequences


def parse_phylip(text: str) -> Dict[str, str]:
    """Parse sequential relaxed-PHYLIP text (name, whitespace, sequence)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise AlignmentError("empty", "empty PHYLIP input")
    header = lines[0].split()
    if len(header) != 2:
        raise AlignmentError("phylip_header",
                             "PHYLIP header must be 'n_taxa n_sites'")
    try:
        n_taxa, n_sites = int(header[0]), int(header[1])
    except ValueError:
        raise AlignmentError(
            "phylip_header",
            f"non-numeric PHYLIP header: {lines[0].strip()!r}"
        ) from None
    if n_taxa < 1 or n_sites < 1:
        raise AlignmentError(
            "phylip_header",
            f"PHYLIP header counts must be positive, got {n_taxa} {n_sites}"
        )
    if len(lines) - 1 < n_taxa:
        raise AlignmentError(
            "phylip_truncated",
            f"expected {n_taxa} sequence lines, got {len(lines) - 1}"
        )
    sequences: Dict[str, str] = {}
    for line in lines[1 : 1 + n_taxa]:
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise AlignmentError("phylip_line",
                                 f"malformed PHYLIP line: {line!r}")
        name, seq = parts[0], parts[1].replace(" ", "")
        if len(seq) != n_sites:
            raise AlignmentError(
                "phylip_length",
                f"taxon {name!r} has {len(seq)} sites, header says {n_sites}"
            )
        if name in sequences:
            raise AlignmentError("duplicate_taxon",
                                 f"duplicate taxon {name!r}")
        sequences[name] = seq
    return sequences


def parse_alignment(text: str, alphabet: Alphabet = DNA) -> "Alignment":
    """Hardened parse entry point for untrusted alignment text.

    Detects the format (FASTA when the first non-blank character is
    ``>``, PHYLIP otherwise), validates shape invariants the individual
    parsers leave to downstream code (equal, non-zero sequence
    lengths), and guarantees that *every* failure surfaces as a typed
    :class:`AlignmentError` — a ``ValueError``/``KeyError``/
    ``IndexError`` leaking from a parser bug is contained as the
    ``parse_error`` code rather than crashing an admission path.

    ``alphabet`` says what the characters mean (DNA by default; pass
    :data:`~repro.phylo.protein.AA` for amino-acid data).
    """
    try:
        if not isinstance(text, str) or not text.strip():
            raise AlignmentError("empty", "empty alignment input")
        if text.lstrip().startswith(">"):
            sequences = parse_fasta(text)
        else:
            sequences = parse_phylip(text)
        lengths = {name: len(seq) for name, seq in sequences.items()}
        empties = [name for name, n in lengths.items() if n == 0]
        if empties:
            raise AlignmentError(
                "empty_sequence",
                f"zero-length sequence for taxa {empties!r}"
            )
        if len(set(lengths.values())) > 1:
            raise AlignmentError(
                "length_mismatch",
                f"sequences have unequal lengths: {sorted(set(lengths.values()))}"
            )
        return Alignment.from_sequences(sequences, alphabet)
    except AlignmentError:
        raise
    except (ValueError, KeyError, IndexError) as exc:
        message = str(exc)
        if "character" in message or "invalid state masks" in message:
            raise AlignmentError("illegal_character", message) from exc
        if "unequal lengths" in message:
            raise AlignmentError("length_mismatch", message) from exc
        if "duplicate" in message:
            raise AlignmentError("duplicate_taxon", message) from exc
        raise AlignmentError("parse_error", message or repr(exc)) from exc


def load_alignment_text(text: str, aa: bool = False) -> "Alignment":
    """Parse FASTA/PHYLIP *text* as DNA, or as amino acids with *aa*.

    The one loader of every command, job and submission: it goes
    through :func:`parse_alignment`, so a malformed input surfaces as
    a typed :class:`AlignmentError` with a stable ``code``.
    """
    return parse_alignment(text, AA if aa else DNA)


def _read_source(source: Union[str, os.PathLike]) -> str:
    """Return file contents if *source* is a path, else *source* itself."""
    if isinstance(source, os.PathLike):
        with open(source) as fh:
            return fh.read()
    if "\n" not in source and os.path.exists(source):
        with open(source) as fh:
            return fh.read()
    return source
