"""State alphabets, and the nucleotide one.

An :class:`Alphabet` is the value an alignment carries to say what its
characters mean: how each byte encodes to a state code, how a code
spells back, which states each code permits (the tip indicator rows the
likelihood kernels gather) and its state set as a parsimony bitmask.
One encode (:func:`encode_sequence`) and one decode
(:func:`decode_mask`) serve every alphabet.

DNA characters are encoded as 4-bit ambiguity masks over the state order
``A, C, G, T`` (bit 0 = A .. bit 3 = T), the same representation RAxML and
most ML codes use internally.  A fully determined base has exactly one bit
set; IUPAC ambiguity codes and gaps set several bits.  The mask of a tip
character directly yields its conditional-likelihood row: a 0/1 indicator
over the four states.  The amino-acid alphabet lives in
:mod:`repro.phylo.protein`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

__all__ = [
    "Alphabet",
    "DNA",
    "STATES",
    "NUM_STATES",
    "AMBIGUITY_CODES",
    "GAP_MASK",
    "encode_sequence",
    "decode_mask",
    "mask_matrix",
    "TIP_PARTIAL_ROWS",
]


@dataclass(frozen=True, eq=False)
class Alphabet:
    """A state space and the encoding of its characters.

    ``encode_table`` maps each byte to a state code, and a byte that
    is no character of the alphabet to an invalid one; ``decode_chars``
    spells code ``k`` as its ``k``-th character; ``code_table`` is the
    ``(n_codes, n_states)`` 0/1 indicator row of the states each code
    permits; ``bitmasks`` holds each code's state set as an integer for
    Fitch parsimony; ``noun`` names the characters in error messages.

    The valid codes are one range: from the first non-zero row of
    ``code_table`` (DNA's mask 0 is an all-zero row before it) to the
    end of the table, so checking a code matrix is one unsigned range
    test (:meth:`valid`).
    """

    states: str
    encode_table: np.ndarray
    decode_chars: str
    code_table: np.ndarray
    bitmasks: np.ndarray
    noun: str
    #: the first valid code, and code -> character byte (both derived)
    _first: int = field(init=False, repr=False)
    _spell: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_first",
                           int(self.code_table.any(axis=1).argmax()))
        object.__setattr__(self, "_spell", np.frombuffer(
            self.decode_chars.encode("ascii"), dtype=np.uint8))

    @property
    def n_states(self) -> int:
        return len(self.states)

    def valid(self, codes: np.ndarray) -> bool:
        """Whether every entry of a uint8 *codes* array is a code of
        this alphabet: one range test over the whole array, in which a
        code below the first valid one wraps around to the top."""
        return codes.size == 0 or int(
            (codes - np.uint8(self._first)).max()
        ) < len(self.code_table) - self._first


#: Canonical state order.  Index ``i`` of every likelihood vector refers to
#: ``STATES[i]``.
STATES = "ACGT"

#: Number of nucleotide states.
NUM_STATES = 4

#: Mask meaning "any state" (gap / unknown).
GAP_MASK = 0b1111

#: IUPAC nucleotide codes (plus gap characters) to 4-bit masks.
AMBIGUITY_CODES = {
    "A": 0b0001,
    "C": 0b0010,
    "G": 0b0100,
    "T": 0b1000,
    "U": 0b1000,  # RNA uracil treated as T
    "R": 0b0101,  # A or G (purine)
    "Y": 0b1010,  # C or T (pyrimidine)
    "S": 0b0110,  # G or C
    "W": 0b1001,  # A or T
    "K": 0b1100,  # G or T
    "M": 0b0011,  # A or C
    "B": 0b1110,  # not A
    "D": 0b1101,  # not C
    "H": 0b1011,  # not G
    "V": 0b0111,  # not T
    "N": GAP_MASK,
    "X": GAP_MASK,
    "?": GAP_MASK,
    "-": GAP_MASK,
    ".": GAP_MASK,
    "O": GAP_MASK,
}

# Build a 256-entry lookup table: byte value of (either-case) character to
# mask, with 0 marking invalid characters.
_CHAR_TO_MASK = np.zeros(256, dtype=np.uint8)
for _ch, _mask in AMBIGUITY_CODES.items():
    _CHAR_TO_MASK[ord(_ch)] = _mask
    _CHAR_TO_MASK[ord(_ch.lower())] = _mask

# Reverse table mask -> canonical character (most specific representation).
_MASK_TO_CHAR = ["?"] * 16
for _ch in "ACGTRYSWKMBDHVN":
    _MASK_TO_CHAR[AMBIGUITY_CODES[_ch]] = _ch
_MASK_TO_CHAR[0] = "!"  # invalid marker, never produced by encode

#: Precomputed (16, 4) matrix of tip conditional-likelihood rows: row ``m``
#: is the 0/1 indicator over states allowed by mask ``m``.  Row 0 (invalid)
#: is all zeros.
TIP_PARTIAL_ROWS = np.zeros((16, NUM_STATES), dtype=np.float64)
for _m in range(1, 16):
    for _i in range(NUM_STATES):
        if _m & (1 << _i):
            TIP_PARTIAL_ROWS[_m, _i] = 1.0
TIP_PARTIAL_ROWS.setflags(write=False)


#: The nucleotide alphabet: codes are the 4-bit masks themselves, so
#: they are also its parsimony bitmasks.
DNA = Alphabet(STATES, _CHAR_TO_MASK, "".join(_MASK_TO_CHAR),
               TIP_PARTIAL_ROWS, np.arange(16, dtype=np.uint8), "nucleotide")


def encode_sequence(sequence: str, alphabet: Alphabet = DNA) -> np.ndarray:
    """Encode a string into a ``uint8`` array of *alphabet*'s state codes
    (for DNA, 4-bit ambiguity masks): one table lookup per character.

    Raises ``ValueError`` naming the offenders if the sequence contains
    a character the alphabet has no code for.
    """
    return mask_matrix([sequence], alphabet)[0]


def _raise_invalid(rows: List[str], alphabet: Alphabet) -> None:
    """Raise the ``ValueError`` naming the first offending row's bad
    characters (its non-ASCII ones, else those with no code)."""
    for row in rows:
        if not row.isascii():
            bad = sorted({ch for ch in row if not ch.isascii()})
        else:
            bad = sorted(ch for ch in set(row) if not alphabet.valid(
                alphabet.encode_table[[ord(ch)]]))
        if bad:
            raise ValueError(f"invalid {alphabet.noun} characters: {bad!r}")


def decode_mask(masks: np.ndarray, alphabet: Alphabet = DNA) -> str:
    """Decode an array of state codes back to *alphabet*'s characters.

    Fully ambiguous DNA masks decode to ``N`` (the gap/unknown
    distinction is not preserved by the mask representation).
    """
    return alphabet._spell[np.asarray(masks, dtype=np.intp)].tobytes().decode()


def mask_matrix(sequences, alphabet: Alphabet = DNA) -> np.ndarray:
    """Encode an iterable of equal-length strings as a 2-D code matrix.

    Returns an array of shape ``(n_sequences, n_sites)``.  The rows are
    encoded together and checked once; only a matrix that fails is
    searched row by row for the characters to name.
    """
    rows = list(sequences)
    text = "".join(rows)
    if not text.isascii():
        _raise_invalid(rows, alphabet)
    codes = alphabet.encode_table[np.frombuffer(text.encode("ascii"),
                                                dtype=np.uint8)]
    if not alphabet.valid(codes):
        _raise_invalid(rows, alphabet)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("sequences have unequal lengths")
    return codes.reshape(len(rows), len(rows[0]) if rows else 0)
